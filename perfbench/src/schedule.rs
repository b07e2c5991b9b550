//! Seeded open-loop arrival schedules and dispatcher lag accounting.

use std::time::{Duration, Instant};

use hebs_imaging::rng::StdRng;

/// The arrival process of one tenant: a steady rate with one burst window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRate {
    /// Arrivals per second outside the burst window.
    pub steady_hz: f64,
    /// Arrivals per second inside the burst window.
    pub burst_hz: f64,
    /// Each gap is the nominal period scaled by a uniform factor in
    /// `[1 − jitter, 1 + jitter]` (0 gives a fixed-rate clock).
    pub jitter: f64,
}

/// When the burst runs, as fractions of the schedule's duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Start of the burst window.
    pub from: f64,
    /// End of the burst window.
    pub until: f64,
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset of the due time from the start of the schedule.
    pub due: Duration,
    /// Index of the tenant in the rate table.
    pub tenant: usize,
    /// Running arrival count of that tenant (0, 1, …).
    pub index: usize,
}

/// Builds the merged arrival schedule of `tenants` over `duration`: every
/// tenant starts at a seeded phase within its first period, and arrivals
/// are sorted by due time (ties in tenant order). The same seed always
/// gives the same schedule.
pub fn open_loop(
    seed: u64,
    duration: Duration,
    burst: Burst,
    tenants: &[TenantRate],
) -> Vec<Arrival> {
    let total = duration.as_secs_f64();
    let mut arrivals = Vec::new();
    for (tenant, rate) in tenants.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tenant as u64 + 1)),
        );
        let in_burst = |t: f64| t >= burst.from * total && t < burst.until * total;
        let period = |t: f64| {
            1.0 / if in_burst(t) {
                rate.burst_hz
            } else {
                rate.steady_hz
            }
        };
        let mut t = rng.next_f64() * period(0.0);
        let mut index = 0;
        while t < total {
            arrivals.push(Arrival {
                due: Duration::from_secs_f64(t),
                tenant,
                index,
            });
            index += 1;
            let scale = 1.0 + rate.jitter * (2.0 * rng.next_f64() - 1.0);
            t += period(t) * scale;
        }
    }
    arrivals.sort_by_key(|arrival| (arrival.due, arrival.tenant));
    arrivals
}

/// Timer sleeps overshoot by tens to hundreds of microseconds; the last
/// stretch before a due time is spent yielding instead.
const SPIN: Duration = Duration::from_micros(500);

/// Returns at `due` (or at once when it has passed): sleeps until shortly
/// before it, then yields the CPU in a loop, so arrivals leave on time to
/// within a few microseconds when a core is free.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// How late a dispatcher ran: for each arrival, the time it was actually
/// handed on minus its due time, floored at zero (an early hand-off is on
/// time, not negatively late).
#[derive(Debug, Clone, Default)]
pub struct LagRecorder {
    lags: Vec<Duration>,
}

impl LagRecorder {
    /// Records one hand-off; both times are offsets from the schedule start.
    pub fn record(&mut self, due: Duration, sent: Duration) {
        self.lags.push(sent.saturating_sub(due));
    }

    /// Pools several recorders (one per client thread).
    pub fn merge(recorders: impl IntoIterator<Item = LagRecorder>) -> LagRecorder {
        LagRecorder {
            lags: recorders.into_iter().flat_map(|r| r.lags).collect(),
        }
    }

    /// The lags in microseconds.
    pub fn micros(&self) -> Vec<f64> {
        self.lags
            .iter()
            .map(|lag| lag.as_secs_f64() * 1e6)
            .collect()
    }
}
