//! What every workload shares: the per-arrival record, the output check,
//! counter reconciliation and the end-to-end metrics.

use std::time::{Duration, Instant};

use hebs_perfbench::report::Metric;
use hebs_perfbench::schedule::LagRecorder;
use hebs_perfbench::stats::{self, Quantile};
use hebs_perfbench::trace::Span;
use hebs_runtime::{EngineStats, FrameResult};
use hebs_transform::LookupTable;

/// Set-up runs once untimed (first-touch page faults, lazily built
/// tables), then this many timed times per run; the median is reported.
pub const SETUP_REPEATS: usize = 9;

/// A post-serve stall longer than this is a rebuild: nothing else the
/// engine does after its clock stops comes within two orders of it.
pub const REBUILD_STALL: Duration = Duration::from_millis(5);

/// How a frame was served, as far as the outside can tell.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Engine-reported serve latency (excludes post-serve work).
    pub latency: Duration,
    /// Whether the cache served the frame.
    pub hit: bool,
    /// Measured distortion of the displayed frame.
    pub distortion: f64,
    /// Fractional backlight power saving.
    pub power_saving: f64,
    /// Backlight factor.
    pub beta: f64,
    /// Target dynamic range of the fit.
    pub dynamic_range: Option<u32>,
    /// Fit evaluations the serve performed (0 on a replay).
    pub fit_evaluations: u32,
    /// The programmed driver LUT.
    pub lut: LookupTable,
}

impl Outcome {
    /// Keeps what the checks and the replay need, and drops the displayed
    /// frame.
    pub fn of(result: &FrameResult) -> Self {
        let outcome = &result.outcome;
        Outcome {
            latency: result.latency,
            hit: result.cache_hit,
            distortion: outcome.distortion,
            power_saving: outcome.power_saving,
            beta: outcome.beta,
            dynamic_range: outcome.dynamic_range,
            fit_evaluations: outcome.fit_evaluations,
            lut: outcome.lut.clone(),
        }
    }
}

/// The fate of one arrival.
#[derive(Debug, Clone)]
pub enum Fate {
    /// Served; the outcome still has to pass the output check.
    Served(Outcome),
    /// The runtime returned an error.
    Failed(String),
    /// Admission control refused the arrival.
    Shed,
}

/// One arrival as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Arrival id (the span frame id).
    pub id: u64,
    /// Tenant index (0 outside multi-tenant serving).
    pub tenant: usize,
    /// Index of the input frame in its tenant's frame set.
    pub source: usize,
    /// The distortion budget the frame was served under.
    pub budget: f64,
    /// The user-facing latency the workload reports for this frame.
    pub e2e: Duration,
    /// From due time to the start of the serve.
    pub queue_wait: Duration,
    /// Time spent in the runtime call after the engine stopped its clock.
    pub post_serve: Duration,
    /// What happened.
    pub fate: Fate,
}

impl Record {
    /// The served outcome, if any.
    pub fn outcome(&self) -> Option<&Outcome> {
        match &self.fate {
            Fate::Served(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// `after − before` of the cumulative counters.
pub fn stats_delta(before: &EngineStats, after: &EngineStats) -> EngineStats {
    EngineStats {
        frames: after.frames - before.frames,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_coalesced: after.cache_coalesced - before.cache_coalesced,
        cache_rejected: after.cache_rejected - before.cache_rejected,
        cache_bytes: after.cache_bytes,
        fit_evaluations: after.fit_evaluations - before.fit_evaluations,
        open_loop_fallbacks: after.open_loop_fallbacks - before.open_loop_fallbacks,
        recharacterizations: after.recharacterizations - before.recharacterizations,
        deadline_degraded: after.deadline_degraded - before.deadline_degraded,
        sheds: after.sheds - before.sheds,
        poison_recoveries: after.poison_recoveries - before.poison_recoveries,
        snapshot_rejected: after.snapshot_rejected - before.snapshot_rejected,
        queue_depth: after.queue_depth,
        busy: after.busy.saturating_sub(before.busy),
    }
}

/// One timed phase of a workload.
pub struct Phase {
    /// Every arrival of the phase, in any order.
    pub records: Vec<Record>,
    /// From the first arrival's due time to the last completion.
    pub wall: Duration,
    /// Counter deltas per tenant (index-aligned with `Record::tenant`).
    pub stats: Vec<EngineStats>,
    /// Resident cache bytes at the end of the phase.
    pub cache_bytes: u64,
    /// How late the load generator handed frames on.
    pub lags: LagRecorder,
    /// Spans recorded during the phase (empty when untraced).
    pub spans: Vec<Span>,
    /// Where each of the phase's back-to-back sessions ends in `records`
    /// (exclusive index), for workloads that record in time order; empty
    /// where the whole phase is one session. See [`quietest_median`].
    pub sessions: Vec<usize>,
}

/// The median latency of the phase's quietest session, or of the whole
/// phase where it has no sessions.
///
/// A shared virtual machine has stretches, from a fraction of a second to
/// minutes, in which every thread runs slower: on a 2-vCPU Xeon guest a
/// fixed arithmetic loop read 40 ms a round outside them and up to 67 ms
/// inside. Such stretches can only add time. Which share of a run they
/// cover is chance, and the run's median jumps to the slow mode once they
/// cover about half of it, so the pooled median of one seed moved between
/// 30 and 44 ms on `photo_closed`. The sessions of a phase serve the same
/// kind of frames, so a change of the program moves every session's
/// median alike, and the lowest of them is the median with the least of
/// the host in it. The tail and the throughput stay pooled.
pub fn quietest_median(phase: &Phase) -> f64 {
    let mut from = 0;
    phase
        .sessions
        .iter()
        .filter_map(|&to| {
            let latencies = e2e_micros(&phase.records[from..to]);
            from = to;
            (!latencies.is_empty()).then(|| stats::median(&latencies))
        })
        .min_by(f64::total_cmp)
        .unwrap_or_else(|| stats::median(&e2e_micros(&phase.records)))
}

/// The output check and the counter reconciliation of one phase.
pub struct Checked {
    /// Arrivals.
    pub attempted: u64,
    /// Errors plus served frames over their budget that were not counted
    /// as deadline-degraded.
    pub failed: u64,
}

/// Checks every served outcome against its budget and reconciles the
/// benchmark's own counts with the engines' counters. A reconciliation
/// mismatch is an error: the run's numbers cannot be trusted.
pub fn check(phase: &Phase) -> Result<Checked, String> {
    let tenants = phase.stats.len();
    let mut over = vec![0u64; tenants];
    let mut served = vec![0u64; tenants];
    let mut hits = vec![0u64; tenants];
    let mut errors = vec![0u64; tenants];
    let mut sheds = vec![0u64; tenants];
    for record in &phase.records {
        let t = record.tenant;
        match &record.fate {
            Fate::Served(outcome) => {
                served[t] += 1;
                hits[t] += u64::from(outcome.hit);
                if outcome.distortion.is_nan() || outcome.distortion > record.budget {
                    over[t] += 1;
                }
            }
            Fate::Failed(err) => {
                if errors.iter().all(|&count| count == 0) {
                    eprintln!("first serve error (tenant {t}): {err}");
                }
                errors[t] += 1;
            }
            Fate::Shed => sheds[t] += 1,
        }
    }
    let mut failed = 0;
    for (t, stats) in phase.stats.iter().enumerate() {
        let frames = served[t] + errors[t];
        let reconcile = [
            (
                "hits + misses = frames",
                stats.cache_hits + stats.cache_misses,
                stats.frames,
            ),
            ("engine frames = frames served", stats.frames, frames),
            ("engine hits = hits served", stats.cache_hits, hits[t]),
            (
                "served + sheds = arrivals",
                frames + stats.sheds,
                frames + sheds[t],
            ),
        ];
        for (rule, left, right) in reconcile {
            if left != right {
                return Err(format!(
                    "counter reconciliation failed for tenant {t}: {rule} ({left} != {right})"
                ));
            }
        }
        failed += errors[t] + over[t].saturating_sub(stats.deadline_degraded);
    }
    Ok(Checked {
        attempted: phase.records.len() as u64,
        failed,
    })
}

/// A memory figure of this process from `/proc/self/status` (`VmHWM`,
/// `VmRSS`), in MiB; 0 where the kernel does not report it.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix(field)?.strip_prefix(':')?;
                kib.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the peak-RSS mark to the current resident size and returns that
/// size, so that [`peak_rss_above`] counts the runtime's own memory and
/// not the inputs built before it or their synthesis.
pub fn reset_peak_rss() -> f64 {
    // Writing 5 to clear_refs resets VmHWM. Where the kernel refuses, the
    // mark keeps input synthesis's peak, which sits only a few MiB above
    // the finished inputs the base already subtracts.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mib("VmRSS")
}

/// Peak resident memory since [`reset_peak_rss`] returned `base`, above it.
pub fn peak_rss_above(base: f64) -> f64 {
    status_mib("VmHWM") - base
}

/// User-facing latencies of the served frames, in microseconds.
pub fn e2e_micros(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter(|record| record.outcome().is_some())
        .map(|record| record.e2e.as_secs_f64() * 1e6)
        .collect()
}

/// An empty record buffer with room for `capacity` records whose memory
/// is already resident. Reserved before [`repeat_setup`] resets the
/// peak-memory mark, it keeps the benchmark's own records out of
/// `peak_rss_mib`: left to grow, they were most of what a `video_1080p`
/// run added to the mark after set-up (about 15 000 records of a few
/// hundred bytes), and where they landed in the allocator's free memory
/// moved the metric between 6.4 and 9.0 MiB from run to run.
pub fn resident_records(capacity: usize) -> Vec<Record> {
    let placeholder = Record {
        id: 0,
        tenant: 0,
        source: 0,
        budget: 0.0,
        e2e: Duration::ZERO,
        queue_wait: Duration::ZERO,
        post_serve: Duration::ZERO,
        fate: Fate::Shed,
    };
    let mut records = vec![placeholder; capacity];
    records.clear();
    records
}

/// What the repeated set-up measured.
pub struct SetUp {
    /// Seconds of each timed set-up.
    pub times: Vec<f64>,
    /// Resident memory (MiB) once the inputs were built, before set-up.
    pub rss_base: f64,
}

/// Runs `setup` once untimed, then times it [`SETUP_REPEATS`] times, and
/// keeps the last product. Call it right after the inputs are built: the
/// peak-memory mark is reset first.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, SetUp), String> {
    let rss_base = reset_peak_rss();
    let mut last = setup()?;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let product = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = product;
    }
    Ok((last, SetUp { times, rss_base }))
}

/// What a run reports.
pub struct Finished {
    /// Arrivals attempted.
    pub attempted: u64,
    /// Arrivals that failed the output check.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
}

/// Checks an untraced phase and computes its end-to-end metrics.
pub fn finish_end_to_end(
    workload: &str,
    phase: &Phase,
    setup: &SetUp,
    deadlines: &[Duration],
) -> Result<Finished, String> {
    let checked = check(phase)?;
    Ok(Finished {
        attempted: checked.attempted,
        failed: checked.failed,
        metrics: end_to_end(workload, phase, &checked, setup, deadlines),
    })
}

/// The end-to-end metrics of an untraced phase. `deadlines` holds each
/// tenant's per-frame latency limit.
fn end_to_end(
    workload: &str,
    phase: &Phase,
    checked: &Checked,
    setup: &SetUp,
    deadlines: &[Duration],
) -> Vec<Metric> {
    let latencies = e2e_micros(&phase.records);
    let p99 = stats::percentile(&latencies, 990);
    if phase.sessions.len() > 1 {
        eprintln!(
            "{workload}: serve_p50 of the quietest of {} sessions; pooled median {:.0} us",
            phase.sessions.len(),
            stats::median(&latencies)
        );
    }
    if let Some(p99) = p99 {
        report_tail(workload, &p99);
    }
    for (tenant, counters) in phase.stats.iter().enumerate() {
        let own: Vec<Record> = phase
            .records
            .iter()
            .filter(|r| r.tenant == tenant)
            .cloned()
            .collect();
        let arrivals = own.len();
        let stalls = own.iter().filter(|r| r.post_serve > REBUILD_STALL).count();
        let own = e2e_micros(&own);
        eprintln!(
            "{workload}: tenant {tenant}: {arrivals} arrivals, {} served, {} shed, \
             {stalls} rebuild stalls ({} swapped), p50 {:.0} us, p99 {:.0} us",
            own.len(),
            counters.sheds,
            counters.recharacterizations,
            stats::median(&own),
            stats::percentile(&own, 990).map_or(0.0, |q| q.value)
        );
    }
    let lags = phase.lags.micros();
    eprintln!(
        "{workload}: load generator lag p50 {:.0} us, p99 {:.0} us",
        stats::median(&lags),
        stats::percentile(&lags, 990).map_or(0.0, |q| q.value)
    );
    let savings: Vec<f64> = phase
        .records
        .iter()
        .filter_map(|record| record.outcome().map(|o| o.power_saving * 100.0))
        .collect();
    let on_time = phase
        .records
        .iter()
        .filter(|record| record.outcome().is_some() && record.e2e <= deadlines[record.tenant])
        .count();
    let attempted = checked.attempted.max(1) as f64;
    vec![
        Metric::new(
            "throughput_fps",
            latencies.len() as f64 / phase.wall.as_secs_f64().max(1e-9),
            "fps",
        ),
        Metric::new("serve_p50_us", quietest_median(phase), "us"),
        Metric::new("serve_p99_us", p99.map_or(0.0, |q| q.value), "us"),
        Metric::new("power_saving_pct", stats::mean(&savings), "%"),
        Metric::new(
            "served_ok_pct",
            100.0 * (checked.attempted - checked.failed) as f64 / attempted,
            "%",
        ),
        Metric::new("deadline_met_pct", 100.0 * on_time as f64 / attempted, "%"),
        Metric::new("setup_s", stats::median(&setup.times), "s"),
        Metric::new("peak_rss_mib", peak_rss_above(setup.rss_base), "MiB"),
    ]
}

/// States the tail percentile with its sample count on stderr, and warns
/// when fewer than ten samples lie beyond it.
fn report_tail(workload: &str, p99: &Quantile) {
    eprintln!(
        "{workload}: serve_p99 over {} samples, {} beyond it",
        p99.samples, p99.beyond
    );
    if !p99.supported() {
        eprintln!(
            "{workload}: warning: fewer than {} samples beyond p99; the tail is an anecdote",
            stats::MIN_BEYOND
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(latencies_ms: &[u64], sessions: Vec<usize>) -> Phase {
        let records = latencies_ms
            .iter()
            .enumerate()
            .map(|(k, &ms)| Record {
                id: k as u64,
                tenant: 0,
                source: k,
                budget: 0.1,
                e2e: Duration::from_millis(ms),
                queue_wait: Duration::ZERO,
                post_serve: Duration::ZERO,
                fate: Fate::Served(Outcome {
                    latency: Duration::from_millis(ms),
                    hit: false,
                    distortion: 0.0,
                    power_saving: 0.0,
                    beta: 1.0,
                    dynamic_range: None,
                    fit_evaluations: 0,
                    lut: LookupTable::identity(),
                }),
            })
            .collect();
        Phase {
            records,
            wall: Duration::from_secs(1),
            stats: Vec::new(),
            cache_bytes: 0,
            lags: LagRecorder::default(),
            spans: Vec::new(),
            sessions,
        }
    }

    #[test]
    fn the_median_is_the_quietest_sessions() {
        // A slow session, a quiet one, and a trailing empty one.
        let slow_then_quiet = phase(&[50, 48, 52, 30, 31, 29], vec![3, 6, 6]);
        assert_eq!(quietest_median(&slow_then_quiet), 30_000.0);
    }

    #[test]
    fn without_sessions_the_median_is_pooled() {
        assert_eq!(
            quietest_median(&phase(&[50, 48, 52, 30, 31, 29], Vec::new())),
            31_000.0
        );
    }
}
