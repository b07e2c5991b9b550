//! Throughput, latency and cache statistics for the serving engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How one frame was served relative to the transformation cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServeKind {
    /// The cache is disabled; nothing to count.
    Uncached,
    /// Served from a cached fit found by the first probe.
    Hit,
    /// The first probe missed, but another worker's concurrent fit for the
    /// same key served this frame after a single-flight wait.
    CoalescedHit,
    /// Served by running the full fit (including fits that failed).
    Miss,
}

impl ServeKind {
    /// Whether the frame was served from the cache.
    pub(crate) fn is_hit(self) -> bool {
        matches!(self, ServeKind::Hit | ServeKind::CoalescedHit)
    }
}

/// Cumulative counters shared by all workers of an engine.
///
/// All increments and snapshot loads are `Relaxed`: each counter is an
/// independent monotonic tally, nothing is published through them, and a
/// snapshot is advisory — it never gates a control decision.
#[derive(Debug, Default)]
pub(crate) struct StatsCollector {
    frames: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_coalesced: AtomicU64,
    cache_rejected: AtomicU64,
    fit_evaluations: AtomicU64,
    open_loop_fallbacks: AtomicU64,
    recharacterizations: AtomicU64,
    deadline_degraded: AtomicU64,
    sheds: AtomicU64,
    poison_recoveries: AtomicU64,
    snapshot_rejected: AtomicU64,
    busy_nanos: AtomicU64,
}

impl StatsCollector {
    pub(crate) fn record_frame(
        &self,
        latency: Duration,
        kind: ServeKind,
        rejections: u64,
        fit_evaluations: u64,
        open_loop_fallback: bool,
        deadline_degraded: bool,
    ) {
        self.frames.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        self.busy_nanos
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        if fit_evaluations > 0 {
            self.fit_evaluations
                .fetch_add(fit_evaluations, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        }
        if open_loop_fallback {
            self.open_loop_fallbacks.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        }
        if deadline_degraded {
            self.deadline_degraded.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        }
        match kind {
            ServeKind::Uncached => {}
            ServeKind::Hit => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
            }
            ServeKind::CoalescedHit => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
                self.cache_coalesced.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
            }
            ServeKind::Miss => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
            }
        }
        if rejections > 0 {
            self.cache_rejected.fetch_add(rejections, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        }
    }

    /// Records one background re-characterization (an open-loop curve
    /// rebuild that was swapped in).
    pub(crate) fn record_recharacterization(&self) {
        self.recharacterizations.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
    }

    /// Records one shed arrival: a frame the admission control refused
    /// before it reached the serve path (it is *not* counted in `frames`).
    pub(crate) fn record_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
    }

    /// Records one poisoned-lock recovery: a guard whose previous holder
    /// panicked was recovered through `lock_healthy` instead of cascading
    /// the panic through the worker pool.
    pub(crate) fn record_poison_recovery(&self) {
        self.poison_recoveries.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
    }

    /// Records one rejected snapshot restore: a corrupt or
    /// schema-mismatched snapshot was refused with a typed error and the
    /// engine stayed cold instead of installing partial state.
    pub(crate) fn record_snapshot_rejection(&self) {
        self.snapshot_rejected.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
    }

    /// Snapshots the cumulative counters. `cache_bytes` and `queue_depth`
    /// are point-in-time quantities owned by the cache and the admission
    /// controller, so the engine (or registry) fills them in afterwards —
    /// as it does the poison recoveries counted inside the cache and the
    /// open-loop state.
    pub(crate) fn snapshot(&self) -> EngineStats {
        EngineStats {
            frames: self.frames.load(Ordering::Relaxed), // ordering: advisory snapshot
            cache_hits: self.cache_hits.load(Ordering::Relaxed), // ordering: advisory snapshot
            cache_misses: self.cache_misses.load(Ordering::Relaxed), // ordering: advisory snapshot
            cache_coalesced: self.cache_coalesced.load(Ordering::Relaxed), // ordering: advisory snapshot
            cache_rejected: self.cache_rejected.load(Ordering::Relaxed), // ordering: advisory snapshot
            cache_bytes: 0,
            fit_evaluations: self.fit_evaluations.load(Ordering::Relaxed), // ordering: advisory snapshot
            open_loop_fallbacks: self.open_loop_fallbacks.load(Ordering::Relaxed), // ordering: advisory snapshot
            recharacterizations: self.recharacterizations.load(Ordering::Relaxed), // ordering: advisory snapshot
            deadline_degraded: self.deadline_degraded.load(Ordering::Relaxed), // ordering: advisory snapshot
            sheds: self.sheds.load(Ordering::Relaxed), // ordering: advisory snapshot
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed), // ordering: advisory snapshot
            snapshot_rejected: self.snapshot_rejected.load(Ordering::Relaxed), // ordering: advisory snapshot
            queue_depth: 0,
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)), // ordering: advisory snapshot
        }
    }
}

/// A point-in-time snapshot of an engine's cumulative serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Total frames served since the engine was created.
    pub frames: u64,
    /// Frames served from a cached fit (includes coalesced hits, excludes
    /// rejected ones).
    pub cache_hits: u64,
    /// Frames that ran the full fit (includes frames whose cached candidate
    /// was rejected by verification).
    pub cache_misses: u64,
    /// Subset of `cache_hits` that initially missed but were served by
    /// another worker's concurrent fit for the same key (single-flight
    /// coalescing) instead of running a redundant fit.
    pub cache_coalesced: u64,
    /// Cached entries rejected by verification — a stored-frame mismatch or
    /// a measured distortion over the requesting budget. Each rejection
    /// evicted the entry and triggered a refit (or a coalesced wait).
    pub cache_rejected: u64,
    /// Bytes resident in the transformation cache when the snapshot was
    /// taken (0 when the cache is disabled).
    pub cache_bytes: u64,
    /// Target-range fit evaluations across all served frames: each range
    /// fitted during a search counts once (the blend candidates it
    /// arbitrates internally are part of that one evaluation); cache
    /// replays count zero. A closed-loop miss performs 9 of these (the full
    /// range plus 8 bisection steps), an open-loop miss exactly 1 (plus a
    /// closed-loop search when the drift check falls back) — this counter
    /// is what the throughput bench gates on across PRs to keep both
    /// honest.
    pub fit_evaluations: u64,
    /// Frames whose open-loop fit exceeded the distortion budget and were
    /// re-served through the closed-loop search (the per-serve drift
    /// check). Always 0 in closed-loop mode.
    pub open_loop_fallbacks: u64,
    /// Background re-characterizations performed: distortion characteristic
    /// curves rebuilt from the rolling traffic sketch *and swapped into the
    /// serving slot* (a rebuild whose predictions match the installed curve
    /// is discarded rather than swapped — see
    /// `RecharacterizePolicy::min_swap_delta` — and does not count).
    /// Always 0 in closed-loop mode.
    pub recharacterizations: u64,
    /// Frames served past their [`ServeOptions`](crate::ServeOptions)
    /// deadline: the open-loop drift recheck was skipped and the installed
    /// per-class curve served directly, trading the per-frame distortion
    /// contract for bounded latency. Always 0 when no deadline is passed
    /// (or the engine has no installed curve to degrade to).
    pub deadline_degraded: u64,
    /// Arrivals refused by admission control before reaching the serve
    /// path (see [`ShedPolicy`](crate::ShedPolicy)); shed frames are not
    /// counted in `frames`. Always 0 outside multi-tenant serving.
    pub sheds: u64,
    /// Poisoned-lock recoveries: acquisitions that found their lock
    /// poisoned by a previously panicked holder and recovered the guard
    /// (every critical section leaves its structure consistent) instead
    /// of cascading the panic through the worker pool. Always 0 unless a
    /// worker panicked mid-serve.
    pub poison_recoveries: u64,
    /// Characteristic snapshots refused on restore: corrupt, truncated or
    /// schema-mismatched snapshot files that were rejected with a typed
    /// [`SnapshotError`](crate::SnapshotError) while the engine kept
    /// serving cold. Always 0 unless
    /// [`Engine::restore_from_reader`](crate::Engine::restore_from_reader)
    /// was handed a bad snapshot.
    pub snapshot_rejected: u64,
    /// Admitted frames currently queued or in service when the snapshot
    /// was taken (0 outside multi-tenant serving, where nothing bounds
    /// admission).
    pub queue_depth: u64,
    /// Total worker time spent serving frames (sums across workers, so it
    /// can exceed wall-clock time on a pool).
    pub busy: Duration,
}

impl EngineStats {
    /// Fraction of cache lookups that hit, or 0 when the cache was never
    /// consulted (for example when it is disabled).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Mean per-frame serving latency.
    pub fn mean_latency(&self) -> Duration {
        if self.frames == 0 {
            Duration::ZERO
        } else {
            // Divide in u128 nanoseconds: the frame counter is cumulative
            // and can exceed u32 on a long-lived engine.
            let nanos = self.busy.as_nanos() / u128::from(self.frames);
            Duration::from_nanos(nanos as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_and_snapshots() {
        let collector = StatsCollector::default();
        collector.record_frame(Duration::from_millis(2), ServeKind::Hit, 0, 0, false, false);
        collector.record_frame(
            Duration::from_millis(4),
            ServeKind::Miss,
            0,
            11,
            false,
            false,
        );
        collector.record_frame(
            Duration::from_millis(6),
            ServeKind::Uncached,
            0,
            24,
            false,
            false,
        );
        let stats = collector.snapshot();
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.busy, Duration::from_millis(12));
        assert_eq!(stats.mean_latency(), Duration::from_millis(4));
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.fit_evaluations, 35, "fit evaluations accumulate");
    }

    #[test]
    fn coalesced_and_rejected_counters_accumulate() {
        let collector = StatsCollector::default();
        collector.record_frame(
            Duration::from_millis(1),
            ServeKind::CoalescedHit,
            0,
            0,
            false,
            false,
        );
        collector.record_frame(
            Duration::from_millis(1),
            ServeKind::Miss,
            1,
            3,
            false,
            false,
        );
        collector.record_frame(
            Duration::from_millis(1),
            ServeKind::CoalescedHit,
            1,
            0,
            false,
            false,
        );
        let stats = collector.snapshot();
        assert_eq!(stats.cache_hits, 2, "coalesced hits count as hits");
        assert_eq!(stats.cache_coalesced, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_rejected, 2);
    }

    #[test]
    fn open_loop_counters_accumulate() {
        let collector = StatsCollector::default();
        collector.record_frame(
            Duration::from_millis(1),
            ServeKind::Miss,
            0,
            1,
            false,
            false,
        );
        collector.record_frame(Duration::from_millis(1), ServeKind::Miss, 0, 9, true, false);
        collector.record_recharacterization();
        let stats = collector.snapshot();
        assert_eq!(stats.open_loop_fallbacks, 1);
        assert_eq!(stats.recharacterizations, 1);
        assert_eq!(stats.fit_evaluations, 10);
    }

    #[test]
    fn deadline_and_shed_counters_accumulate() {
        let collector = StatsCollector::default();
        collector.record_frame(Duration::from_millis(1), ServeKind::Miss, 0, 1, false, true);
        collector.record_frame(Duration::from_millis(1), ServeKind::Hit, 0, 0, false, false);
        collector.record_shed();
        collector.record_shed();
        let stats = collector.snapshot();
        assert_eq!(stats.deadline_degraded, 1);
        assert_eq!(stats.sheds, 2);
        assert_eq!(stats.frames, 2, "shed arrivals are not served frames");
        assert_eq!(stats.queue_depth, 0, "point-in-time field defaults to 0");
    }

    #[test]
    fn poison_recoveries_accumulate() {
        let collector = StatsCollector::default();
        collector.record_poison_recovery();
        collector.record_poison_recovery();
        let stats = collector.snapshot();
        assert_eq!(stats.poison_recoveries, 2);
        assert_eq!(stats.frames, 0, "recoveries are not served frames");
    }

    #[test]
    fn empty_stats_have_safe_defaults() {
        let stats = EngineStats::default();
        assert_eq!(stats.cache_hit_rate(), 0.0);
        assert_eq!(stats.mean_latency(), Duration::ZERO);
        assert_eq!(stats.cache_bytes, 0);
        assert_eq!(stats.fit_evaluations, 0);
        assert_eq!(stats.deadline_degraded, 0);
        assert_eq!(stats.sheds, 0);
        assert_eq!(stats.poison_recoveries, 0);
        assert_eq!(stats.snapshot_rejected, 0);
        assert_eq!(stats.queue_depth, 0);
    }
}
