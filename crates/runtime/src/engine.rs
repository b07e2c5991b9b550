//! The concurrent frame-serving engine.
//!
//! [`Engine`] wraps a [`HebsPolicy`] with a worker pool and a transformation
//! cache and exposes two entry points:
//!
//! * [`Engine::process_batch`] — fan a slice of frames out across the pool
//!   and collect per-frame results *in input order*.
//! * [`Engine::stream`] — pull frames from an iterator through a bounded
//!   queue (backpressure: the producer blocks when the pool falls behind)
//!   and yield results in input order as they complete.
//!
//! Both paths serve each frame the same way: look the frame up in the
//! transformation cache, replay the cached fit on a hit, run the full HEBS
//! policy on a miss and remember its fit. Per-frame latency and cache
//! statistics are collected on the fly.
//!
//! Exact and approximate caches share one serve flow,
//! `EngineInner::serve_keyed`, generic over the cache's
//! [`KeyedMode`](crate::cache::KeyedMode): the mode supplies the key's
//! content, the hit check and the entry to insert; probing, rejection,
//! single flight, fitting and insertion are written once.

use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::BinaryHeap;
use std::hash::BuildHasher;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{JoinHandle, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use hebs_analysis::{interleave, lock_healthy, LockClass, OrderedMutex};

use hebs_core::{
    evaluate_range_from_histogram, BankClass, CharacteristicBank, CharacterizationSample,
    DistortionCharacteristic, FitScratch, FrameTransform, HebsError, HebsPolicy, ScalingOutcome,
    TargetRange,
};
use hebs_imaging::{FrameIngest, GrayImage, Histogram, SIGNATURE_BINS};

use crate::cache::{with_keyed, CacheConfig, KeyedCache, KeyedMode, Request, TransformCache};
use crate::error::{Result, RuntimeError};
use crate::serving::{
    CurveBank, CurveState, OpenLoopState, RebuildClaim, RebuildPlan, Replace, ServingMode,
};
use crate::snapshot::{
    self, BankRecord, CacheRecord, ClassRecord, RestoreReport, SampleRecord, SnapshotError,
};
use crate::stats::{EngineStats, ServeKind, StatsCollector};

/// Upper bound on configurable content classes (the class id is a `u16` in
/// every cache key; 256 is far beyond any useful clustering of 32-bin
/// signatures).
const MAX_CLASSES: usize = 256;

/// How many hottest cache entries [`Engine::snapshot_to_writer`] spills
/// alongside the characteristic bank. Enough to pre-warm the working set
/// of a steady scene without making snapshots frame-archive sized.
const SNAPSHOT_SPILL_TOP_K: usize = 64;

/// Domain-separation input for the per-snapshot checksum seed (the magic
/// bytes as a little-endian word).
const SNAPSHOT_MAGIC_SEED: [u8; 8] = crate::snapshot::SNAPSHOT_MAGIC;

/// Configuration of the serving engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads; 0 selects the machine's available
    /// parallelism.
    pub workers: usize,
    /// Depth of the bounded streaming queues (frames in flight between the
    /// producer and the pool); 0 selects `2 × workers`.
    pub queue_depth: usize,
    /// Distortion budget handed to the policy for every frame.
    pub max_distortion: f64,
    /// Transformation cache configuration; `None` disables caching.
    pub cache: Option<CacheConfig>,
    /// How cache misses are fitted: the closed-loop range search (default)
    /// or the open-loop characteristic lookup with background
    /// re-characterization (see [`ServingMode`]).
    pub mode: ServingMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_depth: 0,
            max_distortion: 0.10,
            cache: Some(CacheConfig::default()),
            mode: ServingMode::ClosedLoop,
        }
    }
}

impl EngineConfig {
    /// A single-threaded, cache-less configuration — the reference baseline
    /// the throughput bench compares against.
    pub fn sequential(max_distortion: f64) -> Self {
        EngineConfig {
            workers: 1,
            queue_depth: 0,
            max_distortion,
            cache: None,
            mode: ServingMode::ClosedLoop,
        }
    }
}

/// The result of serving one frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Position of the frame in the input order.
    pub index: usize,
    /// The policy outcome for this frame. Shared: exact-cache hits hand out
    /// the cached allocation instead of deep-copying the displayed frame.
    pub outcome: Arc<ScalingOutcome>,
    /// Whether the transformation cache served this frame.
    pub cache_hit: bool,
    /// Wall-clock time this frame spent being served (excluding queueing).
    pub latency: Duration,
}

/// The results of one [`Engine::process_batch`] call.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-frame results, in input order.
    pub results: Vec<FrameResult>,
    /// Wall-clock time for the whole batch.
    pub wall_time: Duration,
}

impl BatchReport {
    /// Number of frames in the batch.
    pub fn frames(&self) -> usize {
        self.results.len()
    }

    /// Frames served per wall-clock second.
    pub fn throughput_fps(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.results.len() as f64 / secs
        }
    }

    /// Fraction of frames served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.results.iter().filter(|r| r.cache_hit).count() as f64 / self.results.len() as f64
        }
    }

    /// Mean per-frame serving latency.
    pub fn mean_latency(&self) -> Duration {
        if self.results.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.results.iter().map(|r| r.latency).sum();
        total / self.results.len() as u32
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) of the per-frame latencies, by the
    /// nearest-rank method. Returns zero for an empty batch.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        if self.results.is_empty() {
            return Duration::ZERO;
        }
        let mut latencies: Vec<Duration> = self.results.iter().map(|r| r.latency).collect();
        latencies.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * (latencies.len() - 1) as f64).round() as usize;
        latencies[rank]
    }

    /// Mean fractional power saving over the batch.
    pub fn mean_power_saving(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .map(|r| r.outcome.power_saving)
            .sum::<f64>()
            / self.results.len() as f64
    }

    /// Mean measured distortion over the batch.
    pub fn mean_distortion(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .map(|r| r.outcome.distortion)
            .sum::<f64>()
            / self.results.len() as f64
    }
}

/// Per-request serving options for [`Engine::process_frame_with_options`]
/// (and, through a [`TenantRegistry`](crate::TenantRegistry), for
/// multi-tenant serves).
///
/// The default (`ServeOptions::default()`) reproduces
/// [`Engine::process_frame`]: the engine-wide budget and no deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Per-request distortion budget; `None` uses the engine-wide
    /// [`EngineConfig::max_distortion`].
    pub max_distortion: Option<f64>,
    /// Serve-by deadline. A frame whose open-loop fit drifts over budget
    /// *past this instant* skips the closed-loop drift recheck and serves
    /// the installed per-class curve's fit directly — trading the per-frame
    /// distortion contract for bounded latency — and is counted in
    /// [`EngineStats::deadline_degraded`](crate::EngineStats). Before the
    /// deadline (or with no installed curve to degrade to) serving is
    /// unchanged.
    pub deadline: Option<Instant>,
}

impl ServeOptions {
    /// Sets a per-request distortion budget.
    pub fn with_budget(mut self, max_distortion: f64) -> Self {
        self.max_distortion = Some(max_distortion);
        self
    }

    /// Sets the serve-by deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Shared state behind an [`Engine`] handle.
struct EngineInner {
    policy: HebsPolicy,
    cache: Option<Arc<TransformCache>>,
    max_distortion: f64,
    workers: usize,
    queue_depth: usize,
    serving: Option<OpenLoopState>,
    /// The tenant id stamped into this engine's cache keys and charged for
    /// its cache bytes — 0 for a standalone engine, the registry-assigned
    /// id for a tenant engine sharing its cache.
    tenant: u16,
    /// Serializes snapshot saves/restores against each other (a restore
    /// swapping the bank mid-snapshot would tear the serialized state).
    /// Rank `Snapshot` (15): below every serve-path lock, so serving never
    /// waits on snapshot I/O, and a snapshot may read bank/cache state
    /// (which takes serve-path locks) while holding the gate.
    snapshot_gate: OrderedMutex<()>,
    totals: StatsCollector,
}

/// The result of one trip through `EngineInner::serve`: the outcome (or the
/// pipeline error), how the cache was involved, how many cached candidates
/// were rejected by verification along the way, how many candidate fits
/// were evaluated (0 on a replay), and whether the open-loop drift check
/// fell back to the closed-loop search.
struct Served {
    outcome: std::result::Result<Arc<ScalingOutcome>, HebsError>,
    kind: ServeKind,
    rejections: u64,
    fit_evaluations: u64,
    open_loop_fallback: bool,
    /// The serve ran past its deadline and served the installed curve's
    /// over-budget fit instead of the closed-loop drift recheck.
    deadline_degraded: bool,
    /// The content class the frame routed to (0 outside multi-class
    /// open-loop serving) — the per-class sketch and triggers it feeds.
    class: u16,
    /// The frame's histogram, produced by the serve's single fused ingest
    /// pass — reused by cache keys, class routing, the fit and the
    /// open-loop traffic sketch, so sampling never re-reads the pixels.
    histogram: Histogram,
}

/// One completed fit: the shared outcome, its reusable transform, the
/// candidate evaluations it ran, and whether it came from the open-loop
/// drift fallback (or skipped that fallback because the serve was past its
/// deadline).
struct Fitted {
    outcome: Arc<ScalingOutcome>,
    transform: Arc<FrameTransform>,
    fit_evaluations: u64,
    open_loop_fallback: bool,
    deadline_degraded: bool,
}

/// How a serve obtained its outcome: replayed from the cache, or fitted.
enum Reply {
    Replayed(Arc<ScalingOutcome>),
    Fitted(Fitted),
}

impl EngineInner {
    /// The generation stamped into cache keys: the installed characteristic
    /// curve's generation in open-loop mode, 0 in closed-loop mode. A
    /// re-characterization swap bumps it, so fits made under a stale curve
    /// are never probed again.
    fn policy_generation(&self) -> u64 {
        self.serving.as_ref().map_or(0, OpenLoopState::generation)
    }

    /// Fits one frame according to the serving mode.
    ///
    /// Closed-loop (or open-loop before any curve is installed): the full
    /// range search. Open-loop with an installed curve: a single evaluation
    /// at the curve's predicted range, followed by the *drift check* — a
    /// fit whose measured distortion exceeds the budget is re-served
    /// through the closed-loop search (its evaluations are charged on top
    /// of the open-loop one) and counted as a fallback, so the distortion
    /// contract holds in either mode.
    ///
    /// `curve` is the serve's snapshot of the installed curve — taken once
    /// per serve, together with the generation its cache key carries, so
    /// an install landing mid-serve can never pair an old-generation key
    /// with a new-curve fit (which would strand the entry under a key no
    /// future lookup probes).
    ///
    /// `deadline` is the serve's deadline, consulted only when the
    /// open-loop fit drifts over budget: past the deadline the closed-loop
    /// recheck is skipped and the curve's fit served as-is, marked
    /// `deadline_degraded` (the check costs one clock read, and only on
    /// drift).
    fn fit(
        &self,
        request: &Request<'_>,
        curve: Option<&Arc<CurveState>>,
        deadline: Option<Instant>,
        scratch: &mut FitScratch,
    ) -> std::result::Result<Fitted, HebsError> {
        let Request {
            frame,
            histogram,
            budget,
            ..
        } = *request;
        let fitted = |(outcome, transform): (ScalingOutcome, _), fallback, degraded| Fitted {
            fit_evaluations: u64::from(outcome.fit_evaluations),
            outcome: Arc::new(outcome),
            transform,
            open_loop_fallback: fallback,
            deadline_degraded: degraded,
        };
        let Some(curve) = curve else {
            let fit = self
                .policy
                .optimize_with_transform_using_histogram(frame, histogram, budget, scratch)?;
            return Ok(fitted(fit, false, false));
        };
        let (outcome, transform) = curve
            .policy
            .optimize_with_transform_using_histogram(frame, histogram, budget, scratch)?;
        if outcome.distortion <= budget {
            return Ok(fitted((outcome, transform), false, false));
        }
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            // Past the deadline: a closed-loop recheck would make the
            // frame later still. Serve the curve's fit as-is and let the
            // caller count the degradation (and feed the drift trigger so
            // the curve is rebuilt).
            return Ok(fitted((outcome, transform), false, true));
        }
        // Drift: the curve under-provisioned the range for this frame.
        // Honour the budget through the closed-loop search and let the
        // caller feed the drift trigger. The discarded open-loop frame's
        // buffer goes back to the scratch for the refit.
        let open_evaluations = outcome.fit_evaluations;
        scratch.recycle_output(outcome.displayed);
        let (mut outcome, transform) = self
            .policy
            .optimize_with_transform_using_histogram(frame, histogram, budget, scratch)?;
        outcome.fit_evaluations += open_evaluations;
        Ok(fitted((outcome, transform), true, false))
    }

    /// Serves one frame through the cache (when enabled) or the full policy.
    /// `scratch` is the worker's reusable frame buffer: steady-state fits
    /// write intermediate candidate images into it instead of allocating.
    /// Every kind of serve — uncached, exact, approximate — ends in the one
    /// `Served` built here.
    // lint: hot-path
    fn serve(
        &self,
        frame: &GrayImage,
        budget: f64,
        deadline: Option<Instant>,
        scratch: &mut FitScratch,
    ) -> Served {
        // The fused ingest: one traversal of the pixel buffer yields the
        // histogram, the routing signature and the exact-key content hash
        // for every later stage (cache key, class routing, fit, sketch
        // sampling). The hash is seeded with the exact cache's per-cache
        // seed; other modes never consume it, so 0 is fine.
        let seed = match self.cache.as_deref() {
            Some(TransformCache::Exact(cache)) => cache.mode.seed,
            _ => 0,
        };
        let (histogram, signature, content_hash) =
            FrameIngest::compute_auto(frame, seed).into_parts();
        // One coherent snapshot of the open-loop bank per serve: the cache
        // key's (class, generation) pair and the fitting curve always
        // agree, even when an install lands while this frame is in flight.
        // A multi-class bank routes the frame by the ingest's signature.
        let bank = self.serving.as_ref().and_then(OpenLoopState::current);
        let (curve, class, generation) = match &bank {
            None => (None, 0u16, 0u64),
            Some(bank) if bank.is_single() => {
                let state = &bank.classes[0];
                (Some(state), 0, state.generation)
            }
            Some(bank) => {
                let class = bank.classify(&signature);
                let state = &bank.classes[class];
                (Some(state), class as u16, state.generation)
            }
        };
        let request = Request {
            frame,
            histogram: &histogram,
            content_hash,
            budget,
            tenant: self.tenant,
            class,
            generation,
        };
        let (kind, rejections, reply) = match self.cache.as_deref() {
            None => (
                ServeKind::Uncached,
                0,
                self.fit(&request, curve, deadline, scratch)
                    .map(Reply::Fitted),
            ),
            Some(cache) => with_keyed!(cache, keyed => {
                self.serve_keyed(keyed, &request, curve, deadline, scratch)
            }),
        };
        let (outcome, fit_evaluations, open_loop_fallback, deadline_degraded) = match reply {
            Ok(Reply::Replayed(outcome)) => (Ok(outcome), 0, false, false),
            Ok(Reply::Fitted(fitted)) => (
                Ok(fitted.outcome),
                fitted.fit_evaluations,
                fitted.open_loop_fallback,
                fitted.deadline_degraded,
            ),
            Err(err) => (Err(err), 0, false, false),
        };
        Served {
            outcome,
            kind,
            rejections,
            fit_evaluations,
            open_loop_fallback,
            deadline_degraded,
            class,
            histogram,
        }
    }

    /// Serves one frame through a keyed cache: probe; check the probed
    /// entry, rejecting one that fails (evicting only the generation
    /// probed); join the key's single flight; re-probe; on a miss fit and
    /// insert, unless the fit was deadline-degraded. Returns how the cache
    /// was involved, the rejections along the way, and the reply.
    ///
    /// The mode `M` supplies what differs — the key's content, the hit
    /// check, and the entry to insert — so the exact and approximate caches
    /// share this one sequence. An exact hit performs zero full-frame
    /// allocations and zero pixel traversals of its own and returns the
    /// cached `Arc`; an approximate hit revalidates the cached transform
    /// against the actual frame and the requesting budget. (A frame that is
    /// infeasible even for a full fit keeps missing, which is correct if
    /// not cheap.)
    fn serve_keyed<M: KeyedMode>(
        &self,
        cache: &KeyedCache<M>,
        request: &Request<'_>,
        curve: Option<&Arc<CurveState>>,
        deadline: Option<Instant>,
        scratch: &mut FitScratch,
    ) -> (ServeKind, u64, std::result::Result<Reply, HebsError>) {
        let key = cache.key(request);
        let mut rejections = 0u64;
        if let Some((value, generation)) = cache.store.get(&key) {
            match cache.mode.check(value, request, &self.policy, scratch) {
                Ok(Some(outcome)) => {
                    return (ServeKind::Hit, rejections, Ok(Reply::Replayed(outcome)))
                }
                verdict => {
                    // Hash collision, a same-band fit over this (stricter)
                    // budget, or a failed replay: evict it so other workers
                    // stop paying for the known-bad entry, and refit (or
                    // serve the replay's error as a miss).
                    cache.store.reject(&key, generation);
                    rejections += 1;
                    if let Err(err) = verdict {
                        return (ServeKind::Miss, rejections, Err(err));
                    }
                }
            }
        }
        // Single flight: the first misser leads (holding the guard for the
        // duration of its fit); concurrent missers wait. Everyone re-probes
        // after joining — a waiter picks up the leader's freshly inserted
        // fit, and a late leader (one whose probe raced a completing fit)
        // avoids a redundant fit. A thread whose re-probe cannot serve it
        // (nothing inserted, or the fit fails its stricter budget) falls
        // through to its own fit in parallel rather than re-queueing, so an
        // uncacheable key (e.g. an entry refused as oversized) degrades to
        // v1's concurrent fits instead of serializing them.
        let _flight = cache.flights.join(&key);
        if let Some((value, generation)) = cache.store.get_after_wait(&key) {
            match cache.mode.check(value, request, &self.policy, scratch) {
                Ok(Some(outcome)) => {
                    return (
                        ServeKind::CoalescedHit,
                        rejections,
                        Ok(Reply::Replayed(outcome)),
                    )
                }
                verdict => {
                    cache.store.reject_after_wait(&key, generation);
                    rejections += 1;
                    if let Err(err) = verdict {
                        return (ServeKind::Miss, rejections, Err(err));
                    }
                }
            }
        }
        let fitted = self.fit(request, curve, deadline, scratch);
        // A deadline-degraded fit is over budget for its band: caching it
        // would poison the key for every on-time request, so it serves this
        // frame only.
        if let Ok(fitted) = &fitted {
            if !fitted.deadline_degraded {
                let value = M::entry(request.frame, &fitted.outcome, &fitted.transform);
                let weight = M::weight(&value);
                cache.store.insert_for(request.tenant, key, value, weight);
            }
        }
        (ServeKind::Miss, rejections, fitted.map(Reply::Fitted))
    }

    /// Serves one frame and records its latency in the cumulative stats.
    /// In open-loop mode, also feeds the traffic sketch and the rebuild
    /// triggers, and hands a due re-characterization to a background thread
    /// (single-flight: at most one rebuild runs per engine).
    // lint: hot-path
    fn serve_timed(
        self: &Arc<Self>,
        index: usize,
        frame: &GrayImage,
        budget: f64,
        deadline: Option<Instant>,
        scratch: &mut FitScratch,
    ) -> Result<FrameResult> {
        let start = Instant::now();
        let served = self.serve(frame, budget, deadline, scratch);
        let latency = start.elapsed();
        self.totals.record_frame(
            latency,
            served.kind,
            served.rejections,
            served.fit_evaluations,
            served.open_loop_fallback,
            served.deadline_degraded,
        );
        if let Some(state) = &self.serving {
            // A deadline-degraded serve also drifted (its open-loop fit was
            // over budget), so it feeds the drift trigger like a fallback:
            // sustained degradation rebuilds the curve.
            state.record_serve(
                served.class as usize,
                &served.histogram,
                served.open_loop_fallback || served.deadline_degraded,
            );
            self.maybe_recharacterize(state);
        }
        let outcome = served.outcome.map_err(RuntimeError::Core)?;
        Ok(FrameResult {
            index,
            outcome,
            cache_hit: served.kind.is_hit(),
            latency,
        })
    }

    /// Starts a rebuild when a trigger is due. The serve that wins the
    /// single-flight claim spawns one thread to run it and returns at once,
    /// so no serve waits for a characterization; the other workers see the
    /// claim taken and keep serving the current bank. Only when the OS
    /// refuses a thread does the claiming serve rebuild inline.
    // lint: cold-path
    fn maybe_recharacterize(self: &Arc<Self>, state: &OpenLoopState) {
        if state.rebuild_plan().is_none() || !state.begin_rebuild() {
            return;
        }
        let inner = Arc::clone(self);
        if !state.spawn_rebuild(move || inner.rebuild()) {
            self.rebuild();
        }
    }

    /// Runs a claimed rebuild and releases the claim, also on panic.
    ///
    /// With no bank installed the bootstrap clusters the pre-bank sketch
    /// into up to `classes` content classes; afterwards each class rebuilds
    /// *only itself* from its own sketch, bumping only its own cache-key
    /// generation. The bank is loaded before any sketch is copied, and the
    /// rebuilt curve is installed only over that same bank: a restore or
    /// install landing mid-rebuild wins. Trigger counters are consumed by
    /// the amount observed at rebuild time (never stored to zero), so
    /// fallbacks recorded by workers while the rebuild runs still count
    /// toward the next drift trigger.
    fn rebuild(&self) {
        let Some(state) = &self.serving else {
            return;
        };
        let _claim = RebuildClaim::held(state);
        let seen = state.current();
        match (state.rebuild_plan_for(seen.as_ref()), &seen) {
            (Some(RebuildPlan::Bootstrap), None) => self.bootstrap_bank(state),
            (Some(RebuildPlan::Class(class)), Some(seen)) => {
                self.recharacterize_class(state, class, seen);
            }
            _ => {}
        }
        // Piggy-back on the rebuild cadence (and its single-flight claim)
        // to re-partition the sketch budget by each class's observed
        // traffic share, so skewed traffic doesn't starve rare classes'
        // rebuilds.
        state.rebalance_sketch_capacities();
    }

    /// The first characterization of an open-loop engine that was never
    /// seeded: clusters the pre-bank sketch into a fresh bank (a single
    /// class when `classes` is 1 — the classic flow). Installs only into
    /// a still-empty slot.
    fn bootstrap_bank(&self, state: &OpenLoopState) {
        let (frames, drifts) = state.observed_triggers(0);
        let histograms = state.sketch_snapshot(0);
        let config = self.policy.config();
        let bank = if state.recharacterize.classes > 1 {
            CharacteristicBank::build(
                config,
                &histograms,
                &state.recharacterize.ranges,
                state.recharacterize.classes,
            )
            .map(|bank| state.full_bank(config, &bank))
        } else {
            DistortionCharacteristic::characterize_from_histograms(
                config,
                &histograms,
                &state.recharacterize.ranges,
            )
            .map(|curve| state.single_bank(config.clone(), Arc::new(curve)))
        };
        interleave::point("rebuild.install");
        if bank.is_ok_and(|bank| state.swap_bank(bank, Replace::Empty)) {
            self.totals.record_recharacterization();
        } else {
            // Characterization failed (e.g. incapable measure slipping
            // through, too few samples) or a bank was installed meanwhile:
            // consume the observed counts so the next attempt waits for a
            // full interval instead of retrying every frame.
            state.consume_triggers(0, frames, drifts);
        }
    }

    /// Rebuilds one class's curve from its own sketch and swaps it into the
    /// bank — invalidating (via the class's key generation) only that
    /// class's cached fits.
    fn recharacterize_class(&self, state: &OpenLoopState, class: usize, seen: &Arc<CurveBank>) {
        let (frames, drifts) = state.observed_triggers(class);
        let histograms = state.sketch_snapshot(class);
        // On characterization failure (e.g. too few samples) the current
        // curve simply stays installed.
        if let Ok(curve) = DistortionCharacteristic::characterize_from_histograms(
            self.policy.config(),
            &histograms,
            &state.recharacterize.ranges,
        ) {
            // Swapping bumps the class's key generation and thereby
            // discards its cached fits — only worth it when the rebuilt
            // curve actually predicts differently. Drift triggers firing
            // on stationary but heterogeneous traffic otherwise wipe the
            // class every `drift_limit` fallbacks for nothing.
            let unchanged = seen.classes.get(class).is_some_and(|installed| {
                installed
                    .characteristic
                    .max_prediction_delta(&curve, &state.recharacterize.ranges)
                    <= state.recharacterize.min_swap_delta
            });
            interleave::point("rebuild.install");
            if !unchanged
                && state
                    .install_class(seen, class, self.policy.config().clone(), Arc::new(curve))
                    .is_some()
            {
                self.totals.record_recharacterization();
            }
        }
        // Consume what this rebuild observed — anything recorded while it
        // ran keeps counting toward the class's next trigger.
        state.consume_triggers(class, frames, drifts);
    }
}

/// A concurrent, cache-accelerated HEBS frame-serving engine.
///
/// The handle is cheap to clone and fully thread-safe; all clones share the
/// same cache and cumulative statistics.
///
/// ```
/// use hebs_core::{HebsPolicy, PipelineConfig};
/// use hebs_imaging::{FrameSequence, SceneKind};
/// use hebs_runtime::{Engine, EngineConfig};
///
/// let policy = HebsPolicy::closed_loop(PipelineConfig::default());
/// let engine = Engine::new(policy, EngineConfig::default())?;
/// let frames: Vec<_> = FrameSequence::new(SceneKind::SceneCut, 32, 32, 8, 7)
///     .frames()
///     .collect();
/// let report = engine.process_batch(&frames)?;
/// assert_eq!(report.frames(), 8);
/// // Identical repeated frames are served from the cache.
/// assert!(report.cache_hit_rate() > 0.5);
/// # Ok::<(), hebs_runtime::RuntimeError>(())
/// ```
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.inner.workers)
            .field("queue_depth", &self.inner.queue_depth)
            .field("max_distortion", &self.inner.max_distortion)
            .field("cached_fits", &self.inner.cache.as_ref().map(|c| c.len()))
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine around a HEBS policy.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if `max_distortion` is outside
    /// `[0, 1]` or a cache parameter is 0.
    pub fn new(policy: HebsPolicy, config: EngineConfig) -> Result<Self> {
        Self::build(policy, config, None)
    }

    /// Builds a tenant engine that shares a registry's transformation
    /// cache: the engine stamps `tenant` into every cache key (so no
    /// cross-tenant replay is possible) and charges its entries to that
    /// tenant's byte partition. `config.cache` is ignored in favour of the
    /// shared cache.
    pub(crate) fn with_shared_cache(
        policy: HebsPolicy,
        config: EngineConfig,
        cache: Arc<TransformCache>,
        tenant: u16,
    ) -> Result<Self> {
        Self::build(policy, config, Some((cache, tenant)))
    }

    fn build(
        policy: HebsPolicy,
        config: EngineConfig,
        shared: Option<(Arc<TransformCache>, u16)>,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&config.max_distortion) || !config.max_distortion.is_finite() {
            return Err(RuntimeError::InvalidConfig {
                name: "max_distortion",
                reason: format!("{} is outside [0, 1]", config.max_distortion),
            });
        }
        if let Some(cache) = &config.cache {
            validate_cache_config(cache)?;
        }
        let serving = match config.mode {
            ServingMode::ClosedLoop => None,
            ServingMode::OpenLoop { recharacterize } => {
                // The engine supplies the open-loop lookup itself; the
                // wrapped policy is the drift *fallback* and must really be
                // closed-loop, or an over-budget open-loop fit would "fall
                // back" to the identical characteristic lookup and the
                // distortion contract would silently break.
                if policy.characteristic().is_some() {
                    return Err(RuntimeError::InvalidConfig {
                        name: "mode",
                        reason: "ServingMode::OpenLoop requires a closed-loop base policy \
                                 (the engine performs the characteristic lookup itself; \
                                 install curves via Engine::install_characteristic)"
                            .to_string(),
                    });
                }
                if recharacterize.sample_period == 0 {
                    return Err(RuntimeError::InvalidConfig {
                        name: "mode.recharacterize.sample_period",
                        reason: "must be nonzero".to_string(),
                    });
                }
                if recharacterize.sample_capacity == 0 {
                    return Err(RuntimeError::InvalidConfig {
                        name: "mode.recharacterize.sample_capacity",
                        reason: "must be nonzero".to_string(),
                    });
                }
                if recharacterize.classes == 0 {
                    return Err(RuntimeError::InvalidConfig {
                        name: "mode.recharacterize.classes",
                        reason: "must be nonzero (1 reproduces the single-curve flow)".to_string(),
                    });
                }
                if recharacterize.classes > MAX_CLASSES {
                    return Err(RuntimeError::InvalidConfig {
                        name: "mode.recharacterize.classes",
                        reason: format!(
                            "{} exceeds the maximum of {MAX_CLASSES} content classes",
                            recharacterize.classes
                        ),
                    });
                }
                if recharacterize.ranges.is_empty() {
                    return Err(RuntimeError::InvalidConfig {
                        name: "mode.recharacterize.ranges",
                        reason: "must name at least one dynamic range".to_string(),
                    });
                }
                if let Some(range) = recharacterize
                    .ranges
                    .iter()
                    .find(|r| !(2..=256).contains(*r))
                {
                    return Err(RuntimeError::InvalidConfig {
                        name: "mode.recharacterize.ranges",
                        reason: format!("range {range} is outside [2, 256]"),
                    });
                }
                if !recharacterize.min_swap_delta.is_finite() || recharacterize.min_swap_delta < 0.0
                {
                    return Err(RuntimeError::InvalidConfig {
                        name: "mode.recharacterize.min_swap_delta",
                        reason: format!(
                            "{} is not a nonnegative finite distortion delta",
                            recharacterize.min_swap_delta
                        ),
                    });
                }
                // Probe whether the configured measure supports the
                // histogram-domain evaluation the sketch rebuild needs.
                // Windowed measures still serve open-loop off an installed
                // curve; they just never rebuild it from the sketch.
                // Build-time capability probe on a 4x4 constant frame, not a
                // served frame; the fused-ingest rule does not apply here.
                let probe = Histogram::of(&GrayImage::filled(4, 4, 128)); // lint: allow(frame-ingest)
                let full = TargetRange::from_span(256).map_err(RuntimeError::Core)?;
                let histogram_capable =
                    evaluate_range_from_histogram(policy.config(), &probe, full)
                        .map_err(RuntimeError::Core)?
                        .is_some();
                Some(OpenLoopState::new(recharacterize, histogram_capable))
            }
        };
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            config.workers
        };
        let queue_depth = if config.queue_depth == 0 {
            workers * 2
        } else {
            config.queue_depth
        };
        let (cache, tenant) = match shared {
            Some((cache, tenant)) => (Some(cache), tenant),
            None => (
                config
                    .cache
                    .as_ref()
                    .map(|config| Arc::new(TransformCache::new(config))),
                0,
            ),
        };
        Ok(Engine {
            inner: Arc::new(EngineInner {
                policy,
                cache,
                max_distortion: config.max_distortion,
                workers,
                queue_depth,
                serving,
                tenant,
                snapshot_gate: OrderedMutex::new(LockClass::Snapshot, ()),
                totals: StatsCollector::default(),
            }),
        })
    }

    /// Number of worker threads the engine fans work out to.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// The distortion budget applied to every frame.
    pub fn max_distortion(&self) -> f64 {
        self.inner.max_distortion
    }

    /// Cumulative statistics over everything this engine has served,
    /// including the bytes currently resident in the transformation cache.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.inner.totals.snapshot();
        stats.cache_bytes = self.cached_bytes() as u64;
        stats.poison_recoveries += self
            .inner
            .cache
            .as_ref()
            .map_or(0, |cache| cache.poison_recoveries())
            + self
                .inner
                .serving
                .as_ref()
                .map_or(0, OpenLoopState::poison_recoveries);
        stats
    }

    /// Number of fitted transforms currently cached (0 when the cache is
    /// disabled).
    pub fn cached_fits(&self) -> usize {
        self.inner.cache.as_ref().map_or(0, |cache| cache.len())
    }

    /// Bytes currently resident in the transformation cache (0 when the
    /// cache is disabled). Each entry charges its stored pixels, displayed
    /// image and LUT against the configured byte budget.
    pub fn cached_bytes(&self) -> usize {
        self.inner.cache.as_ref().map_or(0, |cache| cache.bytes())
    }

    /// The cache's own served-lookup counters (`None` when the cache is
    /// disabled), for reconciliation against [`Engine::stats`]: on every
    /// serving path — hits, misses, single-flight waits and rejected hits —
    /// these agree with the engine's accounting.
    pub fn cache_counters(&self) -> Option<crate::CacheCounters> {
        self.inner.cache.as_ref().map(|cache| cache.counters())
    }

    /// Installs (or replaces) the open-loop distortion characteristic
    /// curve, as a deployment would with an offline-characterized seed. The
    /// swap is atomic — concurrent workers finish their current frame on
    /// the old curve — and bumps the characteristic generation, so cached
    /// fits made under the old curve are never replayed. Returns the new
    /// generation.
    ///
    /// The engine re-characterizes on its own from live traffic (see
    /// [`RecharacterizePolicy`](crate::RecharacterizePolicy)); seeding is
    /// only needed to skip the closed-loop bootstrap phase or when the
    /// configured measure cannot characterize from histograms.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when the engine is in
    /// closed-loop mode.
    pub fn install_characteristic(&self, characteristic: DistortionCharacteristic) -> Result<u64> {
        let state = self.serving_state()?;
        Ok(state.install(self.inner.policy.config().clone(), Arc::new(characteristic)))
    }

    /// Installs (or replaces) a per-class characteristic **bank**: frames
    /// are routed by histogram-signature cluster to the class whose curve
    /// was fitted on traffic shaped like them, which recovers most of the
    /// closed-loop saving on heterogeneous traffic where a single
    /// worst-case curve refuses to dim. Each class gets a fresh cache-key
    /// generation, and later per-class rebuilds invalidate only their own
    /// class's fits. Returns the largest new generation.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when the engine is in
    /// closed-loop mode or the bank holds more classes than
    /// [`RecharacterizePolicy::classes`](crate::RecharacterizePolicy)
    /// provisioned (the per-class sketches and rebuild triggers are sized
    /// at engine construction).
    pub fn install_bank(&self, bank: CharacteristicBank) -> Result<u64> {
        let state = self.serving_state()?;
        if bank.len() > state.class_count() {
            return Err(RuntimeError::InvalidConfig {
                name: "bank",
                reason: format!(
                    "{} classes exceed the engine's {} configured classes \
                     (raise RecharacterizePolicy::classes)",
                    bank.len(),
                    state.class_count()
                ),
            });
        }
        Ok(state.install_bank(self.inner.policy.config(), &bank))
    }

    fn serving_state(&self) -> Result<&OpenLoopState> {
        self.inner
            .serving
            .as_ref()
            .ok_or_else(|| RuntimeError::InvalidConfig {
                name: "mode",
                reason: "a closed-loop engine has no characteristic slot".to_string(),
            })
    }

    /// The currently installed open-loop characteristic curve of the first
    /// content class (`None` in closed-loop mode or before the first
    /// install/bootstrap). Multi-class banks expose their size via
    /// [`Engine::characteristic_classes`].
    pub fn characteristic(&self) -> Option<Arc<DistortionCharacteristic>> {
        self.inner
            .serving
            .as_ref()
            .and_then(OpenLoopState::current)
            .map(|bank| Arc::clone(&bank.classes[0].characteristic))
    }

    /// Number of content classes in the installed characteristic bank (0 in
    /// closed-loop mode or before the first install/bootstrap).
    pub fn characteristic_classes(&self) -> usize {
        self.inner
            .serving
            .as_ref()
            .and_then(OpenLoopState::current)
            .map_or(0, |bank| bank.classes.len())
    }

    /// Largest generation of the installed characteristic bank: 0 in
    /// closed-loop mode (and in open-loop mode before any curve exists),
    /// bumped by every install and background re-characterization. Cache
    /// keys carry a per-class generation tag, so a bump invalidates the
    /// rebuilt class's previously cached fits (and only those).
    pub fn characteristic_generation(&self) -> u64 {
        self.inner.policy_generation()
    }

    /// Waits until the background re-characterization started by an
    /// earlier serve has finished, so its install (or discard) is visible
    /// to [`Engine::stats`] and [`Engine::characteristic_generation`].
    ///
    /// An open-loop serve that claims a due rebuild hands it to a thread
    /// of its own and returns without waiting; at most one such rebuild
    /// runs per engine. Returns at once for a closed-loop engine or when
    /// no rebuild was started.
    pub fn quiesce_rebuilds(&self) {
        if let Some(state) = &self.inner.serving {
            state.join_rebuild();
        }
    }

    /// Background re-characterizations that panicked (0 in closed-loop
    /// mode). The panic is contained on the rebuild's thread: the rebuild
    /// claim is released, the installed bank keeps serving, and a later
    /// trigger rebuilds again.
    pub fn rebuild_panics(&self) -> u64 {
        self.inner
            .serving
            .as_ref()
            .map_or(0, OpenLoopState::rebuild_panics)
    }

    /// Serializes the engine's learned warm-start state into `writer`: the
    /// installed characteristic bank (centroids, per-class curve samples,
    /// fit mode, generations) plus a spill of the hottest transformation
    /// cache entries, in the versioned, checksummed snapshot format (see
    /// the `snapshot` module). A restarted engine — or a whole fleet — can
    /// [`Engine::restore_from_reader`] this and serve open-loop from its
    /// first frame instead of re-learning from live traffic.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Snapshot`] with [`SnapshotError::NoBank`]
    /// when the engine is closed-loop or has no bank installed yet, and
    /// [`SnapshotError::Io`] when `writer` fails.
    pub fn snapshot_to_writer<W: Write>(&self, writer: &mut W) -> Result<()> {
        self.snapshot_with_spill(writer, SNAPSHOT_SPILL_TOP_K)
    }

    /// [`Engine::snapshot_to_writer`] with an explicit cache-spill size:
    /// the `top_k` most recently used cache entries belonging to this
    /// engine's tenant and current characteristic generations are carried
    /// along (0 omits the cache section entirely).
    pub fn snapshot_with_spill<W: Write>(&self, writer: &mut W, top_k: usize) -> Result<()> {
        // Serialize against concurrent restores; serves are unaffected
        // (they never take this lock).
        let _gate = lock_healthy(self.inner.snapshot_gate.lock(), || {
            self.inner.totals.record_poison_recovery()
        });
        let bank = self
            .inner
            .serving
            .as_ref()
            .and_then(OpenLoopState::current)
            .ok_or(RuntimeError::Snapshot(SnapshotError::NoBank))?;
        let record = self.bank_record(&bank)?;
        let cache = if top_k == 0 {
            None
        } else {
            self.spill_cache(top_k, &bank)
        };
        // Random checksum seed per snapshot: the seed travels in the
        // header, so any reader verifies, while the digest of a given
        // payload is not globally predictable.
        let seed = RandomState::new().hash_one(u64::from_le_bytes(SNAPSHOT_MAGIC_SEED));
        let bytes = snapshot::encode(&record, cache.as_ref(), seed);
        writer
            .write_all(&bytes) // lint: allow(guard-across-fit) -- the snapshot gate exists to serialize whole-bank writes against concurrent restores; serves never take it, so holding it across the write blocks nothing on the serve path
            .map_err(|err| RuntimeError::Snapshot(SnapshotError::Io(err)))
    }

    /// Builds the serializable bank record from the installed bank. The
    /// per-class curves re-fit from their samples on restore, so the
    /// samples — not the fitted spline coefficients — are the wire form.
    fn bank_record(&self, bank: &CurveBank) -> Result<BankRecord> {
        let state = self.serving_state()?;
        let centroids = bank.centroids();
        let mut classes = Vec::with_capacity(bank.classes.len());
        for (index, class) in bank.classes.iter().enumerate() {
            // A single-class bank routes without centroids; serialize zeros
            // so the record shape is uniform.
            let centroid = centroids
                .get(index)
                .copied()
                .unwrap_or([0.0; SIGNATURE_BINS]);
            let samples = class
                .characteristic
                .samples()
                .iter()
                .map(|sample| SampleRecord {
                    image: sample.image.clone(),
                    dynamic_range: sample.dynamic_range,
                    distortion: sample.distortion,
                    power_saving: sample.power_saving,
                })
                .collect();
            classes.push(ClassRecord {
                centroid,
                generation: class.generation,
                samples,
            });
        }
        Ok(BankRecord {
            fit: state.recharacterize.fit,
            classes,
        })
    }

    /// Spills the `top_k` most recently used cache entries that belong to
    /// this engine's tenant and were fitted under a currently installed
    /// class generation (stale-generation fits would never be probed and
    /// are not worth carrying).
    fn spill_cache(&self, top_k: usize, bank: &CurveBank) -> Option<CacheRecord> {
        let live = |class: u16, generation: u64| {
            bank.classes
                .get(usize::from(class))
                .is_some_and(|state| state.generation == generation)
        };
        let cache = self.inner.cache.as_deref()?;
        Some(with_keyed!(cache, keyed => keyed.spill(top_k, self.inner.tenant, live)))
    }

    /// Restores warm-start state saved by [`Engine::snapshot_to_writer`]:
    /// the characteristic bank re-enters through the validated
    /// [`Engine::install_bank`] path (fresh generations, atomic swap) and
    /// spilled cache entries re-enter through the normal insert path (the
    /// tenant partition and byte budget are respected; entries that don't
    /// fit this engine's cache mode are skipped, never errors).
    ///
    /// # Errors
    ///
    /// A corrupt, truncated or schema-mismatched snapshot returns
    /// [`RuntimeError::Snapshot`] and bumps
    /// [`EngineStats::snapshot_rejected`]; the engine keeps serving
    /// exactly as before the call (cold-start degradation, never a panic
    /// and never partially installed state).
    pub fn restore_from_reader<R: Read>(&self, reader: &mut R) -> Result<RestoreReport> {
        let _gate = lock_healthy(self.inner.snapshot_gate.lock(), || {
            self.inner.totals.record_poison_recovery()
        });
        let mut bytes = Vec::new();
        let restored = match reader.read_to_end(&mut bytes) {
            Ok(_) => self.restore_locked(&bytes),
            Err(err) => Err(SnapshotError::Io(err)),
        };
        restored.map_err(|err| {
            self.inner.totals.record_snapshot_rejection();
            RuntimeError::Snapshot(err)
        })
    }

    /// The restore body, under the snapshot gate: decode → validate →
    /// rebuild the bank → install → re-admit spilled cache entries.
    fn restore_locked(&self, bytes: &[u8]) -> std::result::Result<RestoreReport, SnapshotError> {
        let (record, cache_record) = snapshot::decode(bytes)?;
        let state = self.inner.serving.as_ref().ok_or(SnapshotError::NoBank)?;
        if record.fit != state.recharacterize.fit {
            // A bank serialized under a different fit mode would predict
            // differently than the canary that learned it; refuse rather
            // than silently change the distortion contract.
            return Err(SnapshotError::Malformed {
                context: "bank fit",
                reason: format!(
                    "snapshot fit {:?} does not match the engine's configured {:?}",
                    record.fit, state.recharacterize.fit
                ),
            });
        }
        if record.classes.len() > state.class_count() {
            return Err(SnapshotError::Malformed {
                context: "bank classes",
                reason: format!(
                    "{} classes exceed the engine's {} configured classes",
                    record.classes.len(),
                    state.class_count()
                ),
            });
        }
        let mut classes = Vec::with_capacity(record.classes.len());
        for class in &record.classes {
            let samples = class
                .samples
                .iter()
                .map(|sample| CharacterizationSample {
                    image: sample.image.clone(),
                    dynamic_range: sample.dynamic_range,
                    distortion: sample.distortion,
                    power_saving: sample.power_saving,
                })
                .collect();
            let characteristic =
                DistortionCharacteristic::from_samples(samples).map_err(|err| {
                    SnapshotError::Malformed {
                        context: "class curve",
                        reason: err.to_string(),
                    }
                })?;
            classes.push(BankClass {
                centroid: class.centroid,
                characteristic: Arc::new(characteristic),
                members: class.samples.len(),
            });
        }
        let bank =
            CharacteristicBank::from_classes(classes).map_err(|err| SnapshotError::Malformed {
                context: "bank",
                reason: err.to_string(),
            })?;
        // The restore-vs-serve race seam: a seeded interleaving schedule
        // can force serves between the decode above and the swap below.
        interleave::point("snapshot.restore");
        let generation = state.install_bank(self.inner.policy.config(), &bank);
        let installed = state.current().ok_or(SnapshotError::Malformed {
            context: "bank install",
            reason: "installed bank not visible after swap".to_string(),
        })?;
        let (cache_restored, cache_skipped) = match cache_record {
            None => (0, 0),
            Some(record) => self.restore_cache(record, &installed),
        };
        Ok(RestoreReport {
            classes: installed.classes.len(),
            generation,
            cache_restored,
            cache_skipped,
        })
    }

    /// Re-admits spilled cache entries through the normal insert path,
    /// re-keyed under this cache's own hash seed and the freshly installed
    /// class generations. Returns `(restored, skipped)` — a mode or
    /// band-width mismatch with this engine's cache skips entries rather
    /// than failing the restore.
    fn restore_cache(&self, record: CacheRecord, bank: &CurveBank) -> (usize, usize) {
        let Some(cache) = self.inner.cache.as_deref() else {
            // No cache: the bank alone still warm-starts serving; the
            // spill is simply dropped.
            return (0, record.entries.len());
        };
        let generation = |class: u16| {
            bank.classes
                .get(usize::from(class))
                .map(|state| state.generation)
        };
        let config = self.inner.policy.config();
        with_keyed!(cache, keyed => keyed.restore(record, self.inner.tenant, generation, config))
    }

    /// Serves a single frame synchronously on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates policy and display errors.
    pub fn process_frame(&self, frame: &GrayImage) -> Result<FrameResult> {
        let mut scratch = FitScratch::default();
        self.inner
            .serve_timed(0, frame, self.inner.max_distortion, None, &mut scratch)
    }

    /// Serves a single frame with per-request [`ServeOptions`]: an optional
    /// per-request distortion budget and an optional serve-by deadline (a
    /// late frame degrades to the installed open-loop curve instead of
    /// paying the closed-loop drift recheck — see
    /// [`ServeOptions::deadline`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidBudget`] if the requested budget is
    /// outside `[0, 1]`; otherwise propagates policy and display errors.
    pub fn process_frame_with_options(
        &self,
        frame: &GrayImage,
        options: &ServeOptions,
    ) -> Result<FrameResult> {
        let budget = options.max_distortion.unwrap_or(self.inner.max_distortion);
        if !(0.0..=1.0).contains(&budget) || !budget.is_finite() {
            return Err(RuntimeError::InvalidBudget { budget });
        }
        let mut scratch = FitScratch::default();
        self.inner
            .serve_timed(0, frame, budget, options.deadline, &mut scratch)
    }

    /// Records one shed arrival against this engine's cumulative stats
    /// (used by the admission controller; shed frames never reach the
    /// serve path).
    pub(crate) fn record_shed(&self) {
        self.inner.totals.record_shed();
    }

    /// Serves a single frame with a per-request distortion budget instead
    /// of the engine-wide one.
    ///
    /// Budgets that quantize into the same band (see
    /// [`CacheConfig::budget_band_width`]) share cache entries: a fit made
    /// for a strict budget serves looser requests in its band directly,
    /// and a cached fit is only replayed when its *measured* distortion
    /// satisfies the requesting budget.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidBudget`] if `max_distortion` is
    /// outside `[0, 1]`; otherwise propagates policy and display errors.
    pub fn process_frame_with_budget(
        &self,
        frame: &GrayImage,
        max_distortion: f64,
    ) -> Result<FrameResult> {
        if !(0.0..=1.0).contains(&max_distortion) || !max_distortion.is_finite() {
            return Err(RuntimeError::InvalidBudget {
                budget: max_distortion,
            });
        }
        let mut scratch = FitScratch::default();
        self.inner
            .serve_timed(0, frame, max_distortion, None, &mut scratch)
    }

    /// Serves a batch of frames across the worker pool and returns the
    /// per-frame results in input order.
    ///
    /// Frames are distributed by work stealing (an atomic cursor over the
    /// slice), so a slow frame never stalls the others; the output order is
    /// nevertheless exactly the input order.
    ///
    /// # Errors
    ///
    /// Returns the first per-frame error encountered (by input order).
    pub fn process_batch(&self, frames: &[GrayImage]) -> Result<BatchReport> {
        let start = Instant::now();
        let worker_count = self.inner.workers.min(frames.len()).max(1);
        let mut slots: Vec<Option<Result<FrameResult>>> = Vec::new();
        slots.resize_with(frames.len(), || None);
        // Stats class: the highest rank, so a worker that still held a serve
        // path lock here would be caught by lockdep — results are only
        // recorded after the serve completed and released everything.
        let slots = OrderedMutex::new(LockClass::Stats, slots);
        let cursor = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..worker_count {
                scope.spawn(|| {
                    // One reusable frame-buffer scratch per worker: the
                    // steady-state fit path performs no intermediate
                    // per-frame allocations.
                    let mut scratch = FitScratch::default();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed); // ordering: work-steal ticket; the RMW itself is the only coordination needed
                        if index >= frames.len() {
                            break;
                        }
                        let result = self.inner.serve_timed(
                            index,
                            &frames[index],
                            self.inner.max_distortion,
                            None,
                            &mut scratch,
                        );
                        lock_healthy(slots.lock(), || self.inner.totals.record_poison_recovery())
                            [index] = Some(result);
                    }
                });
            }
        });

        let mut results = Vec::with_capacity(frames.len());
        let slots = lock_healthy(slots.into_inner(), || {
            self.inner.totals.record_poison_recovery()
        });
        for slot in slots {
            let result = slot.expect("frame index claimed by a worker"); // lint: allow(no-unwrap) the cursor hands out each index exactly once
            results.push(result?);
        }
        Ok(BatchReport {
            results,
            wall_time: start.elapsed(),
        })
    }

    /// Streams frames from an iterator through the worker pool, yielding
    /// results in input order as they complete.
    ///
    /// The producer iterator is drained on a dedicated feeder thread through
    /// a bounded queue of depth [`EngineConfig::queue_depth`], so a slow
    /// consumer or a saturated pool exerts backpressure on the producer
    /// instead of buffering the whole stream. Dropping the returned stream
    /// early tears the pipeline down.
    pub fn stream<I>(&self, frames: I) -> FrameStream
    where
        I: IntoIterator<Item = GrayImage>,
        I::IntoIter: Send + 'static,
    {
        let (core, handles) = stream_pipeline(&self.inner, frames.into_iter(), |task| {
            std::thread::spawn(task)
        });
        FrameStream { core, handles }
    }

    /// Streams frames from a *borrowing* producer iterator through the
    /// worker pool, inside a [`std::thread::scope`]. Identical semantics to
    /// [`Engine::stream`] — bounded queues, input-order results, the same
    /// failure accounting — but the producer only needs to live for the
    /// scope, so it can borrow from the caller's stack (a frame buffer, a
    /// decoder) instead of satisfying a `'static` bound.
    ///
    /// The returned stream must be consumed (or dropped) inside the scope;
    /// the pipeline threads are joined when the stream drops, and at the
    /// latest when the scope ends.
    ///
    /// ```
    /// use hebs_core::{HebsPolicy, PipelineConfig};
    /// use hebs_imaging::{FrameSequence, SceneKind};
    /// use hebs_runtime::{Engine, EngineConfig};
    ///
    /// let policy = HebsPolicy::closed_loop(PipelineConfig::default());
    /// let engine = Engine::new(policy, EngineConfig::default())?;
    /// let frames: Vec<_> = FrameSequence::new(SceneKind::Static, 24, 24, 4, 3)
    ///     .frames()
    ///     .collect();
    /// let served = std::thread::scope(|scope| {
    ///     // The producer borrows `frames` — no cloning, no 'static.
    ///     let stream = engine.stream_scoped(scope, frames.iter().cloned());
    ///     stream.count()
    /// });
    /// assert_eq!(served, 4);
    /// # Ok::<(), hebs_runtime::RuntimeError>(())
    /// ```
    pub fn stream_scoped<'scope, I>(
        &self,
        scope: &'scope Scope<'scope, '_>,
        frames: I,
    ) -> ScopedFrameStream<'scope>
    where
        I: IntoIterator<Item = GrayImage>,
        I::IntoIter: Send + 'scope,
    {
        let (core, handles) =
            stream_pipeline(&self.inner, frames.into_iter(), |task| scope.spawn(task));
        ScopedFrameStream { core, handles }
    }
}

/// Validates a cache configuration, shared between [`Engine::new`] and the
/// [`TenantRegistry`](crate::TenantRegistry) builder (which constructs the
/// shared cache itself).
pub(crate) fn validate_cache_config(cache: &CacheConfig) -> Result<()> {
    if cache.capacity == 0 {
        return Err(RuntimeError::InvalidConfig {
            name: "cache.capacity",
            reason: "must be nonzero (disable the cache with None instead)".to_string(),
        });
    }
    if cache.shards == 0 {
        return Err(RuntimeError::InvalidConfig {
            name: "cache.shards",
            reason: "must be nonzero".to_string(),
        });
    }
    if cache.signature_resolution == 0 {
        return Err(RuntimeError::InvalidConfig {
            name: "cache.signature_resolution",
            reason: "must be nonzero".to_string(),
        });
    }
    if cache.byte_budget == Some(0) {
        return Err(RuntimeError::InvalidConfig {
            name: "cache.byte_budget",
            reason: "must be nonzero (use None for unbounded)".to_string(),
        });
    }
    if !cache.budget_band_width.is_finite()
        || cache.budget_band_width <= 0.0
        || cache.budget_band_width > 1.0
    {
        return Err(RuntimeError::InvalidConfig {
            name: "cache.budget_band_width",
            reason: format!("{} is outside (0, 1]", cache.budget_band_width),
        });
    }
    Ok(())
}

/// Builds the streaming pipeline — feeder thread, worker pool, bounded
/// channels — spawning each thread through `spawn`, which is
/// `std::thread::spawn` for [`Engine::stream`] and a scoped spawn for
/// [`Engine::stream_scoped`]. The producer's lifetime `'a` is `'static` in
/// the former case and the scope's lifetime in the latter.
fn stream_pipeline<'a, H>(
    inner: &Arc<EngineInner>,
    iter: impl Iterator<Item = GrayImage> + Send + 'a,
    mut spawn: impl FnMut(Box<dyn FnOnce() + Send + 'a>) -> H,
) -> (StreamCore, Vec<H>) {
    let (feed_tx, feed_rx) = sync_channel::<(usize, GrayImage)>(inner.queue_depth);
    let (out_tx, out_rx) = sync_channel::<Sequenced>(inner.queue_depth);
    // Stats class (highest rank): the guard is held across `recv`, but never
    // while a serve-path lock is taken — the serve runs after the guard drops.
    let feed_rx = Arc::new(OrderedMutex::new(LockClass::Stats, feed_rx));
    let progress = Arc::new(FeedProgress::default());

    let mut handles = Vec::with_capacity(inner.workers + 1);
    let feed_progress = Arc::clone(&progress);
    handles.push(spawn(Box::new(move || {
        feed(iter, &feed_tx, &feed_progress);
    })));
    for _ in 0..inner.workers {
        let inner = Arc::clone(inner);
        let feed_rx = Arc::clone(&feed_rx);
        let out_tx: SyncSender<Sequenced> = out_tx.clone();
        handles.push(spawn(Box::new(move || {
            let mut scratch = FitScratch::default();
            loop {
                let next =
                    lock_healthy(feed_rx.lock(), || inner.totals.record_poison_recovery()).recv();
                let Ok((index, frame)) = next else { break };
                let result =
                    inner.serve_timed(index, &frame, inner.max_distortion, None, &mut scratch);
                if out_tx.send(Sequenced { index, result }).is_err() {
                    break; // Consumer went away; stop serving.
                }
            }
        })));
    }

    (
        StreamCore {
            results: Some(out_rx),
            reorder: BinaryHeap::new(),
            next_index: 0,
            progress,
            failure_reported: false,
        },
        handles,
    )
}

/// How far the feeder got: the total frame count once the producer iterator
/// is exhausted, and whether the producer itself panicked. Lets the consumer
/// distinguish "stream over" from "a worker died holding the tail frames"
/// from "the producer died mid-stream".
#[derive(Default)]
struct FeedProgress {
    total: AtomicUsize,
    exhausted: std::sync::atomic::AtomicBool,
    produced: AtomicUsize,
    failed: std::sync::atomic::AtomicBool,
}

/// Feeds the producer iterator into the bounded queue until it is exhausted
/// or the pool shuts down. A panic inside the producer iterator is recorded
/// in [`FeedProgress::failed`] so the consumer can surface it instead of
/// ending the stream as if it completed.
fn feed<I: Iterator<Item = GrayImage>>(
    iter: I,
    tx: &SyncSender<(usize, GrayImage)>,
    progress: &FeedProgress,
) {
    struct PanicGuard<'a>(&'a FeedProgress);
    impl Drop for PanicGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.failed.store(true, Ordering::Release);
            }
        }
    }
    let guard = PanicGuard(progress);

    let mut count = 0usize;
    for (index, frame) in iter.enumerate() {
        if tx.send((index, frame)).is_err() {
            return; // Pool shut down early; the total is unknowable.
        }
        count = index + 1;
        progress.produced.store(count, Ordering::Release);
    }
    progress.total.store(count, Ordering::Release);
    progress.exhausted.store(true, Ordering::Release);
    drop(guard);
}

/// A completed frame tagged with its input position, ordered by position for
/// the reorder heap.
struct Sequenced {
    index: usize,
    result: Result<FrameResult>,
}

impl PartialEq for Sequenced {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}
impl Eq for Sequenced {}
impl PartialOrd for Sequenced {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sequenced {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.index.cmp(&other.index)
    }
}

/// The outcome of a non-blocking poll of a [`FrameStream`]
/// ([`FrameStream::try_next`] / [`FrameStream::next_timeout`]).
#[derive(Debug)]
pub enum StreamPoll {
    /// The next in-order frame result (or per-frame error) is ready.
    Ready(Result<FrameResult>),
    /// No result is ready yet — the producer or the pool is still working
    /// (or, for [`FrameStream::next_timeout`], the timeout elapsed first).
    /// Poll again later; the stream is still live.
    Pending,
    /// The stream is complete; no further results will arrive.
    Finished,
}

/// What one receive attempt against the result channel produced.
enum Received {
    /// A completed frame arrived.
    Got(Sequenced),
    /// Nothing available right now, but workers may still deliver.
    Empty,
    /// The channel is closed: every worker has exited.
    Closed,
}

/// The reordering/accounting state shared by [`FrameStream`] and
/// [`ScopedFrameStream`]: the result channel, the reorder heap and the
/// feeder progress. The two stream types differ only in how their pipeline
/// threads are owned (plain vs. scoped join handles).
struct StreamCore {
    results: Option<Receiver<Sequenced>>,
    reorder: BinaryHeap<Reverse<Sequenced>>,
    next_index: usize,
    progress: Arc<FeedProgress>,
    failure_reported: bool,
}

impl StreamCore {
    fn try_next(&mut self) -> StreamPoll {
        self.poll_with(|rx| match rx.try_recv() {
            Ok(seq) => Received::Got(seq),
            Err(std::sync::mpsc::TryRecvError::Empty) => Received::Empty,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Received::Closed,
        })
    }

    fn next_timeout(&mut self, timeout: Duration) -> StreamPoll {
        let deadline = Instant::now() + timeout;
        self.poll_with(|rx| {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok(seq) => Received::Got(seq),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Received::Empty,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Received::Closed,
            }
        })
    }

    /// The blocking receive behind the [`Iterator`] interface:
    /// `Received::Empty` is unreachable, so the poll only ever ends Ready
    /// or Finished.
    fn next_blocking(&mut self) -> Option<Result<FrameResult>> {
        match self.poll_with(|rx| match rx.recv() {
            Ok(seq) => Received::Got(seq),
            Err(_) => Received::Closed,
        }) {
            StreamPoll::Ready(item) => Some(item),
            StreamPoll::Pending => unreachable!("a blocking receive never reports Pending"),
            StreamPoll::Finished => None,
        }
    }

    /// The shared poll loop: drain the reorder heap, receive via `recv`
    /// until the next in-order result is available, and translate the
    /// closed channel into the end-of-stream accounting (lost frames,
    /// producer/pool failures, completion).
    fn poll_with(&mut self, mut recv: impl FnMut(&Receiver<Sequenced>) -> Received) -> StreamPoll {
        loop {
            if let Some(Reverse(head)) = self.reorder.peek() {
                if head.index == self.next_index {
                    let Reverse(seq) = self.reorder.pop().expect("peeked entry exists"); // lint: allow(no-unwrap) guarded by the peek above
                    self.next_index += 1;
                    return StreamPoll::Ready(seq.result);
                }
            }
            let received = match self.results.as_ref() {
                Some(rx) => recv(rx),
                None => Received::Closed,
            };
            match received {
                Received::Got(seq) => self.reorder.push(Reverse(seq)),
                Received::Empty => return StreamPoll::Pending,
                Received::Closed => {
                    // All workers are done; drain what is left in order. A
                    // gap in the index sequence — including missing frames at
                    // the tail, which the feeder's final count exposes —
                    // means a worker died before delivering that frame:
                    // surface the loss instead of silently skipping it.
                    let next_delivered = self.reorder.peek().map(|Reverse(head)| head.index);
                    let expected_total = self
                        .progress
                        .exhausted
                        .load(Ordering::Acquire)
                        .then(|| self.progress.total.load(Ordering::Acquire));
                    let gap = match (next_delivered, expected_total) {
                        (Some(delivered), _) => delivered != self.next_index,
                        (None, Some(total)) => self.next_index < total,
                        (None, None) => false,
                    };
                    if gap {
                        let lost = self.next_index;
                        self.next_index += 1;
                        return StreamPoll::Ready(Err(RuntimeError::FrameLost { index: lost }));
                    }
                    if self.reorder.is_empty() && !self.failure_reported {
                        if self.progress.failed.load(Ordering::Acquire) {
                            // The producer iterator panicked: every frame it
                            // yielded has been drained above, so report the
                            // early end once instead of finishing silently.
                            self.failure_reported = true;
                            return StreamPoll::Ready(Err(RuntimeError::ProducerFailed {
                                frames_produced: self.progress.produced.load(Ordering::Acquire),
                            }));
                        }
                        if expected_total.is_none() {
                            // The output channel closed while the producer
                            // had neither finished nor failed: every worker
                            // died. Surface that instead of ending the
                            // stream as if it completed.
                            self.failure_reported = true;
                            return StreamPoll::Ready(Err(RuntimeError::PoolFailed {
                                frames_served: self.next_index,
                            }));
                        }
                    }
                    // No gap and nothing left to report: a nonempty heap is
                    // impossible here (its head would have matched at the
                    // top of the loop or counted as a gap), so the stream
                    // is complete.
                    return StreamPoll::Finished;
                }
            }
        }
    }
}

/// An in-order iterator over the results of [`Engine::stream`].
///
/// Results arrive from the pool in completion order; a small reorder heap
/// (bounded by the number of frames in flight) restores input order.
///
/// Besides the blocking [`Iterator`] interface, the stream can be *polled*
/// with [`FrameStream::try_next`] (never blocks) or
/// [`FrameStream::next_timeout`] (blocks at most a deadline), so an event
/// loop multiplexing other work never parks forever on a stalled producer.
pub struct FrameStream {
    core: StreamCore,
    handles: Vec<JoinHandle<()>>,
}

impl FrameStream {
    /// Polls for the next in-order result without blocking.
    ///
    /// Returns [`StreamPoll::Pending`] when the next result has not been
    /// produced yet — for example because the producer iterator is stalled
    /// waiting on I/O — instead of parking the caller on the channel the
    /// way the [`Iterator`] interface does.
    pub fn try_next(&mut self) -> StreamPoll {
        self.core.try_next()
    }

    /// Polls for the next in-order result, blocking at most `timeout`.
    ///
    /// The timeout is one deadline for the whole call (not per internal
    /// receive), so a trickle of out-of-order completions cannot extend it.
    pub fn next_timeout(&mut self, timeout: Duration) -> StreamPoll {
        self.core.next_timeout(timeout)
    }
}

impl Iterator for FrameStream {
    type Item = Result<FrameResult>;

    fn next(&mut self) -> Option<Self::Item> {
        self.core.next_blocking()
    }
}

impl Drop for FrameStream {
    fn drop(&mut self) {
        // Closing the result channel unblocks any worker parked on a full
        // output queue (its send fails); workers then drop the feed receiver,
        // which unblocks the feeder. Reap the pool so no thread outlives the
        // stream.
        drop(self.core.results.take());
        let handles = std::mem::take(&mut self.handles);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The scoped counterpart of [`FrameStream`], returned by
/// [`Engine::stream_scoped`]: the same in-order iterator and polling
/// interface, with the pipeline threads owned by a [`std::thread::scope`]
/// so the producer may borrow from the caller's stack.
pub struct ScopedFrameStream<'scope> {
    core: StreamCore,
    handles: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl ScopedFrameStream<'_> {
    /// Polls for the next in-order result without blocking; see
    /// [`FrameStream::try_next`].
    pub fn try_next(&mut self) -> StreamPoll {
        self.core.try_next()
    }

    /// Polls for the next in-order result, blocking at most `timeout`; see
    /// [`FrameStream::next_timeout`].
    pub fn next_timeout(&mut self, timeout: Duration) -> StreamPoll {
        self.core.next_timeout(timeout)
    }
}

impl Iterator for ScopedFrameStream<'_> {
    type Item = Result<FrameResult>;

    fn next(&mut self) -> Option<Self::Item> {
        self.core.next_blocking()
    }
}

impl Drop for ScopedFrameStream<'_> {
    fn drop(&mut self) {
        // Same teardown as FrameStream; the scope would join the threads at
        // its end anyway, but joining here keeps drop-early semantics (and
        // backpressure release) identical between the two stream types.
        drop(self.core.results.take());
        let handles = std::mem::take(&mut self.handles);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hebs_core::{BacklightPolicy, PipelineConfig};
    use hebs_imaging::{synthetic, FrameSequence, SceneKind};

    fn engine(config: EngineConfig) -> Engine {
        Engine::new(HebsPolicy::closed_loop(PipelineConfig::default()), config).unwrap()
    }

    fn test_frames(count: usize) -> Vec<GrayImage> {
        FrameSequence::new(SceneKind::SceneCut, 32, 32, count, 11)
            .frames()
            .collect()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let bad_budget = EngineConfig {
            max_distortion: 1.5,
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::new(policy, bad_budget),
            Err(RuntimeError::InvalidConfig {
                name: "max_distortion",
                ..
            })
        ));

        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let bad_cache = EngineConfig {
            cache: Some(CacheConfig::default().with_capacity(0)),
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::new(policy, bad_cache),
            Err(RuntimeError::InvalidConfig {
                name: "cache.capacity",
                ..
            })
        ));

        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let bad_resolution = EngineConfig {
            cache: Some(CacheConfig {
                signature_resolution: 0,
                ..CacheConfig::approximate()
            }),
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::new(policy, bad_resolution),
            Err(RuntimeError::InvalidConfig {
                name: "cache.signature_resolution",
                ..
            })
        ));
    }

    #[test]
    fn worker_autodetection_and_overrides() {
        let auto = engine(EngineConfig::default());
        assert!(auto.workers() >= 1);
        let fixed = engine(EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        });
        assert_eq!(fixed.workers(), 3);
        assert_eq!(fixed.max_distortion(), 0.10);
    }

    #[test]
    fn batch_results_are_in_input_order() {
        let engine = engine(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        });
        let frames = test_frames(12);
        let report = engine.process_batch(&frames).unwrap();
        assert_eq!(report.frames(), 12);
        for (i, result) in report.results.iter().enumerate() {
            assert_eq!(result.index, i);
        }
    }

    #[test]
    fn batch_matches_sequential_policy_outcomes() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let frames = test_frames(6);
        let expected: Vec<_> = frames
            .iter()
            .map(|f| policy.optimize(f, 0.10).unwrap())
            .collect();

        let engine = engine(EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        });
        let report = engine.process_batch(&frames).unwrap();
        for (result, want) in report.results.iter().zip(&expected) {
            assert_eq!(result.outcome.beta, want.beta);
            assert_eq!(result.outcome.distortion, want.distortion);
            assert_eq!(result.outcome.lut, want.lut);
            assert_eq!(result.outcome.displayed, want.displayed);
        }
    }

    #[test]
    fn exact_cache_replays_identical_frames() {
        let engine = engine(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let frames = test_frames(8);
        let cold = engine.process_batch(&frames).unwrap();
        let warm = engine.process_batch(&frames).unwrap();
        assert_eq!(warm.cache_hit_rate(), 1.0, "second pass should be all hits");
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(a.outcome.beta, b.outcome.beta);
            assert_eq!(a.outcome.distortion, b.outcome.distortion);
            assert_eq!(a.outcome.displayed, b.outcome.displayed);
        }
        assert!(engine.cached_fits() > 0);
        let stats = engine.stats();
        assert_eq!(stats.frames, 16);
        assert!(stats.cache_hits >= 8);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let engine = engine(EngineConfig::default());
        let report = engine.process_batch(&[]).unwrap();
        assert_eq!(report.frames(), 0);
        assert_eq!(report.cache_hit_rate(), 0.0);
        assert_eq!(report.mean_latency(), Duration::ZERO);
        assert_eq!(report.latency_quantile(0.95), Duration::ZERO);
    }

    #[test]
    fn stream_yields_results_in_input_order() {
        let engine = engine(EngineConfig {
            workers: 4,
            queue_depth: 2,
            ..EngineConfig::default()
        });
        let frames = test_frames(16);
        let results: Vec<_> = engine
            .stream(frames.clone())
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(results.len(), 16);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.index, i);
        }

        // And the outcomes match the batch path.
        let report = engine.process_batch(&frames).unwrap();
        for (s, b) in results.iter().zip(&report.results) {
            assert_eq!(s.outcome.beta, b.outcome.beta);
            assert_eq!(s.outcome.distortion, b.outcome.distortion);
        }
    }

    #[test]
    fn producer_panic_is_surfaced_as_an_error() {
        let engine = engine(EngineConfig {
            workers: 2,
            queue_depth: 2,
            cache: None,
            ..EngineConfig::default()
        });
        let frames = test_frames(4);
        let feed = frames.into_iter().enumerate().map(|(i, frame)| {
            if i == 3 {
                panic!("decoder died");
            }
            frame
        });
        let results: Vec<_> = engine.stream(feed).collect();
        assert_eq!(results.len(), 4, "3 served frames plus the failure");
        for (i, result) in results[..3].iter().enumerate() {
            assert_eq!(result.as_ref().unwrap().index, i);
        }
        assert!(matches!(
            results[3],
            Err(RuntimeError::ProducerFailed { frames_produced: 3 })
        ));
    }

    #[test]
    fn dropping_a_stream_early_shuts_the_pool_down() {
        let engine = engine(EngineConfig {
            workers: 2,
            queue_depth: 1,
            ..EngineConfig::default()
        });
        let frames = test_frames(32);
        let mut stream = engine.stream(frames);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.index, 0);
        drop(stream); // Must not deadlock or panic.
    }

    #[test]
    fn single_frame_processing_works() {
        let engine = engine(EngineConfig::default());
        let frame = synthetic::portrait(32, 32, 3);
        let first = engine.process_frame(&frame).unwrap();
        assert!(!first.cache_hit);
        let second = engine.process_frame(&frame).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.outcome.beta, second.outcome.beta);
    }

    #[test]
    fn engine_handles_are_cloneable_and_share_the_cache() {
        let a = engine(EngineConfig::default());
        let b = a.clone();
        let frame = synthetic::still_life(32, 32, 9);
        a.process_frame(&frame).unwrap();
        let result = b.process_frame(&frame).unwrap();
        assert!(result.cache_hit, "clones share one cache");
        assert_eq!(b.stats().frames, 2);
    }

    #[test]
    fn cache_v2_configs_are_validated() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let bad_bytes = EngineConfig {
            cache: Some(CacheConfig::default().with_byte_budget(Some(0))),
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::new(policy, bad_bytes),
            Err(RuntimeError::InvalidConfig {
                name: "cache.byte_budget",
                ..
            })
        ));

        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let bad_band = EngineConfig {
            cache: Some(CacheConfig::default().with_budget_band_width(0.0)),
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::new(policy, bad_band),
            Err(RuntimeError::InvalidConfig {
                name: "cache.budget_band_width",
                ..
            })
        ));
    }

    #[test]
    fn per_request_budgets_are_validated() {
        let engine = engine(EngineConfig::default());
        let frame = synthetic::portrait(16, 16, 1);
        assert!(matches!(
            engine.process_frame_with_budget(&frame, 1.5),
            Err(RuntimeError::InvalidBudget { .. })
        ));
        assert!(matches!(
            engine.process_frame_with_budget(&frame, f64::NAN),
            Err(RuntimeError::InvalidBudget { .. })
        ));
    }

    /// Regression: `ShardedLru` hit/miss counters must agree with
    /// `EngineStats` on every path, including the rejected-hit path where
    /// a cached fit fails the distortion recheck for a stricter budget.
    #[test]
    fn lru_counters_agree_with_engine_stats_on_exact_rejections() {
        // One wide band so a loose-budget fit and a strict-budget request
        // share cache entries.
        let engine = engine(EngineConfig {
            workers: 1,
            max_distortion: 0.30,
            cache: Some(CacheConfig::exact().with_budget_band_width(0.5)),
            ..EngineConfig::default()
        });
        let frame = synthetic::portrait(32, 32, 3);

        let loose = engine.process_frame(&frame).unwrap();
        assert!(!loose.cache_hit);
        assert!(loose.outcome.distortion > 0.02, "loose fit uses its budget");

        // Stricter budget in the same band: the cached fit's measured
        // distortion exceeds it, so the hit is rejected and a refit runs.
        let strict = engine.process_frame_with_budget(&frame, 0.02).unwrap();
        assert!(!strict.cache_hit, "rejected hit must surface as a miss");
        assert!(strict.outcome.distortion <= 0.02);

        // The strict refit replaced the entry, so a loose request is now
        // served by the stricter fit: cross-budget sharing.
        let shared = engine.process_frame_with_budget(&frame, 0.30).unwrap();
        assert!(shared.cache_hit, "stricter fit serves the looser budget");
        assert!(shared.outcome.distortion <= 0.02);

        let stats = engine.stats();
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_rejected, 1);
        let counters = engine.cache_counters().unwrap();
        assert_eq!(counters.hits, stats.cache_hits, "lru hits drifted");
        assert_eq!(counters.misses, stats.cache_misses, "lru misses drifted");
        assert_eq!(
            counters.rejections, stats.cache_rejected,
            "lru rejections drifted"
        );
        assert_eq!(
            counters.coalesced, stats.cache_coalesced,
            "lru coalesced drifted"
        );
    }

    /// Same reconciliation for the approximate mode, whose rejection path
    /// (serve-time distortion recheck) is where the v1 counters drifted.
    #[test]
    fn lru_counters_agree_with_engine_stats_on_approximate_rejections() {
        let engine = engine(EngineConfig {
            workers: 1,
            max_distortion: 0.30,
            cache: Some(CacheConfig::approximate().with_budget_band_width(0.5)),
            ..EngineConfig::default()
        });
        let frame = synthetic::portrait(32, 32, 3);

        let loose = engine.process_frame(&frame).unwrap();
        assert!(!loose.cache_hit);
        let strict = engine.process_frame_with_budget(&frame, 0.02).unwrap();
        assert!(!strict.cache_hit, "over-budget replay must count as a miss");
        assert!(strict.outcome.distortion <= 0.02);

        let stats = engine.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.frames);
        assert_eq!(stats.cache_rejected, 1);
        let counters = engine.cache_counters().unwrap();
        assert_eq!(counters.hits, stats.cache_hits);
        assert_eq!(counters.misses, stats.cache_misses);
        assert_eq!(counters.rejections, stats.cache_rejected);
        assert_eq!(counters.coalesced, stats.cache_coalesced);
    }

    #[test]
    fn fit_evaluations_are_surfaced_and_zero_on_replays() {
        let engine = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let frame = synthetic::portrait(32, 32, 5);
        engine.process_frame(&frame).unwrap();
        let after_miss = engine.stats().fit_evaluations;
        assert!(
            after_miss > 0,
            "a closed-loop miss must report its candidate evaluations"
        );
        engine.process_frame(&frame).unwrap(); // exact-cache replay
        assert_eq!(
            engine.stats().fit_evaluations,
            after_miss,
            "replays run no fits"
        );
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<EngineConfig>();
        assert_send_sync::<FrameResult>();
        assert_send_sync::<BatchReport>();
        assert_send_sync::<crate::ServingMode>();
    }

    #[test]
    fn try_next_reports_pending_on_a_stalled_producer_instead_of_blocking() {
        use std::sync::mpsc::channel;

        let engine = engine(EngineConfig {
            workers: 2,
            queue_depth: 2,
            cache: None,
            ..EngineConfig::default()
        });
        // A producer driven from outside the stream: nothing is yielded
        // until `feed` sends, which models a decoder stalled on I/O.
        let (feed, gate) = channel::<GrayImage>();
        let mut stream = engine.stream(std::iter::from_fn(move || gate.recv().ok()));

        // Nothing produced yet: the blocking iterator would park forever
        // here; the poll interface reports Pending immediately.
        assert!(matches!(stream.try_next(), StreamPoll::Pending));
        assert!(matches!(
            stream.next_timeout(Duration::from_millis(10)),
            StreamPoll::Pending
        ));

        // Unstall the producer: the result arrives within the deadline.
        feed.send(synthetic::portrait(24, 24, 7)).unwrap();
        let polled = loop {
            match stream.next_timeout(Duration::from_secs(10)) {
                StreamPoll::Pending => continue,
                other => break other,
            }
        };
        match polled {
            StreamPoll::Ready(result) => assert_eq!(result.unwrap().index, 0),
            other => panic!("expected a ready frame, got {other:?}"),
        }

        // Ending the producer finishes the stream through the poll API too.
        drop(feed);
        let finished = loop {
            match stream.next_timeout(Duration::from_secs(10)) {
                StreamPoll::Pending => continue,
                other => break other,
            }
        };
        assert!(matches!(finished, StreamPoll::Finished));
        assert!(matches!(stream.try_next(), StreamPoll::Finished));
    }

    #[test]
    fn open_loop_configs_are_validated() {
        use crate::{RecharacterizePolicy, ServingMode};

        let cases = [
            (
                "mode.recharacterize.sample_period",
                RecharacterizePolicy {
                    sample_period: 0,
                    ..RecharacterizePolicy::default()
                },
            ),
            (
                "mode.recharacterize.sample_capacity",
                RecharacterizePolicy {
                    sample_capacity: 0,
                    ..RecharacterizePolicy::default()
                },
            ),
            (
                "mode.recharacterize.ranges",
                RecharacterizePolicy {
                    ranges: vec![],
                    ..RecharacterizePolicy::default()
                },
            ),
            (
                "mode.recharacterize.ranges",
                RecharacterizePolicy {
                    ranges: vec![100, 300],
                    ..RecharacterizePolicy::default()
                },
            ),
        ];
        for (name, recharacterize) in cases {
            let policy = HebsPolicy::closed_loop(PipelineConfig::default());
            let result = Engine::new(
                policy,
                EngineConfig {
                    mode: ServingMode::OpenLoop { recharacterize },
                    ..EngineConfig::default()
                },
            );
            match result {
                Err(RuntimeError::InvalidConfig { name: got, .. }) => assert_eq!(got, name),
                other => panic!("expected InvalidConfig({name}), got {:?}", other.is_ok()),
            }
        }
    }

    #[test]
    fn open_loop_mode_requires_a_closed_loop_base_policy() {
        use crate::{RecharacterizePolicy, ServingMode};
        // An open-loop base policy would make the drift fallback repeat the
        // same characteristic lookup, breaking the distortion contract.
        let samples: Vec<hebs_core::CharacterizationSample> = (1..=5)
            .map(|i| hebs_core::CharacterizationSample {
                image: format!("s{i}"),
                dynamic_range: 50 * i,
                distortion: 0.3 - 0.05 * f64::from(i),
                power_saving: 0.4,
            })
            .collect();
        let curve = DistortionCharacteristic::from_samples(samples).unwrap();
        let policy = HebsPolicy::open_loop(PipelineConfig::default(), curve, false);
        assert!(matches!(
            Engine::new(
                policy,
                EngineConfig {
                    mode: ServingMode::OpenLoop {
                        recharacterize: RecharacterizePolicy::default(),
                    },
                    ..EngineConfig::default()
                },
            ),
            Err(RuntimeError::InvalidConfig { name: "mode", .. })
        ));
    }

    fn synthetic_curve(offset: f64) -> DistortionCharacteristic {
        let samples: Vec<hebs_core::CharacterizationSample> = (1..=5)
            .map(|i| hebs_core::CharacterizationSample {
                image: format!("s{i}"),
                dynamic_range: 50 * i,
                distortion: (0.3 - 0.05 * f64::from(i) + offset).max(0.0),
                power_saving: 0.4,
            })
            .collect();
        DistortionCharacteristic::from_samples(samples).unwrap()
    }

    fn two_class_bank() -> hebs_core::CharacteristicBank {
        hebs_core::CharacteristicBank::from_classes(vec![
            hebs_core::BankClass {
                centroid: [0.0; hebs_imaging::SIGNATURE_BINS],
                characteristic: Arc::new(synthetic_curve(0.0)),
                members: 1,
            },
            hebs_core::BankClass {
                centroid: [4.0; hebs_imaging::SIGNATURE_BINS],
                characteristic: Arc::new(synthetic_curve(0.1)),
                members: 1,
            },
        ])
        .unwrap()
    }

    #[test]
    fn zero_and_oversized_class_counts_are_rejected() {
        use crate::{RecharacterizePolicy, ServingMode};
        for classes in [0usize, 10_000] {
            let policy = HebsPolicy::closed_loop(PipelineConfig::default());
            let result = Engine::new(
                policy,
                EngineConfig {
                    mode: ServingMode::OpenLoop {
                        recharacterize: RecharacterizePolicy {
                            classes,
                            ..RecharacterizePolicy::default()
                        },
                    },
                    ..EngineConfig::default()
                },
            );
            assert!(matches!(
                result,
                Err(RuntimeError::InvalidConfig {
                    name: "mode.recharacterize.classes",
                    ..
                })
            ));
        }
    }

    #[test]
    fn bank_installs_respect_the_provisioned_class_count() {
        use crate::{RecharacterizePolicy, ServingMode};
        let engine_with_classes = |classes: usize| {
            Engine::new(
                HebsPolicy::closed_loop(PipelineConfig::default()),
                EngineConfig {
                    mode: ServingMode::OpenLoop {
                        recharacterize: RecharacterizePolicy {
                            classes,
                            ..RecharacterizePolicy::default()
                        },
                    },
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        };

        // A 2-class bank does not fit an engine provisioned for 1 class...
        let narrow = engine_with_classes(1);
        assert!(matches!(
            narrow.install_bank(two_class_bank()),
            Err(RuntimeError::InvalidConfig { name: "bank", .. })
        ));
        assert_eq!(narrow.characteristic_classes(), 0);

        // ...and installs cleanly when provisioned, with one generation per
        // class.
        let wide = engine_with_classes(2);
        let generation = wide.install_bank(two_class_bank()).unwrap();
        assert_eq!(wide.characteristic_classes(), 2);
        assert_eq!(wide.characteristic_generation(), generation);
        assert!(generation >= 2, "each class gets its own generation");
        assert!(wide.characteristic().is_some());

        // A single-curve install still works on a multi-class engine (a
        // one-class bank, the classic flow).
        let single_generation = wide.install_characteristic(synthetic_curve(0.0)).unwrap();
        assert!(single_generation > generation);
        assert_eq!(wide.characteristic_classes(), 1);
    }

    #[test]
    fn closed_loop_engines_refuse_characteristic_installs() {
        let engine = engine(EngineConfig::default());
        let samples: Vec<hebs_core::CharacterizationSample> = (1..=5)
            .map(|i| hebs_core::CharacterizationSample {
                image: format!("s{i}"),
                dynamic_range: 50 * i,
                distortion: 0.3 - 0.05 * f64::from(i),
                power_saving: 0.4,
            })
            .collect();
        let curve = DistortionCharacteristic::from_samples(samples).unwrap();
        assert!(matches!(
            engine.install_characteristic(curve),
            Err(RuntimeError::InvalidConfig { name: "mode", .. })
        ));
        assert!(matches!(
            engine.install_bank(two_class_bank()),
            Err(RuntimeError::InvalidConfig { name: "mode", .. })
        ));
        assert_eq!(engine.characteristic_generation(), 0);
        assert_eq!(engine.characteristic_classes(), 0);
        assert!(engine.characteristic().is_none());
    }

    /// Only an open-loop serve that claims a due rebuild starts a thread:
    /// neither a closed-loop engine nor a freshly built open-loop engine
    /// owns one, and `quiesce_rebuilds` joins the one a serve started.
    #[test]
    fn only_a_claimed_rebuild_owns_a_thread() {
        use crate::{RecharacterizePolicy, ServingMode};
        let owns_thread = |engine: &Engine| {
            engine
                .inner
                .serving
                .as_ref()
                .is_some_and(OpenLoopState::owns_rebuild_thread)
        };
        let frames = test_frames(2);
        let closed = engine(EngineConfig::default());
        closed.process_batch(&frames).unwrap();
        assert!(!owns_thread(&closed));

        let open = Engine::new(
            HebsPolicy::closed_loop(
                PipelineConfig::default().with_measure(hebs_quality::GlobalUiqiDistortion),
            ),
            EngineConfig {
                workers: 1,
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy {
                        interval: None,
                        drift_limit: None,
                        sample_period: 1,
                        ..RecharacterizePolicy::default()
                    },
                },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(!owns_thread(&open), "construction starts no thread");
        // The first serve samples the sketch and claims the bootstrap.
        open.process_frame(&frames[0]).unwrap();
        assert!(
            owns_thread(&open),
            "the claiming serve handed the rebuild off"
        );
        open.quiesce_rebuilds();
        assert!(!owns_thread(&open));
        let state = open.inner.serving.as_ref().unwrap();
        assert!(
            state.begin_rebuild(),
            "the finished rebuild released its claim"
        );
        assert_eq!(open.rebuild_panics(), 0);
    }

    /// Warm-start snapshot pins: round trips preserve the bank (classes,
    /// generations, first-miss cost), corrupt or mismatched bytes are a
    /// typed rejection that leaves the engine serving cold, and spilled
    /// cache entries re-enter through the normal insert path.
    mod snapshots {
        use super::*;
        use crate::{RecharacterizePolicy, ServingMode, SnapshotError};

        fn open_loop_engine(classes: usize, cache: Option<CacheConfig>) -> Engine {
            open_loop_engine_with_fit(classes, cache, hebs_core::CurveFit::default())
        }

        fn open_loop_engine_with_fit(
            classes: usize,
            cache: Option<CacheConfig>,
            fit: hebs_core::CurveFit,
        ) -> Engine {
            Engine::new(
                HebsPolicy::closed_loop(PipelineConfig::default()),
                EngineConfig {
                    workers: 1,
                    cache,
                    mode: ServingMode::OpenLoop {
                        recharacterize: RecharacterizePolicy {
                            classes,
                            fit,
                            ..RecharacterizePolicy::default()
                        },
                    },
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        }

        fn snapshot_bytes(engine: &Engine) -> Vec<u8> {
            let mut bytes = Vec::new();
            engine.snapshot_to_writer(&mut bytes).unwrap();
            bytes
        }

        #[test]
        fn snapshot_requires_an_installed_bank() {
            // A closed-loop engine has no characteristic bank at all...
            let closed = engine(EngineConfig::default());
            assert!(matches!(
                closed.snapshot_to_writer(&mut Vec::new()),
                Err(RuntimeError::Snapshot(SnapshotError::NoBank))
            ));
            // ...and an open-loop engine that has not characterized yet has
            // nothing worth shipping either.
            let cold = open_loop_engine(2, None);
            assert!(matches!(
                cold.snapshot_to_writer(&mut Vec::new()),
                Err(RuntimeError::Snapshot(SnapshotError::NoBank))
            ));
        }

        #[test]
        fn round_trip_restores_classes_and_generations() {
            let canary = open_loop_engine(2, None);
            canary.install_bank(two_class_bank()).unwrap();
            let bytes = snapshot_bytes(&canary);

            let fleet = open_loop_engine(2, None);
            let report = fleet.restore_from_reader(&mut &bytes[..]).unwrap();
            assert_eq!(report.classes, 2);
            assert_eq!(report.cache_restored, 0);
            assert_eq!(fleet.characteristic_classes(), 2);
            assert_eq!(
                fleet.characteristic_generation(),
                canary.characteristic_generation(),
                "a fresh restore replays the canary's install order"
            );
            assert_eq!(fleet.stats().snapshot_rejected, 0);

            // The restored bank serves immediately at the open-loop cost:
            // the first miss is one characteristic evaluation, with no
            // bootstrap recharacterization.
            fleet
                .process_frame(&synthetic::portrait(32, 32, 9))
                .unwrap();
            fleet.quiesce_rebuilds();
            let stats = fleet.stats();
            assert_eq!(stats.fit_evaluations, 1, "warm first miss is one eval");
            assert_eq!(stats.recharacterizations, 0);
        }

        #[test]
        fn corrupt_snapshots_are_rejected_and_leave_the_engine_cold() {
            let canary = open_loop_engine(2, None);
            canary.install_bank(two_class_bank()).unwrap();
            let mut bytes = snapshot_bytes(&canary);
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;

            let fleet = open_loop_engine(2, None);
            assert!(matches!(
                fleet.restore_from_reader(&mut &bytes[..]),
                Err(RuntimeError::Snapshot(SnapshotError::ChecksumMismatch))
            ));
            assert_eq!(fleet.stats().snapshot_rejected, 1);
            assert_eq!(fleet.characteristic_classes(), 0, "no partial install");

            // Cold-start degradation: the engine still serves through the
            // closed-loop fallback, it just pays the cold (multi-eval) fit
            // cost instead of the warm single-eval lookup.
            let result = fleet
                .process_frame(&synthetic::portrait(32, 32, 9))
                .unwrap();
            assert!(result.outcome.power_saving >= 0.0);
            assert!(
                fleet.stats().fit_evaluations > 1,
                "a cold serve pays the full closed-loop fit"
            );
        }

        #[test]
        fn fit_mode_mismatch_is_refused() {
            // Restoring an Average-fit bank into a WorstCase engine would
            // silently weaken the distortion guarantee; the restore must be
            // a typed rejection instead.
            let canary = open_loop_engine_with_fit(2, None, hebs_core::CurveFit::Average);
            canary.install_bank(two_class_bank()).unwrap();
            let bytes = snapshot_bytes(&canary);

            let fleet = open_loop_engine(2, None);
            assert!(matches!(
                fleet.restore_from_reader(&mut &bytes[..]),
                Err(RuntimeError::Snapshot(SnapshotError::Malformed { .. }))
            ));
            assert_eq!(fleet.stats().snapshot_rejected, 1);
            assert_eq!(fleet.characteristic_classes(), 0);
        }

        #[test]
        fn oversized_banks_are_refused_by_narrow_engines() {
            let canary = open_loop_engine(2, None);
            canary.install_bank(two_class_bank()).unwrap();
            let bytes = snapshot_bytes(&canary);

            let narrow = open_loop_engine(1, None);
            assert!(matches!(
                narrow.restore_from_reader(&mut &bytes[..]),
                Err(RuntimeError::Snapshot(SnapshotError::Malformed { .. }))
            ));
            assert_eq!(narrow.stats().snapshot_rejected, 1);
        }

        /// A spilled entry of either mode, restored into a fleet engine,
        /// serves the same frame as a hit with zero fit work.
        fn spilled_entries_replay_as_hits_after_restore(cache: CacheConfig) {
            let canary = open_loop_engine(2, Some(cache.clone()));
            canary.install_bank(two_class_bank()).unwrap();
            let frame = synthetic::portrait(32, 32, 5);
            canary.process_frame(&frame).unwrap();
            let bytes = snapshot_bytes(&canary);

            let fleet = open_loop_engine(2, Some(cache));
            let report = fleet.restore_from_reader(&mut &bytes[..]).unwrap();
            assert_eq!(report.cache_restored, 1);
            assert_eq!(report.cache_skipped, 0);

            // The spilled entry was re-keyed under the fleet engine's own
            // hash seed and generations: the same frame replays with zero
            // fit work.
            let replay = fleet.process_frame(&frame).unwrap();
            assert!(replay.cache_hit, "restored entry must serve as a hit");
            assert_eq!(fleet.stats().fit_evaluations, 0);
        }

        #[test]
        fn spilled_exact_entries_replay_as_hits_after_restore() {
            spilled_entries_replay_as_hits_after_restore(CacheConfig::exact());
        }

        #[test]
        fn spilled_approximate_entries_replay_as_hits_after_restore() {
            spilled_entries_replay_as_hits_after_restore(CacheConfig::approximate());
        }

        #[test]
        fn cache_spill_is_skipped_when_the_cache_shape_differs() {
            let canary = open_loop_engine(2, Some(CacheConfig::exact()));
            canary.install_bank(two_class_bank()).unwrap();
            canary
                .process_frame(&synthetic::portrait(32, 32, 5))
                .unwrap();
            let bytes = snapshot_bytes(&canary);

            // An approximate-cache engine cannot adopt exact entries; the
            // bank still restores and the spill is counted as skipped.
            let fleet = open_loop_engine(2, Some(CacheConfig::approximate()));
            let report = fleet.restore_from_reader(&mut &bytes[..]).unwrap();
            assert_eq!(report.classes, 2);
            assert_eq!(report.cache_restored, 0);
            assert_eq!(report.cache_skipped, 1);
        }
    }

    /// Pixel-traversal pins for the fused serve path. The counter in
    /// [`hebs_imaging::traversals`] is thread-local and
    /// [`Engine::process_frame`] serves on the calling thread, so each test
    /// observes exactly its own serves. All pins use the histogram-capable
    /// [`GlobalUiqiDistortion`](hebs_quality::GlobalUiqiDistortion) measure:
    /// fits then run entirely in the histogram domain and the only
    /// per-pixel work left is the fused ingest and the final LUT apply.
    mod traversal_pins {
        use super::*;
        use crate::RecharacterizePolicy;
        use hebs_imaging::traversals;
        use hebs_quality::GlobalUiqiDistortion;

        fn global_measure_engine(cache: Option<CacheConfig>, mode: ServingMode) -> Engine {
            let policy = HebsPolicy::closed_loop(
                PipelineConfig::default().with_measure(GlobalUiqiDistortion),
            );
            Engine::new(
                policy,
                EngineConfig {
                    workers: 1,
                    cache,
                    mode,
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        }

        fn frame() -> GrayImage {
            synthetic::linear_gradient(32, 32, 16, 240, true)
        }

        #[test]
        fn closed_loop_miss_traverses_the_frame_exactly_twice() {
            let engine = global_measure_engine(Some(CacheConfig::exact()), ServingMode::ClosedLoop);
            let frame = frame();
            let before = traversals::count();
            engine.process_frame(&frame).unwrap();
            assert_eq!(
                traversals::count() - before,
                2,
                "a closed-loop miss is one fused ingest plus one LUT materialize"
            );
        }

        #[test]
        fn exact_cache_hit_traverses_the_frame_exactly_once() {
            let engine = global_measure_engine(Some(CacheConfig::exact()), ServingMode::ClosedLoop);
            let frame = frame();
            engine.process_frame(&frame).unwrap();
            let before = traversals::count();
            let result = engine.process_frame(&frame).unwrap();
            assert!(result.cache_hit);
            assert_eq!(
                traversals::count() - before,
                1,
                "an exact hit shares the cached output: only the fused ingest runs"
            );
        }

        #[test]
        fn approximate_hit_traverses_the_frame_exactly_twice() {
            let engine =
                global_measure_engine(Some(CacheConfig::approximate()), ServingMode::ClosedLoop);
            let frame = frame();
            engine.process_frame(&frame).unwrap();
            let before = traversals::count();
            let result = engine.process_frame(&frame).unwrap();
            assert!(result.cache_hit);
            assert_eq!(
                traversals::count() - before,
                2,
                "an approximate hit replays the cached transform: ingest plus one materialize"
            );
        }

        #[test]
        fn uncached_serve_traverses_the_frame_exactly_twice() {
            let engine = global_measure_engine(None, ServingMode::ClosedLoop);
            let frame = frame();
            let before = traversals::count();
            engine.process_frame(&frame).unwrap();
            assert_eq!(traversals::count() - before, 2);
        }

        /// Satellite pin: a sketched serve performs zero *extra* full-frame
        /// traversals. With `sample_period: 1` every serve pushes its
        /// histogram into the class sketch, yet the costs stay identical to
        /// the unsketched pins above — the push clones the ingest histogram
        /// instead of re-reading the frame, and the bootstrap
        /// re-characterization triggered by the sketch runs purely in the
        /// histogram domain.
        #[test]
        fn sketched_serves_add_no_extra_frame_traversals() {
            let mode = ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    interval: None,
                    drift_limit: None,
                    sample_period: 1,
                    ..RecharacterizePolicy::default()
                },
            };
            let engine = global_measure_engine(Some(CacheConfig::exact()), mode);
            let frame = frame();

            let before = traversals::count();
            engine.process_frame(&frame).unwrap();
            assert_eq!(
                traversals::count() - before,
                2,
                "a sketched miss still costs ingest + materialize only"
            );

            let before = traversals::count();
            let result = engine.process_frame(&frame).unwrap();
            assert!(result.cache_hit);
            assert_eq!(
                traversals::count() - before,
                1,
                "a sketched exact hit still costs the ingest only"
            );
        }
    }
}
