//! Serving modes: closed-loop search vs. the paper's open-loop table lookup,
//! with per-class curves and background re-characterization.
//!
//! The HEBS hardware flow is *open-loop*: an offline-fitted distortion
//! characteristic curve maps the distortion budget straight to a dynamic
//! range, so serving a frame costs **one** fit evaluation instead of the
//! closed-loop search's 9. The catch is that the curve describes the
//! traffic it was characterized on; when traffic drifts, the promised
//! distortion bound stops holding — and when the traffic is *heterogeneous*,
//! a single worst-case curve refuses to dim at all (the outlier image vetoes
//! everyone's backlight).
//!
//! [`ServingMode::OpenLoop`] closes both gaps at serving scale:
//!
//! * every cache miss fits through the open-loop policy (one evaluation);
//! * the curve slot holds a **bank** of characteristics keyed by content
//!   class ([`RecharacterizePolicy::classes`]): frames are routed by
//!   histogram-signature cluster to the curve of traffic that looks like
//!   them, which recovers most of the closed-loop saving on mixed traffic
//!   (a single-curve bank reproduces the classic flow, and
//!   [`hebs_core::CurveFit::Envelope`] is the cheap half-step in between);
//! * a per-serve *drift check* compares the measured distortion against the
//!   requesting budget — an over-budget frame falls back to the closed-loop
//!   search for that frame only, so the distortion contract always holds;
//! * each class keeps its own rolling [`TrafficSketch`] of recent frame
//!   histograms and its own rebuild triggers: every N frames and/or after
//!   enough drift fallbacks *in that class*, the serve that claims the
//!   rebuild hands it to a background thread and returns; that thread
//!   rebuilds the class's [`DistortionCharacteristic`] from its sketch
//!   (entirely in the histogram domain) and swaps a new bank into the
//!   engine's slot while every worker keeps serving;
//! * every class carries its own *characteristic generation* that is part
//!   of every cache key (alongside the class id), so a rebuild invalidates
//!   only the affected class's cached fits.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use hebs_analysis::{interleave, lock_healthy, LockClass, OrderedMutex};

use hebs_core::{
    CharacteristicBank, CurveFit, DistortionCharacteristic, HebsPolicy, PipelineConfig,
    DEFAULT_RANGES,
};
use hebs_imaging::{Histogram, HistogramSignature, SIGNATURE_BINS};

/// How the engine turns a distortion budget into a fitted transform on a
/// cache miss.
#[derive(Debug, Clone, Default)]
pub enum ServingMode {
    /// Bisect over target ranges per miss so the distortion bound is met
    /// exactly (9 fit evaluations per miss). The default.
    #[default]
    ClosedLoop,
    /// Look the range up on a (per-class) distortion characteristic curve
    /// (one fit evaluation per miss), fall back to the closed-loop search
    /// for frames whose measured distortion drifts over the budget, and
    /// periodically re-characterize each class's curve from its recent
    /// traffic.
    OpenLoop {
        /// When and from what the curves are rebuilt, and how many content
        /// classes the bank holds.
        recharacterize: RecharacterizePolicy,
    },
}

/// When and from what an open-loop engine rebuilds its distortion
/// characteristic curves. The `interval`/`drift_limit` triggers and the
/// sketch are **per content class**: a drifting class rebuilds (and
/// invalidates) only itself.
#[derive(Debug, Clone)]
pub struct RecharacterizePolicy {
    /// Rebuild a class after this many frames served in it since its last
    /// rebuild; `None` disables the periodic trigger.
    pub interval: Option<u64>,
    /// Rebuild a class after this many drift fallbacks in it since its last
    /// rebuild; `None` disables the drift trigger.
    pub drift_limit: Option<u64>,
    /// Sample every Nth served frame's histogram into its class's traffic
    /// sketch (must be nonzero; the counter is per class).
    pub sample_period: u64,
    /// How many sampled histograms each class's rolling sketch retains
    /// (must be nonzero); older samples are overwritten ring-buffer style.
    /// With multiple classes this sets the pooled budget (`classes ×
    /// sample_capacity`): after each rebuild the pool is re-partitioned in
    /// proportion to each class's observed traffic share (with a small
    /// per-class floor), so a hot class keeps a deeper history while rare
    /// classes still fill fast enough to rebuild.
    pub sample_capacity: usize,
    /// Target dynamic ranges evaluated per sketched histogram when
    /// rebuilding a curve (each must be in `[2, 256]`).
    pub ranges: Vec<u32>,
    /// Which fit ranges are looked up on: the worst-case envelope (default;
    /// never drifts on characterized traffic but refuses to dim when a
    /// class is still heterogeneous), the p95 envelope (the half-step), or
    /// the average fit (dims hardest, drifts most).
    pub fit: CurveFit,
    /// Number of content classes the characteristic bank holds (must be
    /// nonzero). 1 reproduces the classic single-curve flow; a handful of
    /// classes lets heterogeneous traffic dim per histogram-shape cluster.
    /// The bootstrap re-characterization clusters the sketch into at most
    /// this many classes; [`Engine::install_bank`](crate::Engine) seeds
    /// them offline.
    pub classes: usize,
    /// A rebuilt curve is only swapped in when its predictions differ from
    /// the installed class's curve by more than this (largest absolute
    /// distortion delta over `ranges`, any fit). Swapping bumps that
    /// class's cache-key generation and thereby invalidates its cached
    /// fits, so statistically identical rebuilds — e.g. drift triggers
    /// firing on stationary but heterogeneous traffic — are discarded
    /// instead of wiping the class. 0 swaps unconditionally.
    pub min_swap_delta: f64,
}

impl Default for RecharacterizePolicy {
    fn default() -> Self {
        RecharacterizePolicy {
            interval: Some(512),
            drift_limit: Some(32),
            sample_period: 8,
            sample_capacity: 16,
            ranges: DEFAULT_RANGES.to_vec(),
            fit: CurveFit::WorstCase,
            classes: 1,
            min_swap_delta: 0.002,
        }
    }
}

impl RecharacterizePolicy {
    /// Returns the policy with a different class count.
    pub fn with_classes(mut self, classes: usize) -> Self {
        self.classes = classes;
        self
    }

    /// Returns the policy with a different lookup fit.
    pub fn with_fit(mut self, fit: CurveFit) -> Self {
        self.fit = fit;
        self
    }
}

/// A bounded ring buffer of recent traffic histograms — what the background
/// re-characterization rebuilds a class's curve from. A histogram is 256
/// counters, so a whole per-class sketch stays a few KiB regardless of
/// frame size.
#[derive(Debug)]
pub(crate) struct TrafficSketch {
    ring: Vec<Histogram>,
    capacity: usize,
    next: usize,
}

impl TrafficSketch {
    pub(crate) fn new(capacity: usize) -> Self {
        TrafficSketch {
            ring: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            next: 0,
        }
    }

    /// Records a histogram, overwriting the oldest sample once full.
    pub(crate) fn push(&mut self, histogram: Histogram) {
        if self.ring.len() < self.capacity {
            self.ring.push(histogram);
        } else {
            self.ring[self.next] = histogram;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Current sample capacity.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resizes the ring, keeping the **most recent** samples when
    /// shrinking (used by the traffic-share rebalancing — see
    /// [`OpenLoopState::rebalance_sketch_capacities`]).
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        if capacity == self.capacity {
            return;
        }
        // Reconstruct chronological order (oldest first), keep the newest
        // `capacity` samples, and restart the ring from them.
        let mut chronological: Vec<Histogram> = if self.ring.len() == self.capacity {
            let mut newest_first = self.ring.split_off(self.next);
            newest_first.append(&mut self.ring);
            newest_first
        } else {
            std::mem::take(&mut self.ring)
        };
        if chronological.len() > capacity {
            chronological.drain(..chronological.len() - capacity);
        }
        self.next = if chronological.len() < capacity {
            chronological.len()
        } else {
            0
        };
        self.ring = chronological;
        self.capacity = capacity;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// A point-in-time copy of the sketched histograms (order is
    /// irrelevant to the curve fit).
    pub(crate) fn snapshot(&self) -> Vec<Histogram> {
        self.ring.clone()
    }
}

/// One class's installed curve: the open-loop policy built around it, the
/// shared characteristic itself, and the generation stamped into cache keys
/// while it is current. Generation and curve travel together so a serve
/// that snapshots this state keys and fits coherently even when an install
/// lands mid-serve.
#[derive(Debug)]
pub(crate) struct CurveState {
    /// The open-loop HEBS policy (characteristic lookup + one evaluation).
    pub(crate) policy: HebsPolicy,
    /// The curve the policy looks ranges up on.
    pub(crate) characteristic: Arc<DistortionCharacteristic>,
    /// The cache-key generation of fits made under this curve.
    pub(crate) generation: u64,
}

/// The installed characteristic bank: one [`CurveState`] per content class
/// plus the cluster centroids frames are routed by. A single-class bank has
/// no centroids and skips classification entirely (the classic flow).
#[derive(Debug)]
pub(crate) struct CurveBank {
    /// Per-class curve states, indexed by class id.
    pub(crate) classes: Vec<Arc<CurveState>>,
    /// Cluster centroids in signature-bin space; empty for a single class.
    centroids: Vec<[f64; SIGNATURE_BINS]>,
}

impl CurveBank {
    /// Whether the bank needs no classification (exactly one class).
    pub(crate) fn is_single(&self) -> bool {
        self.classes.len() == 1
    }

    /// The class a histogram signature routes to — the same
    /// nearest-centroid metric the bank was clustered with
    /// ([`hebs_core::nearest_centroid`]), so a frame always lands on the
    /// class whose curve was fitted on traffic shaped like it.
    pub(crate) fn classify(&self, signature: &HistogramSignature) -> usize {
        if self.is_single() {
            return 0;
        }
        hebs_core::nearest_centroid(signature, self.centroids.iter())
    }

    /// The largest class generation in the bank (what
    /// `Engine::characteristic_generation` reports).
    pub(crate) fn max_generation(&self) -> u64 {
        self.classes.iter().map(|c| c.generation).max().unwrap_or(0)
    }

    /// The installed cluster centroids (empty for a single-class bank);
    /// what a snapshot persists so a restored bank routes frames
    /// identically.
    pub(crate) fn centroids(&self) -> &[[f64; SIGNATURE_BINS]] {
        &self.centroids
    }
}

/// Per-class rebuild trigger counters.
#[derive(Debug, Default)]
struct ClassTriggers {
    /// Frames served in this class since its last (re)characterization.
    frames_since: AtomicU64,
    /// Drift fallbacks in this class since its last (re)characterization.
    drift_since: AtomicU64,
    /// Frames ever served in this class — never reset (unlike the trigger
    /// counters above), so the traffic-share sketch rebalancing sees the
    /// long-run class mix rather than the slice since the last rebuild.
    served_total: AtomicU64,
}

/// What kind of rebuild is due (see [`OpenLoopState::rebuild_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RebuildPlan {
    /// No bank installed yet: cluster the pre-bank sketch into a fresh bank.
    Bootstrap,
    /// Rebuild one class's curve from its own sketch.
    Class(usize),
}

/// Which installed bank a whole-bank swap may replace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Replace {
    /// Whatever is installed: an operator install or a snapshot restore.
    Any,
    /// Only an empty slot: a bootstrap rebuild must not overwrite a bank
    /// installed while it characterized.
    Empty,
}

impl Replace {
    fn allows(self, current: Option<&Arc<CurveBank>>) -> bool {
        self == Replace::Any || current.is_none()
    }
}

/// The single-flight rebuild claim, held by the thread that runs the
/// rebuild a serve won with [`OpenLoopState::begin_rebuild`]. Dropping it
/// releases the claim. That includes unwinding from a panicking
/// characterization, which would otherwise leave the claim taken and stop
/// the engine from ever rebuilding again; such a panic is counted.
pub(crate) struct RebuildClaim<'a>(&'a OpenLoopState);

impl<'a> RebuildClaim<'a> {
    /// Takes charge of a claim already won through `begin_rebuild`.
    pub(crate) fn held(state: &'a OpenLoopState) -> Self {
        RebuildClaim(state)
    }
}

impl Drop for RebuildClaim<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.rebuild_panics.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        }
        self.0.end_rebuild();
    }
}

/// Shared open-loop serving state: the swappable bank slot, the per-class
/// traffic sketches, the per-class rebuild triggers and the background
/// rebuild thread. All methods are safe to call from any worker; the slot
/// swap is the only write the serve path ever waits on, and it is a single
/// `Arc` store.
#[derive(Debug)]
pub(crate) struct OpenLoopState {
    pub(crate) recharacterize: RecharacterizePolicy,
    /// ArcSwap-style slot: load = clone under a short lock, store =
    /// replace. Workers serve off their loaded `Arc` while a rebuild swaps.
    slot: OrderedMutex<Option<Arc<CurveBank>>>,
    /// Allocator for curve generations (the *installed* generations live
    /// inside the bank's [`CurveState`]s so curve and generation are read
    /// coherently; this counter only hands out the next one).
    generation: AtomicU64,
    /// One rolling sketch per configured class. Before a bank exists every
    /// frame classifies to class 0, so the bootstrap clustering reads
    /// sketch 0.
    sketches: Vec<OrderedMutex<TrafficSketch>>,
    /// Per-class rebuild trigger counters.
    triggers: Vec<ClassTriggers>,
    /// Single-flight marker for rebuilds: at most one rebuild runs, and
    /// every worker keeps serving.
    rebuilding: AtomicBool,
    /// The thread running the current (or last) claimed rebuild, joined by
    /// `Engine::quiesce_rebuilds` and before the next rebuild's spawn.
    rebuild_thread: OrderedMutex<Option<JoinHandle<()>>>,
    /// Rebuilds whose characterization panicked (see [`RebuildClaim`]).
    rebuild_panics: AtomicU64,
    /// Rebuild attempts claimed so far. Gates the bootstrap trigger: once
    /// a first characterization has been attempted (successful or not),
    /// only the interval/drift triggers schedule further rebuilds, so a
    /// failing bootstrap cannot retry on every serve.
    attempts: AtomicU64,
    /// Whether the configured measure supports histogram-domain
    /// characterization (windowed measures decline; the sketches are then
    /// never rebuilt and only installed curves are used).
    pub(crate) histogram_capable: bool,
    /// Poisoned-lock recoveries performed by slot/sketch accessors (see
    /// `EngineStats::poison_recoveries`).
    poison_recoveries: AtomicU64,
}

impl OpenLoopState {
    pub(crate) fn new(recharacterize: RecharacterizePolicy, histogram_capable: bool) -> Self {
        let classes = recharacterize.classes.max(1);
        let capacity = recharacterize.sample_capacity;
        OpenLoopState {
            recharacterize,
            slot: OrderedMutex::new(LockClass::OpenLoopSlot, None),
            generation: AtomicU64::new(0),
            sketches: (0..classes)
                .map(|_| OrderedMutex::new(LockClass::Sketch, TrafficSketch::new(capacity)))
                .collect(),
            triggers: (0..classes).map(|_| ClassTriggers::default()).collect(),
            rebuilding: AtomicBool::new(false),
            rebuild_thread: OrderedMutex::new(LockClass::RebuildThread, None),
            rebuild_panics: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            histogram_capable,
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Counts one poisoned-lock recovery (see `EngineStats::poison_recoveries`).
    fn note_poison(&self) {
        self.poison_recoveries.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
    }

    /// Poisoned-lock recoveries performed by this state's accessors.
    pub(crate) fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed) // ordering: advisory snapshot
    }

    /// Number of content classes the state is provisioned for.
    pub(crate) fn class_count(&self) -> usize {
        self.triggers.len()
    }

    /// The currently installed bank, if any.
    pub(crate) fn current(&self) -> Option<Arc<CurveBank>> {
        lock_healthy(self.slot.lock(), || self.note_poison()).clone()
    }

    /// Largest generation of the installed bank (0 before the first
    /// install).
    pub(crate) fn generation(&self) -> u64 {
        self.current().map_or(0, |bank| bank.max_generation())
    }

    /// Builds a [`CurveState`] for a curve under the configured fit,
    /// stamped with the next key generation.
    fn curve_state(
        &self,
        config: PipelineConfig,
        characteristic: Arc<DistortionCharacteristic>,
    ) -> Arc<CurveState> {
        let policy = HebsPolicy::open_loop_with_fit(
            config,
            Arc::clone(&characteristic),
            self.recharacterize.fit,
        );
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        Arc::new(CurveState {
            policy,
            characteristic,
            generation,
        })
    }

    /// A single-curve bank (the classic flow) around `characteristic`,
    /// stamped with the next key generation.
    pub(crate) fn single_bank(
        &self,
        config: PipelineConfig,
        characteristic: Arc<DistortionCharacteristic>,
    ) -> CurveBank {
        CurveBank {
            classes: vec![self.curve_state(config, characteristic)],
            centroids: Vec::new(),
        }
    }

    /// A full bank: one curve state (and fresh generation) per class,
    /// centroids taken from the bank's clustering.
    pub(crate) fn full_bank(
        &self,
        config: &PipelineConfig,
        bank: &CharacteristicBank,
    ) -> CurveBank {
        let classes: Vec<Arc<CurveState>> = bank
            .classes()
            .iter()
            .map(|class| self.curve_state(config.clone(), Arc::clone(&class.characteristic)))
            .collect();
        let centroids = if classes.len() > 1 {
            bank.classes().iter().map(|c| c.centroid).collect()
        } else {
            Vec::new()
        };
        CurveBank { classes, centroids }
    }

    /// Swaps a whole bank into the slot when `replace` allows it, first
    /// resetting every class's rebuild triggers and sketches. Returns
    /// whether the swap happened.
    ///
    /// The reset comes *before* the swap. A rebuild that sees the new bank
    /// therefore copies a sketch that holds no sample from the previous
    /// clustering, and a rebuild that saw the old bank has its install
    /// refused once the swap has landed.
    pub(crate) fn swap_bank(&self, bank: CurveBank, replace: Replace) -> bool {
        if !replace.allows(self.current().as_ref()) {
            return false;
        }
        self.reset_for_install();
        interleave::point("openloop.swap");
        let mut slot = lock_healthy(self.slot.lock(), || self.note_poison());
        if !replace.allows(slot.as_ref()) {
            return false;
        }
        *slot = Some(Arc::new(bank));
        true
    }

    /// Installs a single-curve bank unconditionally. Returns the new
    /// generation.
    pub(crate) fn install(
        &self,
        config: PipelineConfig,
        characteristic: Arc<DistortionCharacteristic>,
    ) -> u64 {
        let bank = self.single_bank(config, characteristic);
        let generation = bank.max_generation();
        self.swap_bank(bank, Replace::Any);
        generation
    }

    /// Installs a full bank unconditionally. Returns the largest new
    /// generation.
    pub(crate) fn install_bank(&self, config: &PipelineConfig, bank: &CharacteristicBank) -> u64 {
        let bank = self.full_bank(config, bank);
        let generation = bank.max_generation();
        self.swap_bank(bank, Replace::Any);
        generation
    }

    /// Replaces one class's curve in the installed bank (keeping every
    /// other class's state and generation), used by the per-class
    /// background rebuild. `seen` is the bank the rebuild saw before it
    /// copied the class's sketch; if another bank has been installed since,
    /// the rebuilt curve describes the old clustering and is discarded.
    /// Returns the class's new generation, or `None` when the curve was
    /// discarded or the class is out of range.
    pub(crate) fn install_class(
        &self,
        seen: &Arc<CurveBank>,
        class: usize,
        config: PipelineConfig,
        characteristic: Arc<DistortionCharacteristic>,
    ) -> Option<u64> {
        let state = self.curve_state(config, characteristic);
        let generation = state.generation;
        interleave::point("openloop.swap");
        let mut slot = lock_healthy(self.slot.lock(), || self.note_poison());
        let bank = slot.as_ref().filter(|bank| Arc::ptr_eq(bank, seen))?;
        if class >= bank.classes.len() {
            return None;
        }
        let mut classes = bank.classes.clone();
        classes[class] = state;
        *slot = Some(Arc::new(CurveBank {
            classes,
            centroids: bank.centroids.clone(),
        }));
        Some(generation)
    }

    /// Clears every class's rebuild trigger counters **and traffic
    /// sketches** for a bank install: the previous counts described
    /// curves that are being replaced, and the sketched histograms were
    /// routed under the previous clustering (pre-bank traffic all sat in
    /// class 0). A later per-class rebuild refitting from another
    /// clustering's histograms would re-create exactly the pooled-curve
    /// veto the bank exists to remove. Per-class rebuilds ([`OpenLoopState::
    /// install_class`]) keep their sketches — routing is unchanged there.
    fn reset_for_install(&self) {
        for trigger in &self.triggers {
            trigger.frames_since.store(0, Ordering::Release); // ordering: pairs with the Acquire trigger reads so the reset is seen with the install
            trigger.drift_since.store(0, Ordering::Release); // ordering: pairs with the Acquire trigger reads so the reset is seen with the install
        }
        for sketch in &self.sketches {
            *lock_healthy(sketch.lock(), || self.note_poison()) =
                TrafficSketch::new(self.recharacterize.sample_capacity);
        }
    }

    /// A point-in-time read of one class's trigger counters
    /// `(frames_since, drift_since)` — what a rebuild observed when it was
    /// triggered, and therefore what [`OpenLoopState::consume_triggers`]
    /// subtracts when it completes.
    pub(crate) fn observed_triggers(&self, class: usize) -> (u64, u64) {
        let trigger = &self.triggers[class];
        (
            trigger.frames_since.load(Ordering::Acquire), // ordering: a rebuild's observation pairs with the serve path's Release increments
            trigger.drift_since.load(Ordering::Acquire), // ordering: a rebuild's observation pairs with the serve path's Release increments
        )
    }

    /// Consumes the trigger counts a completed rebuild *observed*, leaving
    /// anything recorded while the rebuild ran. Subtracting (rather than
    /// storing zero) keeps concurrent workers' fallbacks from being
    /// silently dropped — a dropped fallback would delay the next
    /// drift-triggered rebuild.
    pub(crate) fn consume_triggers(&self, class: usize, frames: u64, drifts: u64) {
        let trigger = &self.triggers[class];
        let _ = trigger
            .frames_since
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(frames))
            });
        let _ = trigger
            .drift_since
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(drifts))
            });
    }

    /// Records one served frame in its class: advances the class's rebuild
    /// triggers, counts a drift fallback, and samples the frame's histogram
    /// into the class's sketch every `sample_period` frames. `histogram` is
    /// the serve path's fused-ingest histogram of the frame — sampling
    /// clones 256 counters and never re-reads the pixels.
    pub(crate) fn record_serve(&self, class: usize, histogram: &Histogram, fallback: bool) {
        let trigger = &self.triggers[class];
        // ordering: Release publishes the serve (and its sketch sample, pushed
        // below under the sketch lock) before the trigger count a rebuild
        // decision Acquires.
        let frames = trigger.frames_since.fetch_add(1, Ordering::Release) + 1;
        trigger.served_total.fetch_add(1, Ordering::Relaxed); // ordering: statistical tally for rebalancing, nothing published
        if fallback {
            // ordering: Release pairs with the drift-trigger Acquire reads.
            trigger.drift_since.fetch_add(1, Ordering::Release);
        }
        if frames % self.recharacterize.sample_period == 0 {
            lock_healthy(self.sketches[class].lock(), || self.note_poison())
                .push(histogram.clone()); // lint: allow(hot-path-alloc) -- sampled once per sample_period frames; the sketch must own its copy beyond the serve
        }
    }

    /// Whether one class's interval/drift triggers are due.
    fn class_due(&self, class: usize) -> bool {
        let trigger = &self.triggers[class];
        // ordering: Acquire pairs with the serve path's Release increments so
        // a due decision sees the serves (and sketch samples) that caused it.
        let frames = trigger.frames_since.load(Ordering::Acquire);
        let interval_due = self.recharacterize.interval.is_some_and(|n| frames >= n);
        let drift_due = self
            .recharacterize
            .drift_limit
            .is_some_and(|n| trigger.drift_since.load(Ordering::Acquire) >= n); // ordering: pairs with the fallback's Release increment
        interval_due || drift_due
    }

    /// What rebuild (if any) should be attempted now: the measure must be
    /// histogram-capable and the relevant sketch non-empty. With no bank
    /// installed, the bootstrap fires once (and the class-0 interval/drift
    /// triggers reschedule after a failed first attempt, so a failing
    /// characterization cannot retry on every serve); with a bank, the
    /// first class whose own triggers are due is rebuilt.
    pub(crate) fn rebuild_plan(&self) -> Option<RebuildPlan> {
        self.rebuild_plan_for(self.current().as_ref())
    }

    /// [`OpenLoopState::rebuild_plan`] against a bank the caller already
    /// loaded: a rebuild plans against the same bank it later installs
    /// over.
    pub(crate) fn rebuild_plan_for(&self, bank: Option<&Arc<CurveBank>>) -> Option<RebuildPlan> {
        if !self.histogram_capable {
            return None;
        }
        let Some(bank) = bank else {
            let bootstrap_due = self.attempts.load(Ordering::Relaxed) == 0; // ordering: advisory gate; the begin_rebuild CAS arbitrates
            if !(bootstrap_due || self.class_due(0)) {
                return None;
            }
            let ready = !lock_healthy(self.sketches[0].lock(), || self.note_poison()).is_empty();
            return ready.then_some(RebuildPlan::Bootstrap);
        };
        for class in 0..bank.classes.len().min(self.class_count()) {
            if self.class_due(class)
                && !lock_healthy(self.sketches[class].lock(), || self.note_poison()).is_empty()
            {
                return Some(RebuildPlan::Class(class));
            }
        }
        None
    }

    /// Backwards-compatible probe: whether any rebuild is due.
    #[cfg(test)]
    pub(crate) fn rebuild_due(&self) -> bool {
        self.rebuild_plan().is_some()
    }

    /// Claims the single-flight rebuild marker (counting the attempt).
    /// Returns `false` when another worker is already rebuilding.
    pub(crate) fn begin_rebuild(&self) -> bool {
        interleave::point("openloop.begin_rebuild");
        let claimed = self
            .rebuilding
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed) // ordering: failure is Relaxed — a losing worker just keeps serving
            .is_ok();
        if claimed {
            self.attempts.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally behind the Acquire CAS
        }
        claimed
    }

    /// Releases the rebuild marker.
    pub(crate) fn end_rebuild(&self) {
        self.rebuilding.store(false, Ordering::Release);
    }

    /// Runs a claimed rebuild on a new thread and keeps its handle. The
    /// previous rebuild's thread is joined first: it released the claim
    /// this rebuild won, so it has finished its work and is exiting.
    /// Returns `false`, without running `rebuild`, when no thread could be
    /// started.
    pub(crate) fn spawn_rebuild(&self, rebuild: impl FnOnce() + Send + 'static) -> bool {
        let mut thread = lock_healthy(self.rebuild_thread.lock(), || self.note_poison());
        if let Some(previous) = thread.take() {
            // An Err is a panic its claim guard already counted.
            let _ = previous.join();
        }
        match std::thread::Builder::new()
            .name("hebs-rebuild".to_string())
            .spawn(rebuild)
        {
            Ok(handle) => {
                *thread = Some(handle);
                true
            }
            Err(_) => false,
        }
    }

    /// Waits for the background rebuild thread, if one was spawned and not
    /// yet joined.
    pub(crate) fn join_rebuild(&self) {
        let handle = lock_healthy(self.rebuild_thread.lock(), || self.note_poison()).take();
        if let Some(handle) = handle {
            // An Err is a panic its claim guard already counted.
            let _ = handle.join();
        }
    }

    /// Whether a spawned rebuild thread is waiting to be joined.
    #[cfg(test)]
    pub(crate) fn owns_rebuild_thread(&self) -> bool {
        lock_healthy(self.rebuild_thread.lock(), || self.note_poison()).is_some()
    }

    /// Rebuilds whose characterization panicked.
    pub(crate) fn rebuild_panics(&self) -> u64 {
        self.rebuild_panics.load(Ordering::Relaxed) // ordering: advisory snapshot
    }

    /// A point-in-time copy of one class's traffic sketch.
    pub(crate) fn sketch_snapshot(&self, class: usize) -> Vec<Histogram> {
        lock_healthy(self.sketches[class].lock(), || self.note_poison()).snapshot()
    }

    /// Current sample capacity of one class's sketch.
    #[cfg(test)]
    pub(crate) fn sketch_capacity(&self, class: usize) -> usize {
        lock_healthy(self.sketches[class].lock(), || self.note_poison()).capacity()
    }

    /// Re-partitions the pooled sketch budget (`classes ×
    /// sample_capacity`) across classes in proportion to each class's
    /// observed share of served traffic, on top of a small per-class floor.
    ///
    /// With uniform per-class capacities, skewed traffic starves rare
    /// classes: a class seeing 1% of frames takes 100× longer to fill the
    /// same ring, so its rebuilds fit on stale (or too few) samples while
    /// the hot class's ring overwrites fresh samples it has no use for.
    /// Weighting capacity by served share gives the hot class a deeper
    /// history (better rebuild fidelity where it matters) while the floor
    /// keeps every rare class able to rebuild at all. Resizing keeps each
    /// ring's most recent samples. Single-class states are left alone.
    pub(crate) fn rebalance_sketch_capacities(&self) {
        let classes = self.sketches.len();
        if classes <= 1 {
            return;
        }
        let served: Vec<u64> = self
            .triggers
            .iter()
            .map(|trigger| trigger.served_total.load(Ordering::Relaxed)) // ordering: statistical share estimate, exactness not required
            .collect();
        let total: u64 = served.iter().sum();
        if total == 0 {
            return;
        }
        let per_class = self.recharacterize.sample_capacity;
        let budget = per_class * classes;
        let floor = per_class.min(4);
        let spread = budget - floor * classes;
        let mut shares: Vec<usize> = served
            .iter()
            .map(|&count| (spread as u128 * u128::from(count) / u128::from(total)) as usize)
            .collect();
        // Integer division under-assigns; hand the leftover to the hottest
        // class so the pooled budget is preserved exactly.
        let leftover = spread - shares.iter().sum::<usize>();
        if let Some((hottest, _)) = served.iter().enumerate().max_by_key(|&(_, &count)| count) {
            shares[hottest] += leftover;
        }
        for (class, sketch) in self.sketches.iter().enumerate() {
            lock_healthy(sketch.lock(), || self.note_poison()).set_capacity(floor + shares[class]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hebs_imaging::GrayImage;

    fn histogram_of_level(level: u8) -> Histogram {
        Histogram::of(&GrayImage::filled(4, 4, level))
    }

    fn state_with(policy: RecharacterizePolicy) -> OpenLoopState {
        OpenLoopState::new(policy, true)
    }

    #[test]
    fn sketching_a_serve_reads_no_frame_pixels() {
        // The sketch push clones the histogram the serve's fused ingest
        // already produced; it must never re-traverse the frame. Pinned via
        // the thread-local traversal counter, with every serve sampled.
        let state = state_with(RecharacterizePolicy {
            sample_period: 1,
            ..RecharacterizePolicy::default()
        });
        let histogram = histogram_of_level(90);
        let before = hebs_imaging::traversals::count();
        for _ in 0..8 {
            state.record_serve(0, &histogram, false);
        }
        assert_eq!(hebs_imaging::traversals::count(), before);
    }

    /// Installs a throwaway single-class bank so per-class triggers (rather
    /// than the bootstrap) drive `rebuild_plan`.
    fn dummy_samples() -> Vec<hebs_core::CharacterizationSample> {
        (1..=5)
            .map(|i| hebs_core::CharacterizationSample {
                image: format!("s{i}"),
                dynamic_range: 50 * i,
                distortion: 0.3 - 0.05 * f64::from(i),
                power_saving: 0.4,
            })
            .collect()
    }

    fn install_dummy_curve(state: &OpenLoopState) {
        let curve = DistortionCharacteristic::from_samples(dummy_samples()).unwrap();
        state.install(PipelineConfig::default(), Arc::new(curve));
    }

    #[test]
    fn sketch_is_a_bounded_ring() {
        let mut sketch = TrafficSketch::new(3);
        assert!(sketch.is_empty());
        for level in 0..5u8 {
            sketch.push(histogram_of_level(level));
        }
        let snapshot = sketch.snapshot();
        assert_eq!(snapshot.len(), 3, "capacity bounds the sketch");
        // The oldest samples (levels 0, 1) were overwritten by 3 and 4.
        assert!(snapshot.iter().any(|h| h.count(4) > 0));
        assert!(snapshot.iter().any(|h| h.count(2) > 0));
        assert!(snapshot.iter().all(|h| h.count(0) == 0 && h.count(1) == 0));
    }

    #[test]
    fn triggers_fire_on_interval_drift_and_bootstrap() {
        let policy = RecharacterizePolicy {
            interval: Some(4),
            drift_limit: Some(2),
            sample_period: 1,
            sample_capacity: 4,
            ..RecharacterizePolicy::default()
        };
        let state = state_with(policy);
        assert!(!state.rebuild_due(), "an empty sketch never rebuilds");
        let frame = GrayImage::filled(4, 4, 100);

        // Bootstrap: one sampled frame and no bank yet.
        state.record_serve(0, &Histogram::of(&frame), false);
        assert_eq!(state.rebuild_plan(), Some(RebuildPlan::Bootstrap));
        // Simulate the bootstrap attempt succeeding: a bank installs and
        // resets the triggers; from here the per-class triggers gate.
        assert!(state.begin_rebuild());
        install_dummy_curve(&state);
        state.end_rebuild();

        // The install cleared the sketch (its samples were routed under
        // the pre-bank clustering); sample_period 1 refills it while the
        // interval counter climbs toward the next rebuild.
        for _ in 0..3 {
            state.record_serve(0, &Histogram::of(&frame), false);
            assert!(!state.rebuild_due());
        }
        state.record_serve(0, &Histogram::of(&frame), false);
        assert_eq!(
            state.rebuild_plan(),
            Some(RebuildPlan::Class(0)),
            "interval of 4 frames reached"
        );
        let (frames, drifts) = state.observed_triggers(0);
        state.consume_triggers(0, frames, drifts);

        let hist = Histogram::of(&frame);
        state.record_serve(0, &hist, true);
        assert!(!state.rebuild_due());
        state.record_serve(0, &Histogram::of(&frame), true);
        assert_eq!(
            state.rebuild_plan(),
            Some(RebuildPlan::Class(0)),
            "drift limit of 2 fallbacks reached"
        );
    }

    /// Regression for the dropped-fallback bug: fallbacks recorded while a
    /// rebuild is in flight must survive the rebuild's trigger consumption
    /// (the old code stored 0, silently discarding them and delaying the
    /// next drift-triggered rebuild).
    #[test]
    fn fallbacks_recorded_during_a_rebuild_are_not_dropped() {
        let policy = RecharacterizePolicy {
            interval: None,
            drift_limit: Some(2),
            sample_period: 1,
            ..RecharacterizePolicy::default()
        };
        let state = state_with(policy);
        install_dummy_curve(&state);
        let frame = GrayImage::filled(4, 4, 80);

        // Two fallbacks trip the drift trigger.
        state.record_serve(0, &Histogram::of(&frame), true);
        state.record_serve(0, &Histogram::of(&frame), true);
        assert_eq!(state.rebuild_plan(), Some(RebuildPlan::Class(0)));
        assert!(state.begin_rebuild());
        let (frames, drifts) = state.observed_triggers(0);
        assert_eq!(drifts, 2);

        // While the rebuild runs, concurrent workers record two more
        // fallbacks.
        state.record_serve(0, &Histogram::of(&frame), true);
        state.record_serve(0, &Histogram::of(&frame), true);

        // The rebuild finishes and consumes only what it observed.
        state.consume_triggers(0, frames, drifts);
        state.end_rebuild();
        let (_, remaining) = state.observed_triggers(0);
        assert_eq!(remaining, 2, "in-flight fallbacks must survive");
        assert_eq!(
            state.rebuild_plan(),
            Some(RebuildPlan::Class(0)),
            "the surviving fallbacks re-arm the drift trigger"
        );
    }

    #[test]
    fn failed_bootstrap_does_not_retry_every_serve() {
        // interval/drift disabled: after the one bootstrap attempt fails,
        // nothing may reschedule a rebuild per serve.
        let policy = RecharacterizePolicy {
            interval: None,
            drift_limit: None,
            sample_period: 1,
            ..RecharacterizePolicy::default()
        };
        let state = state_with(policy);
        let frame = GrayImage::filled(4, 4, 50);
        state.record_serve(0, &Histogram::of(&frame), false);
        assert!(state.rebuild_due(), "bootstrap is due once");
        assert!(state.begin_rebuild());
        // The rebuild "fails": no install, marker released.
        state.end_rebuild();
        for _ in 0..10 {
            state.record_serve(0, &Histogram::of(&frame), false);
            assert!(
                !state.rebuild_due(),
                "a failed bootstrap must not retry on every serve"
            );
        }
    }

    #[test]
    fn incapable_measures_never_rebuild_from_the_sketch() {
        let policy = RecharacterizePolicy {
            sample_period: 1,
            ..RecharacterizePolicy::default()
        };
        let state = OpenLoopState::new(policy, false);
        state.record_serve(0, &histogram_of_level(9), true);
        assert!(!state.rebuild_due());
    }

    /// Regression: a bank install must clear every class's sketch — the
    /// sketched histograms were routed under the previous clustering (all
    /// pre-bank traffic sits in class 0), and a later per-class rebuild
    /// refitting from that mixed pool would re-create the pooled-curve
    /// veto the bank exists to remove.
    #[test]
    fn installs_clear_stale_sketches_but_class_rebuilds_keep_theirs() {
        let policy = RecharacterizePolicy {
            sample_period: 1,
            classes: 2,
            ..RecharacterizePolicy::default()
        };
        let state = state_with(policy);
        // Pre-bank traffic of two different shapes lands pooled in class 0.
        state.record_serve(0, &histogram_of_level(10), false);
        state.record_serve(0, &histogram_of_level(200), false);
        assert_eq!(state.sketch_snapshot(0).len(), 2);

        install_dummy_curve(&state);
        assert!(
            state.sketch_snapshot(0).is_empty(),
            "an install must clear the stale pooled sketch"
        );

        // Post-install samples are class-routed; a per-class curve swap
        // keeps them (routing did not change).
        state.record_serve(1, &histogram_of_level(10), false);
        state.install_class(
            &state.current().unwrap(),
            0,
            PipelineConfig::default(),
            Arc::new(DistortionCharacteristic::from_samples(dummy_samples()).unwrap()),
        );
        assert_eq!(
            state.sketch_snapshot(1).len(),
            1,
            "a class rebuild must not wipe other classes' sketches"
        );
    }

    /// A rebuild installs only over the bank it saw before copying its
    /// sketch: once another bank has landed, the rebuilt curve (fitted on
    /// the old clustering's samples) is discarded, and a bootstrap never
    /// overwrites a bank installed while it ran.
    #[test]
    fn rebuilds_never_install_over_a_bank_swapped_in_meanwhile() {
        let state = state_with(RecharacterizePolicy::default());
        let curve = || Arc::new(DistortionCharacteristic::from_samples(dummy_samples()).unwrap());
        let bootstrap = state.single_bank(PipelineConfig::default(), curve());
        install_dummy_curve(&state);
        assert!(
            !state.swap_bank(bootstrap, Replace::Empty),
            "a bootstrap must not replace a bank installed while it ran"
        );

        let seen = state.current().unwrap();
        install_dummy_curve(&state);
        let restored = state.current().unwrap();
        assert!(state
            .install_class(&seen, 0, PipelineConfig::default(), curve())
            .is_none());
        assert!(
            Arc::ptr_eq(&state.current().unwrap(), &restored),
            "the newer bank survives"
        );
        assert!(state
            .install_class(&restored, 0, PipelineConfig::default(), curve())
            .is_some());
    }

    #[test]
    fn rebuild_marker_is_single_flight() {
        let state = state_with(RecharacterizePolicy::default());
        assert!(state.begin_rebuild());
        assert!(!state.begin_rebuild(), "second claim must fail");
        state.end_rebuild();
        assert!(state.begin_rebuild(), "marker is reusable after release");
    }

    #[test]
    fn classes_keep_independent_sketches_and_triggers() {
        let policy = RecharacterizePolicy {
            interval: None,
            drift_limit: Some(2),
            sample_period: 1,
            classes: 2,
            ..RecharacterizePolicy::default()
        };
        let state = state_with(policy);
        assert_eq!(state.class_count(), 2);
        install_dummy_curve(&state); // single-class bank: only class 0 rebuilds
        let frame = GrayImage::filled(4, 4, 30);

        // Fallbacks recorded in class 1 never trip class 0's trigger.
        state.record_serve(1, &Histogram::of(&frame), true);
        state.record_serve(1, &Histogram::of(&frame), true);
        assert_eq!(
            state.rebuild_plan(),
            None,
            "a single-class bank only consults class 0"
        );
        let (_, class1_drifts) = state.observed_triggers(1);
        assert_eq!(class1_drifts, 2);
        assert_eq!(state.observed_triggers(0).1, 0);
        assert_eq!(state.sketch_snapshot(1).len(), 2);
        assert!(state.sketch_snapshot(0).is_empty());
    }

    #[test]
    fn install_class_replaces_one_generation_only() {
        let state = state_with(RecharacterizePolicy {
            classes: 2,
            ..RecharacterizePolicy::default()
        });
        let samples = |offset: f64| -> Vec<hebs_core::CharacterizationSample> {
            (1..=5)
                .map(|i| hebs_core::CharacterizationSample {
                    image: format!("s{i}"),
                    dynamic_range: 50 * i,
                    distortion: (0.4 - 0.05 * f64::from(i) + offset).max(0.0),
                    power_saving: 0.4,
                })
                .collect()
        };
        let curve =
            |offset| Arc::new(DistortionCharacteristic::from_samples(samples(offset)).unwrap());
        let bank = CharacteristicBank::from_classes(vec![
            hebs_core::BankClass {
                centroid: [0.0; SIGNATURE_BINS],
                characteristic: curve(0.0),
                members: 1,
            },
            hebs_core::BankClass {
                centroid: [4.0; SIGNATURE_BINS],
                characteristic: curve(0.1),
                members: 1,
            },
        ])
        .unwrap();
        state.install_bank(&PipelineConfig::default(), &bank);
        let installed = state.current().unwrap();
        let class0_generation = installed.classes[0].generation;
        let class1_generation = installed.classes[1].generation;
        assert_ne!(class0_generation, class1_generation);

        let new_generation = state
            .install_class(&installed, 1, PipelineConfig::default(), curve(0.2))
            .unwrap();
        let after = state.current().unwrap();
        assert_eq!(
            after.classes[0].generation, class0_generation,
            "an untouched class keeps its generation"
        );
        assert_eq!(after.classes[1].generation, new_generation);
        assert!(new_generation > class1_generation);
        assert_eq!(state.generation(), new_generation);
    }

    #[test]
    fn set_capacity_keeps_the_most_recent_samples() {
        let mut sketch = TrafficSketch::new(4);
        for level in 0..6u8 {
            sketch.push(histogram_of_level(level));
        }
        // Ring holds levels 2..=5; shrinking to 2 must keep 4 and 5.
        sketch.set_capacity(2);
        assert_eq!(sketch.capacity(), 2);
        let snapshot = sketch.snapshot();
        assert_eq!(snapshot.len(), 2);
        assert!(snapshot.iter().any(|h| h.count(4) > 0));
        assert!(snapshot.iter().any(|h| h.count(5) > 0));

        // Growing keeps everything and accepts new samples up to the new
        // capacity before overwriting the oldest again.
        sketch.set_capacity(3);
        sketch.push(histogram_of_level(6));
        let snapshot = sketch.snapshot();
        assert_eq!(snapshot.len(), 3);
        assert!(snapshot.iter().any(|h| h.count(4) > 0));
        assert!(snapshot.iter().any(|h| h.count(6) > 0));
        sketch.push(histogram_of_level(7));
        let snapshot = sketch.snapshot();
        assert_eq!(snapshot.len(), 3, "capacity still bounds the ring");
        assert!(
            snapshot.iter().all(|h| h.count(4) == 0),
            "the oldest kept sample is overwritten first"
        );
    }

    #[test]
    fn sketch_capacities_follow_the_observed_traffic_share() {
        let policy = RecharacterizePolicy {
            sample_period: 1,
            sample_capacity: 16,
            classes: 2,
            ..RecharacterizePolicy::default()
        };
        let state = state_with(policy);
        install_dummy_curve(&state);
        let frame = GrayImage::filled(4, 4, 60);

        // 90% of traffic lands in class 0.
        for _ in 0..90 {
            state.record_serve(0, &Histogram::of(&frame), false);
        }
        for _ in 0..10 {
            state.record_serve(1, &Histogram::of(&frame), false);
        }
        state.rebalance_sketch_capacities();

        let hot = state.sketch_capacity(0);
        let rare = state.sketch_capacity(1);
        assert_eq!(
            hot + rare,
            2 * 16,
            "rebalancing preserves the pooled budget"
        );
        assert!(hot > rare, "the hot class gets the deeper sketch");
        assert!(rare >= 4, "the rare class keeps the rebuild floor");
        // 90/10 split over a spread of 32 - 8 = 24: shares 21 and 2, the
        // rounding leftover (1) goes to the hot class.
        assert_eq!(hot, 26);
        assert_eq!(rare, 6);
    }

    #[test]
    fn rebalancing_is_a_noop_for_single_class_or_idle_states() {
        let single = state_with(RecharacterizePolicy {
            sample_capacity: 8,
            ..RecharacterizePolicy::default()
        });
        single.record_serve(0, &histogram_of_level(10), false);
        single.rebalance_sketch_capacities();
        assert_eq!(single.sketch_capacity(0), 8, "single class is untouched");

        let idle = state_with(RecharacterizePolicy {
            sample_capacity: 8,
            classes: 3,
            ..RecharacterizePolicy::default()
        });
        idle.rebalance_sketch_capacities();
        for class in 0..3 {
            assert_eq!(
                idle.sketch_capacity(class),
                8,
                "no traffic observed: capacities stay uniform"
            );
        }
    }

    #[test]
    fn defaults_are_sane() {
        let policy = RecharacterizePolicy::default();
        assert!(policy.sample_period > 0);
        assert!(policy.sample_capacity > 0);
        assert!(policy.classes >= 1);
        assert_eq!(policy.fit, CurveFit::WorstCase);
        assert!(!policy.ranges.is_empty());
        assert!(policy.ranges.iter().all(|r| (2..=256).contains(r)));
        assert!(matches!(ServingMode::default(), ServingMode::ClosedLoop));
    }

    #[test]
    fn serving_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServingMode>();
        assert_send_sync::<RecharacterizePolicy>();
        assert_send_sync::<OpenLoopState>();
        assert_send_sync::<CurveBank>();
    }
}
