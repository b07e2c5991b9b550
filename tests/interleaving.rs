//! Deterministic interleaving stress: the runtime's race-prone invariant
//! tests replayed under a bank of seeded yield schedules.
//!
//! The runtime carries `analysis::interleave::point` yield points at its
//! race-prone seams (single-flight join/wake/release, cache insert-evict,
//! generation-swap claim, background rebuild install, tenant admission). Each seed drives a different
//! deterministic perturbation of the thread interleaving through those
//! points, so one test binary exercises many distinct schedules of the
//! same scenario instead of whatever the scheduler happens to produce.
//! `replay_seeds` installs every seed itself, so a plain `cargo test` runs
//! each scenario under all of them; in release builds (without the
//! `lockdep`/debug-assertions points) the scenarios still run once each,
//! unperturbed.

use hebs::imaging::{GrayImage, SipiSuite};
use hebs::runtime::analysis::interleave;
use hebs::runtime::{
    CacheConfig, Engine, EngineConfig, RuntimeError, ServeOptions, TenantRegistry, TenantSpec,
};
use std::sync::{Mutex, PoisonError};

/// The seeded schedules every scenario is replayed under.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Every `interleave::point` name in the runtime, in sorted order. The
/// lint's yield-coverage pass cross-checks this manifest against the
/// library source in both directions: a point missing here fails the
/// lint (a seam with no schedule coverage), and an entry with no
/// matching point fails too (a replay that stopped exercising anything).
const COVERED_POINTS: [&str; 10] = [
    "cache.get_after_wait",
    "cache.insert_evict",
    "flight.join",
    "flight.release",
    "flight.woke",
    "openloop.begin_rebuild",
    "openloop.swap",
    "rebuild.install",
    "snapshot.restore",
    "tenant.admit",
];

/// The manifest stays sorted and duplicate-free, so diffs against the
/// lint's report are one-to-one.
#[test]
fn covered_points_manifest_is_sorted_and_unique() {
    for pair in COVERED_POINTS.windows(2) {
        assert!(
            pair[0] < pair[1],
            "COVERED_POINTS out of order or duplicated at `{}` / `{}`",
            pair[0],
            pair[1]
        );
    }
}

fn policy() -> hebs::core::HebsPolicy {
    hebs::core::HebsPolicy::closed_loop(hebs::core::PipelineConfig::default())
}

fn suite_frame(size: u32) -> GrayImage {
    SipiSuite::with_size(size)
        .iter()
        .next()
        .map(|(_, img)| img.clone())
        .unwrap()
}

/// Serializes the replaying tests: the schedule seed and its visit counter
/// are process-wide, so one test's `set_seed(None)` (or its own seed) would
/// otherwise cut into another test's schedule running in parallel.
static REPLAY: Mutex<()> = Mutex::new(());

/// Runs `scenario` once per seed, installing each seed itself, and
/// labels failures with the seed that produced them so a failing schedule
/// can be replayed exactly. When the interleaving points are compiled out
/// (an optimized build without `lockdep`), installing a seed leaves
/// `is_enabled()` false and the scenario runs once, unperturbed.
fn replay_seeds(scenario: impl Fn(u64)) {
    let _replay = REPLAY.lock().unwrap_or_else(PoisonError::into_inner);
    interleave::set_seed(Some(SEEDS[0]));
    if !interleave::is_enabled() {
        scenario(0);
        return;
    }
    for seed in SEEDS {
        interleave::set_seed(Some(seed));
        scenario(seed);
    }
    interleave::set_seed(None);
}

/// The single-flight storm invariant (one fit per concurrent miss storm,
/// counters reconciled) must hold under every seeded schedule and for both
/// cache modes, which share one keyed serve flow: the seeds shuffle who
/// reaches `flight.join` first, who wakes between the leader's insert and
/// its `flight.release` notify, and when the waiters re-probe.
#[test]
fn single_flight_storm_holds_under_seeded_schedules() {
    for cache in [CacheConfig::exact(), CacheConfig::approximate()] {
        replay_seeds(|seed| single_flight_storm(seed, cache.clone()));
    }
}

fn single_flight_storm(seed: u64, cache: CacheConfig) {
    let mode = cache.mode;
    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 1,
            cache: Some(cache),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let frame = suite_frame(48);
    let storm = 6u64;
    let barrier = std::sync::Barrier::new(storm as usize);
    std::thread::scope(|scope| {
        for _ in 0..storm {
            let engine = engine.clone();
            let frame = &frame;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                engine.process_frame(frame).unwrap();
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.frames, storm, "{mode:?} seed {seed}");
    assert_eq!(
        stats.cache_misses, 1,
        "{mode:?} seed {seed}: exactly one fit must run"
    );
    assert_eq!(stats.cache_hits, storm - 1, "{mode:?} seed {seed}");
    assert!(stats.cache_coalesced < storm, "{mode:?} seed {seed}");
    let counters = engine.cache_counters().unwrap();
    assert_eq!(counters.hits, stats.cache_hits, "{mode:?} seed {seed}");
    assert_eq!(counters.misses, stats.cache_misses, "{mode:?} seed {seed}");
    assert_eq!(
        counters.coalesced, stats.cache_coalesced,
        "{mode:?} seed {seed}"
    );
    assert_eq!(
        stats.poison_recoveries, 0,
        "{mode:?} seed {seed}: no lock was poisoned"
    );
}

/// Admission-control accounting (sheds never count as frames, released
/// permits reopen the bound, per-tenant counters stay independent) must
/// hold under every seeded schedule of concurrent arrivals racing the
/// `tenant.admit` yield point.
#[test]
fn weighted_shed_accounting_holds_under_seeded_schedules() {
    replay_seeds(|seed| {
        let registry = TenantRegistry::builder()
            .tenant(policy(), TenantSpec::named("tight").with_queue_limit(1))
            .tenant(policy(), TenantSpec::named("roomy"))
            .build()
            .unwrap();
        let tight = registry.id_of("tight").unwrap();
        let roomy = registry.id_of("roomy").unwrap();
        let frame = suite_frame(24);
        let options = ServeOptions::default();

        // One admitted permit saturates the bound; racing arrivals from
        // several threads must all shed while it is held.
        let permit = registry.admit(tight).unwrap();
        let sheds_expected = 3u64;
        std::thread::scope(|scope| {
            for _ in 0..sheds_expected {
                let registry = &registry;
                scope.spawn(move || {
                    assert!(matches!(
                        registry.admit(tight),
                        Err(RuntimeError::Shed { tenant: 0, .. })
                    ));
                });
            }
        });
        registry
            .serve_with_permit(&permit, &frame, &options)
            .unwrap();
        drop(permit);
        registry.serve(tight, &frame, &options).unwrap();
        registry.serve(roomy, &frame, &options).unwrap();

        let tight_stats = registry.stats(tight).unwrap();
        assert_eq!(
            tight_stats.frames, 2,
            "seed {seed}: sheds must not count as frames"
        );
        assert_eq!(tight_stats.sheds, sheds_expected, "seed {seed}");
        assert_eq!(
            tight_stats.queue_depth, 0,
            "seed {seed}: permits were all released"
        );
        let roomy_stats = registry.stats(roomy).unwrap();
        assert_eq!(roomy_stats.frames, 1, "seed {seed}");
        assert_eq!(roomy_stats.sheds, 0, "seed {seed}");
    });
}

/// A snapshot restore racing live serves must be atomic under every
/// seeded schedule of the `snapshot.restore` point (which sits between
/// the decode and the bank swap): every concurrent serve sees either the
/// old state (cold closed-loop) or the fully installed bank — never a
/// partial install — and the post-race engine serves warm.
#[test]
fn snapshot_restore_racing_serves_holds_under_seeded_schedules() {
    use hebs::core::{CharacteristicBank, CurveFit, HebsPolicy, PipelineConfig, DEFAULT_RANGES};
    use hebs::imaging::Histogram;
    use hebs::quality::GlobalUiqiDistortion;
    use hebs::runtime::{RecharacterizePolicy, ServingMode};

    let pipeline = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
    let open_loop = |classes: usize| {
        Engine::new(
            HebsPolicy::closed_loop(pipeline.clone()),
            EngineConfig {
                workers: 2,
                cache: Some(CacheConfig::exact()),
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy {
                        interval: None,
                        drift_limit: None,
                        fit: CurveFit::Envelope,
                        classes,
                        ..RecharacterizePolicy::default()
                    },
                },
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };

    // One canary snapshot, reused by every seeded replay.
    let canary = open_loop(2);
    let suite: Vec<GrayImage> = SipiSuite::with_size(32)
        .iter()
        .map(|(_, img)| img.clone())
        .collect();
    let histograms: Vec<Histogram> = suite.iter().map(Histogram::of).collect();
    let bank = CharacteristicBank::build(&pipeline, &histograms, &DEFAULT_RANGES, 2).unwrap();
    canary.install_bank(bank).unwrap();
    let mut snapshot = Vec::new();
    canary.snapshot_to_writer(&mut snapshot).unwrap();

    replay_seeds(|seed| {
        let engine = open_loop(2);
        let serves = 6usize;
        let barrier = std::sync::Barrier::new(serves + 1);
        std::thread::scope(|scope| {
            for frame in suite.iter().take(serves) {
                let engine = engine.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    engine.process_frame(frame).unwrap()
                });
            }
            let restorer = engine.clone();
            let bytes = &snapshot;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let report = restorer.restore_from_reader(&mut &bytes[..]).unwrap();
                assert_eq!(report.classes, 2, "seed {seed}");
            });
        });
        let stats = engine.stats();
        assert_eq!(stats.frames, serves as u64, "seed {seed}");
        assert_eq!(stats.snapshot_rejected, 0, "seed {seed}");
        assert_eq!(stats.poison_recoveries, 0, "seed {seed}");
        assert_eq!(
            engine.characteristic_classes(),
            2,
            "seed {seed}: the restored bank must be fully installed"
        );
        // Whatever the race produced, the settled engine serves warm: a
        // fresh miss costs exactly one characteristic evaluation.
        let before = engine.stats().fit_evaluations;
        let fresh = suite_frame(48);
        let result = engine.process_frame(&fresh).unwrap();
        assert!(!result.cache_hit, "seed {seed}");
        assert_eq!(
            engine.stats().fit_evaluations - before,
            1,
            "seed {seed}: post-restore serves must be open-loop"
        );
    });
}

/// Open-loop serving with concurrent traffic must keep its generation
/// bookkeeping coherent under seeded schedules of the `openloop.swap` /
/// `openloop.begin_rebuild` points: every served frame respects the
/// distortion contract and the engine's accounting reconciles.
#[test]
fn open_loop_rebuild_race_holds_under_seeded_schedules() {
    use hebs::quality::GlobalUiqiDistortion;
    use hebs::runtime::{RecharacterizePolicy, ServingMode};
    replay_seeds(|seed| {
        let engine = Engine::new(
            hebs::core::HebsPolicy::closed_loop(
                hebs::core::PipelineConfig::default().with_measure(GlobalUiqiDistortion),
            ),
            EngineConfig {
                workers: 2,
                cache: Some(CacheConfig::exact()),
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy {
                        interval: Some(4),
                        drift_limit: Some(2),
                        sample_period: 1,
                        sample_capacity: 8,
                        ..RecharacterizePolicy::default()
                    },
                },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let base: Vec<GrayImage> = SipiSuite::with_size(32)
            .iter()
            .map(|(_, img)| img.clone())
            .collect();
        let frames: Vec<GrayImage> = base.iter().cycle().take(24).cloned().collect();
        let report = engine.process_batch(&frames).unwrap();
        assert_eq!(report.results.len(), frames.len(), "seed {seed}");
        for result in &report.results {
            assert!(
                result.outcome.distortion <= engine.max_distortion() + 1e-9,
                "seed {seed}: frame {} broke the distortion contract ({})",
                result.index,
                result.outcome.distortion
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.frames, frames.len() as u64, "seed {seed}");
        assert_eq!(
            stats.poison_recoveries, 0,
            "seed {seed}: no lock was poisoned"
        );
    });
}

/// Global UIQI whose histogram-domain calls can be held at a gate: once
/// armed, the next call reports that it has entered and blocks until the
/// test opens the gate. It pins a background rebuild between its sketch
/// copy and its install.
#[derive(Debug, Clone, Default)]
struct GatedMeasure {
    gate: std::sync::Arc<(std::sync::Mutex<Gate>, std::sync::Condvar)>,
}

#[derive(Debug, Default)]
struct Gate {
    armed: bool,
    entered: bool,
    open: bool,
}

impl GatedMeasure {
    fn arm(&self) {
        self.gate.0.lock().unwrap().armed = true;
    }

    fn wait_entered(&self) {
        let (lock, signal) = &*self.gate;
        let _entered = signal
            .wait_while(lock.lock().unwrap(), |gate| !gate.entered)
            .unwrap();
    }

    fn open(&self) {
        let (lock, signal) = &*self.gate;
        lock.lock().unwrap().open = true;
        signal.notify_all();
    }
}

impl hebs::quality::DistortionMeasure for GatedMeasure {
    fn distortion(&self, original: &GrayImage, transformed: &GrayImage) -> f64 {
        hebs::quality::GlobalUiqiDistortion.distortion(original, transformed)
    }

    fn distortion_from_levels(
        &self,
        histogram: &hebs::imaging::Histogram,
        level_map: &[u8; 256],
    ) -> Option<f64> {
        let (lock, signal) = &*self.gate;
        let mut gate = lock.lock().unwrap();
        if gate.armed {
            gate.armed = false;
            gate.entered = true;
            signal.notify_all();
            drop(signal.wait_while(gate, |gate| !gate.open).unwrap());
        } else {
            drop(gate);
        }
        hebs::quality::GlobalUiqiDistortion.distortion_from_levels(histogram, level_map)
    }

    fn name(&self) -> &'static str {
        "gated-uiqi"
    }
}

/// A snapshot restore that lands while a background class rebuild is
/// characterizing wins: the rebuild copied its sketch under the old bank,
/// so its curve is discarded instead of overwriting a restored class, under
/// every seeded schedule of the `rebuild.install` / `openloop.swap` points.
#[test]
fn restore_landing_mid_rebuild_keeps_the_restored_curves() {
    use hebs::core::{CharacteristicBank, CurveFit, HebsPolicy, PipelineConfig, DEFAULT_RANGES};
    use hebs::imaging::Histogram;
    use hebs::quality::GlobalUiqiDistortion;
    use hebs::runtime::{RecharacterizePolicy, ServingMode};

    let suite = |size: u32| -> Vec<GrayImage> {
        SipiSuite::with_size(size)
            .iter()
            .map(|(_, img)| img.clone())
            .collect()
    };
    let bank_of = |frames: &[GrayImage]| {
        let histograms: Vec<Histogram> = frames.iter().map(Histogram::of).collect();
        let pipeline = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        CharacteristicBank::build(&pipeline, &histograms, &DEFAULT_RANGES, 2).unwrap()
    };
    let engine_with = |pipeline: PipelineConfig| {
        Engine::new(
            HebsPolicy::closed_loop(pipeline),
            EngineConfig {
                workers: 1,
                cache: Some(CacheConfig::exact()),
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy {
                        interval: Some(4),
                        drift_limit: None,
                        sample_period: 1,
                        fit: CurveFit::Envelope,
                        classes: 2,
                        min_swap_delta: 0.0,
                        ..RecharacterizePolicy::default()
                    },
                },
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };

    // The canary's bank, fitted on other traffic than the engine's own.
    let canary = engine_with(PipelineConfig::default().with_measure(GlobalUiqiDistortion));
    canary.install_bank(bank_of(&suite(48))).unwrap();
    let mut snapshot = Vec::new();
    canary.snapshot_to_writer(&mut snapshot).unwrap();
    let frame = suite_frame(32);

    replay_seeds(|seed| {
        let measure = GatedMeasure::default();
        let engine = engine_with(PipelineConfig::default().with_measure(measure.clone()));
        engine.install_bank(bank_of(&suite(32))).unwrap();
        // One miss and two exact hits; the fourth serve of the frame (a hit,
        // which never calls the measure) reaches the class's 4-frame
        // interval and hands the rebuild to its thread, which stops at the
        // gate on its first measure call.
        assert!(
            !engine.process_frame(&frame).unwrap().cache_hit,
            "seed {seed}"
        );
        for _ in 0..2 {
            assert!(
                engine.process_frame(&frame).unwrap().cache_hit,
                "seed {seed}"
            );
        }
        measure.arm();
        assert!(
            engine.process_frame(&frame).unwrap().cache_hit,
            "seed {seed}"
        );
        measure.wait_entered();

        let report = engine.restore_from_reader(&mut &snapshot[..]).unwrap();
        measure.open();
        engine.quiesce_rebuilds();

        assert_eq!(
            engine.characteristic_generation(),
            report.generation,
            "seed {seed}: no rebuilt curve may land after the restore"
        );
        assert_eq!(engine.stats().recharacterizations, 0, "seed {seed}");
        assert_eq!(engine.rebuild_panics(), 0, "seed {seed}");
        let restored = engine.characteristic().unwrap();
        let expected = canary.characteristic().unwrap();
        assert_eq!(
            restored.samples().len(),
            expected.samples().len(),
            "seed {seed}"
        );
        for (got, want) in restored.samples().iter().zip(expected.samples()) {
            assert_eq!(got.dynamic_range, want.dynamic_range, "seed {seed}");
            assert_eq!(
                got.distortion.to_bits(),
                want.distortion.to_bits(),
                "seed {seed}: the restored class curve must survive"
            );
        }
    });
}
