//! Integration tests of the serving runtime against the full pipeline:
//! cache transparency (cached results bit-identical to uncached ones),
//! order preservation under concurrency, and cache effectiveness on
//! synthetic video.

use hebs::core::{
    BacklightPolicy, BankClass, CharacteristicBank, CharacterizationSample, CurveFit,
    DistortionCharacteristic, HebsPolicy, PipelineConfig, ScalingOutcome, DEFAULT_RANGES,
};
use hebs::imaging::rng::StdRng;
use hebs::imaging::{FrameSequence, GrayImage, Histogram, SceneKind, SipiSuite};
use hebs::quality::GlobalUiqiDistortion;
use hebs::runtime::{
    CacheConfig, CacheMode, Engine, EngineConfig, RecharacterizePolicy, RuntimeError, ServeOptions,
    ServingMode, TenantRegistry, TenantSpec,
};

fn policy() -> HebsPolicy {
    HebsPolicy::closed_loop(PipelineConfig::default())
}

/// The pipeline configuration open-loop serving is designed around: the
/// histogram-capable global UIQI measure, so fits, drift rechecks and
/// re-characterization all run in O(levels). One open-loop miss is exactly
/// one `fit_evaluations` tick regardless of the blend mode.
fn open_loop_pipeline() -> PipelineConfig {
    PipelineConfig::default().with_measure(GlobalUiqiDistortion)
}

fn histogram_policy() -> HebsPolicy {
    HebsPolicy::closed_loop(open_loop_pipeline())
}

/// Characterizes the given frames offline, the way a deployment seeds an
/// open-loop engine.
fn characterize(frames: &[GrayImage]) -> DistortionCharacteristic {
    let histograms: Vec<Histogram> = frames.iter().map(Histogram::of).collect();
    DistortionCharacteristic::characterize_from_histograms(
        &open_loop_pipeline(),
        &histograms,
        &DEFAULT_RANGES,
    )
    .unwrap()
}

fn assert_outcomes_bit_identical(a: &ScalingOutcome, b: &ScalingOutcome, context: &str) {
    assert_eq!(a.beta, b.beta, "{context}: beta differs");
    assert_eq!(a.dynamic_range, b.dynamic_range, "{context}: range differs");
    assert_eq!(a.distortion, b.distortion, "{context}: distortion differs");
    assert_eq!(a.power_saving, b.power_saving, "{context}: saving differs");
    assert_eq!(a.power.total(), b.power.total(), "{context}: power differs");
    assert_eq!(a.lut, b.lut, "{context}: LUT differs");
    assert_eq!(
        a.displayed, b.displayed,
        "{context}: displayed image differs"
    );
}

/// Property: for any frame, serving it through the exact-mode cache yields a
/// bit-identical outcome to serving it without a cache — whether the lookup
/// hits or misses.
#[test]
fn property_cached_results_are_identical_to_uncached() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let cached = Engine::new(
        policy(),
        EngineConfig {
            workers: 2,
            cache: Some(CacheConfig::exact()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let uncached = Engine::new(
        policy(),
        EngineConfig {
            workers: 2,
            cache: None,
            ..EngineConfig::default()
        },
    )
    .unwrap();

    for case in 0..12 {
        let width = rng.random_range(8..32u32);
        let height = rng.random_range(8..32u32);
        let frame = GrayImage::from_fn(width, height, |_, _| rng.random_range(0..=255u8));
        // Serve each frame twice through the cache: the first pass misses,
        // the second hits; both must equal the uncached result.
        let miss = cached.process_frame(&frame).unwrap();
        let hit = cached.process_frame(&frame).unwrap();
        let reference = uncached.process_frame(&frame).unwrap();
        assert!(!miss.cache_hit);
        assert!(hit.cache_hit, "case {case}: second serve should hit");
        assert!(!reference.cache_hit);
        assert_outcomes_bit_identical(
            &miss.outcome,
            &reference.outcome,
            &format!("case {case} (miss)"),
        );
        assert_outcomes_bit_identical(
            &hit.outcome,
            &reference.outcome,
            &format!("case {case} (hit)"),
        );
    }
}

/// Property: concurrent batch output order matches input order, for batches
/// larger than the pool and for every cache mode.
#[test]
fn property_concurrent_batch_preserves_input_order() {
    let suite = SipiSuite::with_size(24);
    let frames: Vec<GrayImage> = suite.iter().map(|(_, img)| img.clone()).collect();
    for cache in [
        None,
        Some(CacheConfig::exact()),
        Some(CacheConfig::approximate()),
    ] {
        let engine = Engine::new(
            policy(),
            EngineConfig {
                workers: 4,
                cache,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let report = engine.process_batch(&frames).unwrap();
        assert_eq!(report.frames(), frames.len());
        for (i, result) in report.results.iter().enumerate() {
            assert_eq!(result.index, i, "batch result out of order");
        }
        // Each result is the outcome for *its own* frame: the displayed
        // image has that frame's dimensions (the suite is homogeneous, so
        // also spot-check against the sequential policy).
        let sequential = policy().optimize(&frames[3], 0.10).unwrap();
        assert_outcomes_bit_identical(&report.results[3].outcome, &sequential, "row 3");
    }
}

/// Acceptance: a 64+ frame synthetic video batch across at least two worker
/// threads shows a measurable cache hit rate, and every cache-served frame
/// is bit-identical to the uncached evaluation of the same frame.
#[test]
fn video_batch_on_a_pool_has_a_measurable_hit_rate_and_identical_results() {
    // Scene cuts repeat identical frames within each half, so the exact
    // cache gets real hits on genuinely equal frames.
    let frames: Vec<GrayImage> = FrameSequence::new(SceneKind::SceneCut, 48, 48, 64, 21)
        .frames()
        .collect();
    assert!(frames.len() >= 64);

    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 4,
            cache: Some(CacheConfig::exact()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(engine.workers() >= 2);
    let report = engine.process_batch(&frames).unwrap();
    assert!(
        report.cache_hit_rate() > 0.5,
        "expected a measurable hit rate on repeated frames, got {}",
        report.cache_hit_rate()
    );

    let uncached = Engine::new(policy(), EngineConfig::sequential(0.10)).unwrap();
    let reference = uncached.process_batch(&frames).unwrap();
    for (cached, plain) in report.results.iter().zip(&reference.results) {
        assert_outcomes_bit_identical(
            &cached.outcome,
            &plain.outcome,
            &format!("frame {}", cached.index),
        );
    }

    let stats = engine.stats();
    assert_eq!(stats.frames, 64);
    assert!(stats.cache_hit_rate() > 0.5);
}

/// The approximate (signature-keyed) cache reuses fits on noisy static video
/// and keeps the measured per-frame distortion within the smoothing slack of
/// the budget.
#[test]
fn approximate_cache_reuses_fits_on_noisy_video() {
    let frames: Vec<GrayImage> = FrameSequence::new(SceneKind::Static, 48, 48, 24, 5)
        .frames()
        .collect();
    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 2,
            max_distortion: 0.10,
            cache: Some(CacheConfig {
                mode: CacheMode::Approximate,
                ..CacheConfig::default()
            }),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.process_batch(&frames).unwrap();
    assert!(
        report.cache_hit_rate() > 0.3,
        "noisy static frames should mostly share one fit, hit rate {}",
        report.cache_hit_rate()
    );
    for result in &report.results {
        // The fit came from a near-identical frame; the measured distortion
        // of the actual frame stays within a small slack of the budget.
        assert!(
            result.outcome.distortion <= 0.10 + 0.05,
            "frame {}: distortion {} drifted too far",
            result.index,
            result.outcome.distortion
        );
    }
}

/// A barrier-synchronized miss storm on one key runs exactly one fit: the
/// other workers wait on the single-flight marker and are served the
/// leader's result as coalesced hits. Both cache modes share the one
/// keyed serve flow, and both are pinned.
#[test]
fn single_flight_collapses_a_concurrent_miss_storm_into_one_fit() {
    for cache in [CacheConfig::exact(), CacheConfig::approximate()] {
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
        let frame: GrayImage = SipiSuite::with_size(48)
            .iter()
            .next()
            .map(|(_, img)| img.clone())
            .unwrap();
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
        assert_eq!(stats.frames, storm, "{mode:?}");
        assert_eq!(stats.cache_misses, 1, "{mode:?}: exactly one fit must run");
        assert_eq!(stats.cache_hits, storm - 1, "{mode:?}");
        // How many of those hits count as *coalesced* (first probe beat the
        // leader's insert) vs plain (probed after it landed) is scheduler-
        // dependent, so only the accounting invariant is asserted:
        assert!(stats.cache_coalesced < storm, "{mode:?}");
        // The store's own counters agree with the engine's on this path too.
        let counters = engine.cache_counters().unwrap();
        assert_eq!(counters.hits, stats.cache_hits, "{mode:?}");
        assert_eq!(counters.misses, stats.cache_misses, "{mode:?}");
        assert_eq!(counters.coalesced, stats.cache_coalesced, "{mode:?}");
    }
}

/// The exact cache respects a configurable byte budget: resident bytes
/// never exceed it, eviction is by recency, and a budget too small for even
/// one entry simply disables caching rather than thrashing.
#[test]
fn byte_budget_bounds_resident_cache_size() {
    // 64x64 entries weigh ~2 frames (stored pixels + displayed image) plus
    // the LUT: ~8.5 KiB. A 20 KiB budget on one shard holds two of them.
    let frames: Vec<GrayImage> = SipiSuite::with_size(64)
        .iter()
        .take(6)
        .map(|(_, img)| img.clone())
        .collect();
    let budget = 20 * 1024;
    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 1,
            cache: Some(CacheConfig {
                shards: 1,
                byte_budget: Some(budget),
                ..CacheConfig::exact()
            }),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for frame in &frames {
        engine.process_frame(frame).unwrap();
        assert!(
            engine.cached_bytes() <= budget,
            "resident bytes {} exceed the budget {budget}",
            engine.cached_bytes()
        );
    }
    assert!(engine.cached_fits() >= 1);
    assert!(engine.cached_fits() < frames.len(), "eviction happened");
    // The most recently served frame is still resident.
    let last = engine.process_frame(frames.last().unwrap()).unwrap();
    assert!(last.cache_hit);

    // An entry-sized budget below one entry refuses admission but serves
    // correctly.
    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 1,
            cache: Some(CacheConfig {
                shards: 1,
                byte_budget: Some(1024),
                ..CacheConfig::exact()
            }),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.process_frame(&frames[0]).unwrap();
    assert_eq!(engine.cached_fits(), 0, "oversized entries are refused");
    assert_eq!(engine.cached_bytes(), 0);
}

/// Budgets quantizing into the same band share cache entries: a fit made
/// for a strict budget serves looser requests directly, and a loose fit
/// that fails the stricter budget's distortion recheck is rejected and
/// replaced by a refit whose result honours the stricter contract.
#[test]
fn fits_are_shared_across_budgets_within_a_band() {
    let frame: GrayImage = SipiSuite::with_size(48)
        .iter()
        .next()
        .map(|(_, img)| img.clone())
        .unwrap();

    // Strict first: the strict fit's measured distortion satisfies every
    // looser budget in the band, so the loose request is a direct hit.
    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 1,
            max_distortion: 0.02,
            cache: Some(CacheConfig::exact().with_budget_band_width(0.5)),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let strict = engine.process_frame(&frame).unwrap();
    assert!(!strict.cache_hit);
    let loose = engine.process_frame_with_budget(&frame, 0.30).unwrap();
    assert!(loose.cache_hit, "stricter fit serves the looser budget");
    assert_eq!(loose.outcome.distortion, strict.outcome.distortion);

    // Loose first: the loose fit exceeds the stricter budget, so the hit
    // is rejected, the entry evicted, and the refit honours the contract.
    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 1,
            max_distortion: 0.30,
            cache: Some(CacheConfig::exact().with_budget_band_width(0.5)),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let loose = engine.process_frame(&frame).unwrap();
    assert!(loose.outcome.distortion > 0.02);
    let strict = engine.process_frame_with_budget(&frame, 0.02).unwrap();
    assert!(!strict.cache_hit, "rejected hit surfaces as a miss");
    assert!(
        strict.outcome.distortion <= 0.02,
        "refit honours the budget"
    );
    let stats = engine.stats();
    assert_eq!(stats.cache_rejected, 1);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.frames);
}

/// Regression for the open-loop miss path: with a seeded characteristic,
/// every cache miss costs at most **one** fit evaluation (the closed-loop
/// bisection costs ~8), no drift fallback fires on the traffic the curve
/// was characterized on, and the distortion contract still holds.
#[test]
fn open_loop_misses_cost_at_most_one_fit_evaluation() {
    let frames: Vec<GrayImage> = SipiSuite::with_size(32)
        .iter()
        .map(|(_, img)| img.clone())
        .collect();
    let engine = Engine::new(
        histogram_policy(),
        EngineConfig {
            workers: 1,
            max_distortion: 0.10,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy::default(),
            },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine
        .install_characteristic(characterize(&frames))
        .unwrap();

    for frame in &frames {
        let result = engine.process_frame(frame).unwrap();
        assert!(
            result.outcome.distortion <= 0.10 + 1e-9,
            "open-loop serving must still honour the budget, got {}",
            result.outcome.distortion
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.frames, frames.len() as u64);
    assert!(stats.cache_misses > 0);
    assert_eq!(
        stats.open_loop_fallbacks, 0,
        "characterized traffic must not drift"
    );
    assert!(
        stats.fit_evaluations <= stats.cache_misses,
        "{} evaluations for {} misses: open-loop misses must average ≤ 1",
        stats.fit_evaluations,
        stats.cache_misses
    );

    // A second pass is pure cache replay: no further evaluations at all.
    let evaluations_after_cold = stats.fit_evaluations;
    for frame in &frames {
        assert!(engine.process_frame(frame).unwrap().cache_hit);
    }
    assert_eq!(engine.stats().fit_evaluations, evaluations_after_cold);
}

/// Drift injection: a bogus characteristic that promises zero distortion at
/// tiny ranges forces every open-loop fit over budget. The per-serve drift
/// check must fall back to the closed-loop search (contract intact), the
/// drift trigger must re-characterize from the traffic sketch, and the
/// rebuilt curve must stop the fallbacks.
#[test]
fn drift_injection_triggers_fallback_and_recharacterization() {
    // A curve claiming distortion ≈ 0 everywhere: min_range_for(0.10)
    // returns the smallest range, so every fit lands wildly over budget.
    let lying_samples: Vec<CharacterizationSample> = (0..6)
        .map(|i| CharacterizationSample {
            image: format!("lie{i}"),
            dynamic_range: 40 * (i + 1),
            distortion: 0.0,
            power_saving: 0.9,
        })
        .collect();
    let lying_curve = DistortionCharacteristic::from_samples(lying_samples).unwrap();

    let engine = Engine::new(
        histogram_policy(),
        EngineConfig {
            workers: 1,
            max_distortion: 0.10,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    interval: None,
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
    let lying_generation = engine.install_characteristic(lying_curve).unwrap();

    let frames: Vec<GrayImage> = SipiSuite::with_size(32)
        .iter()
        .take(8)
        .map(|(_, img)| img.clone())
        .collect();
    for frame in &frames {
        let result = engine.process_frame(frame).unwrap();
        assert!(
            result.outcome.distortion <= 0.10 + 1e-9,
            "the fallback must keep the contract under a lying curve"
        );
        // Serve the next frame on whatever curve this serve's rebuild
        // installs, so the run does not depend on thread timing.
        engine.quiesce_rebuilds();
    }

    let stats = engine.stats();
    assert!(
        stats.open_loop_fallbacks >= 2,
        "the lying curve must trip the drift check, got {}",
        stats.open_loop_fallbacks
    );
    assert!(
        stats.recharacterizations >= 1,
        "the drift limit must trigger a background re-characterization"
    );
    assert!(
        engine.characteristic_generation() > lying_generation,
        "the rebuilt curve must supersede the lying one"
    );

    // The rebuilt curve was characterized on exactly this traffic: serving
    // fresh (uncached) copies of it must no longer fall back.
    let fallbacks_after_rebuild = stats.open_loop_fallbacks;
    let misses_before = stats.cache_misses;
    let evaluations_before = stats.fit_evaluations;
    for frame in &frames {
        engine.process_frame(frame).unwrap();
    }
    let healed = engine.stats();
    let new_misses = healed.cache_misses - misses_before;
    assert!(new_misses > 0, "generation bump forces refits");
    assert_eq!(
        healed.open_loop_fallbacks, fallbacks_after_rebuild,
        "re-characterized traffic must not drift"
    );
    assert!(
        healed.fit_evaluations - evaluations_before <= new_misses,
        "healed misses are back to one evaluation each"
    );
}

/// The characteristic generation is part of every cache key: swapping a new
/// curve in must invalidate fits made under the old one instead of replaying
/// them.
#[test]
fn characteristic_swap_invalidates_stale_cached_fits() {
    let frames: Vec<GrayImage> = SipiSuite::with_size(32)
        .iter()
        .take(4)
        .map(|(_, img)| img.clone())
        .collect();
    for cache in [CacheConfig::exact(), CacheConfig::approximate()] {
        let engine = Engine::new(
            histogram_policy(),
            EngineConfig {
                workers: 1,
                max_distortion: 0.10,
                cache: Some(cache),
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy::default(),
                },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine
            .install_characteristic(characterize(&frames))
            .unwrap();

        let first = engine.process_frame(&frames[0]).unwrap();
        assert!(!first.cache_hit);
        assert!(engine.process_frame(&frames[0]).unwrap().cache_hit);

        // Same curve content, new install: the generation alone must
        // invalidate.
        let generation = engine
            .install_characteristic(characterize(&frames))
            .unwrap();
        assert_eq!(generation, engine.characteristic_generation());
        let after_swap = engine.process_frame(&frames[0]).unwrap();
        assert!(
            !after_swap.cache_hit,
            "a fit made under the old curve must not be replayed"
        );
        assert!(engine.process_frame(&frames[0]).unwrap().cache_hit);
    }
}

/// A background rebuild whose curve matches the installed one must NOT be
/// swapped in: swapping bumps the key generation and would wipe the cache,
/// so stationary traffic has to keep its cached fits across interval
/// rebuilds (`RecharacterizePolicy::min_swap_delta`).
#[test]
fn stationary_rebuilds_do_not_wipe_the_cache() {
    let frame: GrayImage = SipiSuite::with_size(32)
        .iter()
        .next()
        .map(|(_, img)| img.clone())
        .unwrap();
    let engine = Engine::new(
        histogram_policy(),
        EngineConfig {
            workers: 1,
            max_distortion: 0.10,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    interval: Some(2), // rebuild every 2 frames
                    drift_limit: None,
                    sample_period: 1,
                    ..RecharacterizePolicy::default()
                },
            },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let seeded = engine
        .install_characteristic(characterize(std::slice::from_ref(&frame)))
        .unwrap();

    assert!(!engine.process_frame(&frame).unwrap().cache_hit);
    for _ in 0..6 {
        // Interval rebuilds fire during this run, each characterizing the
        // same traffic: the rebuilt curve matches, so no swap happens and
        // the cached fit keeps serving.
        assert!(
            engine.process_frame(&frame).unwrap().cache_hit,
            "a no-op rebuild must not invalidate the cache"
        );
    }
    engine.quiesce_rebuilds();
    assert_eq!(
        engine.characteristic_generation(),
        seeded,
        "matching rebuilds must not bump the generation"
    );
    assert_eq!(engine.stats().recharacterizations, 0);
}

/// Open-loop serving with the paper's windowed (histogram-incapable)
/// measure still works off an installed curve — it just cannot rebuild the
/// curve from the sketch, and the drift fallback keeps the contract.
#[test]
fn open_loop_serves_windowed_measures_from_an_installed_curve() {
    let frames: Vec<GrayImage> = SipiSuite::with_size(24)
        .iter()
        .take(6)
        .map(|(_, img)| img.clone())
        .collect();
    // Characterize through the pixel path (frames, not histograms).
    let config = PipelineConfig::default();
    let named: Vec<(String, &GrayImage)> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| (format!("f{i}"), f))
        .collect();
    let curve = DistortionCharacteristic::characterize(
        &config,
        named.iter().map(|(n, f)| (n.as_str(), *f)),
        &DEFAULT_RANGES,
    )
    .unwrap();

    let engine = Engine::new(
        policy(), // windowed default measure
        EngineConfig {
            workers: 1,
            max_distortion: 0.10,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    sample_period: 1,
                    drift_limit: Some(1),
                    ..RecharacterizePolicy::default()
                },
            },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.install_characteristic(curve).unwrap();
    for frame in &frames {
        let result = engine.process_frame(frame).unwrap();
        assert!(result.outcome.distortion <= 0.10 + 1e-9);
    }
    engine.quiesce_rebuilds();
    let stats = engine.stats();
    assert_eq!(
        stats.recharacterizations, 0,
        "a windowed measure cannot rebuild from the histogram sketch"
    );
    assert!(
        stats.fit_evaluations < stats.cache_misses * 4,
        "most misses should take the one-evaluation open-loop path"
    );
}

/// The tentpole regression for mixed traffic: on heterogeneous traffic
/// (three distinct histogram shapes) the single worst-case curve refuses to
/// dim (~0% saving), while the signature-clustered per-class bank recovers
/// at least half of the closed-loop saving — at open-loop fit cost and with
/// the distortion contract intact.
#[test]
fn per_class_bank_recovers_dimming_the_worst_case_curve_refuses() {
    use hebs::imaging::synthetic;
    let budget = 0.10;
    // Three content classes, three near-identical members each.
    let mut frames: Vec<GrayImage> = Vec::new();
    for seed in 0..3 {
        frames.push(synthetic::low_key(32, 32, seed));
    }
    for seed in 0..3 {
        frames.push(synthetic::high_key(32, 32, seed));
    }
    for seed in 0..3 {
        frames.push(synthetic::fine_texture(32, 32, seed));
    }
    let histograms: Vec<Histogram> = frames.iter().map(Histogram::of).collect();

    // Closed-loop reference: the per-frame search is the ceiling.
    let closed = Engine::new(
        histogram_policy(),
        EngineConfig {
            workers: 1,
            max_distortion: budget,
            cache: Some(CacheConfig::exact()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let closed_saving = closed.process_batch(&frames).unwrap().mean_power_saving();
    assert!(closed_saving > 0.2, "closed loop dims, got {closed_saving}");

    let open_engine = |classes: usize| {
        Engine::new(
            histogram_policy(),
            EngineConfig {
                workers: 1,
                max_distortion: budget,
                cache: Some(CacheConfig::exact()),
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy {
                        interval: None,
                        drift_limit: None,
                        classes,
                        ..RecharacterizePolicy::default()
                    },
                },
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };

    // The single worst-case curve over all three shapes refuses to dim.
    let single = open_engine(1);
    single
        .install_characteristic(
            DistortionCharacteristic::characterize_from_histograms(
                &open_loop_pipeline(),
                &histograms,
                &DEFAULT_RANGES,
            )
            .unwrap(),
        )
        .unwrap();
    let single_report = single.process_batch(&frames).unwrap();
    let single_saving = single_report.mean_power_saving();
    assert!(
        single_saving < 0.05,
        "the pooled worst-case curve should refuse to dim, saved {single_saving}"
    );

    // The per-class bank routes each shape to its own curve.
    let bank =
        CharacteristicBank::build(&open_loop_pipeline(), &histograms, &DEFAULT_RANGES, 3).unwrap();
    assert_eq!(bank.len(), 3, "three shapes make three classes");
    let banked = open_engine(3);
    banked.install_bank(bank).unwrap();
    let banked_report = banked.process_batch(&frames).unwrap();
    let banked_saving = banked_report.mean_power_saving();
    assert!(
        banked_saving >= closed_saving / 2.0,
        "per-class saving {banked_saving} recovers less than half of the \
         closed-loop {closed_saving}"
    );
    for result in &banked_report.results {
        assert!(
            result.outcome.distortion <= budget + 1e-9,
            "frame {}: the contract must hold, distortion {}",
            result.index,
            result.outcome.distortion
        );
    }
    let stats = banked.stats();
    assert!(stats.cache_misses > 0);
    assert!(
        stats.fit_evaluations <= stats.cache_misses,
        "{} evaluations for {} misses: the bank must keep open-loop economics",
        stats.fit_evaluations,
        stats.cache_misses
    );
}

/// Class-scoped invalidation, for both cache key modes: a drift-triggered
/// rebuild of one class bumps only that class's generation — its cached
/// fits are invalidated while the other class's fits keep replaying.
#[test]
fn class_rebuild_invalidates_only_its_own_class() {
    use hebs::imaging::synthetic;
    let budget = 0.10;
    let dark = synthetic::low_key(32, 32, 5);
    let bright = synthetic::high_key(32, 32, 6);
    let dark_signature = hebs::imaging::HistogramSignature::of(&Histogram::of(&dark));
    let bright_signature = hebs::imaging::HistogramSignature::of(&Histogram::of(&bright));

    // A lying curve for the dark class (promises zero distortion at every
    // range, so every open-loop fit lands over budget) and an accurate one
    // for the bright class.
    let lying: Vec<CharacterizationSample> = (0..6)
        .map(|i| CharacterizationSample {
            image: format!("lie{i}"),
            dynamic_range: 40 * (i + 1),
            distortion: 0.0,
            power_saving: 0.9,
        })
        .collect();
    let accurate = DistortionCharacteristic::characterize_from_histograms(
        &open_loop_pipeline(),
        std::slice::from_ref(&Histogram::of(&bright)),
        &DEFAULT_RANGES,
    )
    .unwrap();

    for cache in [CacheConfig::exact(), CacheConfig::approximate()] {
        let engine = Engine::new(
            histogram_policy(),
            EngineConfig {
                workers: 1,
                max_distortion: budget,
                cache: Some(cache),
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy {
                        interval: None,
                        drift_limit: Some(1),
                        sample_period: 1,
                        classes: 2,
                        ..RecharacterizePolicy::default()
                    },
                },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let bank = CharacteristicBank::from_classes(vec![
            BankClass::centered_on(
                &dark_signature,
                std::sync::Arc::new(DistortionCharacteristic::from_samples(lying.clone()).unwrap()),
            ),
            BankClass::centered_on(&bright_signature, std::sync::Arc::new(accurate.clone())),
        ])
        .unwrap();
        engine.install_bank(bank).unwrap();
        let generation_before = engine.characteristic_generation();

        // Warm the bright class.
        assert!(!engine.process_frame(&bright).unwrap().cache_hit);
        assert!(engine.process_frame(&bright).unwrap().cache_hit);

        // One dark serve: the lying curve drifts (fallback keeps the
        // contract), trips the class's drift limit, and the rebuild from
        // the class's own sketch replaces only the dark class's curve.
        let drifted = engine.process_frame(&dark).unwrap();
        assert!(drifted.outcome.distortion <= budget + 1e-9);
        engine.quiesce_rebuilds();
        let stats = engine.stats();
        assert_eq!(stats.open_loop_fallbacks, 1, "the lying curve must drift");
        assert_eq!(
            stats.recharacterizations, 1,
            "the drift limit must rebuild the class"
        );
        assert!(engine.characteristic_generation() > generation_before);

        // The bright class's cached fit survives the dark rebuild...
        assert!(
            engine.process_frame(&bright).unwrap().cache_hit,
            "an untouched class's fits must keep replaying"
        );
        // ...while the dark class's fit (made under the lying curve's
        // generation) is invalidated and refit under the healed curve.
        let healed = engine.process_frame(&dark).unwrap();
        assert!(
            !healed.cache_hit,
            "the rebuilt class's stale fit must not replay"
        );
        assert!(engine.process_frame(&dark).unwrap().cache_hit);
        let final_stats = engine.stats();
        assert_eq!(
            final_stats.open_loop_fallbacks, 1,
            "the healed curve must not drift again"
        );
    }
}

/// The lookup fit is selectable: on heterogeneous traffic the p95 envelope
/// dims where the worst case refuses, without giving up the contract.
#[test]
fn envelope_fit_dims_heterogeneous_traffic_within_the_contract() {
    let frames: Vec<GrayImage> = SipiSuite::with_size(32)
        .iter()
        .map(|(_, img)| img.clone())
        .collect();
    let curve = characterize(&frames);
    let budget = 0.10;
    let serve = |fit: CurveFit| {
        let engine = Engine::new(
            histogram_policy(),
            EngineConfig {
                workers: 1,
                max_distortion: budget,
                cache: Some(CacheConfig::exact()),
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy {
                        interval: None,
                        drift_limit: None,
                        fit,
                        ..RecharacterizePolicy::default()
                    },
                },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.install_characteristic(curve.clone()).unwrap();
        let report = engine.process_batch(&frames).unwrap();
        for result in &report.results {
            assert!(
                result.outcome.distortion <= budget + 1e-9,
                "{fit:?}: contract broken at frame {}",
                result.index
            );
        }
        report.mean_power_saving()
    };
    let worst_case = serve(CurveFit::WorstCase);
    let envelope = serve(CurveFit::Envelope);
    assert!(
        envelope > worst_case,
        "envelope ({envelope}) should dim more than worst case ({worst_case})"
    );
}

/// Tenant isolation, for both cache key modes: two tenants sharing one
/// cache never replay each other's fits (the tenant id is a key
/// dimension), and one tenant's characteristic swap (generation bump)
/// invalidates only its own entries.
#[test]
fn tenants_share_a_cache_without_cross_tenant_replay_or_invalidation() {
    let frames: Vec<GrayImage> = SipiSuite::with_size(32)
        .iter()
        .take(3)
        .map(|(_, img)| img.clone())
        .collect();
    let open_loop = || ServingMode::OpenLoop {
        recharacterize: RecharacterizePolicy {
            interval: None,
            drift_limit: None,
            ..RecharacterizePolicy::default()
        },
    };
    for cache in [CacheConfig::exact(), CacheConfig::approximate()] {
        let registry = TenantRegistry::builder()
            .with_cache(cache)
            .tenant(
                histogram_policy(),
                TenantSpec::named("a")
                    .with_budget(0.10)
                    .with_mode(open_loop()),
            )
            .tenant(
                histogram_policy(),
                TenantSpec::named("b")
                    .with_budget(0.10)
                    .with_mode(open_loop()),
            )
            .build()
            .unwrap();
        let a = registry.id_of("a").unwrap();
        let b = registry.id_of("b").unwrap();
        let curve = characterize(&frames);
        registry
            .engine(a)
            .unwrap()
            .install_characteristic(curve.clone())
            .unwrap();
        registry
            .engine(b)
            .unwrap()
            .install_characteristic(curve.clone())
            .unwrap();
        let options = ServeOptions::default();

        // Same frame, same budget band, same curve content: tenant B must
        // still miss where tenant A would hit.
        let frame = &frames[0];
        assert!(!registry.serve(a, frame, &options).unwrap().cache_hit);
        assert!(registry.serve(a, frame, &options).unwrap().cache_hit);
        assert!(
            !registry.serve(b, frame, &options).unwrap().cache_hit,
            "a fit made for one tenant must never replay for another"
        );
        assert!(registry.serve(b, frame, &options).unwrap().cache_hit);

        // A characteristic swap on tenant A bumps only A's generation:
        // A's fit is invalidated, B's keeps replaying.
        registry
            .engine(a)
            .unwrap()
            .install_characteristic(curve.clone())
            .unwrap();
        assert!(
            !registry.serve(a, frame, &options).unwrap().cache_hit,
            "the swapping tenant's stale fit must not replay"
        );
        assert!(
            registry.serve(b, frame, &options).unwrap().cache_hit,
            "another tenant's swap must not invalidate this tenant's fits"
        );
    }
}

/// One tenant flooding the shared cache evicts only its *own* entries: the
/// byte budget is partitioned by weight, and each tenant's charge stays
/// within its slice while the quiet tenant's entry keeps replaying.
#[test]
fn tenant_evictions_stay_within_the_weighted_partition() {
    let frames: Vec<GrayImage> = SipiSuite::with_size(64)
        .iter()
        .take(6)
        .map(|(_, img)| img.clone())
        .collect();
    // ~8.5 KiB per 64x64 exact entry; a 40 KiB budget split 1:1 gives each
    // tenant a ~20 KiB slice (about two entries).
    let budget = 40 * 1024;
    let registry = TenantRegistry::builder()
        .with_cache(CacheConfig {
            shards: 1,
            byte_budget: Some(budget),
            ..CacheConfig::exact()
        })
        .tenant(policy(), TenantSpec::named("quiet"))
        .tenant(policy(), TenantSpec::named("flood"))
        .build()
        .unwrap();
    let quiet = registry.id_of("quiet").unwrap();
    let flood = registry.id_of("flood").unwrap();
    let options = ServeOptions::default();

    // The quiet tenant caches one frame.
    assert!(
        !registry
            .serve(quiet, &frames[0], &options)
            .unwrap()
            .cache_hit
    );
    let quiet_bytes = registry.tenant_bytes(quiet).unwrap();
    assert!(quiet_bytes > 0);

    // The flooding tenant serves far more than its slice holds.
    for frame in &frames {
        registry.serve(flood, frame, &options).unwrap();
        assert!(
            registry.tenant_bytes(flood).unwrap() <= budget / 2,
            "a tenant's resident bytes must stay within its slice"
        );
    }
    assert_eq!(
        registry.tenant_bytes(quiet).unwrap(),
        quiet_bytes,
        "the flood must charge (and evict) only its own partition"
    );
    assert!(
        registry
            .serve(quiet, &frames[0], &options)
            .unwrap()
            .cache_hit,
        "the quiet tenant's entry must survive a neighbour's flood"
    );
}

/// Shed and queue accounting reconcile with `EngineStats`: refused
/// arrivals count as sheds (not frames), released permits reopen the
/// bound, and per-tenant counters are independent.
#[test]
fn shed_counters_reconcile_with_engine_stats() {
    let registry = TenantRegistry::builder()
        .tenant(policy(), TenantSpec::named("tight").with_queue_limit(1))
        .tenant(policy(), TenantSpec::named("roomy"))
        .build()
        .unwrap();
    let tight = registry.id_of("tight").unwrap();
    let roomy = registry.id_of("roomy").unwrap();
    let frame = SipiSuite::with_size(24)
        .iter()
        .next()
        .map(|(_, img)| img.clone())
        .unwrap();
    let options = ServeOptions::default();

    let permit = registry.admit(tight).unwrap();
    for _ in 0..3 {
        assert!(matches!(
            registry.admit(tight),
            Err(RuntimeError::Shed { tenant: 0, .. })
        ));
    }
    registry
        .serve_with_permit(&permit, &frame, &options)
        .unwrap();
    drop(permit);
    registry.serve(tight, &frame, &options).unwrap();
    registry.serve(roomy, &frame, &options).unwrap();

    let tight_stats = registry.stats(tight).unwrap();
    assert_eq!(tight_stats.frames, 2, "sheds must not count as frames");
    assert_eq!(tight_stats.sheds, 3);
    assert_eq!(tight_stats.queue_depth, 0, "permits were all released");
    let roomy_stats = registry.stats(roomy).unwrap();
    assert_eq!(roomy_stats.frames, 1);
    assert_eq!(roomy_stats.sheds, 0);
}

/// Deadline-aware serving: a frame already past its deadline skips the
/// closed-loop drift recheck and serves the installed curve directly
/// (counted in `deadline_degraded`); the degraded fit is *not* cached, so
/// a later unhurried serve of the same frame re-fits under the contract.
#[test]
fn past_due_serves_degrade_to_the_installed_curve_without_poisoning_the_cache() {
    use std::time::{Duration, Instant};
    // A lying curve (promises zero distortion everywhere) makes every
    // open-loop fit land over budget, forcing the drift decision point.
    let lying: Vec<CharacterizationSample> = (0..6)
        .map(|i| CharacterizationSample {
            image: format!("lie{i}"),
            dynamic_range: 40 * (i + 1),
            distortion: 0.0,
            power_saving: 0.9,
        })
        .collect();
    let engine = Engine::new(
        histogram_policy(),
        EngineConfig {
            workers: 1,
            max_distortion: 0.10,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    interval: None,
                    drift_limit: None,
                    ..RecharacterizePolicy::default()
                },
            },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine
        .install_characteristic(DistortionCharacteristic::from_samples(lying).unwrap())
        .unwrap();
    let frame = SipiSuite::with_size(32)
        .iter()
        .next()
        .map(|(_, img)| img.clone())
        .unwrap();

    // Past-due: the over-budget open-loop fit is served as-is.
    let late = ServeOptions::default().with_deadline(Instant::now() - Duration::from_secs(1));
    let degraded = engine.process_frame_with_options(&frame, &late).unwrap();
    assert!(!degraded.cache_hit);
    let stats = engine.stats();
    assert_eq!(stats.deadline_degraded, 1);
    assert_eq!(
        stats.open_loop_fallbacks, 0,
        "a degraded serve skips the closed-loop fallback"
    );
    assert_eq!(
        stats.fit_evaluations, 1,
        "the degraded path costs exactly the one open-loop evaluation"
    );

    // The degraded fit must not have been cached: an unhurried serve of
    // the same frame misses, falls back closed-loop, and honours the
    // budget.
    let relaxed = ServeOptions::default().with_deadline(Instant::now() + Duration::from_secs(60));
    let honoured = engine.process_frame_with_options(&frame, &relaxed).unwrap();
    assert!(
        !honoured.cache_hit,
        "an over-budget degraded fit must never be cached"
    );
    assert!(honoured.outcome.distortion <= 0.10 + 1e-9);
    let stats = engine.stats();
    assert_eq!(
        stats.deadline_degraded, 1,
        "an unexpired deadline is a no-op"
    );
    assert_eq!(stats.open_loop_fallbacks, 1);

    // The honoured fit *was* cached and replays.
    assert!(engine.process_frame(&frame).unwrap().cache_hit);
}

/// `Engine::stream_scoped` accepts a producer borrowing from the caller's
/// stack (no `'static` bound) and agrees with batching.
#[test]
fn scoped_streaming_serves_borrowed_producers() {
    let frames: Vec<GrayImage> = FrameSequence::new(SceneKind::Static, 24, 24, 8, 11)
        .frames()
        .collect();
    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 2,
            queue_depth: 2,
            cache: None,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let streamed: Vec<_> = std::thread::scope(|scope| {
        // `frames.iter().cloned()` borrows `frames`: this does not compile
        // against the `'static` bound of `Engine::stream`.
        engine
            .stream_scoped(scope, frames.iter().cloned())
            .collect::<hebs::runtime::Result<Vec<_>>>()
    })
    .unwrap();
    let batched = engine.process_batch(&frames).unwrap();
    assert_eq!(streamed.len(), batched.frames());
    for (s, b) in streamed.iter().zip(&batched.results) {
        assert_eq!(s.index, b.index);
        assert_outcomes_bit_identical(&s.outcome, &b.outcome, &format!("frame {}", s.index));
    }
}

/// Streaming and batching agree on the same input.
#[test]
fn streaming_agrees_with_batching() {
    let frames: Vec<GrayImage> = FrameSequence::new(SceneKind::FadeToBlack, 32, 32, 10, 9)
        .frames()
        .collect();
    let engine = Engine::new(
        policy(),
        EngineConfig {
            workers: 3,
            queue_depth: 2,
            cache: None,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let streamed: Vec<_> = engine
        .stream(frames.clone())
        .collect::<hebs::runtime::Result<Vec<_>>>()
        .unwrap();
    let batched = engine.process_batch(&frames).unwrap();
    assert_eq!(streamed.len(), batched.frames());
    for (s, b) in streamed.iter().zip(&batched.results) {
        assert_eq!(s.index, b.index);
        assert_outcomes_bit_identical(&s.outcome, &b.outcome, &format!("frame {}", s.index));
    }
}

/// Global UIQI that panics on the `n`-th call after [`PanicOnCall::arm`],
/// so a test can make exactly one characterization blow up mid-rebuild.
#[derive(Debug, Clone, Default)]
struct PanicOnCall {
    countdown: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl PanicOnCall {
    fn arm(&self, n: u64) {
        self.countdown.store(n, std::sync::atomic::Ordering::SeqCst);
    }

    fn tick(&self) {
        use std::sync::atomic::Ordering;
        let previous = self
            .countdown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .unwrap_or(0);
        assert_ne!(previous, 1, "injected measure panic");
    }
}

impl hebs::quality::DistortionMeasure for PanicOnCall {
    fn distortion(&self, original: &GrayImage, transformed: &GrayImage) -> f64 {
        self.tick();
        GlobalUiqiDistortion.distortion(original, transformed)
    }

    fn distortion_from_levels(&self, histogram: &Histogram, level_map: &[u8; 256]) -> Option<f64> {
        self.tick();
        GlobalUiqiDistortion.distortion_from_levels(histogram, level_map)
    }

    fn name(&self) -> &'static str {
        "panic-on-call"
    }
}

/// A characterization that panics on the background rebuild thread is
/// contained there: it is counted, the claim is released, serving goes on
/// off the installed curve, and the next due trigger rebuilds.
#[test]
fn a_panicking_rebuild_keeps_serving_and_rebuilds_on_the_next_trigger() {
    let measure = PanicOnCall::default();
    let engine = Engine::new(
        HebsPolicy::closed_loop(PipelineConfig::default().with_measure(measure.clone())),
        EngineConfig {
            workers: 1,
            max_distortion: 0.10,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    interval: Some(4),
                    drift_limit: None,
                    sample_period: 1,
                    min_swap_delta: 0.0,
                    ..RecharacterizePolicy::default()
                },
            },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let frames: Vec<GrayImage> = SipiSuite::with_size(32)
        .iter()
        .take(4)
        .map(|(_, img)| img.clone())
        .collect();
    let installed = engine
        .install_characteristic(characterize(&frames))
        .unwrap();

    // One miss, then exact hits (which never call the measure) up to the
    // 4-frame interval: the 4th serve claims the rebuild, whose third
    // measure call panics on the rebuild thread.
    assert!(!engine.process_frame(&frames[0]).unwrap().cache_hit);
    for _ in 0..2 {
        assert!(engine.process_frame(&frames[0]).unwrap().cache_hit);
    }
    measure.arm(3);
    assert!(engine.process_frame(&frames[0]).unwrap().cache_hit);
    engine.quiesce_rebuilds();
    assert_eq!(engine.rebuild_panics(), 1);
    assert_eq!(engine.stats().recharacterizations, 0);
    assert_eq!(engine.characteristic_generation(), installed);

    // Serving continues off the old curve, and the trigger the panicked
    // rebuild never consumed is still due: this serve rebuilds.
    let result = engine.process_frame(&frames[1]).unwrap();
    assert!(result.outcome.distortion <= 0.10 + 1e-9);
    engine.quiesce_rebuilds();
    assert_eq!(engine.rebuild_panics(), 1);
    assert_eq!(engine.stats().recharacterizations, 1);
    assert!(engine.characteristic_generation() > installed);
    assert_eq!(engine.stats().poison_recoveries, 0);
}
