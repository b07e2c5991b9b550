//! Reusable experiment runners.
//!
//! Each runner reproduces one experiment of the paper's evaluation section
//! and returns plain data; the `src/bin/*` harnesses only format and print
//! it. Keeping the logic here lets the integration tests reuse exactly the
//! same code paths.

use std::time::{Duration, Instant};

use hebs_core::{
    pipeline::{evaluate_at_range_scratch, evaluate_range_from_histogram, FitScratch},
    BacklightPolicy, CbcsPolicy, CharacteristicBank, CurveFit, DistortionCharacteristic, DlsPolicy,
    DlsVariant, HebsPolicy, PipelineConfig, TargetRange, DEFAULT_RANGES,
};
use hebs_imaging::{
    synthetic, FrameSequence, GrayImage, Histogram, SceneKind, SipiImage, SipiSuite,
};
use hebs_quality::{DistortionMeasure, GlobalUiqiDistortion};
use hebs_runtime::{
    CacheConfig, Engine, EngineConfig, RecharacterizePolicy, ServeOptions, ServingMode,
    TenantRegistry, TenantSpec,
};

/// One row of the Table 1 reproduction: the savings and measured distortions
/// for a single image at each distortion budget.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark image name.
    pub image: String,
    /// Fractional power saving per budget.
    pub savings: Vec<f64>,
    /// Measured distortion per budget.
    pub distortions: Vec<f64>,
    /// Chosen backlight factor per budget.
    pub betas: Vec<f64>,
}

/// The full Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// The distortion budgets (fractions) the columns correspond to.
    pub budgets: Vec<f64>,
    /// Per-image rows in suite order.
    pub rows: Vec<Table1Row>,
}

impl Table1Report {
    /// Mean fractional saving per budget over all rows.
    pub fn average_savings(&self) -> Vec<f64> {
        if self.rows.is_empty() {
            return vec![0.0; self.budgets.len()];
        }
        let mut sums = vec![0.0f64; self.budgets.len()];
        for row in &self.rows {
            for (i, &s) in row.savings.iter().enumerate() {
                sums[i] += s;
            }
        }
        sums.iter().map(|s| s / self.rows.len() as f64).collect()
    }
}

/// Runs the Table 1 experiment: for every suite image and distortion budget,
/// the closed-loop HEBS policy picks the dimmest admissible setting.
///
/// # Errors
///
/// Propagates pipeline errors from the HEBS policy.
pub fn run_table1(
    suite: &SipiSuite,
    budgets: &[f64],
    config: PipelineConfig,
) -> hebs_core::Result<Table1Report> {
    let policy = HebsPolicy::closed_loop(config);
    let mut rows = Vec::with_capacity(suite.len());
    for (id, image) in suite.iter() {
        let mut savings = Vec::with_capacity(budgets.len());
        let mut distortions = Vec::with_capacity(budgets.len());
        let mut betas = Vec::with_capacity(budgets.len());
        for &budget in budgets {
            let outcome = policy.optimize(image, budget)?;
            savings.push(outcome.power_saving);
            distortions.push(outcome.distortion);
            betas.push(outcome.beta);
        }
        rows.push(Table1Row {
            image: id.name().to_string(),
            savings,
            distortions,
            betas,
        });
    }
    Ok(Table1Report {
        budgets: budgets.to_vec(),
        rows,
    })
}

/// Runs the Figure 7 characterization sweep over the suite and returns the
/// fitted distortion characteristic (the raw scatter is available from the
/// returned value).
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn run_characterization(
    suite: &SipiSuite,
    ranges: &[u32],
    config: &PipelineConfig,
) -> hebs_core::Result<DistortionCharacteristic> {
    DistortionCharacteristic::characterize(
        config,
        suite.iter().map(|(id, image)| (id.name(), image)),
        ranges,
    )
}

/// One cell of the Figure 8 reproduction: a sample image evaluated at a
/// fixed target dynamic range.
#[derive(Debug, Clone)]
pub struct Figure8Row {
    /// Benchmark image name.
    pub image: String,
    /// Target dynamic range evaluated.
    pub dynamic_range: u32,
    /// Measured distortion.
    pub distortion: f64,
    /// Fractional power saving.
    pub power_saving: f64,
}

/// Runs the Figure 8 experiment: the six sample images at dynamic ranges 220
/// and 100 (distortion and power saving per cell).
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn run_figure8(
    suite: &SipiSuite,
    config: &PipelineConfig,
) -> hebs_core::Result<Vec<Figure8Row>> {
    let samples = [
        SipiImage::Lena,
        SipiImage::Peppers,
        SipiImage::Splash,
        SipiImage::Trees,
        SipiImage::Girl,
        SipiImage::Baboon,
    ];
    let ranges = [220u32, 100];
    let mut rows = Vec::new();
    for id in samples {
        let image = suite.image(id).expect("suite contains every identifier");
        for range in ranges {
            let target = TargetRange::from_span(range)?;
            let eval = hebs_core::pipeline::evaluate_at_range(config, image, target)?;
            rows.push(Figure8Row {
                image: id.name().to_string(),
                dynamic_range: range,
                distortion: eval.distortion,
                power_saving: eval.power_saving,
            });
        }
    }
    Ok(rows)
}

/// The outcome of comparing all policies on one image.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Benchmark image name.
    pub image: String,
    /// `(policy name, fractional saving, measured distortion)` triples.
    pub results: Vec<(String, f64, f64)>,
}

/// Runs the baseline comparison: HEBS vs CBCS vs both DLS variants at one
/// distortion budget, over the given images.
///
/// # Errors
///
/// Propagates policy errors.
pub fn run_baseline_comparison(
    images: &[(SipiImage, &GrayImage)],
    budget: f64,
    config: PipelineConfig,
) -> hebs_core::Result<Vec<BaselineComparison>> {
    let policies: Vec<Box<dyn BacklightPolicy>> = vec![
        Box::new(HebsPolicy::closed_loop(config)),
        Box::new(CbcsPolicy::new()),
        Box::new(DlsPolicy::new(DlsVariant::ContrastEnhancement)),
        Box::new(DlsPolicy::new(DlsVariant::BrightnessCompensation)),
    ];
    let mut comparisons = Vec::new();
    for (id, image) in images {
        let mut results = Vec::new();
        for policy in &policies {
            let outcome = policy.optimize(image, budget)?;
            results.push((
                policy.name().to_string(),
                outcome.power_saving,
                outcome.distortion,
            ));
        }
        comparisons.push(BaselineComparison {
            image: id.name().to_string(),
            results,
        });
    }
    Ok(comparisons)
}

/// One measured configuration of the runtime throughput comparison.
#[derive(Debug, Clone)]
pub struct RuntimeThroughputRow {
    /// Workload the engine served ("suite" or a video scene kind).
    pub workload: String,
    /// Engine configuration ("single-thread", "pooled", "pooled+cache").
    pub configuration: String,
    /// Worker threads used.
    pub workers: usize,
    /// Number of frames served.
    pub frames: usize,
    /// Wall-clock time for the whole workload.
    pub wall_time: Duration,
    /// Frames per wall-clock second.
    pub throughput_fps: f64,
    /// Mean per-frame serving latency.
    pub mean_latency: Duration,
    /// Median per-frame serving latency.
    pub p50_latency: Duration,
    /// 95th-percentile per-frame serving latency.
    pub p95_latency: Duration,
    /// Fraction of frames served from the transformation cache.
    pub cache_hit_rate: f64,
    /// Bytes resident in the transformation cache after the workload.
    pub cache_bytes: u64,
    /// Misses served by another worker's concurrent fit instead of a
    /// redundant fit (single-flight coalescing).
    pub cache_coalesced: u64,
    /// Cached candidates rejected by verification (distortion recheck or
    /// stored-frame mismatch).
    pub cache_rejected: u64,
    /// Frames that ran a full fit (cache misses, including rejected hits).
    /// `fit_evaluations / cache_misses` is the per-miss fit cost the CI
    /// regression gate enforces (~8 closed-loop, ≤ 1 open-loop).
    pub cache_misses: u64,
    /// Target-range fit evaluations across the workload (cache replays
    /// count zero) — the work the histogram-domain fit path makes
    /// O(levels) and the open-loop mode cuts to one per miss.
    pub fit_evaluations: u64,
    /// Open-loop fits whose measured distortion exceeded the budget and
    /// were re-served through the closed-loop search (0 outside open-loop
    /// mode).
    pub open_loop_fallbacks: u64,
    /// Distortion characteristic rebuilds performed from the rolling
    /// traffic sketch (0 outside open-loop mode).
    pub recharacterizations: u64,
    /// Mean fractional power saving over the workload.
    pub mean_power_saving: f64,
}

impl RuntimeThroughputRow {
    /// Fit evaluations per fitted frame: per cache miss for cached
    /// configurations, per frame for uncached ones (where every frame runs
    /// a fit but no miss is counted). ~8 for the closed-loop search, ≤ 1
    /// for open-loop serving — the ratio the CI regression gate enforces.
    pub fn fit_evaluations_per_miss(&self) -> f64 {
        let denominator = if self.cache_misses > 0 {
            self.cache_misses
        } else {
            self.frames as u64
        };
        if denominator == 0 {
            0.0
        } else {
            self.fit_evaluations as f64 / denominator as f64
        }
    }
}

/// The workloads of the runtime throughput experiment, each paired with the
/// cache configuration a deployment would use for it (exact keying for image
/// traffic with repeats, signature keying for video).
fn runtime_workloads(
    frame_size: u32,
    video_frames: usize,
) -> Vec<(String, CacheConfig, Vec<GrayImage>)> {
    // Heavy image traffic: the whole synthetic SIPI suite, served twice (a
    // production mix always contains repeats — thumbnails, logos, retries).
    let suite = SipiSuite::with_size(frame_size);
    let mut suite_frames: Vec<GrayImage> = suite.iter().map(|(_, img)| img.clone()).collect();
    suite_frames.extend(suite.iter().map(|(_, img)| img.clone()));

    // Video traffic: a noisy static scene and a scene cut, the two temporal
    // behaviours that bracket cache behaviour (near-identical frames vs.
    // exact repeats).
    let static_frames: Vec<GrayImage> =
        FrameSequence::new(SceneKind::Static, frame_size, frame_size, video_frames, 17)
            .frames()
            .collect();
    let cut_frames: Vec<GrayImage> = FrameSequence::new(
        SceneKind::SceneCut,
        frame_size,
        frame_size,
        video_frames,
        23,
    )
    .frames()
    .collect();
    vec![
        ("suite x2".to_string(), CacheConfig::exact(), suite_frames),
        (
            "video static".to_string(),
            CacheConfig::approximate(),
            static_frames,
        ),
        (
            "video scene-cut".to_string(),
            CacheConfig::approximate(),
            cut_frames,
        ),
    ]
}

/// The pipeline configuration the open-loop rows serve with: the
/// histogram-capable global UIQI measure, so fits, drift rechecks and
/// re-characterization all run in O(levels).
fn open_loop_pipeline() -> PipelineConfig {
    PipelineConfig::default().with_measure(GlobalUiqiDistortion)
}

/// Characterizes a workload offline (every `stride`-th frame's histogram,
/// swept over the paper's default ranges) — the seed curve an open-loop
/// deployment installs before taking traffic.
///
/// # Errors
///
/// Propagates characterization errors (the measure must be
/// histogram-capable).
pub fn characterize_workload(
    config: &PipelineConfig,
    frames: &[GrayImage],
    stride: usize,
) -> hebs_core::Result<DistortionCharacteristic> {
    let histograms: Vec<Histogram> = frames
        .iter()
        .step_by(stride.max(1))
        .map(Histogram::of)
        .collect();
    DistortionCharacteristic::characterize_from_histograms(config, &histograms, &DEFAULT_RANGES)
}

/// Runs the runtime throughput comparison: single thread vs. a worker pool
/// vs. a worker pool with the transformation cache vs. the histogram-domain
/// fit path vs. open-loop serving, over an image-suite workload and two
/// synthetic video workloads.
///
/// `workers = 0` selects the machine's available parallelism. Video
/// workloads use the approximate (signature-keyed) cache, the image suite
/// the exact one, mirroring how a deployment would configure them. The
/// open-loop engine is seeded with a characteristic of every fourth
/// workload frame, the way a deployment characterizes offline, and keeps
/// the drift-triggered background re-characterization armed.
///
/// # Errors
///
/// Propagates engine construction and serving errors.
pub fn run_runtime_throughput(
    budget: f64,
    frame_size: u32,
    video_frames: usize,
    workers: usize,
) -> hebs_runtime::Result<Vec<RuntimeThroughputRow>> {
    let mut rows = Vec::new();
    for (workload, cache_for_workload, frames) in runtime_workloads(frame_size, video_frames) {
        // Warm-up: a few frames through a throwaway engine take the
        // first-touch costs (page faults, lazy init, CPU ramp-up) off the
        // first timed row, which is what the CI regression gate compares.
        let warmup = Engine::new(
            HebsPolicy::closed_loop(PipelineConfig::default()),
            EngineConfig::sequential(budget),
        )?;
        warmup.process_batch(&frames[..frames.len().min(4)])?;

        // The fourth configuration swaps in a histogram-capable distortion
        // measure (global UIQI): the same pooled, cached engine, but every
        // fit runs in O(levels) instead of O(pixels). The fifth serves
        // open-loop: one fit evaluation per miss instead of a bisection.
        let configurations: Vec<(&str, PipelineConfig, EngineConfig)> = vec![
            (
                "single-thread",
                PipelineConfig::default(),
                EngineConfig::sequential(budget),
            ),
            (
                "pooled",
                PipelineConfig::default(),
                EngineConfig {
                    workers,
                    max_distortion: budget,
                    cache: None,
                    ..EngineConfig::default()
                },
            ),
            (
                "pooled+cache",
                PipelineConfig::default(),
                EngineConfig {
                    workers,
                    max_distortion: budget,
                    cache: Some(cache_for_workload.clone()),
                    ..EngineConfig::default()
                },
            ),
            (
                "histogram-fit",
                open_loop_pipeline(),
                EngineConfig {
                    workers,
                    max_distortion: budget,
                    cache: Some(cache_for_workload.clone()),
                    ..EngineConfig::default()
                },
            ),
            (
                "open-loop",
                open_loop_pipeline(),
                EngineConfig {
                    workers,
                    max_distortion: budget,
                    cache: Some(cache_for_workload.clone()),
                    mode: ServingMode::OpenLoop {
                        recharacterize: RecharacterizePolicy {
                            interval: None,
                            drift_limit: Some(8),
                            ..RecharacterizePolicy::default()
                        },
                    },
                    ..EngineConfig::default()
                },
            ),
        ];
        for (name, pipeline, config) in configurations {
            let open_loop = matches!(config.mode, ServingMode::OpenLoop { .. });
            let engine = Engine::new(HebsPolicy::closed_loop(pipeline), config)?;
            if open_loop {
                let seed = characterize_workload(&open_loop_pipeline(), &frames, 4)
                    .map_err(hebs_runtime::RuntimeError::Core)?;
                engine.install_characteristic(seed)?;
            }
            let report = engine.process_batch(&frames)?;
            engine.quiesce_rebuilds();
            let stats = engine.stats();
            rows.push(RuntimeThroughputRow {
                workload: workload.clone(),
                configuration: name.to_string(),
                workers: engine.workers(),
                frames: report.frames(),
                wall_time: report.wall_time,
                throughput_fps: report.throughput_fps(),
                mean_latency: report.mean_latency(),
                p50_latency: report.latency_quantile(0.50),
                p95_latency: report.latency_quantile(0.95),
                cache_hit_rate: report.cache_hit_rate(),
                cache_bytes: stats.cache_bytes,
                cache_coalesced: stats.cache_coalesced,
                cache_rejected: stats.cache_rejected,
                cache_misses: stats.cache_misses,
                fit_evaluations: stats.fit_evaluations,
                open_loop_fallbacks: stats.open_loop_fallbacks,
                recharacterizations: stats.recharacterizations,
                mean_power_saving: report.mean_power_saving(),
            });
        }
    }
    Ok(rows)
}

/// The mixed-suite open-loop savings comparison: how much backlight each
/// open-loop strategy recovers on heterogeneous traffic, against the
/// closed-loop (per-frame search) reference.
///
/// Every quantity is deterministic (synthetic suite, single worker, no
/// background rebuilds), so the savings — unlike latencies — are
/// machine-independent and CI-gateable.
#[derive(Debug, Clone)]
pub struct MixedSuiteReport {
    /// Distortion budget every engine served with.
    pub budget: f64,
    /// Frames in the mixed workload.
    pub frames: usize,
    /// Content classes the characteristic bank actually built (clustering
    /// may collapse duplicates below the requested count).
    pub classes: usize,
    /// Mean fractional saving of the closed-loop search — the ceiling.
    pub closed_loop_saving: f64,
    /// Mean saving of the classic single worst-case curve (refuses to dim
    /// on mixed traffic — the motivating ~0%).
    pub worst_case_saving: f64,
    /// Mean saving of the single p95 envelope curve — the cheap half-step.
    pub envelope_saving: f64,
    /// Mean saving of the per-class bank (p95 envelope fit per class — the
    /// two mechanisms compose: clustering removes the cross-shape veto, the
    /// envelope removes the within-class outlier veto).
    pub per_class_saving: f64,
    /// Drift fallbacks the per-class engine needed to hold the contract.
    pub per_class_fallbacks: u64,
    /// Fit evaluations per cache miss of the per-class engine (the ≤ 1
    /// open-loop economics, fallback searches included).
    pub per_class_evals_per_miss: f64,
}

impl MixedSuiteReport {
    /// Fraction of the closed-loop saving the per-class bank recovers
    /// (0 when the closed loop itself saves nothing).
    pub fn per_class_recovery(&self) -> f64 {
        if self.closed_loop_saving <= 0.0 {
            0.0
        } else {
            self.per_class_saving / self.closed_loop_saving
        }
    }
}

/// Runs the mixed-suite savings comparison: the full (heterogeneous)
/// synthetic SIPI suite served closed-loop, open-loop off a single
/// worst-case curve, off a single p95-envelope curve, and off a
/// signature-clustered per-class bank of up to `classes` worst-case curves.
///
/// All engines run one worker with background re-characterization disabled,
/// so the comparison is a pure function of the curves (the per-serve drift
/// fallback stays armed — the distortion contract holds in every row).
///
/// # Errors
///
/// Propagates engine construction, characterization and serving errors.
pub fn run_mixed_suite(
    budget: f64,
    frame_size: u32,
    classes: usize,
) -> hebs_runtime::Result<MixedSuiteReport> {
    let pipeline = open_loop_pipeline();
    let suite = SipiSuite::with_size(frame_size);
    let frames: Vec<GrayImage> = suite.iter().map(|(_, img)| img.clone()).collect();
    let histograms: Vec<Histogram> = frames.iter().map(Histogram::of).collect();

    let closed = Engine::new(
        HebsPolicy::closed_loop(pipeline.clone()),
        EngineConfig {
            workers: 1,
            max_distortion: budget,
            cache: Some(CacheConfig::exact()),
            ..EngineConfig::default()
        },
    )?;
    let closed_loop_saving = closed.process_batch(&frames)?.mean_power_saving();

    // One pooled characterization serves both single-curve rows: a
    // DistortionCharacteristic carries all three fits, only the lookup
    // selection differs.
    let pooled = DistortionCharacteristic::characterize_from_histograms(
        &pipeline,
        &histograms,
        &DEFAULT_RANGES,
    )
    .map_err(hebs_runtime::RuntimeError::Core)?;

    let serve_open = |fit: CurveFit,
                      bank: Option<CharacteristicBank>|
     -> hebs_runtime::Result<(f64, hebs_runtime::EngineStats)> {
        let engine = Engine::new(
            HebsPolicy::closed_loop(pipeline.clone()),
            EngineConfig {
                workers: 1,
                max_distortion: budget,
                cache: Some(CacheConfig::exact()),
                mode: ServingMode::OpenLoop {
                    recharacterize: RecharacterizePolicy {
                        interval: None,
                        drift_limit: None,
                        fit,
                        classes: bank.as_ref().map_or(1, CharacteristicBank::len),
                        ..RecharacterizePolicy::default()
                    },
                },
                ..EngineConfig::default()
            },
        )?;
        match bank {
            Some(bank) => {
                engine.install_bank(bank)?;
            }
            None => {
                engine.install_characteristic(pooled.clone())?;
            }
        }
        let report = engine.process_batch(&frames)?;
        Ok((report.mean_power_saving(), engine.stats()))
    };

    let (worst_case_saving, _) = serve_open(CurveFit::WorstCase, None)?;
    let (envelope_saving, _) = serve_open(CurveFit::Envelope, None)?;
    let bank = CharacteristicBank::build(&pipeline, &histograms, &DEFAULT_RANGES, classes)
        .map_err(hebs_runtime::RuntimeError::Core)?;
    let built_classes = bank.len();
    let (per_class_saving, per_class_stats) = serve_open(CurveFit::Envelope, Some(bank))?;
    let per_class_evals_per_miss = if per_class_stats.cache_misses == 0 {
        0.0
    } else {
        per_class_stats.fit_evaluations as f64 / per_class_stats.cache_misses as f64
    };

    Ok(MixedSuiteReport {
        budget,
        frames: frames.len(),
        classes: built_classes,
        closed_loop_saving,
        worst_case_saving,
        envelope_saving,
        per_class_saving,
        per_class_fallbacks: per_class_stats.open_loop_fallbacks,
        per_class_evals_per_miss,
    })
}

/// One row of the fit-latency-versus-frame-size experiment.
#[derive(Debug, Clone)]
pub struct FitScalingRow {
    /// Linear scale factor over the base frame edge (pixels scale with its
    /// square: 1x, 4x, 9x, 16x …).
    pub scale: u32,
    /// Frame edge in pixels (frames are square).
    pub width: u32,
    /// Total pixels per frame.
    pub pixels: usize,
    /// Mean latency of one histogram-domain fit (level space, O(levels)).
    pub histogram_fit: Duration,
    /// Mean latency of the same global measure forced down the pixel path
    /// (the pre-refactor behaviour, O(pixels)).
    pub pixel_fit: Duration,
    /// Mean latency of a fit under the paper's windowed HVS + SSIM measure
    /// (inherently pixel-bound).
    pub windowed_fit: Duration,
}

/// Global UIQI forced down the pixel path: identical numbers to
/// [`GlobalUiqiDistortion`], but it declines the histogram-domain entry
/// point — the "old path" comparator of the fit-scaling experiment.
#[derive(Debug, Clone, Copy)]
struct PixelPathUiqi;

impl DistortionMeasure for PixelPathUiqi {
    fn distortion(&self, original: &GrayImage, transformed: &GrayImage) -> f64 {
        GlobalUiqiDistortion.distortion(original, transformed)
    }

    fn name(&self) -> &'static str {
        "uiqi-global-pixel"
    }
}

/// Measures fit latency against frame size: the histogram-domain path
/// (flat — it never reads a pixel), the same measure through the pixel
/// path, and the windowed default (both scaling with the pixel count).
///
/// Each row times `repeats` fits at each of three target ranges on a
/// synthetic frame of edge `base × scale` and reports the mean per-fit
/// latency.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn run_fit_scaling(
    base: u32,
    scales: &[u32],
    repeats: usize,
) -> hebs_core::Result<Vec<FitScalingRow>> {
    let spans = [220u32, 160, 100];
    let histogram_config = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
    let pixel_config = PipelineConfig::default().with_measure(PixelPathUiqi);
    let windowed_config = PipelineConfig::default();
    let mut rows = Vec::new();
    for &scale in scales {
        let width = base * scale;
        let image = synthetic::still_life(width, width, 7);
        let histogram = Histogram::of(&image);
        let mut scratch = FitScratch::default();

        // Warm every path once so first-touch effects are off the clock.
        for &span in &spans {
            let target = TargetRange::from_span(span)?;
            evaluate_range_from_histogram(&histogram_config, &histogram, target)?
                .expect("global UIQI is histogram-capable");
            evaluate_at_range_scratch(&pixel_config, &image, &histogram, target, &mut scratch)?;
            evaluate_at_range_scratch(&windowed_config, &image, &histogram, target, &mut scratch)?;
        }

        let fits = (repeats.max(1) * spans.len()) as u32;
        let started = Instant::now();
        for _ in 0..repeats.max(1) {
            for &span in &spans {
                let target = TargetRange::from_span(span)?;
                evaluate_range_from_histogram(&histogram_config, &histogram, target)?;
            }
        }
        let histogram_fit = started.elapsed() / fits;

        let started = Instant::now();
        for _ in 0..repeats.max(1) {
            for &span in &spans {
                let target = TargetRange::from_span(span)?;
                evaluate_at_range_scratch(&pixel_config, &image, &histogram, target, &mut scratch)?;
            }
        }
        let pixel_fit = started.elapsed() / fits;

        let started = Instant::now();
        for _ in 0..repeats.max(1) {
            for &span in &spans {
                let target = TargetRange::from_span(span)?;
                evaluate_at_range_scratch(
                    &windowed_config,
                    &image,
                    &histogram,
                    target,
                    &mut scratch,
                )?;
            }
        }
        let windowed_fit = started.elapsed() / fits;

        rows.push(FitScalingRow {
            scale,
            width,
            pixels: width as usize * width as usize,
            histogram_fit,
            pixel_fit,
            windowed_fit,
        });
    }
    Ok(rows)
}

/// One row of the serve-latency-versus-frame-resolution experiment.
#[derive(Debug, Clone)]
pub struct FrameScalingRow {
    /// Human-readable resolution name ("32x32", "480p", "1080p", "4K").
    pub label: &'static str,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Total pixels per frame.
    pub pixels: usize,
    /// Mean end-to-end serve latency on an exact-cache **miss** (fused
    /// ingest + histogram-domain fit + one LUT materialize).
    pub serve_miss: Duration,
    /// Mean end-to-end serve latency on an exact-cache **hit** (the fused
    /// ingest is the only per-pixel work left).
    pub serve_hit: Duration,
    /// Mean latency of one serial fused ingest pass.
    pub ingest_serial: Duration,
    /// Mean latency of one fused ingest fanned out across the machine's
    /// available workers (equals the serial pass on a 1-CPU machine).
    pub ingest_parallel: Duration,
    /// Mean latency of one strip-vectorized LUT apply into a reused buffer.
    pub lut_apply: Duration,
}

/// The resolutions the frame-scaling experiment serves, 32×32 to 4K.
pub const FRAME_SCALING_SIZES: [(&str, u32, u32); 4] = [
    ("32x32", 32, 32),
    ("480p", 854, 480),
    ("1080p", 1920, 1080),
    ("4K", 3840, 2160),
];

/// Measures end-to-end serve latency against real frame resolutions.
///
/// The fit itself is histogram-domain (O(candidates × 256), flat — see
/// [`run_fit_scaling`]); what grows with resolution is the per-pixel work
/// around it. This experiment pins how that per-pixel work is spent: one
/// fused ingest pass (histogram + signature + content hash) per serve, one
/// strip-vectorized LUT apply per miss, and nothing else. Each row serves
/// an engine with an exact cache and the histogram-capable global-UIQI
/// measure on the calling thread, timing misses (distinct frames) and hits
/// (repeats of one frame) separately, then times the ingest and apply
/// primitives in isolation — serially and fanned out across
/// [`available_ingest_workers`](hebs_imaging::available_ingest_workers).
///
/// # Errors
///
/// Propagates engine construction and serve errors.
pub fn run_frame_scaling(
    sizes: &[(&'static str, u32, u32)],
    repeats: usize,
) -> hebs_runtime::Result<Vec<FrameScalingRow>> {
    let repeats = repeats.max(1);
    let workers = hebs_imaging::available_ingest_workers();
    let mut rows = Vec::new();
    for &(label, width, height) in sizes {
        let policy =
            HebsPolicy::closed_loop(PipelineConfig::default().with_measure(GlobalUiqiDistortion));
        let engine = Engine::new(
            policy,
            EngineConfig {
                workers: 1,
                // Unbounded bytes: eviction noise is not what this measures.
                cache: Some(CacheConfig::exact().with_byte_budget(None)),
                ..EngineConfig::default()
            },
        )?;
        let base = synthetic::still_life(width, height, 7);

        // Distinct frames for the miss path: flip one pixel per clone so
        // every content hash (and thus every exact key) differs while the
        // per-pixel cost stays identical.
        let misses: Vec<GrayImage> = (0..repeats)
            .map(|i| {
                let mut frame = base.clone();
                let pixels = frame.as_raw_mut();
                pixels[i % pixels.len()] ^= 0x55;
                frame
            })
            .collect();

        // Warm the engine (and the allocator) off the clock.
        engine.process_frame(&base)?;

        let started = Instant::now();
        for frame in &misses {
            let result = engine.process_frame(frame)?;
            debug_assert!(!result.cache_hit);
        }
        let serve_miss = started.elapsed() / repeats as u32;

        let started = Instant::now();
        for _ in 0..repeats {
            let result = engine.process_frame(&base)?;
            debug_assert!(result.cache_hit);
        }
        let serve_hit = started.elapsed() / repeats as u32;

        let seed = 0x5eed;
        let ingest = hebs_imaging::FrameIngest::compute(&base, seed);
        let started = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(hebs_imaging::FrameIngest::compute(&base, seed));
        }
        let ingest_serial = started.elapsed() / repeats as u32;

        let started = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(hebs_imaging::FrameIngest::compute_parallel(
                &base, seed, workers,
            ));
        }
        let ingest_parallel = started.elapsed() / repeats as u32;

        let lut: [u8; 256] = std::array::from_fn(|i| (i as u8).saturating_add(16));
        let mut out = GrayImage::filled(width, height, 0);
        hebs_imaging::apply_lut_into(&base, &lut, &mut out);
        let started = Instant::now();
        for _ in 0..repeats {
            hebs_imaging::apply_lut_into(&base, &lut, &mut out);
        }
        let lut_apply = started.elapsed() / repeats as u32;
        std::hint::black_box(&out);
        std::hint::black_box(ingest);

        rows.push(FrameScalingRow {
            label,
            width,
            height,
            pixels: width as usize * height as usize,
            serve_miss,
            serve_hit,
            ingest_serial,
            ingest_parallel,
            lut_apply,
        });
    }
    Ok(rows)
}

/// Smoke-checks the transformation cache's contract so regressions fail a
/// CI build instead of only showing up in offline bench numbers:
///
/// * exact-mode repeats are all hits on the second pass and the
///   [`ShardedLru`](hebs_runtime::ShardedLru) counters agree with
///   [`EngineStats`](hebs_runtime::EngineStats) exactly;
/// * resident bytes stay within the configured byte budget (and are
///   nonzero once fits are cached);
/// * a concurrent same-key miss storm runs exactly one fit (single
///   flight);
/// * open-loop serving with a seeded characteristic averages ≤ 1 fit
///   evaluation per cache miss (the closed-loop bisection takes ~8),
///   honours the distortion budget, and invalidates cached fits when the
///   characteristic generation changes;
/// * tenants sharing one cache stay partitioned: tenant-tagged keys are
///   never replayed across tenants, a flooding tenant's residency stays
///   within its weighted byte slice, and a quiet tenant's entries survive
///   the neighbour's flood.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn verify_cache_invariants(frame_size: u32) -> Result<(), String> {
    let fail = |what: &str| Err(what.to_string());

    // Exact-mode repeats: serve the suite twice through a byte-budgeted
    // cache.
    let byte_budget = 8 << 20;
    let engine = Engine::new(
        HebsPolicy::closed_loop(PipelineConfig::default()),
        EngineConfig {
            workers: 2,
            cache: Some(CacheConfig::exact().with_byte_budget(Some(byte_budget))),
            ..EngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let suite = SipiSuite::with_size(frame_size);
    let frames: Vec<GrayImage> = suite.iter().map(|(_, img)| img.clone()).collect();
    engine.process_batch(&frames).map_err(|e| e.to_string())?;
    let warm = engine.process_batch(&frames).map_err(|e| e.to_string())?;
    if warm.cache_hit_rate() < 1.0 {
        return fail("exact cache: second pass over identical frames was not all hits");
    }
    let stats = engine.stats();
    if stats.cache_hits + stats.cache_misses != stats.frames {
        return fail("exact cache: hits + misses != frames served");
    }
    if stats.cache_bytes == 0 {
        return fail("exact cache: no bytes resident after caching fits");
    }
    if stats.cache_bytes > byte_budget as u64 {
        return fail("exact cache: resident bytes exceed the configured byte budget");
    }
    let counters = engine
        .cache_counters()
        .ok_or_else(|| "exact cache: counters unavailable".to_string())?;
    if counters.hits != stats.cache_hits
        || counters.misses != stats.cache_misses
        || counters.rejections != stats.cache_rejected
        || counters.coalesced != stats.cache_coalesced
    {
        return fail("exact cache: ShardedLru counters drifted from EngineStats");
    }

    // Single flight: a barrier-synchronized same-key miss storm must run
    // exactly one fit.
    let engine = Engine::new(
        HebsPolicy::closed_loop(PipelineConfig::default()),
        EngineConfig {
            workers: 1,
            cache: Some(CacheConfig::exact()),
            ..EngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let frame = frames[0].clone();
    let storm = 4;
    let barrier = std::sync::Barrier::new(storm);
    std::thread::scope(|scope| {
        for _ in 0..storm {
            scope.spawn(|| {
                barrier.wait();
                engine.process_frame(&frame).expect("serve succeeds");
            });
        }
    });
    let stats = engine.stats();
    if stats.cache_misses != 1 {
        return Err(format!(
            "single flight: {} fits ran for one key under a {storm}-thread miss storm",
            stats.cache_misses
        ));
    }
    if stats.cache_hits != storm as u64 - 1 {
        return fail("single flight: waiters were not served from the cache");
    }
    // (Whether a waiter counts as *coalesced* or as a plain hit depends on
    // whether its first probe beat the leader's insert — scheduler-
    // dependent, so not asserted here; the coalesced accounting itself is
    // pinned deterministically by the runtime crate's unit tests.)
    let counters = engine
        .cache_counters()
        .ok_or_else(|| "single flight: counters unavailable".to_string())?;
    if counters.hits != stats.cache_hits
        || counters.misses != stats.cache_misses
        || counters.coalesced != stats.cache_coalesced
    {
        return fail("single flight: ShardedLru counters drifted from EngineStats");
    }

    // Open-loop serving: with a seeded characteristic, every miss must
    // average at most one fit evaluation, the budget must still hold, and
    // a characteristic swap must invalidate previously cached fits.
    let budget = 0.10;
    let engine = Engine::new(
        HebsPolicy::closed_loop(open_loop_pipeline()),
        EngineConfig {
            workers: 1,
            max_distortion: budget,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy::default(),
            },
            ..EngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let seed = characterize_workload(&open_loop_pipeline(), &frames, 1)
        .map_err(|e| format!("open loop: seed characterization failed: {e}"))?;
    engine
        .install_characteristic(seed)
        .map_err(|e| e.to_string())?;
    for frame in &frames {
        let result = engine.process_frame(frame).map_err(|e| e.to_string())?;
        if result.outcome.distortion > budget + 1e-9 {
            return Err(format!(
                "open loop: distortion {} exceeds the {budget} budget",
                result.outcome.distortion
            ));
        }
    }
    let stats = engine.stats();
    if stats.cache_misses == 0 {
        return fail("open loop: a cold pass must miss");
    }
    if stats.fit_evaluations > stats.cache_misses {
        return Err(format!(
            "open loop: {} fit evaluations for {} misses (must average ≤ 1 per miss)",
            stats.fit_evaluations, stats.cache_misses
        ));
    }
    // Swap in a freshly characterized curve: the generation tag must turn
    // previously cached fits into misses instead of replaying stale fits.
    let reseed =
        characterize_workload(&open_loop_pipeline(), &frames, 1).map_err(|e| e.to_string())?;
    engine
        .install_characteristic(reseed)
        .map_err(|e| e.to_string())?;
    let after_swap = engine
        .process_frame(&frames[0])
        .map_err(|e| e.to_string())?;
    if after_swap.cache_hit {
        return fail("open loop: a characteristic swap must invalidate cached fits");
    }

    // Per-class open-loop serving: with a signature-clustered bank built on
    // the suite's own traffic, the ≤ 1 evaluation/miss economics and the
    // distortion contract must both hold — and the bank must recover
    // dimming the single worst-case curve refuses (its saving on this
    // heterogeneous suite is ~0).
    let classes = 6;
    let engine = Engine::new(
        HebsPolicy::closed_loop(open_loop_pipeline()),
        EngineConfig {
            workers: 1,
            max_distortion: budget,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    classes,
                    fit: hebs_core::CurveFit::Envelope,
                    ..RecharacterizePolicy::default()
                },
            },
            ..EngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let histograms: Vec<Histogram> = frames.iter().map(Histogram::of).collect();
    let bank = hebs_core::CharacteristicBank::build(
        &open_loop_pipeline(),
        &histograms,
        &hebs_core::DEFAULT_RANGES,
        classes,
    )
    .map_err(|e| format!("per-class bank: characterization failed: {e}"))?;
    engine.install_bank(bank).map_err(|e| e.to_string())?;
    let report = engine.process_batch(&frames).map_err(|e| e.to_string())?;
    for result in &report.results {
        if result.outcome.distortion > budget + 1e-9 {
            return Err(format!(
                "per-class bank: distortion {} exceeds the {budget} budget",
                result.outcome.distortion
            ));
        }
    }
    let stats = engine.stats();
    if stats.cache_misses == 0 {
        return fail("per-class bank: a cold pass must miss");
    }
    if stats.fit_evaluations > stats.cache_misses {
        return Err(format!(
            "per-class bank: {} fit evaluations for {} misses (must average ≤ 1 per miss)",
            stats.fit_evaluations, stats.cache_misses
        ));
    }
    if report.mean_power_saving() <= 0.0 {
        return fail("per-class bank: mixed traffic must recover a nonzero saving");
    }

    // Tenant partition: two tenants sharing one cache must never replay
    // each other's fits, a flooding tenant must stay within its weighted
    // byte slice, and a quiet tenant's cached entries must survive the
    // neighbour's flood.
    let tenant_budget = 64 << 10;
    let registry = TenantRegistry::builder()
        .with_cache(CacheConfig {
            shards: 1,
            ..CacheConfig::exact().with_byte_budget(Some(tenant_budget))
        })
        .tenant(
            HebsPolicy::closed_loop(PipelineConfig::default()),
            TenantSpec::named("quiet"),
        )
        .tenant(
            HebsPolicy::closed_loop(PipelineConfig::default()),
            TenantSpec::named("noisy"),
        )
        .build()
        .map_err(|e| e.to_string())?;
    let ids: Vec<_> = registry.ids().collect();
    let (quiet, noisy) = (ids[0], ids[1]);
    let options = ServeOptions::default();
    // The quiet tenant caches one fit; the noisy tenant serving the same
    // frame must miss (tenant-tagged keys — no cross-tenant replay).
    registry
        .serve(quiet, &frames[0], &options)
        .map_err(|e| e.to_string())?;
    let replayed = registry
        .serve(noisy, &frames[0], &options)
        .map_err(|e| e.to_string())?;
    if replayed.cache_hit {
        return fail("tenant partition: a tenant replayed another tenant's cached fit");
    }
    let quiet_bytes_before = registry
        .stats(quiet)
        .map_err(|e| e.to_string())?
        .cache_bytes;
    // Flood the noisy tenant with distinct frames: its slice of the byte
    // budget (half, at equal weights) caps its residency.
    for seed in 0..256 {
        let frame = synthetic::noise_texture(frame_size, frame_size, 1, 0, 255, 9000 + seed);
        registry
            .serve(noisy, &frame, &options)
            .map_err(|e| e.to_string())?;
    }
    let noisy_bytes = registry
        .stats(noisy)
        .map_err(|e| e.to_string())?
        .cache_bytes;
    if noisy_bytes > (tenant_budget / 2) as u64 {
        return Err(format!(
            "tenant partition: flooding tenant holds {noisy_bytes} bytes, beyond its \
             {}-byte slice",
            tenant_budget / 2
        ));
    }
    let quiet_stats = registry.stats(quiet).map_err(|e| e.to_string())?;
    if quiet_stats.cache_bytes != quiet_bytes_before {
        return fail("tenant partition: a neighbour's flood changed the quiet tenant's bytes");
    }
    let warm = registry
        .serve(quiet, &frames[0], &options)
        .map_err(|e| e.to_string())?;
    if !warm.cache_hit {
        return fail("tenant partition: the quiet tenant's entry did not survive the flood");
    }
    Ok(())
}

/// One node's serve economics in the warm-start experiment.
#[derive(Debug, Clone)]
pub struct WarmStartNode {
    /// Node role: "canary", "cold" or "warm".
    pub node: String,
    /// Frames the node served.
    pub frames: usize,
    /// Fit evaluations charged to the node's *first cache miss* — the
    /// serve-#1 economics the warm-start tier exists to fix (≤ 1 warm,
    /// a full closed-loop search cold).
    pub first_miss_evaluations: u64,
    /// Serves before the first ≤ 1-evaluation miss (0 for a warm node:
    /// its very first miss is already a single characteristic lookup).
    pub recovery_serves: usize,
    /// Total fit evaluations over the node's traffic.
    pub fit_evaluations: u64,
    /// Cache misses over the node's traffic.
    pub cache_misses: u64,
    /// Cache hits over the node's traffic (a warm node replays the
    /// canary's spilled fits; a cold node re-fits them).
    pub cache_hits: u64,
    /// Characteristic (re)builds the node ran from its own traffic sketch
    /// (a cold node bootstraps at least once; a warm node never does).
    pub recharacterizations: u64,
    /// Mean fractional power saving over the node's traffic.
    pub mean_power_saving: f64,
}

/// The warm-start experiment: one canary characterizes and snapshots, a
/// cold node re-learns from scratch, a warm node restores the snapshot.
#[derive(Debug, Clone)]
pub struct WarmStartReport {
    /// Distortion budget every node served with.
    pub budget: f64,
    /// Characteristic classes in the canary's bank.
    pub classes: usize,
    /// Serialized snapshot size in bytes.
    pub snapshot_bytes: usize,
    /// Hot-cache entries the warm node re-admitted from the spill.
    pub cache_restored: usize,
    /// Spilled entries the warm node skipped (shape mismatch, dead
    /// generation).
    pub cache_skipped: usize,
    /// Per-node rows: canary, cold, warm.
    pub nodes: Vec<WarmStartNode>,
}

/// The open-loop engine shape every node of the warm-start experiment
/// runs: one worker, exact cache, multi-class bank slot, p95-envelope
/// curve lookups (the fit the mixed-suite experiment shows recovers real
/// savings on heterogeneous traffic — a single worst-case curve refuses
/// to dim). `interval` arms the periodic rebuild trigger: the cold node
/// keeps it armed (it *needs* the bootstrap recharacterization to become
/// serviceable), the canary and warm nodes disarm it so their counters
/// are a pure function of the installed bank.
/// Builds the single-worker open-loop engine the warm-start experiments
/// (and the CI snapshot round-trip harness) share: exact cache, envelope
/// fit, `classes` content classes, and an optional periodic
/// recharacterization `interval` (None leaves the node entirely dependent
/// on whatever bank it is given — the warm-restore configuration).
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn warm_start_engine(
    budget: f64,
    classes: usize,
    interval: Option<u64>,
) -> hebs_runtime::Result<Engine> {
    Engine::new(
        HebsPolicy::closed_loop(open_loop_pipeline()),
        EngineConfig {
            workers: 1,
            max_distortion: budget,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    interval,
                    drift_limit: None,
                    sample_period: 1,
                    fit: CurveFit::Envelope,
                    classes,
                    ..RecharacterizePolicy::default()
                },
            },
            ..EngineConfig::default()
        },
    )
}

/// Serves `frames` one at a time, watching the per-serve fit-evaluation
/// deltas, and summarizes the node's economics.
fn serve_node(
    engine: &Engine,
    node: &str,
    frames: &[GrayImage],
) -> hebs_runtime::Result<WarmStartNode> {
    let mut first_miss_evaluations = None;
    let mut recovery_serves = None;
    let mut savings = 0.0;
    for (index, frame) in frames.iter().enumerate() {
        let before = engine.stats().fit_evaluations;
        let result = engine.process_frame(frame)?;
        // Serve the next frame on whatever this serve's rebuild installs,
        // so the recovery count does not depend on thread timing.
        engine.quiesce_rebuilds();
        let evaluations = engine.stats().fit_evaluations - before;
        savings += result.outcome.power_saving;
        if !result.cache_hit {
            if first_miss_evaluations.is_none() {
                first_miss_evaluations = Some(evaluations);
            }
            if recovery_serves.is_none() && evaluations <= 1 {
                recovery_serves = Some(index);
            }
        }
    }
    let stats = engine.stats();
    Ok(WarmStartNode {
        node: node.to_string(),
        frames: frames.len(),
        first_miss_evaluations: first_miss_evaluations.unwrap_or(0),
        recovery_serves: recovery_serves.unwrap_or(frames.len()),
        fit_evaluations: stats.fit_evaluations,
        cache_misses: stats.cache_misses,
        cache_hits: stats.cache_hits,
        recharacterizations: stats.recharacterizations,
        mean_power_saving: if frames.is_empty() {
            0.0
        } else {
            savings / frames.len() as f64
        },
    })
}

/// Runs the warm-start comparison: a canary node characterizes a
/// multi-class bank offline, serves its own traffic (filling the exact
/// cache) and snapshots bank + hot-cache spill to bytes; a cold fleet
/// node then takes day-2 traffic from scratch (closed-loop fallback until
/// its bootstrap recharacterization lands), while a warm node restores
/// the canary snapshot first and serves the same traffic at open-loop
/// cost from its very first miss. The day-2 stream ends with a replay of
/// canary frames, which the warm node serves from the restored spill.
///
/// Everything gated on this report is machine-independent: counters and
/// savings over deterministic synthetic traffic on single-worker engines.
///
/// # Errors
///
/// Propagates engine construction, characterization, snapshot and serving
/// errors.
pub fn run_warm_start(
    budget: f64,
    frame_size: u32,
    day2_frames: usize,
) -> hebs_runtime::Result<WarmStartReport> {
    const CLASSES: usize = 2;
    const REPLAY_TAIL: usize = 4;
    /// The cold node's periodic rebuild interval: its bootstrap lands
    /// after this many serves (once the sketch holds enough histograms to
    /// cluster), which is exactly the recovery window the warm node skips.
    const COLD_INTERVAL: u64 = 4;

    // Canary traffic: the synthetic suite. Day-2 traffic: the same suite
    // regenerated at shifted sizes — every frame is a distinct exact-cache
    // key, but the histogram *shapes* (and therefore the content classes)
    // match what the canary characterized. The stream ends with a replay
    // of the canary's own first frames, which only a restored spill can
    // serve as hits.
    let suite = SipiSuite::with_size(frame_size);
    let canary_frames: Vec<GrayImage> = suite.iter().map(|(_, img)| img.clone()).collect();
    let mut day2: Vec<GrayImage> = Vec::with_capacity(day2_frames + REPLAY_TAIL);
    let mut shift = 1u32;
    while day2.len() < day2_frames {
        let shifted = SipiSuite::with_size(frame_size + 8 * shift);
        day2.extend(
            shifted
                .iter()
                .map(|(_, img)| img.clone())
                .take(day2_frames - day2.len()),
        );
        shift += 1;
    }
    day2.extend(canary_frames.iter().take(REPLAY_TAIL).cloned());

    // The canary characterizes offline (the documented deployment flow),
    // serves its traffic, and snapshots bank + spill.
    let canary = warm_start_engine(budget, CLASSES, None)?;
    let histograms: Vec<Histogram> = canary_frames.iter().map(Histogram::of).collect();
    let bank =
        CharacteristicBank::build(&open_loop_pipeline(), &histograms, &DEFAULT_RANGES, CLASSES)
            .map_err(hebs_runtime::RuntimeError::Core)?;
    canary.install_bank(bank)?;
    let canary_row = serve_node(&canary, "canary", &canary_frames)?;

    let mut snapshot = Vec::new();
    canary.snapshot_to_writer(&mut snapshot)?;

    // The cold node learns day-2 traffic from nothing: closed-loop
    // fallbacks (and their full fit searches) until its periodic trigger
    // bootstraps a bank from the traffic sketch.
    let cold = warm_start_engine(budget, CLASSES, Some(COLD_INTERVAL))?;
    let cold_row = serve_node(&cold, "cold", &day2)?;

    // The warm node restores the canary's snapshot first and serves the
    // same traffic at open-loop cost from its first miss.
    let warm = warm_start_engine(budget, CLASSES, None)?;
    let report = warm.restore_from_reader(&mut &snapshot[..])?;
    let warm_row = serve_node(&warm, "warm", &day2)?;

    Ok(WarmStartReport {
        budget,
        classes: report.classes,
        snapshot_bytes: snapshot.len(),
        cache_restored: report.cache_restored,
        cache_skipped: report.cache_skipped,
        nodes: vec![canary_row, cold_row, warm_row],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> SipiSuite {
        SipiSuite::with_size(48)
    }

    #[test]
    fn cache_invariants_hold() {
        verify_cache_invariants(24).unwrap();
    }

    #[test]
    fn table1_report_has_a_row_per_image_and_budget_columns() {
        let suite = tiny_suite();
        let report = run_table1(&suite, &[0.10], PipelineConfig::default()).unwrap();
        assert_eq!(report.rows.len(), 19);
        assert!(report.rows.iter().all(|r| r.savings.len() == 1));
        let averages = report.average_savings();
        assert_eq!(averages.len(), 1);
        assert!(averages[0] > 0.0);
    }

    #[test]
    fn table1_savings_grow_with_the_budget() {
        let suite = SipiSuite::with_size(48);
        let report = run_table1(&suite, &[0.05, 0.20], PipelineConfig::default()).unwrap();
        let averages = report.average_savings();
        assert!(averages[1] > averages[0]);
    }

    #[test]
    fn figure8_has_two_ranges_for_six_images() {
        let suite = tiny_suite();
        let rows = run_figure8(&suite, &PipelineConfig::default()).unwrap();
        assert_eq!(rows.len(), 12);
        // Range 100 always saves more power than range 220 for the same
        // image (the backlight is dimmer).
        for pair in rows.chunks(2) {
            assert!(pair[1].power_saving > pair[0].power_saving);
        }
    }

    #[test]
    fn baseline_comparison_contains_all_policies() {
        let suite = tiny_suite();
        let images = vec![(
            SipiImage::Lena,
            suite.image(SipiImage::Lena).expect("lena exists"),
        )];
        let comparisons =
            run_baseline_comparison(&images, 0.10, PipelineConfig::default()).unwrap();
        assert_eq!(comparisons.len(), 1);
        assert_eq!(comparisons[0].results.len(), 4);
        let hebs = &comparisons[0].results[0];
        assert_eq!(hebs.0, "hebs");
    }

    #[test]
    fn runtime_throughput_covers_all_workloads_and_configurations() {
        let rows = run_runtime_throughput(0.10, 24, 8, 2).unwrap();
        // 3 workloads x 5 configurations.
        assert_eq!(rows.len(), 15);
        for row in &rows {
            assert!(row.frames > 0);
            assert!(row.throughput_fps > 0.0);
            if row.configuration == "open-loop" {
                // The conservative worst-case curve may refuse to dim at
                // all on heterogeneous traffic (it promises the bound for
                // every characterized image) — saving 0 is legitimate.
                assert!(row.mean_power_saving >= 0.0);
            } else {
                assert!(row.mean_power_saving > 0.0);
            }
            assert!(row.p50_latency <= row.p95_latency);
            assert!(
                row.fit_evaluations > 0,
                "{} {}: every workload runs at least one fit",
                row.workload,
                row.configuration
            );
            match row.configuration.as_str() {
                "single-thread" => assert_eq!(row.workers, 1),
                _ => assert_eq!(row.workers, 2),
            }
        }
        // The headline of the open-loop mode: at most one fit evaluation
        // per cache miss (the drift fallback would push it above 1, and a
        // seeded conservative curve must not drift on its own traffic);
        // the closed-loop rows bisect through several.
        for row in rows.iter().filter(|r| r.configuration == "open-loop") {
            assert!(
                row.cache_misses > 0,
                "{}: cold pass must miss",
                row.workload
            );
            assert!(
                row.fit_evaluations_per_miss() <= 1.0,
                "{}: open-loop averaged {} evaluations per miss",
                row.workload,
                row.fit_evaluations_per_miss()
            );
        }
        for row in rows.iter().filter(|r| r.configuration == "histogram-fit") {
            assert!(
                row.fit_evaluations_per_miss() > 1.5,
                "{}: the closed-loop search should bisect (got {} per miss)",
                row.workload,
                row.fit_evaluations_per_miss()
            );
        }
        // The cached pool sees hits on the workloads with exact repeats
        // (the suite is served twice; the scene cut repeats frames). The
        // noisy static scene only earns hits at realistic frame sizes —
        // at this test's tiny 24x24 frames the sensor noise is large
        // relative to the histogram, so replayed fits fail the engine's
        // distortion guard and are recounted as misses.
        for row in rows
            .iter()
            .filter(|r| r.configuration == "pooled+cache" && r.workload != "video static")
        {
            assert!(
                row.cache_hit_rate > 0.0,
                "{}: expected cache hits, got rate {}",
                row.workload,
                row.cache_hit_rate
            );
        }
        // Uncached configurations never report hits.
        for row in rows
            .iter()
            .filter(|r| r.configuration == "single-thread" || r.configuration == "pooled")
        {
            assert_eq!(row.cache_hit_rate, 0.0);
        }
    }

    #[test]
    fn mixed_suite_per_class_recovers_what_the_worst_case_refuses() {
        let report = run_mixed_suite(0.10, 24, 6).unwrap();
        assert_eq!(report.frames, 19);
        assert!(report.classes >= 2, "the suite clusters into classes");
        assert!(report.closed_loop_saving > 0.2, "closed loop dims");
        // The motivating failure: the single worst-case curve saves almost
        // nothing on heterogeneous traffic...
        assert!(
            report.worst_case_saving < 0.05,
            "worst-case saving {} should be ~0 on mixed traffic",
            report.worst_case_saving
        );
        // ...the single envelope is the half-step above it...
        assert!(report.envelope_saving > report.worst_case_saving);
        // ...and the per-class bank beats both, recovering a real fraction
        // of the closed-loop ceiling at open-loop cost.
        assert!(
            report.per_class_saving > report.envelope_saving,
            "per-class ({}) must beat the single envelope ({})",
            report.per_class_saving,
            report.envelope_saving
        );
        assert!(
            report.per_class_recovery() > 0.4,
            "recovery {} too small",
            report.per_class_recovery()
        );
        assert!(report.per_class_saving <= report.closed_loop_saving + 1e-9);
    }

    #[test]
    fn fit_scaling_rows_cover_the_requested_scales() {
        let rows = run_fit_scaling(16, &[1, 2], 1).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].width, 16);
        assert_eq!(rows[1].width, 32);
        assert_eq!(rows[1].pixels, 1024);
        for row in &rows {
            assert!(row.histogram_fit > Duration::ZERO);
            assert!(row.pixel_fit > Duration::ZERO);
            assert!(row.windowed_fit > Duration::ZERO);
        }
    }

    #[test]
    fn frame_scaling_rows_cover_the_requested_sizes() {
        let sizes = [("tiny", 16u32, 12u32), ("small", 48, 32)];
        let rows = run_frame_scaling(&sizes, 1).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "tiny");
        assert_eq!(rows[0].pixels, 192);
        assert_eq!(rows[1].pixels, 48 * 32);
        for row in &rows {
            assert!(row.serve_miss > Duration::ZERO);
            assert!(row.serve_hit > Duration::ZERO);
            assert!(row.ingest_serial > Duration::ZERO);
            assert!(row.ingest_parallel > Duration::ZERO);
            assert!(row.lut_apply > Duration::ZERO);
        }
    }

    #[test]
    fn characterization_runs_on_a_subset() {
        let suite = tiny_suite();
        let characteristic =
            run_characterization(&suite, &[80, 160, 240], &PipelineConfig::default()).unwrap();
        assert_eq!(characteristic.samples().len(), 19 * 3);
    }
}
