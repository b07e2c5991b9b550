//! The HEBS evaluation pipeline: apply the transformation for a fixed target
//! dynamic range and measure what the display would actually show, consume
//! and distort.
//!
//! Everything in this module goes through the *hardware path*: the requested
//! transformation is coarsened to the segment budget of the hierarchical
//! reference driver, programmed into it (which applies the `1/β` contrast
//! spreading of Eq. 10 and the DAC quantization), and the resulting drive
//! levels are pushed through the panel and backlight models. The distortion
//! is then measured between the original image and the luminance the panel
//! actually emits — so quantization and clamping effects of the real
//! circuit are part of every number the benchmarks report.
//!
//! # Histogram-domain evaluation
//!
//! The displayed level is a deterministic per-level function of the source
//! level (the fused [`DisplayResponse`] of `hebs-display`), so every
//! *global* statistic of the displayed image — mean, variance, covariance,
//! MSE, power — is exactly computable from the source histogram alone.
//! When the configured [`DistortionMeasure`](hebs_quality::DistortionMeasure) supports the histogram-domain
//! entry point (`distortion_from_levels`), fitting runs entirely in level
//! space: a full blend search costs O(candidates × 256) **regardless of
//! frame size**, and pixels are touched exactly once, at apply time, via a
//! single fused LUT pass. Windowed measures (the paper's HVS + SSIM
//! default) fall back to the pixel path, which evaluates candidates into a
//! caller-provided [`FitScratch`] instead of allocating per candidate.
//!
//! # One coarsening per histogram
//!
//! The piecewise-linear coarsening (Eq. 9) is the costliest step of a fit,
//! and a closed-loop search or a characterization fits one histogram at
//! many target ranges. By Eq. 7 every requested curve is affine in the
//! target: blend weight `w` requests `g_min + span·shape(x)` with
//! `shape(x) = (1 − w)·x + w·H(x)/N`, and the shape does not depend on
//! the target. Scaling a curve's ordinates by `span` scales every chord
//! error by `span²` (see the affine-invariance note in
//! [`hebs_transform::plc`]), so the optimal kept indices are the same at
//! every target range. A crate-private fit plan therefore solves the
//! coarsening once per histogram and blend weight on the unit-span shape;
//! fitting a target then takes that target's requested curve at the kept
//! indices, programs the driver and fuses the response. Every entry point,
//! single-target or not, fits through such a plan. Where floating-point
//! rounding breaks an exact tie differently than a coarsening of the
//! target's own curve would, the plan's alternative has the same error to
//! rounding.

use std::sync::Arc;

use hebs_display::{plrd::HierarchicalPlrd, DisplayResponse, LcdSubsystem, PowerBreakdown};
use hebs_imaging::{GrayImage, Histogram};
use hebs_quality::SharedMeasure;
use hebs_transform::plc::optimal_kept_indices;
use hebs_transform::{ControlPoint, LookupTable, PiecewiseLinear};

use crate::error::Result;
use crate::ghe::{ghe_curve, normalized_cdf, TargetRange};

/// The identity source → drive map, the baseline for power accounting.
const IDENTITY_LEVELS: [u8; 256] = {
    let mut map = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        map[i] = i as u8;
        i += 1;
    }
    map
};

/// How the pipeline chooses between pure histogram equalization and plain
/// linear range compression when building the transformation for a target
/// range.
///
/// The paper's algorithm uses pure global histogram equalization
/// ([`BlendMode::Fixed`] with weight 1.0). The reproduction's default is
/// [`BlendMode::Adaptive`], which also considers blends towards a linear
/// compression and keeps whichever measured distortion is lowest — at large
/// target ranges the linear map is nearly lossless, while at small ranges the
/// equalization component preserves the heavily populated levels. The
/// ablation benchmark quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlendMode {
    /// Use a fixed blend weight `w ∈ [0, 1]`: `Φ = (1 − w)·linear + w·GHE`.
    /// `w = 1.0` is the paper's pure GHE.
    Fixed(f64),
    /// Try a small set of blend weights and keep the one with the lowest
    /// measured distortion.
    Adaptive,
}

/// The blend weights the pipeline examines for one fit, stored inline (no
/// per-evaluation allocation).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlendCandidates {
    values: [f64; 3],
    len: usize,
}

impl BlendCandidates {
    /// A single blend weight.
    fn one(weight: f64) -> Self {
        BlendCandidates {
            values: [weight, 0.0, 0.0],
            len: 1,
        }
    }

    /// The candidate weights as a slice.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

/// Configuration of the HEBS pipeline: hardware models, segment budget and
/// distortion measure.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The reference driver the transformation must fit into.
    pub driver: HierarchicalPlrd,
    /// Maximum number of piecewise-linear segments handed to the driver
    /// (bounded by the driver's own capability).
    pub segments: usize,
    /// The display whose power is being optimized.
    pub subsystem: LcdSubsystem,
    /// The distortion measure used for every comparison. Measures that
    /// implement the histogram-domain entry point make the whole fit
    /// frame-size independent; windowed measures keep the pixel path.
    pub measure: SharedMeasure,
    /// Equalization / linear-compression blending policy.
    pub blend: BlendMode,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        let driver = HierarchicalPlrd::default();
        PipelineConfig {
            segments: driver.max_segments(),
            driver,
            subsystem: LcdSubsystem::lp064v1(),
            measure: SharedMeasure::default(),
            blend: BlendMode::Adaptive,
        }
    }
}

impl PipelineConfig {
    /// The paper's configuration: pure global histogram equalization,
    /// default LP064V1 display and hierarchical driver.
    pub fn paper() -> Self {
        PipelineConfig {
            blend: BlendMode::Fixed(1.0),
            ..Self::default()
        }
    }

    /// Returns the configuration with a different distortion measure.
    pub fn with_measure(mut self, measure: impl hebs_quality::DistortionMeasure + 'static) -> Self {
        self.measure = SharedMeasure::new(measure);
        self
    }

    /// Blend weights examined by the [`BlendMode::Adaptive`] policy.
    pub(crate) fn blend_candidates(&self) -> BlendCandidates {
        match self.blend {
            BlendMode::Fixed(w) => BlendCandidates::one(w.clamp(0.0, 1.0)),
            BlendMode::Adaptive => BlendCandidates {
                values: [0.0, 0.5, 1.0],
                len: 3,
            },
        }
    }
}

/// The reusable product of the HEBS fitting stage: the programmed
/// transformation for one histogram shape and target range, detached from
/// any particular frame.
///
/// Computing a [`FrameTransform`] is the expensive part of the pipeline (the
/// GHE solve, the blend search and the piecewise-linear-coarsening dynamic
/// program); applying it to a frame is a single fused LUT pass through
/// [`FrameTransform::response`]. The runtime's transformation cache stores
/// values of this type behind an [`Arc`] so near-identical consecutive
/// frames skip the fit without deep-copying the curve.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTransform {
    /// The target range the transformation maps onto.
    pub target: TargetRange,
    /// Backlight scaling factor `β` implied by the target range.
    pub beta: f64,
    /// Blend weight that was selected (1.0 = pure GHE).
    pub blend_weight: f64,
    /// The coarsened transformation handed to the reference driver.
    pub curve: PiecewiseLinear,
    /// The lookup table the driver realizes for this curve and `β` (the
    /// drive levels, including the `1/β` spreading and DAC quantization).
    pub lut: LookupTable,
    /// The fused `driver LUT ∘ panel ∘ backlight` per-level response:
    /// `response.map(p)` is the level the panel emits for source level `p`.
    pub response: DisplayResponse,
}

impl FrameTransform {
    /// Reassembles a transform from its serialized parts (target band,
    /// `β`, blend weight, coarsened curve and programmed LUT), recomposing
    /// the fused display response from the pipeline's subsystem model.
    ///
    /// This is the deserialization half of the runtime's characteristic
    /// snapshots: everything the fit *decided* is carried verbatim, while
    /// the derived response — which has no serialized form of its own — is
    /// rebuilt through the same [`LcdSubsystem::response`] composition that
    /// produced it originally, so a restored transform applies frames
    /// identically to the one that was saved.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HebsError::Display`] when `beta` is outside the
    /// subsystem's admissible backlight range.
    pub fn from_parts(
        config: &PipelineConfig,
        target: TargetRange,
        beta: f64,
        blend_weight: f64,
        curve: PiecewiseLinear,
        lut: LookupTable,
    ) -> Result<Self> {
        let response = config.subsystem.response(&lut, beta)?;
        Ok(FrameTransform {
            target,
            beta,
            blend_weight,
            curve,
            lut,
            response,
        })
    }
}

/// Reusable pixel scratch for the pipeline's pixel paths: candidate
/// displayed images are written here instead of being allocated per
/// evaluation, so a steady-state engine worker performs no intermediate
/// per-frame allocations. One scratch per worker thread; see
/// [`evaluate_at_range_scratch`].
#[derive(Debug, Clone)]
pub struct FitScratch {
    displayed: GrayImage,
    output: GrayImage,
}

impl Default for FitScratch {
    fn default() -> Self {
        FitScratch {
            displayed: GrayImage::filled(1, 1, 0),
            output: GrayImage::filled(1, 1, 0),
        }
    }
}

impl FitScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the reusable *output* frame buffer out of the scratch, leaving
    /// a minimal placeholder behind.
    ///
    /// The output buffer is distinct from the internal candidate buffer:
    /// candidates stay inside the scratch for the whole fit, while the
    /// output leaves the pipeline inside the returned evaluation (the
    /// served frame). Callers that later drop a served frame can donate its
    /// allocation back with [`FitScratch::recycle_output`].
    pub fn take_output(&mut self) -> GrayImage {
        std::mem::replace(&mut self.output, GrayImage::filled(1, 1, 0))
    }

    /// Donates a no-longer-needed frame buffer back to the scratch so the
    /// next [`FitScratch::take_output`] reuses its allocation.
    ///
    /// Keeps whichever of the current and donated buffers has the larger
    /// capacity, so a steady-state worker converges on one full-frame
    /// allocation.
    pub fn recycle_output(&mut self, buffer: GrayImage) {
        if buffer.pixel_count() > self.output.pixel_count() {
            self.output = buffer;
        }
    }
}

/// The frame-independent half of an evaluation: everything the pipeline
/// knows about a fitted transform from the histogram alone — distortion,
/// power, saving — without ever materializing a displayed image.
///
/// Produced by the histogram-domain fit path ([`evaluate_range_from_histogram`])
/// and upgraded to a [`RangeEvaluation`] with [`Evaluation::materialize`]
/// once (and only once) a displayed frame is actually needed.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The fitted transform; cloning bumps a refcount.
    pub transform: Arc<FrameTransform>,
    /// Distortion of displaying the evaluated histogram through the
    /// transform, exactly as the pixel path would measure it.
    pub distortion: f64,
    /// Power breakdown of the scaled configuration.
    pub power: PowerBreakdown,
    /// Fractional power saving versus full backlight.
    pub power_saving: f64,
    /// Number of target-range fit evaluations performed to produce this
    /// value (each solves the GHE and arbitrates the blend candidates
    /// internally; a closed-loop search performs 9, one at the full range
    /// plus 8 bisection steps, and an open-loop lookup exactly 1).
    pub fit_evaluations: u32,
}

impl Evaluation {
    /// Produces the displayed image for `image` via one fused LUT pass and
    /// upgrades this histogram-domain evaluation into a full
    /// [`RangeEvaluation`].
    ///
    /// `image` must be the frame whose histogram this evaluation was
    /// computed from, otherwise the recorded distortion does not describe
    /// the produced image.
    pub fn materialize(self, image: &GrayImage) -> RangeEvaluation {
        RangeEvaluation {
            displayed: self.transform.response.apply(image),
            transform: self.transform,
            distortion: self.distortion,
            power: self.power,
            power_saving: self.power_saving,
            fit_evaluations: self.fit_evaluations,
        }
    }

    /// Like [`Evaluation::materialize`] but writes the displayed image into
    /// the scratch's reusable output buffer ([`FitScratch::take_output`])
    /// instead of allocating a fresh frame, so a steady-state serve
    /// performs zero frame-sized allocations.
    pub fn materialize_with_scratch(
        self,
        image: &GrayImage,
        scratch: &mut FitScratch,
    ) -> RangeEvaluation {
        let mut displayed = scratch.take_output();
        self.transform.response.apply_into(image, &mut displayed);
        RangeEvaluation {
            displayed,
            transform: self.transform,
            distortion: self.distortion,
            power: self.power,
            power_saving: self.power_saving,
            fit_evaluations: self.fit_evaluations,
        }
    }
}

/// Everything the pipeline knows after evaluating one image at one target
/// dynamic range.
#[derive(Debug, Clone)]
pub struct RangeEvaluation {
    /// The fitted transform that produced this evaluation (shared; cloning
    /// bumps a refcount instead of copying the curve).
    pub transform: Arc<FrameTransform>,
    /// The luminance image the panel emits (range-compressed to the target).
    pub displayed: GrayImage,
    /// Measured distortion between the original and the displayed image.
    pub distortion: f64,
    /// Power breakdown of the scaled configuration.
    pub power: PowerBreakdown,
    /// Fractional power saving versus showing the original at full
    /// backlight.
    pub power_saving: f64,
    /// Number of target-range fit evaluations performed to produce this
    /// evaluation (0 for a pure replay of an existing transform).
    pub fit_evaluations: u32,
}

impl RangeEvaluation {
    /// The target range that was evaluated.
    pub fn target(&self) -> TargetRange {
        self.transform.target
    }

    /// Backlight scaling factor used (`g_max / 255`).
    pub fn beta(&self) -> f64 {
        self.transform.beta
    }

    /// Blend weight that was ultimately used (1.0 = pure GHE).
    pub fn blend_weight(&self) -> f64 {
        self.transform.blend_weight
    }

    /// The coarsened transformation `Λ` handed to the reference driver.
    pub fn curve(&self) -> &PiecewiseLinear {
        &self.transform.curve
    }

    /// The lookup table the driver realizes.
    pub fn lut(&self) -> &LookupTable {
        &self.transform.lut
    }

    /// A shared handle to the reusable transformation this evaluation was
    /// produced with, for caching and replay on other frames.
    pub fn shared_transform(&self) -> Arc<FrameTransform> {
        Arc::clone(&self.transform)
    }
}

/// Evaluates the HEBS transformation for `image` at the given target dynamic
/// range, running the full hardware path.
///
/// # Errors
///
/// Propagates construction errors from the transformation and display
/// layers (for example when the coarsened curve cannot be realized by the
/// configured driver).
pub fn evaluate_at_range(
    config: &PipelineConfig,
    image: &GrayImage,
    target: TargetRange,
) -> Result<RangeEvaluation> {
    let histogram = Histogram::of(image);
    evaluate_at_range_with_histogram(config, image, &histogram, target)
}

/// Same as [`evaluate_at_range`] but reuses a precomputed histogram (useful
/// when sweeping many ranges for the same image).
///
/// # Errors
///
/// See [`evaluate_at_range`].
pub fn evaluate_at_range_with_histogram(
    config: &PipelineConfig,
    image: &GrayImage,
    histogram: &Histogram,
    target: TargetRange,
) -> Result<RangeEvaluation> {
    let mut scratch = FitScratch::default();
    evaluate_at_range_scratch(config, image, histogram, target, &mut scratch)
}

/// Same as [`evaluate_at_range_with_histogram`] but writes intermediate
/// candidate images into a caller-provided scratch, so repeated fits (a
/// serving engine's steady state) perform no intermediate per-frame
/// allocations. With a histogram-capable measure the scratch is never
/// touched at all — candidates are arbitrated purely in level space.
///
/// # Errors
///
/// See [`evaluate_at_range`].
pub fn evaluate_at_range_scratch(
    config: &PipelineConfig,
    image: &GrayImage,
    histogram: &Histogram,
    target: TargetRange,
    scratch: &mut FitScratch,
) -> Result<RangeEvaluation> {
    FitPlan::new(config, histogram)?.evaluate_with_pixels(image, target, scratch)
}

/// Evaluates the best blend candidate for one histogram and target range
/// entirely in the histogram domain: O(candidates × 256), no pixels.
///
/// Returns `None` when the configured measure is windowed and needs the
/// pixel path (use [`evaluate_at_range_scratch`] instead). This is the
/// entry point the closed-loop policy bisects through — a full range search
/// never touches a frame buffer until the final apply.
///
/// # Errors
///
/// Propagates construction errors from the transformation and display
/// layers.
pub fn evaluate_range_from_histogram(
    config: &PipelineConfig,
    histogram: &Histogram,
    target: TargetRange,
) -> Result<Option<Evaluation>> {
    // Decline before solving the plan's coarsenings.
    if !measures_levels(config, histogram) {
        return Ok(None);
    }
    FitPlan::new(config, histogram)?.evaluate(target)
}

/// Evaluates one already-fitted transform against a histogram in the
/// histogram domain. Returns `None` for windowed measures.
///
/// This is the allocation-free validation primitive the serving runtime
/// uses to recheck cached fits against per-frame distortion budgets before
/// spending any pixel work on them.
///
/// # Errors
///
/// Propagates errors from the display substrate.
pub fn evaluate_transform_from_histogram(
    config: &PipelineConfig,
    histogram: &Histogram,
    transform: &Arc<FrameTransform>,
) -> Result<Option<Evaluation>> {
    let Some(distortion) = config
        .measure
        .distortion_from_levels(histogram, transform.response.levels())
    else {
        return Ok(None);
    };
    let (power, power_saving) = power_from_histogram(config, histogram, transform)?;
    Ok(Some(Evaluation {
        transform: Arc::clone(transform),
        distortion,
        power,
        power_saving,
        fit_evaluations: 0,
    }))
}

#[cfg(test)]
thread_local! {
    /// Coarsening dynamic programs solved on this thread, for the tests
    /// that pin how many a fit solves.
    static DP_SOLVES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Runs `f` and returns its result with the number of coarsening dynamic
/// programs it solved on this thread.
#[cfg(test)]
pub(crate) fn dp_solves_during<R>(f: impl FnOnce() -> R) -> (R, u32) {
    DP_SOLVES.with(|solves| solves.set(0));
    let result = f();
    (result, DP_SOLVES.with(std::cell::Cell::get))
}

/// The target-independent half of fitting one histogram: its normalized
/// CDF and, per blend weight, the coarsening's kept indices (see the
/// module docs). Built once per histogram; every fit of that histogram,
/// at one target range or at many, goes through it.
pub(crate) struct FitPlan<'a> {
    config: &'a PipelineConfig,
    histogram: &'a Histogram,
    /// `H(x)/N` per level.
    cdf: [f64; 256],
    /// The blend weights fitted, in arbitration order.
    weights: BlendCandidates,
    /// Per weight, the kept indices of its requested curve's control
    /// points; empty for `w = 0`, whose 2-point line needs no coarsening.
    kept: [Vec<usize>; 3],
}

impl<'a> FitPlan<'a> {
    /// A plan over the configured blend candidates.
    ///
    /// # Errors
    ///
    /// Propagates errors from the coarsening.
    pub(crate) fn new(config: &'a PipelineConfig, histogram: &'a Histogram) -> Result<Self> {
        Self::with_weights(config, histogram, config.blend_candidates())
    }

    /// A plan over explicit blend weights: one coarsening per weight
    /// above 0, solved on the unit-span shape `(1 − w)·x + w·H(x)/N`.
    fn with_weights(
        config: &'a PipelineConfig,
        histogram: &'a Histogram,
        weights: BlendCandidates,
    ) -> Result<Self> {
        let cdf = normalized_cdf(histogram);
        let segments = config.segments.min(config.driver.max_segments()).max(1);
        let mut kept: [Vec<usize>; 3] = Default::default();
        for (slot, &weight) in kept.iter_mut().zip(weights.as_slice()) {
            let w = weight.clamp(0.0, 1.0);
            if w <= 0.0 {
                continue;
            }
            let mut shape = [ControlPoint::default(); 256];
            for ((level, &h), point) in (0..=255u8).zip(&cdf).zip(&mut shape) {
                let x = f64::from(level) / 255.0;
                *point = ControlPoint::new(x, (1.0 - w) * x + w * h);
            }
            *slot = optimal_kept_indices(&shape, segments)?.0;
            #[cfg(test)]
            DP_SOLVES.with(|solves| solves.set(solves.get() + 1));
        }
        Ok(FitPlan {
            config,
            histogram,
            cdf,
            weights,
            kept,
        })
    }

    /// Histogram-domain evaluation at `target`: the best blend candidate,
    /// its distortion and power, no pixels. `None` for windowed measures.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the transformation and display
    /// layers.
    pub(crate) fn evaluate(&self, target: TargetRange) -> Result<Option<Evaluation>> {
        let Some((transform, distortion, evaluations)) = self.fit(target, None)? else {
            return Ok(None);
        };
        let (power, power_saving) = power_from_histogram(self.config, self.histogram, &transform)?;
        Ok(Some(Evaluation {
            transform,
            distortion,
            power,
            power_saving,
            fit_evaluations: evaluations,
        }))
    }

    /// Evaluation at `target` through the pixel path when the measure needs
    /// it, materializing the displayed frame into the scratch's output.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the transformation and display
    /// layers.
    pub(crate) fn evaluate_with_pixels(
        &self,
        image: &GrayImage,
        target: TargetRange,
        scratch: &mut FitScratch,
    ) -> Result<RangeEvaluation> {
        let (transform, distortion, evaluations) = self
            .fit(target, Some((image, scratch)))?
            .expect("the pixel fallback was supplied");
        let (power, power_saving) = power_from_histogram(self.config, self.histogram, &transform)?;
        let mut displayed = scratch.take_output();
        transform.response.apply_into(image, &mut displayed);
        Ok(RangeEvaluation {
            displayed,
            transform,
            distortion,
            power,
            power_saving,
            fit_evaluations: evaluations,
        })
    }

    /// Fits every blend candidate at `target` and returns the winner
    /// `(transform, distortion, fit evaluations)`.
    ///
    /// One call is **one fit evaluation**, the unit `fit_evaluations`
    /// counts throughout the stack: a full closed-loop range search
    /// performs 9 of these (the full range plus 8 bisection steps), the
    /// open-loop table lookup exactly one. The blend candidates a single
    /// call arbitrates internally are part of that one evaluation, not
    /// separate ones.
    ///
    /// Distortion is measured in the histogram domain when the configured
    /// measure supports it; otherwise each candidate's displayed image is
    /// produced into the supplied scratch (one fused pass, no allocation)
    /// and measured in the pixel domain. Returns `Ok(None)` when the
    /// measure needs pixels but no pixel fallback was supplied.
    fn fit(
        &self,
        target: TargetRange,
        mut pixels: Option<(&GrayImage, &mut FitScratch)>,
    ) -> Result<Option<(Arc<FrameTransform>, f64, u32)>> {
        let (config, histogram) = (self.config, self.histogram);
        // Probe measure capability before paying for any candidate fit: a
        // windowed measure with no pixel fallback declines immediately.
        if pixels.is_none() && !measures_levels(config, histogram) {
            return Ok(None);
        }
        let curves = self.target_curves(target)?;
        let mut best: Option<(Arc<FrameTransform>, f64)> = None;
        for index in 0..self.weights.as_slice().len() {
            let transform = self.fit_candidate(target, &curves, index)?;
            let distortion = match config
                .measure
                .distortion_from_levels(histogram, transform.response.levels())
            {
                Some(distortion) => distortion,
                None => match pixels.as_mut() {
                    Some((image, scratch)) => {
                        transform.response.apply_into(image, &mut scratch.displayed);
                        config.measure.distortion(image, &scratch.displayed)
                    }
                    None => return Ok(None),
                },
            };
            let better = match &best {
                None => true,
                Some((_, current)) => distortion < *current,
            };
            if better {
                best = Some((transform, distortion));
            }
        }
        let (transform, distortion) =
            best.expect("at least one blend candidate is always evaluated");
        Ok(Some((transform, distortion, 1)))
    }

    /// The two curves every candidate at `target` blends: the exact GHE
    /// curve (Eq. 7, without `equalize`'s Eq. 4 residual) and the linear
    /// compression onto the band.
    fn target_curves(&self, target: TargetRange) -> Result<(PiecewiseLinear, PiecewiseLinear)> {
        Ok((ghe_curve(&self.cdf, target)?, linear_compression(target)))
    }

    /// Fits candidate `index` at `target`: its requested curve taken at
    /// the plan's kept indices, the driver programmed with it, and the
    /// display response fused.
    fn fit_candidate(
        &self,
        target: TargetRange,
        (ghe, linear): &(PiecewiseLinear, PiecewiseLinear),
        index: usize,
    ) -> Result<Arc<FrameTransform>> {
        let blend_weight = self.weights.as_slice()[index];
        let beta = target.backlight_factor();
        let requested = blend_curves(linear, ghe, blend_weight)?;
        let kept = &self.kept[index];
        let curve = if kept.is_empty() {
            requested
        } else {
            let points = requested.points();
            PiecewiseLinear::new(kept.iter().map(|&i| points[i]).collect())?
        };
        let programmed = self.config.driver.program(&curve, beta)?;
        let response = self.config.subsystem.response(&programmed.lut, beta)?;
        Ok(Arc::new(FrameTransform {
            target,
            beta,
            blend_weight,
            curve,
            lut: programmed.lut,
            response,
        }))
    }
}

/// Whether the configured measure evaluates this histogram in the level
/// domain (probed on the identity levels).
fn measures_levels(config: &PipelineConfig, histogram: &Histogram) -> bool {
    config
        .measure
        .distortion_from_levels(histogram, &IDENTITY_LEVELS)
        .is_some()
}

/// Histogram-domain power accounting for one fitted transform: the scaled
/// breakdown and the fractional saving versus full backlight.
fn power_from_histogram(
    config: &PipelineConfig,
    histogram: &Histogram,
    transform: &FrameTransform,
) -> Result<(PowerBreakdown, f64)> {
    let power = config.subsystem.power_from_histogram(
        histogram,
        transform.lut.entries(),
        transform.beta,
    )?;
    let baseline = config
        .subsystem
        .power_from_histogram(histogram, &IDENTITY_LEVELS, 1.0)?;
    let saving = (1.0 - power.total() / baseline.total()).max(0.0);
    Ok((power, saving))
}

/// Fits the HEBS transformation for one histogram, target range and blend
/// weight, running the full fitting stage: GHE solve, blend towards the
/// linear compression, piecewise-linear coarsening to the driver's segment
/// budget, programming of the reference driver, and fusion of the display
/// response.
///
/// This is the expensive, frame-independent half of the pipeline; pair it
/// with [`apply_transform`] to evaluate the result on a frame. Callers that
/// serve video at scale compute it once per histogram shape and reuse the
/// returned [`FrameTransform`] across near-identical frames.
///
/// # Errors
///
/// Propagates construction errors from the transformation and display
/// layers.
pub fn fit_transform(
    config: &PipelineConfig,
    histogram: &Histogram,
    target: TargetRange,
    blend_weight: f64,
) -> Result<Arc<FrameTransform>> {
    let plan = FitPlan::with_weights(config, histogram, BlendCandidates::one(blend_weight))?;
    plan.fit_candidate(target, &plan.target_curves(target)?, 0)
}

/// Applies an already-fitted transformation to a frame and measures what the
/// display would show, consume and distort — the cheap, per-frame half of
/// the pipeline: one histogram pass plus one fused LUT pass.
///
/// # Errors
///
/// Propagates errors from the display substrate.
pub fn apply_transform(
    config: &PipelineConfig,
    image: &GrayImage,
    transform: &Arc<FrameTransform>,
) -> Result<RangeEvaluation> {
    let histogram = Histogram::of(image);
    apply_transform_with_histogram(config, image, &histogram, transform)
}

/// Same as [`apply_transform`] but reuses a precomputed histogram of
/// `image` (the serving runtime already has one for its cache key).
///
/// Distortion and power are measured in the histogram domain when the
/// measure supports it — for the exact frame a transform was fitted on,
/// the result is bit-identical to the fit-time evaluation.
///
/// # Errors
///
/// Propagates errors from the display substrate.
pub fn apply_transform_with_histogram(
    config: &PipelineConfig,
    image: &GrayImage,
    histogram: &Histogram,
    transform: &Arc<FrameTransform>,
) -> Result<RangeEvaluation> {
    let mut scratch = FitScratch::default();
    apply_transform_with_histogram_scratch(config, image, histogram, transform, &mut scratch)
}

/// Same as [`apply_transform_with_histogram`] but materializes the
/// displayed frame into the scratch's reusable output buffer
/// ([`FitScratch::take_output`]), so a cache-hit replay on the serve path
/// allocates nothing once the per-worker scratch has grown to frame size.
///
/// # Errors
///
/// Propagates errors from the display substrate.
pub fn apply_transform_with_histogram_scratch(
    config: &PipelineConfig,
    image: &GrayImage,
    histogram: &Histogram,
    transform: &Arc<FrameTransform>,
    scratch: &mut FitScratch,
) -> Result<RangeEvaluation> {
    let mut displayed = scratch.take_output();
    transform.response.apply_into(image, &mut displayed);
    let distortion = match config
        .measure
        .distortion_from_levels(histogram, transform.response.levels())
    {
        Some(distortion) => distortion,
        None => config.measure.distortion(image, &displayed),
    };
    let (power, power_saving) = power_from_histogram(config, histogram, transform)?;
    Ok(RangeEvaluation {
        transform: Arc::clone(transform),
        displayed,
        distortion,
        power,
        power_saving,
        fit_evaluations: 0,
    })
}

/// Computes the best transformation for `image` at `target` (the blend
/// candidate with the lowest measured distortion) and returns it in its
/// reusable, shared form.
///
/// # Errors
///
/// See [`evaluate_at_range`].
pub fn compute_transform(
    config: &PipelineConfig,
    image: &GrayImage,
    histogram: &Histogram,
    target: TargetRange,
) -> Result<Arc<FrameTransform>> {
    evaluate_at_range_with_histogram(config, image, histogram, target).map(|e| e.transform)
}

/// The plain linear compression of the full input range onto the target
/// band: `Φ(x) = g_min + (g_max − g_min)·x`.
fn linear_compression(target: TargetRange) -> PiecewiseLinear {
    let lo = f64::from(target.g_min()) / 255.0;
    let hi = f64::from(target.g_max()) / 255.0;
    PiecewiseLinear::new(vec![ControlPoint::new(0.0, lo), ControlPoint::new(1.0, hi)])
        .expect("a linear band curve is always valid")
}

/// Point-wise convex blend of two monotone curves (sampled back onto 256
/// control points so the result is again a valid monotone curve).
fn blend_curves(
    linear: &PiecewiseLinear,
    ghe: &PiecewiseLinear,
    weight: f64,
) -> Result<PiecewiseLinear> {
    use hebs_transform::PixelTransform;
    let w = weight.clamp(0.0, 1.0);
    if w <= 0.0 {
        return Ok(linear.clone());
    }
    if w >= 1.0 {
        return Ok(ghe.clone());
    }
    Ok(PiecewiseLinear::from_samples(256, |x| {
        (1.0 - w) * linear.evaluate(x) + w * ghe.evaluate(x)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hebs_imaging::synthetic;
    use hebs_quality::GlobalUiqiDistortion;

    fn small_config() -> PipelineConfig {
        PipelineConfig::default()
    }

    fn histogram_config() -> PipelineConfig {
        PipelineConfig::default().with_measure(GlobalUiqiDistortion)
    }

    #[test]
    fn evaluation_at_full_range_has_negligible_distortion_and_saving() {
        let config = small_config();
        let img = synthetic::still_life(64, 64, 21);
        let eval = evaluate_at_range(&config, &img, TargetRange::from_span(256).unwrap()).unwrap();
        assert!(eval.distortion < 0.03, "distortion {}", eval.distortion);
        assert!(
            eval.power_saving.abs() < 0.05,
            "saving {}",
            eval.power_saving
        );
        assert!((eval.beta() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smaller_range_gives_more_saving_and_more_distortion() {
        let config = small_config();
        let img = synthetic::portrait(64, 64, 22);
        let wide = evaluate_at_range(&config, &img, TargetRange::from_span(230).unwrap()).unwrap();
        let narrow = evaluate_at_range(&config, &img, TargetRange::from_span(90).unwrap()).unwrap();
        assert!(narrow.power_saving > wide.power_saving + 0.1);
        assert!(narrow.distortion > wide.distortion);
    }

    #[test]
    fn paper_config_uses_pure_ghe() {
        let config = PipelineConfig::paper();
        let img = synthetic::landscape(48, 48, 23);
        let eval = evaluate_at_range(&config, &img, TargetRange::from_span(128).unwrap()).unwrap();
        assert_eq!(eval.blend_weight(), 1.0);
        assert_eq!(eval.fit_evaluations, 1, "one range fitted, one evaluation");
    }

    #[test]
    fn adaptive_blend_never_does_worse_than_pure_ghe() {
        let adaptive = PipelineConfig::default();
        let pure = PipelineConfig::paper();
        let img = synthetic::low_key(64, 64, 24);
        for span in [220u32, 150, 100] {
            let target = TargetRange::from_span(span).unwrap();
            let a = evaluate_at_range(&adaptive, &img, target).unwrap();
            let p = evaluate_at_range(&pure, &img, target).unwrap();
            assert!(
                a.distortion <= p.distortion + 1e-9,
                "adaptive {} worse than pure {} at span {span}",
                a.distortion,
                p.distortion
            );
            // The adaptive blend arbitrates its candidates *inside* one
            // evaluation: the counter ticks per target range, not per
            // candidate, so open-loop (1) vs closed-loop (9) comparisons
            // are blend-mode independent.
            assert_eq!(a.fit_evaluations, 1, "one range fitted, one evaluation");
        }
    }

    #[test]
    fn displayed_image_respects_the_target_range() {
        let config = small_config();
        let img = synthetic::fine_texture(64, 64, 25);
        let target = TargetRange::from_span(120).unwrap();
        let eval = evaluate_at_range(&config, &img, target).unwrap();
        // The emitted luminance never exceeds the top of the target band
        // (allowing one level of rounding slack).
        assert!(u32::from(eval.displayed.max_level()) <= target.span() + 1);
    }

    #[test]
    fn curve_fits_the_driver_budget() {
        let config = small_config();
        let img = synthetic::portrait(48, 48, 26);
        let eval = evaluate_at_range(&config, &img, TargetRange::from_span(100).unwrap()).unwrap();
        assert!(eval.curve().segment_count() <= config.driver.max_segments());
        assert!(eval.lut().is_monotone());
    }

    #[test]
    fn power_breakdown_is_consistent_with_saving() {
        let config = small_config();
        let img = synthetic::still_life(48, 48, 27);
        let eval = evaluate_at_range(&config, &img, TargetRange::from_span(128).unwrap()).unwrap();
        let baseline = config.subsystem.power(&img, 1.0).unwrap().total();
        let expected_saving = 1.0 - eval.power.total() / baseline;
        assert!((expected_saving - eval.power_saving).abs() < 1e-9);
    }

    #[test]
    fn histogram_reuse_matches_direct_evaluation() {
        let config = small_config();
        let img = synthetic::landscape(48, 48, 28);
        let hist = Histogram::of(&img);
        let target = TargetRange::from_span(140).unwrap();
        let direct = evaluate_at_range(&config, &img, target).unwrap();
        let reused = evaluate_at_range_with_histogram(&config, &img, &hist, target).unwrap();
        assert_eq!(direct.distortion, reused.distortion);
        assert_eq!(direct.power_saving, reused.power_saving);
    }

    #[test]
    fn apply_transform_reproduces_the_evaluation_it_came_from() {
        let config = small_config();
        let img = synthetic::portrait(48, 48, 31);
        let target = TargetRange::from_span(128).unwrap();
        let eval = evaluate_at_range(&config, &img, target).unwrap();
        let replayed = apply_transform(&config, &img, &eval.transform).unwrap();
        assert_eq!(replayed.distortion, eval.distortion);
        assert_eq!(replayed.power_saving, eval.power_saving);
        assert_eq!(replayed.lut(), eval.lut());
        assert_eq!(replayed.displayed, eval.displayed);
        assert_eq!(replayed.fit_evaluations, 0, "a replay runs no fits");
    }

    #[test]
    fn compute_transform_matches_the_evaluation_path() {
        let config = small_config();
        let img = synthetic::landscape(48, 48, 32);
        let hist = Histogram::of(&img);
        let target = TargetRange::from_span(140).unwrap();
        let transform = compute_transform(&config, &img, &hist, target).unwrap();
        let eval = evaluate_at_range(&config, &img, target).unwrap();
        assert_eq!(*transform, *eval.transform);
    }

    #[test]
    fn fitted_transform_is_frame_independent() {
        // The fit depends only on the histogram: two different frames with
        // the same histogram produce the same programmed transform.
        let config = small_config();
        let a = synthetic::still_life(48, 48, 33);
        let flipped = hebs_imaging::flip_horizontal(&a);
        let target = TargetRange::from_span(110).unwrap();
        let ta = fit_transform(&config, &Histogram::of(&a), target, 1.0).unwrap();
        let tb = fit_transform(&config, &Histogram::of(&flipped), target, 1.0).unwrap();
        assert_eq!(*ta, *tb);
    }

    #[test]
    fn histogram_domain_fit_agrees_with_the_pixel_path() {
        // The tentpole invariant: with a histogram-capable measure, the
        // level-space fit must agree with a full pixel-path evaluation to
        // within float summation order.
        let config = histogram_config();
        for (seed, img) in [
            synthetic::still_life(64, 64, 41),
            synthetic::portrait(64, 64, 42),
            synthetic::low_key(64, 64, 43),
        ]
        .into_iter()
        .enumerate()
        {
            let hist = Histogram::of(&img);
            for span in [240u32, 160, 90] {
                let target = TargetRange::from_span(span).unwrap();
                let level_space = evaluate_range_from_histogram(&config, &hist, target)
                    .unwrap()
                    .expect("global UIQI is histogram-capable");
                // Reference: measure the materialized image the slow way.
                let displayed = level_space.transform.response.apply(&img);
                let pixel = config.measure.distortion(&img, &displayed);
                assert!(
                    (level_space.distortion - pixel).abs() <= 1e-9,
                    "seed {seed} span {span}: hist {} vs pixel {pixel}",
                    level_space.distortion
                );
                // And the materializing entry point returns the same numbers.
                let full = evaluate_at_range_with_histogram(&config, &img, &hist, target).unwrap();
                assert_eq!(full.distortion, level_space.distortion);
                assert_eq!(full.power_saving, level_space.power_saving);
                assert_eq!(full.displayed, displayed);
            }
        }
    }

    #[test]
    fn windowed_measures_decline_the_histogram_fit() {
        let config = small_config(); // default HVS + SSIM is windowed
        let img = synthetic::portrait(32, 32, 44);
        let hist = Histogram::of(&img);
        let target = TargetRange::from_span(128).unwrap();
        assert!(evaluate_range_from_histogram(&config, &hist, target)
            .unwrap()
            .is_none());
        // The pixel fallback still works through the scratch entry point.
        let mut scratch = FitScratch::new();
        let eval = evaluate_at_range_scratch(&config, &img, &hist, target, &mut scratch).unwrap();
        assert!(eval.distortion > 0.0);
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let config = small_config();
        let img = synthetic::landscape(48, 48, 45);
        let hist = Histogram::of(&img);
        let mut scratch = FitScratch::new();
        let target = TargetRange::from_span(150).unwrap();
        let first = evaluate_at_range_scratch(&config, &img, &hist, target, &mut scratch).unwrap();
        let second = evaluate_at_range_scratch(&config, &img, &hist, target, &mut scratch).unwrap();
        assert_eq!(first.distortion, second.distortion);
        assert_eq!(first.displayed, second.displayed);
    }

    #[test]
    fn evaluate_transform_from_histogram_matches_apply() {
        let config = histogram_config();
        let img = synthetic::still_life(48, 48, 46);
        let hist = Histogram::of(&img);
        let target = TargetRange::from_span(120).unwrap();
        let transform = fit_transform(&config, &hist, target, 1.0).unwrap();
        let level_space = evaluate_transform_from_histogram(&config, &hist, &transform)
            .unwrap()
            .expect("histogram-capable measure");
        let applied = apply_transform_with_histogram(&config, &img, &hist, &transform).unwrap();
        assert_eq!(level_space.distortion, applied.distortion);
        assert_eq!(level_space.power_saving, applied.power_saving);
    }

    #[test]
    fn pipeline_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PipelineConfig>();
        assert_send_sync::<RangeEvaluation>();
        assert_send_sync::<Evaluation>();
        assert_send_sync::<FrameTransform>();
        assert_send_sync::<BlendMode>();
        assert_send_sync::<FitScratch>();
    }

    #[test]
    fn blend_curves_endpoints() {
        let target = TargetRange::from_span(128).unwrap();
        let linear = linear_compression(target);
        let ghe_curve = PiecewiseLinear::from_samples(64, |x| (x * 0.5).min(0.498));
        let zero = blend_curves(&linear, &ghe_curve, 0.0).unwrap();
        assert_eq!(zero, linear);
        let one = blend_curves(&linear, &ghe_curve, 1.0).unwrap();
        assert_eq!(one, ghe_curve);
    }

    /// The DP objective of keeping `kept` on `points`, summed chord by
    /// chord the slow way.
    fn kept_error(points: &[ControlPoint], kept: &[usize]) -> f64 {
        let mut error = 0.0;
        for pair in kept.windows(2) {
            let (a, b) = (points[pair[0]], points[pair[1]]);
            for p in &points[pair[0] + 1..pair[1]] {
                let chord = a.y + (p.x - a.x) / (b.x - a.x) * (b.y - a.y);
                error += (p.y - chord) * (p.y - chord);
            }
        }
        error
    }

    #[test]
    fn plan_kept_indices_are_optimal_at_every_target_range() {
        // The affine-invariance argument, checked: indices solved once on
        // the unit-span shape coarsen every target's requested curve as well
        // as a fresh DP on that curve does. Where they differ it is an exact
        // tie that rounding broke differently, so the errors agree.
        use hebs_imaging::SipiSuite;
        use hebs_transform::coarsen;
        let config = PipelineConfig::default();
        let segments = config.segments.min(config.driver.max_segments()).max(1);
        let weights = BlendCandidates {
            values: [0.5, 1.0, 0.0],
            len: 2,
        };
        let (mut cases, mut ties) = (0u32, 0u32);
        for size in [32, 64, 128] {
            for (id, image) in SipiSuite::with_size(size).iter() {
                let histogram = Histogram::of(image);
                let plan = FitPlan::with_weights(&config, &histogram, weights).unwrap();
                for range in 2..=256u32 {
                    let target = TargetRange::from_span(range).unwrap();
                    let (ghe, linear) = plan.target_curves(target).unwrap();
                    for (&weight, kept) in weights.as_slice().iter().zip(&plan.kept) {
                        cases += 1;
                        let requested = blend_curves(&linear, &ghe, weight).unwrap();
                        let fresh = coarsen(&requested, segments).unwrap();
                        if *kept == fresh.kept_indices {
                            continue;
                        }
                        ties += 1;
                        let points = requested.points();
                        let ours = kept_error(points, kept);
                        let theirs = kept_error(points, &fresh.kept_indices);
                        assert!(
                            (ours - theirs).abs() <= 1e-9 * ours.max(theirs),
                            "{id:?} at {size}px, w {weight}, range {range}: \
                             plan error {ours} vs fresh {theirs}"
                        );
                    }
                }
            }
        }
        assert_eq!(cases, 19 * 3 * 255 * 2);
        assert!(ties < cases / 10, "{ties} of {cases} cases differ");
    }

    #[test]
    fn one_target_fits_solve_one_coarsening_per_nontrivial_weight() {
        let img = synthetic::portrait(32, 32, 47);
        let hist = Histogram::of(&img);
        let target = TargetRange::from_span(128).unwrap();
        let uiqi = histogram_config();
        let (_, adaptive) =
            dp_solves_during(|| evaluate_range_from_histogram(&uiqi, &hist, target).unwrap());
        assert_eq!(adaptive, 2, "w = 0 is a 2-point line and needs no DP");
        let (_, windowed) =
            dp_solves_during(|| evaluate_range_from_histogram(&small_config(), &hist, target));
        assert_eq!(windowed, 0, "a declined fit solves nothing");
        let (_, single) =
            dp_solves_during(|| fit_transform(&small_config(), &hist, target, 0.5).unwrap());
        assert_eq!(single, 1);
        let (_, linear) =
            dp_solves_during(|| fit_transform(&small_config(), &hist, target, 0.0).unwrap());
        assert_eq!(linear, 0);
    }

    #[test]
    fn blend_candidates_are_allocation_free_and_clamped() {
        let adaptive = PipelineConfig::default();
        assert_eq!(adaptive.blend_candidates().as_slice(), &[0.0, 0.5, 1.0]);
        let fixed = PipelineConfig {
            blend: BlendMode::Fixed(1.7),
            ..PipelineConfig::default()
        };
        assert_eq!(fixed.blend_candidates().as_slice(), &[1.0]);
    }
}
