//! Backlight scaling policies and the HEBS policy itself.
//!
//! A *policy* answers the Dynamic Backlight Scaling problem of Section 3:
//! given an image and a maximum tolerable distortion, pick the backlight
//! factor and the pixel transformation that minimize power. The trait
//! [`BacklightPolicy`] is implemented by HEBS (this module) and by the
//! prior-work baselines in [`crate::baselines`], so the comparison harness
//! can treat them uniformly.
//!
//! The closed-loop HEBS search bisects over target ranges. When the
//! configured distortion measure supports the histogram-domain entry point,
//! the whole bisection runs in level space — O(evaluations × 256)
//! regardless of frame size — and the frame is touched exactly once, by
//! the final fused apply. Windowed measures fall back to the pixel path,
//! whose intermediate candidate images go into a reusable [`FitScratch`].

use std::sync::Arc;

use hebs_display::PowerBreakdown;
use hebs_imaging::{GrayImage, Histogram};
use hebs_transform::LookupTable;

use crate::characterize::{CurveFit, DistortionCharacteristic};
use crate::error::{HebsError, Result};
use crate::ghe::TargetRange;
use crate::pipeline::{
    apply_transform_with_histogram_scratch, evaluate_at_range_scratch,
    evaluate_transform_from_histogram, Evaluation, FitPlan, FitScratch, FrameTransform,
    PipelineConfig, RangeEvaluation,
};

/// The outcome of running a backlight scaling policy on one image.
#[derive(Debug, Clone)]
pub struct ScalingOutcome {
    /// Name of the policy that produced this outcome.
    pub policy: String,
    /// Backlight scaling factor `β` chosen by the policy.
    pub beta: f64,
    /// Target dynamic range of the transformed image, when the policy is
    /// range-based (HEBS); `None` for the baselines.
    pub dynamic_range: Option<u32>,
    /// Measured distortion between the original and the displayed image.
    pub distortion: f64,
    /// Power breakdown of the scaled configuration.
    pub power: PowerBreakdown,
    /// Fractional power saving versus the original image at full backlight.
    pub power_saving: f64,
    /// The lookup table programmed into the reference driver.
    pub lut: LookupTable,
    /// The luminance image the display emits.
    pub displayed: GrayImage,
    /// Number of target-range fit evaluations the policy performed to
    /// produce this outcome: 9 for a closed-loop search (the full range plus
    /// 8 bisection steps), 1 for an open-loop lookup, 0 when a cached
    /// transform was replayed.
    pub fit_evaluations: u32,
}

impl ScalingOutcome {
    /// Builds an outcome from a pipeline range evaluation.
    pub(crate) fn from_evaluation(policy: &str, eval: RangeEvaluation) -> Self {
        ScalingOutcome {
            policy: policy.to_string(),
            beta: eval.beta(),
            dynamic_range: Some(eval.target().span()),
            distortion: eval.distortion,
            power: eval.power,
            power_saving: eval.power_saving,
            lut: eval.lut().clone(),
            fit_evaluations: eval.fit_evaluations,
            displayed: eval.displayed,
        }
    }
}

/// A dynamic backlight scaling policy.
pub trait BacklightPolicy {
    /// Short name used in benchmark tables.
    fn name(&self) -> &str;

    /// Chooses a backlight setting and pixel transformation for `image`
    /// such that the measured distortion stays at or below `max_distortion`
    /// while saving as much power as the policy can.
    ///
    /// # Errors
    ///
    /// Returns an error if `max_distortion` is outside `[0, 1]` or the
    /// underlying models reject the configuration. Policies fall back to the
    /// identity (no dimming) rather than erroring when the bound simply
    /// cannot be improved upon.
    fn optimize(&self, image: &GrayImage, max_distortion: f64) -> Result<ScalingOutcome>;
}

/// How the HEBS policy determines the target dynamic range for a distortion
/// budget.
#[derive(Debug, Clone)]
pub enum RangeSelection {
    /// Look the range up on a precomputed distortion characteristic curve
    /// (the paper's flow — a single table lookup at run time). The boolean
    /// selects the conservative (worst-case) fit.
    Characteristic {
        /// The fitted curve to look ranges up on. Shared so a serving
        /// runtime can hold the same curve in its re-characterization slot
        /// without cloning the sample scatter per policy rebuild.
        curve: Arc<DistortionCharacteristic>,
        /// Which of the curve's fits (average, p95 envelope, worst case)
        /// the lookup runs on.
        fit: CurveFit,
    },
    /// Search the range per image using the actual measured distortion
    /// (closed loop): slower, but the bound is honoured exactly.
    ClosedLoop,
}

/// The HEBS backlight scaling policy.
pub struct HebsPolicy {
    config: PipelineConfig,
    selection: RangeSelection,
    name: String,
}

impl std::fmt::Debug for HebsPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HebsPolicy")
            .field("name", &self.name)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl HebsPolicy {
    /// A closed-loop HEBS policy: the target range is searched per image so
    /// the distortion bound is met exactly.
    pub fn closed_loop(config: PipelineConfig) -> Self {
        HebsPolicy {
            config,
            selection: RangeSelection::ClosedLoop,
            name: "hebs".to_string(),
        }
    }

    /// An open-loop HEBS policy using a precomputed distortion
    /// characteristic curve, as in the paper's hardware flow.
    pub fn open_loop(
        config: PipelineConfig,
        curve: DistortionCharacteristic,
        conservative: bool,
    ) -> Self {
        Self::open_loop_shared(config, Arc::new(curve), conservative)
    }

    /// Like [`HebsPolicy::open_loop`] but shares an existing characteristic
    /// instead of taking ownership — the serving runtime swaps rebuilt
    /// curves into fresh policies without copying the sample scatter.
    pub fn open_loop_shared(
        config: PipelineConfig,
        curve: Arc<DistortionCharacteristic>,
        conservative: bool,
    ) -> Self {
        let fit = if conservative {
            CurveFit::WorstCase
        } else {
            CurveFit::Average
        };
        Self::open_loop_with_fit(config, curve, fit)
    }

    /// Like [`HebsPolicy::open_loop_shared`] with an explicit [`CurveFit`]
    /// selection — in particular the p95 envelope, which dims heterogeneous
    /// traffic the worst-case fit refuses to.
    pub fn open_loop_with_fit(
        config: PipelineConfig,
        curve: Arc<DistortionCharacteristic>,
        fit: CurveFit,
    ) -> Self {
        HebsPolicy {
            config,
            selection: RangeSelection::Characteristic { curve, fit },
            name: match fit {
                CurveFit::Average => "hebs-open".to_string(),
                CurveFit::Envelope => "hebs-open-envelope".to_string(),
                CurveFit::WorstCase => "hebs-open-worstcase".to_string(),
            },
        }
    }

    /// The pipeline configuration this policy runs with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The characteristic curve an open-loop policy looks ranges up on
    /// (`None` for closed-loop policies).
    pub fn characteristic(&self) -> Option<&Arc<DistortionCharacteristic>> {
        match &self.selection {
            RangeSelection::Characteristic { curve, .. } => Some(curve),
            RangeSelection::ClosedLoop => None,
        }
    }

    /// Closed-loop search: the smallest range whose measured distortion is
    /// within the budget. Distortion is monotone non-increasing in the range
    /// to a good approximation, so a bisection over `[2, 256]` suffices.
    ///
    /// Both bisections fit through one `FitPlan`, so the coarsenings are
    /// solved once for the whole search. With a histogram-capable measure
    /// the entire bisection runs in level space and only the winning fit is
    /// materialized; otherwise every step measures through the pixel path
    /// (candidates into `scratch`).
    fn search_range(
        &self,
        image: &GrayImage,
        histogram: &Histogram,
        max_distortion: f64,
        scratch: &mut FitScratch,
    ) -> Result<RangeEvaluation> {
        let plan = FitPlan::new(&self.config, histogram)?;
        let full_target = TargetRange::from_span(256).expect("256 is a valid span");
        if let Some(full) = plan.evaluate(full_target)? {
            if let Some(found) =
                Self::search_range_level_space(&plan, image, max_distortion, full, scratch)?
            {
                return Ok(found);
            }
        }
        Self::search_range_pixel_space(&plan, image, max_distortion, scratch)
    }

    /// The O(levels) bisection: every step is a histogram-domain fit; the
    /// frame is only touched by the final materializing apply.
    ///
    /// Returns `Ok(None)` when a step unexpectedly declines the histogram
    /// path (a measure violating the capability-stability contract); the
    /// caller then restarts through the pixel path instead of panicking a
    /// serving worker.
    fn search_range_level_space(
        plan: &FitPlan<'_>,
        image: &GrayImage,
        max_distortion: f64,
        full: Evaluation,
        scratch: &mut FitScratch,
    ) -> Result<Option<RangeEvaluation>> {
        let mut total_evaluations = full.fit_evaluations;
        if full.distortion > max_distortion {
            // Even the widest range misses the budget: fall back to it (it is
            // the least-distorting configuration HEBS can produce).
            let mut best = full;
            best.fit_evaluations = total_evaluations;
            return Ok(Some(best.materialize_with_scratch(image, scratch)));
        }
        let mut lo = 2u32;
        let mut hi = 256u32;
        let mut best = full;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let Some(eval) = plan.evaluate(TargetRange::from_span(mid)?)? else {
                return Ok(None);
            };
            total_evaluations += eval.fit_evaluations;
            if eval.distortion <= max_distortion {
                hi = mid;
                best = eval;
            } else {
                lo = mid + 1;
            }
        }
        best.fit_evaluations = total_evaluations;
        Ok(Some(best.materialize_with_scratch(image, scratch)))
    }

    /// The pixel-path bisection for windowed measures: candidate images go
    /// into the scratch, one full evaluation per step.
    fn search_range_pixel_space(
        plan: &FitPlan<'_>,
        image: &GrayImage,
        max_distortion: f64,
        scratch: &mut FitScratch,
    ) -> Result<RangeEvaluation> {
        let full = plan.evaluate_with_pixels(image, TargetRange::from_span(256)?, scratch)?;
        let mut total_evaluations = full.fit_evaluations;
        if full.distortion > max_distortion {
            return Ok(full);
        }
        let mut lo = 2u32;
        let mut hi = 256u32;
        let mut best = full;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let eval = plan.evaluate_with_pixels(image, TargetRange::from_span(mid)?, scratch)?;
            total_evaluations += eval.fit_evaluations;
            if eval.distortion <= max_distortion {
                hi = mid;
                let discarded = std::mem::replace(&mut best, eval);
                scratch.recycle_output(discarded.displayed);
            } else {
                lo = mid + 1;
                scratch.recycle_output(eval.displayed);
            }
        }
        best.fit_evaluations = total_evaluations;
        Ok(best)
    }
}

impl HebsPolicy {
    /// Runs the full policy with a precomputed histogram of `image`.
    fn select_evaluation_with_histogram(
        &self,
        image: &GrayImage,
        histogram: &Histogram,
        max_distortion: f64,
        scratch: &mut FitScratch,
    ) -> Result<RangeEvaluation> {
        if !(0.0..=1.0).contains(&max_distortion) || !max_distortion.is_finite() {
            return Err(HebsError::InvalidFraction {
                name: "max_distortion",
                value: max_distortion,
            });
        }
        match &self.selection {
            RangeSelection::ClosedLoop => {
                self.search_range(image, histogram, max_distortion, scratch)
            }
            RangeSelection::Characteristic { curve, fit } => {
                // When even the full range is predicted to exceed the budget
                // the characteristic cannot help; fall back to the widest
                // (least distorting) range rather than refusing to display.
                let range = curve.min_range_for_fit(max_distortion, *fit).unwrap_or(256);
                let target = TargetRange::from_span(range.max(2))?;
                evaluate_at_range_scratch(&self.config, image, histogram, target, scratch)
            }
        }
    }

    /// Like [`BacklightPolicy::optimize`], but writes intermediate pixel
    /// work into a caller-provided scratch — the serving runtime gives each
    /// worker one, so steady-state fits perform no intermediate per-frame
    /// allocations.
    ///
    /// # Errors
    ///
    /// Same as [`BacklightPolicy::optimize`].
    pub fn optimize_with_scratch(
        &self,
        image: &GrayImage,
        max_distortion: f64,
        scratch: &mut FitScratch,
    ) -> Result<ScalingOutcome> {
        let histogram = Histogram::of(image);
        let evaluation =
            self.select_evaluation_with_histogram(image, &histogram, max_distortion, scratch)?;
        Ok(ScalingOutcome::from_evaluation(&self.name, evaluation))
    }

    /// Like [`BacklightPolicy::optimize`], but also returns the fitted
    /// [`FrameTransform`] so callers can cache it and replay it on other
    /// frames with [`HebsPolicy::apply_frame_transform`].
    ///
    /// # Errors
    ///
    /// Same as [`BacklightPolicy::optimize`].
    pub fn optimize_with_transform(
        &self,
        image: &GrayImage,
        max_distortion: f64,
    ) -> Result<(ScalingOutcome, Arc<FrameTransform>)> {
        let histogram = Histogram::of(image);
        let mut scratch = FitScratch::default();
        self.optimize_with_transform_using_histogram(
            image,
            &histogram,
            max_distortion,
            &mut scratch,
        )
    }

    /// Like [`HebsPolicy::optimize_with_transform`] but reuses a precomputed
    /// histogram of `image` and a caller-provided scratch — the serving
    /// runtime already computes a histogram per frame for its cache key, and
    /// this avoids a second pass over the pixels.
    ///
    /// # Errors
    ///
    /// Same as [`BacklightPolicy::optimize`].
    pub fn optimize_with_transform_using_histogram(
        &self,
        image: &GrayImage,
        histogram: &Histogram,
        max_distortion: f64,
        scratch: &mut FitScratch,
    ) -> Result<(ScalingOutcome, Arc<FrameTransform>)> {
        let evaluation =
            self.select_evaluation_with_histogram(image, histogram, max_distortion, scratch)?;
        let transform = evaluation.shared_transform();
        Ok((
            ScalingOutcome::from_evaluation(&self.name, evaluation),
            transform,
        ))
    }

    /// Applies an already-fitted transformation to a frame, skipping the
    /// range search and the fitting stage entirely.
    ///
    /// This is the cache-hit fast path of the serving runtime: the distortion
    /// and power of the *actual* frame are still measured (in the histogram
    /// domain when the measure allows, else through the pixel path), only
    /// the expensive fit is reused. For the exact frame the transform was
    /// fitted on, the outcome is bit-identical to the one
    /// [`BacklightPolicy::optimize`] produces (the pipeline is
    /// deterministic).
    ///
    /// # Errors
    ///
    /// Propagates errors from the display substrate.
    pub fn apply_frame_transform(
        &self,
        image: &GrayImage,
        transform: &Arc<FrameTransform>,
    ) -> Result<ScalingOutcome> {
        let histogram = Histogram::of(image);
        self.apply_frame_transform_with_histogram(image, &histogram, transform)
    }

    /// Like [`HebsPolicy::apply_frame_transform`] with a precomputed
    /// histogram of `image`.
    ///
    /// # Errors
    ///
    /// Propagates errors from the display substrate.
    pub fn apply_frame_transform_with_histogram(
        &self,
        image: &GrayImage,
        histogram: &Histogram,
        transform: &Arc<FrameTransform>,
    ) -> Result<ScalingOutcome> {
        let mut scratch = FitScratch::default();
        self.apply_frame_transform_with_histogram_scratch(image, histogram, transform, &mut scratch)
    }

    /// Like [`HebsPolicy::apply_frame_transform_with_histogram`] but
    /// materializes the displayed frame through the scratch's reusable
    /// output buffer — the allocation-free serve-path variant.
    ///
    /// # Errors
    ///
    /// Propagates errors from the display substrate.
    pub fn apply_frame_transform_with_histogram_scratch(
        &self,
        image: &GrayImage,
        histogram: &Histogram,
        transform: &Arc<FrameTransform>,
        scratch: &mut FitScratch,
    ) -> Result<ScalingOutcome> {
        let evaluation = apply_transform_with_histogram_scratch(
            &self.config,
            image,
            histogram,
            transform,
            scratch,
        )?;
        Ok(ScalingOutcome::from_evaluation(&self.name, evaluation))
    }

    /// Replays a cached transform on a frame *only if* its measured
    /// distortion satisfies `max_distortion`; returns `Ok(None)` otherwise.
    ///
    /// With a histogram-capable measure the budget check costs O(levels)
    /// and a rejected replay never touches a pixel — the serving runtime
    /// uses this to validate approximate-cache hits before spending any
    /// frame-buffer work on them.
    ///
    /// # Errors
    ///
    /// Propagates errors from the display substrate.
    pub fn replay_frame_transform(
        &self,
        image: &GrayImage,
        histogram: &Histogram,
        transform: &Arc<FrameTransform>,
        max_distortion: f64,
    ) -> Result<Option<ScalingOutcome>> {
        let mut scratch = FitScratch::default();
        self.replay_frame_transform_with_scratch(
            image,
            histogram,
            transform,
            max_distortion,
            &mut scratch,
        )
    }

    /// Like [`HebsPolicy::replay_frame_transform`] but materializes an
    /// accepted replay through the scratch's reusable output buffer, so a
    /// steady-state cache hit allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates errors from the display substrate.
    pub fn replay_frame_transform_with_scratch(
        &self,
        image: &GrayImage,
        histogram: &Histogram,
        transform: &Arc<FrameTransform>,
        max_distortion: f64,
        scratch: &mut FitScratch,
    ) -> Result<Option<ScalingOutcome>> {
        if let Some(evaluation) =
            evaluate_transform_from_histogram(&self.config, histogram, transform)?
        {
            // Histogram-capable: decide before materializing anything.
            if evaluation.distortion > max_distortion {
                return Ok(None);
            }
            return Ok(Some(ScalingOutcome::from_evaluation(
                &self.name,
                evaluation.materialize_with_scratch(image, scratch),
            )));
        }
        // Windowed measure: the displayed image is needed to measure; it
        // doubles as the outcome on acceptance.
        let outcome = self
            .apply_frame_transform_with_histogram_scratch(image, histogram, transform, scratch)?;
        if outcome.distortion > max_distortion {
            scratch.recycle_output(outcome.displayed);
            return Ok(None);
        }
        Ok(Some(outcome))
    }
}

impl BacklightPolicy for HebsPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn optimize(&self, image: &GrayImage, max_distortion: f64) -> Result<ScalingOutcome> {
        let mut scratch = FitScratch::default();
        self.optimize_with_scratch(image, max_distortion, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::DistortionCharacteristic;
    use hebs_imaging::synthetic;
    use hebs_quality::GlobalUiqiDistortion;

    fn test_image() -> GrayImage {
        synthetic::still_life(64, 64, 41)
    }

    #[test]
    fn closed_loop_respects_the_distortion_bound() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let img = test_image();
        for bound in [0.05, 0.10, 0.20] {
            let outcome = policy.optimize(&img, bound).unwrap();
            assert!(
                outcome.distortion <= bound + 1e-9,
                "distortion {} exceeds bound {bound}",
                outcome.distortion
            );
            assert!(outcome.power_saving >= 0.0);
            assert_eq!(outcome.policy, "hebs");
            assert!(
                outcome.fit_evaluations > 0,
                "a search must report its fit evaluations"
            );
        }
    }

    #[test]
    fn histogram_capable_measure_respects_the_bound_too() {
        let config = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        let policy = HebsPolicy::closed_loop(config);
        let img = test_image();
        for bound in [0.05, 0.15] {
            let outcome = policy.optimize(&img, bound).unwrap();
            assert!(
                outcome.distortion <= bound + 1e-9,
                "distortion {} exceeds bound {bound}",
                outcome.distortion
            );
            assert!(outcome.fit_evaluations > 0);
        }
    }

    #[test]
    fn level_space_and_pixel_space_searches_agree() {
        // Forcing the same global measure down the pixel path must pick the
        // same configuration as the level-space search.
        #[derive(Debug, Clone, Copy)]
        struct PixelOnly;
        impl hebs_quality::DistortionMeasure for PixelOnly {
            fn distortion(&self, a: &GrayImage, b: &GrayImage) -> f64 {
                GlobalUiqiDistortion.distortion(a, b)
            }
            fn name(&self) -> &'static str {
                "uiqi-global-pixel-test"
            }
        }

        let img = test_image();
        let level =
            HebsPolicy::closed_loop(PipelineConfig::default().with_measure(GlobalUiqiDistortion));
        let pixel = HebsPolicy::closed_loop(PipelineConfig::default().with_measure(PixelOnly));
        let a = level.optimize(&img, 0.10).unwrap();
        let b = pixel.optimize(&img, 0.10).unwrap();
        assert_eq!(a.beta, b.beta, "both searches must pick the same range");
        assert_eq!(a.lut, b.lut);
        assert!((a.distortion - b.distortion).abs() <= 1e-9);
        assert_eq!(a.displayed, b.displayed);
    }

    #[test]
    fn larger_budget_never_saves_less_power() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let img = test_image();
        let tight = policy.optimize(&img, 0.05).unwrap();
        let loose = policy.optimize(&img, 0.20).unwrap();
        assert!(loose.power_saving + 1e-9 >= tight.power_saving);
        assert!(loose.beta <= tight.beta + 1e-9);
    }

    #[test]
    fn meaningful_savings_at_moderate_distortion() {
        // The headline claim of the paper: tens of percent of power saved at
        // ten-percent distortion.
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let img = test_image();
        let outcome = policy.optimize(&img, 0.10).unwrap();
        assert!(
            outcome.power_saving > 0.25,
            "expected >25% saving at 10% distortion, got {}",
            outcome.power_saving
        );
    }

    #[test]
    fn invalid_budget_rejected() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let img = test_image();
        assert!(policy.optimize(&img, -0.1).is_err());
        assert!(policy.optimize(&img, 1.5).is_err());
        assert!(policy.optimize(&img, f64::NAN).is_err());
    }

    #[test]
    fn open_loop_uses_the_characteristic_curve() {
        let config = PipelineConfig::default();
        let suite = [
            ("a".to_string(), synthetic::portrait(48, 48, 42)),
            ("b".to_string(), synthetic::landscape(48, 48, 43)),
            ("c".to_string(), synthetic::fine_texture(48, 48, 44)),
        ];
        let characteristic = DistortionCharacteristic::characterize(
            &config,
            suite.iter().map(|(n, i)| (n.as_str(), i)),
            &[80, 160, 240],
        )
        .unwrap();
        let policy = HebsPolicy::open_loop(config, characteristic, false);
        let outcome = policy.optimize(&test_image(), 0.15).unwrap();
        assert!(outcome.dynamic_range.is_some());
        assert!(outcome.beta <= 1.0);
        assert_eq!(outcome.policy, "hebs-open");
    }

    #[test]
    fn conservative_open_loop_dims_less_aggressively() {
        let config = PipelineConfig::default();
        let suite = [
            ("a".to_string(), synthetic::portrait(48, 48, 45)),
            ("b".to_string(), synthetic::low_key(48, 48, 46)),
            ("c".to_string(), synthetic::fine_texture(48, 48, 47)),
        ];
        let characteristic = DistortionCharacteristic::characterize(
            &config,
            suite.iter().map(|(n, i)| (n.as_str(), i)),
            &[80, 160, 240],
        )
        .unwrap();
        let average = HebsPolicy::open_loop(config.clone(), characteristic.clone(), false);
        let conservative = HebsPolicy::open_loop(config, characteristic, true);
        let img = test_image();
        let avg_outcome = average.optimize(&img, 0.10).unwrap();
        let cons_outcome = conservative.optimize(&img, 0.10).unwrap();
        assert!(cons_outcome.beta + 1e-9 >= avg_outcome.beta);
    }

    #[test]
    fn outcome_is_consistent_with_its_own_power_breakdown() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let img = test_image();
        let outcome = policy.optimize(&img, 0.10).unwrap();
        assert!((outcome.power.beta - outcome.beta).abs() < 1e-12);
        assert!(outcome.lut.is_monotone());
        assert_eq!(outcome.displayed.width(), img.width());
    }

    #[test]
    fn optimize_with_transform_matches_plain_optimize() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let img = test_image();
        let plain = policy.optimize(&img, 0.10).unwrap();
        let (outcome, transform) = policy.optimize_with_transform(&img, 0.10).unwrap();
        assert_eq!(outcome.beta, plain.beta);
        assert_eq!(outcome.distortion, plain.distortion);
        assert_eq!(outcome.lut, plain.lut);
        assert_eq!(transform.lut, plain.lut);

        // Replaying the transform on the same frame is bit-identical.
        let replayed = policy.apply_frame_transform(&img, &transform).unwrap();
        assert_eq!(replayed.beta, plain.beta);
        assert_eq!(replayed.distortion, plain.distortion);
        assert_eq!(replayed.power_saving, plain.power_saving);
        assert_eq!(replayed.displayed, plain.displayed);
        assert_eq!(replayed.lut, plain.lut);
        assert_eq!(replayed.fit_evaluations, 0, "a replay runs no fits");
    }

    #[test]
    fn replay_rejects_over_budget_transforms_cheaply() {
        let config = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        let policy = HebsPolicy::closed_loop(config);
        let img = test_image();
        let (loose, transform) = policy.optimize_with_transform(&img, 0.20).unwrap();
        assert!(loose.distortion > 0.01, "loose fit uses its budget");
        let hist = Histogram::of(&img);
        // A much stricter budget must reject the cached fit...
        let rejected = policy
            .replay_frame_transform(&img, &hist, &transform, 0.001)
            .unwrap();
        assert!(rejected.is_none());
        // ...while the original budget accepts it bit-identically.
        let accepted = policy
            .replay_frame_transform(&img, &hist, &transform, 0.20)
            .unwrap()
            .expect("fit satisfies its own budget");
        assert_eq!(accepted.distortion, loose.distortion);
        assert_eq!(accepted.displayed, loose.displayed);
    }

    #[test]
    fn a_closed_loop_search_solves_each_coarsening_once() {
        use crate::pipeline::{dp_solves_during, BlendMode};
        let img = synthetic::portrait(32, 32, 48);
        let uiqi = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        let cases = [
            ("adaptive, windowed", PipelineConfig::default(), 2),
            ("adaptive, level space", uiqi.clone(), 2),
            ("paper (pure GHE)", PipelineConfig::paper(), 1),
            (
                "linear only",
                PipelineConfig {
                    blend: BlendMode::Fixed(0.0),
                    ..uiqi
                },
                0,
            ),
        ];
        for (name, config, expected) in cases {
            let policy = HebsPolicy::closed_loop(config);
            let (outcome, solves) = dp_solves_during(|| policy.optimize(&img, 0.10).unwrap());
            assert_eq!(solves, expected, "{name}");
            // The full range plus 8 bisection steps, or the full range
            // alone when even it misses the budget.
            let full_only = outcome.fit_evaluations == 1 && outcome.dynamic_range == Some(256);
            assert!(outcome.fit_evaluations == 9 || full_only, "{name}");
        }
    }

    #[test]
    fn a_range_reached_by_the_bisection_matches_a_one_shot_fit() {
        // Kept indices do not depend on the target, so the order in which
        // a search visits ranges cannot change what a range evaluates to.
        use crate::pipeline::{evaluate_at_range_scratch, evaluate_range_from_histogram};
        let level = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        let windowed = PipelineConfig::default();
        let mut ranges = Vec::new();
        for img in [test_image(), synthetic::low_key(48, 48, 49)] {
            let hist = Histogram::of(&img);
            for budget in [0.02, 0.05, 0.10, 0.20] {
                let (outcome, transform) = HebsPolicy::closed_loop(level.clone())
                    .optimize_with_transform(&img, budget)
                    .unwrap();
                let range = outcome.dynamic_range.unwrap();
                ranges.push(range);
                let target = TargetRange::from_span(range).unwrap();
                let one_shot = evaluate_range_from_histogram(&level, &hist, target)
                    .unwrap()
                    .unwrap();
                assert_eq!(*transform, *one_shot.transform, "range {range}");
                assert_eq!(outcome.beta, one_shot.transform.beta);
                assert_eq!(outcome.distortion, one_shot.distortion);
                assert_eq!(outcome.power_saving, one_shot.power_saving);
                assert_eq!(outcome.lut, one_shot.transform.lut);

                let (outcome, _) = HebsPolicy::closed_loop(windowed.clone())
                    .optimize_with_transform(&img, budget)
                    .unwrap();
                let range = outcome.dynamic_range.unwrap();
                let target = TargetRange::from_span(range).unwrap();
                let mut scratch = FitScratch::new();
                let one_shot =
                    evaluate_at_range_scratch(&windowed, &img, &hist, target, &mut scratch)
                        .unwrap();
                assert_eq!(outcome.beta, one_shot.beta(), "range {range}");
                assert_eq!(outcome.distortion, one_shot.distortion);
                assert_eq!(outcome.power_saving, one_shot.power_saving);
                assert_eq!(outcome.lut, *one_shot.lut());
                assert_eq!(outcome.displayed, one_shot.displayed);
            }
        }
        ranges.sort_unstable();
        ranges.dedup();
        assert!(ranges.len() > 2, "the budgets reach distinct ranges");
    }

    #[test]
    fn policy_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HebsPolicy>();
        assert_send_sync::<RangeSelection>();
        assert_send_sync::<ScalingOutcome>();
        assert_send_sync::<crate::video::VideoPipeline<HebsPolicy>>();
    }

    #[test]
    fn policy_trait_is_object_safe() {
        let policy = HebsPolicy::closed_loop(PipelineConfig::default());
        let as_object: &dyn BacklightPolicy = &policy;
        assert_eq!(as_object.name(), "hebs");
    }
}
