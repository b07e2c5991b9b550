//! Distortion characterization: the distortion-versus-dynamic-range curve.
//!
//! Section 5.1c / Figure 7 of the paper: for every benchmark image, the
//! transformed image's distortion is measured at a set of target dynamic
//! ranges; an *average* fit and a *worst-case* fit through the scatter form
//! the **distortion characteristic curve**. At run time the HEBS flow looks
//! up the minimum admissible dynamic range for the user's distortion budget
//! on this curve instead of searching per image — that is what makes the
//! hardware implementation a simple table lookup.

use std::sync::Arc;

use hebs_imaging::rng::StdRng;
use hebs_imaging::{GrayImage, Histogram, HistogramSignature, SIGNATURE_BINS};

use crate::error::{HebsError, Result};
use crate::fit::{fit_quantile_envelope, fit_upper_envelope, Polynomial};
use crate::ghe::TargetRange;
use crate::pipeline::{FitPlan, FitScratch, PipelineConfig};

/// The quantile of the [`DistortionCharacteristic`]'s envelope fit: the
/// curve covers 95% of the characterization samples, sitting between the
/// average fit (which half the images exceed) and the worst-case fit (which
/// a single outlier image can drag arbitrarily high).
pub const ENVELOPE_QUANTILE: f64 = 0.95;

/// Which of a [`DistortionCharacteristic`]'s fitted curves a lookup uses.
///
/// The trade-off is dimming aggressiveness versus drift risk: the average
/// fit dims like the typical characterized image but under-provisions half
/// of them; the worst-case fit guarantees the bound for every characterized
/// image but refuses to dim at all when the characterized set is
/// heterogeneous; the p95 [envelope](ENVELOPE_QUANTILE) is the half-step
/// between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CurveFit {
    /// The average ("entire dataset") fit of Figure 7.
    Average,
    /// The p95 quantile envelope: covers [`ENVELOPE_QUANTILE`] of the
    /// samples, so one outlier image cannot veto dimming for everyone.
    Envelope,
    /// The worst-case (upper envelope) fit of Figure 7 — the bound holds
    /// for every characterized image.
    #[default]
    WorstCase,
}

/// One measured `(dynamic range, distortion)` sample, tagged with the image
/// it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationSample {
    /// Name of the benchmark image.
    pub image: String,
    /// Target dynamic range that was evaluated.
    pub dynamic_range: u32,
    /// Measured distortion at that range.
    pub distortion: f64,
    /// Measured power saving at that range.
    pub power_saving: f64,
}

/// The fitted distortion characteristic curve.
#[derive(Debug, Clone)]
pub struct DistortionCharacteristic {
    samples: Vec<CharacterizationSample>,
    average: Polynomial,
    envelope: Polynomial,
    worst_case: Polynomial,
}

/// Default set of target dynamic ranges used for characterization (the paper
/// evaluates "ten different values" per image).
pub const DEFAULT_RANGES: [u32; 10] = [25, 50, 75, 100, 125, 150, 175, 200, 225, 250];

impl DistortionCharacteristic {
    /// Builds the characteristic by sweeping the given dynamic ranges over a
    /// set of named benchmark images.
    ///
    /// # Errors
    ///
    /// Returns [`HebsError::InsufficientData`] when fewer than three
    /// `(range, distortion)` samples could be produced, plus any error from
    /// the underlying pipeline.
    pub fn characterize<'a, I>(config: &PipelineConfig, images: I, ranges: &[u32]) -> Result<Self>
    where
        I: IntoIterator<Item = (&'a str, &'a GrayImage)>,
    {
        let mut samples = Vec::new();
        let mut scratch = FitScratch::default();
        for (name, image) in images {
            let histogram = Histogram::of(image);
            let plan = FitPlan::new(config, &histogram)?;
            for &range in ranges {
                let target = TargetRange::from_span(range)?;
                let eval = plan.evaluate_with_pixels(image, target, &mut scratch)?;
                scratch.recycle_output(eval.displayed);
                samples.push(CharacterizationSample {
                    image: name.to_string(),
                    dynamic_range: range,
                    distortion: eval.distortion,
                    power_saving: eval.power_saving,
                });
            }
        }
        Self::from_samples(samples)
    }

    /// Rebuilds the characteristic from bare histograms, entirely in the
    /// histogram domain — no frames required.
    ///
    /// This is what makes the curve *rebuildable at serving time*: a runtime
    /// that keeps a rolling sketch of recent traffic histograms can
    /// re-characterize in O(histograms × ranges × levels) without retaining
    /// a single frame. Requires a histogram-capable distortion measure (the
    /// windowed paper default needs pixels and declines).
    ///
    /// # Errors
    ///
    /// Returns [`HebsError::HistogramIncapableMeasure`] when the configured
    /// measure declines the histogram-domain evaluation path,
    /// [`HebsError::InsufficientData`] when fewer than three samples could
    /// be produced, plus any error from the underlying pipeline.
    pub fn characterize_from_histograms<'a, I>(
        config: &PipelineConfig,
        histograms: I,
        ranges: &[u32],
    ) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Histogram>,
    {
        let mut samples = Vec::new();
        for (index, histogram) in histograms.into_iter().enumerate() {
            let plan = FitPlan::new(config, histogram)?;
            for &range in ranges {
                let target = TargetRange::from_span(range)?;
                let Some(eval) = plan.evaluate(target)? else {
                    return Err(HebsError::HistogramIncapableMeasure {
                        measure: config.measure.name().to_string(),
                    });
                };
                samples.push(CharacterizationSample {
                    image: format!("sketch-{index}"),
                    dynamic_range: range,
                    distortion: eval.distortion,
                    power_saving: eval.power_saving,
                });
            }
        }
        Self::from_samples(samples)
    }

    /// Builds the characteristic from precomputed samples (used by tests and
    /// by the benchmark harness, which wants to print the raw scatter too).
    ///
    /// # Errors
    ///
    /// Returns [`HebsError::InsufficientData`] when fewer than three samples
    /// are supplied.
    pub fn from_samples(samples: Vec<CharacterizationSample>) -> Result<Self> {
        if samples.len() < 3 {
            return Err(HebsError::InsufficientData {
                samples: samples.len(),
                required: 3,
            });
        }
        let points: Vec<(f64, f64)> = samples
            .iter()
            .map(|s| (f64::from(s.dynamic_range), s.distortion))
            .collect();
        let average = Polynomial::fit(&points, 2)?;
        let envelope = fit_quantile_envelope(&points, 2, ENVELOPE_QUANTILE)?;
        let worst_case = fit_upper_envelope(&points, 2)?;
        Ok(DistortionCharacteristic {
            samples,
            average,
            envelope,
            worst_case,
        })
    }

    /// The raw `(range, distortion)` scatter the fits were built from.
    pub fn samples(&self) -> &[CharacterizationSample] {
        &self.samples
    }

    /// Predicted distortion at a given dynamic range using the average fit,
    /// clamped to `[0, 1]`.
    pub fn predicted_distortion(&self, dynamic_range: u32) -> f64 {
        self.predicted(dynamic_range, CurveFit::Average)
    }

    /// Predicted p95-envelope distortion at a given dynamic range, clamped
    /// to `[0, 1]`.
    pub fn predicted_envelope(&self, dynamic_range: u32) -> f64 {
        self.predicted(dynamic_range, CurveFit::Envelope)
    }

    /// Predicted worst-case distortion at a given dynamic range, clamped to
    /// `[0, 1]`.
    pub fn predicted_worst_case(&self, dynamic_range: u32) -> f64 {
        self.predicted(dynamic_range, CurveFit::WorstCase)
    }

    /// Predicted distortion at a given dynamic range on the selected fit,
    /// clamped to `[0, 1]`.
    pub fn predicted(&self, dynamic_range: u32, fit: CurveFit) -> f64 {
        let curve = match fit {
            CurveFit::Average => &self.average,
            CurveFit::Envelope => &self.envelope,
            CurveFit::WorstCase => &self.worst_case,
        };
        curve.evaluate(f64::from(dynamic_range)).clamp(0.0, 1.0)
    }

    /// The minimum admissible dynamic range for a distortion budget: the
    /// smallest range whose predicted distortion does not exceed
    /// `max_distortion`. With `conservative = true` the worst-case fit is
    /// used (guaranteeing the bound for every characterized image), otherwise
    /// the average fit.
    ///
    /// # Errors
    ///
    /// See [`DistortionCharacteristic::min_range_for_fit`].
    pub fn min_range_for(&self, max_distortion: f64, conservative: bool) -> Result<u32> {
        let fit = if conservative {
            CurveFit::WorstCase
        } else {
            CurveFit::Average
        };
        self.min_range_for_fit(max_distortion, fit)
    }

    /// Like [`DistortionCharacteristic::min_range_for`] with an explicit
    /// [`CurveFit`] selection.
    ///
    /// The true distortion-versus-range curve is monotone non-increasing,
    /// but a fitted quadratic can dip and then rise; a naive first-admissible
    /// scan over such a fit picks an unsafely narrow range whose dip the
    /// real curve never follows. The lookup therefore runs on the smallest
    /// monotone non-increasing *majorant* of the fit over the sampled range
    /// span: a range is admissible only if the fit stays within the budget
    /// at that range and at every wider sampled range. Beyond the widest
    /// characterized range the raw prediction is used (extrapolation-tail
    /// artifacts there must not poison the whole sampled span).
    ///
    /// # Errors
    ///
    /// Returns [`HebsError::InvalidFraction`] when `max_distortion` is
    /// outside `[0, 1]`, and [`HebsError::Infeasible`] when even the full
    /// 256-level range is predicted to exceed the budget.
    pub fn min_range_for_fit(&self, max_distortion: f64, fit: CurveFit) -> Result<u32> {
        if !(0.0..=1.0).contains(&max_distortion) || !max_distortion.is_finite() {
            return Err(HebsError::InvalidFraction {
                name: "max_distortion",
                value: max_distortion,
            });
        }
        let widest_sampled = self
            .samples
            .iter()
            .map(|s| s.dynamic_range)
            .max()
            .unwrap_or(256)
            .clamp(2, 256);
        // Scan downward, accumulating the suffix maximum of the prediction
        // over the sampled span: once it exceeds the budget, every narrower
        // range would rely on a non-monotone dip and is rejected too.
        let mut suffix_worst = f64::NEG_INFINITY;
        let mut admissible = None;
        for range in (2..=256u32).rev() {
            let predicted = self.predicted(range, fit);
            let effective = if range <= widest_sampled {
                suffix_worst = suffix_worst.max(predicted);
                suffix_worst
            } else {
                predicted
            };
            if effective <= max_distortion {
                admissible = Some(range);
            } else if range <= widest_sampled {
                break;
            }
        }
        admissible.ok_or(HebsError::Infeasible {
            max_distortion,
            best_achievable: self.predicted(256, fit),
        })
    }

    /// How far a measured distortion drifted *past* what the curve promised
    /// at this dynamic range: `measured − predicted_worst_case(range)`.
    ///
    /// A diagnostic for open-loop deployments: a positive value means the
    /// characterized traffic no longer describes the current traffic (the
    /// lookup under-provisioned the range). Note the serving runtime's own
    /// drift *fallback* triggers on the budget, not on this quantity —
    /// this method quantifies how stale a curve is, e.g. for monitoring or
    /// for tuning `RecharacterizePolicy` thresholds.
    pub fn drift(&self, dynamic_range: u32, measured: f64) -> f64 {
        measured - self.predicted_worst_case(dynamic_range)
    }

    /// The largest absolute difference between this curve's predictions and
    /// `other`'s (average, envelope and worst-case fits) over the given
    /// ranges.
    ///
    /// The serving runtime uses this to decide whether a freshly rebuilt
    /// curve is different enough to be worth *swapping in*: installing a
    /// statistically identical curve would only invalidate every
    /// generation-tagged cache entry for nothing.
    pub fn max_prediction_delta(&self, other: &Self, ranges: &[u32]) -> f64 {
        ranges
            .iter()
            .map(|&range| {
                [CurveFit::Average, CurveFit::Envelope, CurveFit::WorstCase]
                    .into_iter()
                    .map(|fit| (self.predicted(range, fit) - other.predicted(range, fit)).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max)
    }
}

/// One content class of a [`CharacteristicBank`]: the centroid of its
/// histogram-signature cluster and the distortion characteristic fitted to
/// the class's members.
#[derive(Debug, Clone)]
pub struct BankClass {
    /// Cluster centroid in (un-quantized) signature-bin space: mean mass
    /// per [`SIGNATURE_BINS`] downsampled bin, in quantization steps.
    pub centroid: [f64; SIGNATURE_BINS],
    /// The characteristic curve fitted to this class's histograms.
    pub characteristic: Arc<DistortionCharacteristic>,
    /// How many histograms the class was fitted from (diagnostic).
    pub members: usize,
}

impl BankClass {
    /// Builds a class centered exactly on a histogram signature (useful for
    /// hand-assembled banks: every frame quantizing to `signature` is
    /// nearer to this class than to any differently-shaped one).
    pub fn centered_on(
        signature: &HistogramSignature,
        characteristic: Arc<DistortionCharacteristic>,
    ) -> Self {
        let mut centroid = [0.0f64; SIGNATURE_BINS];
        for (slot, &bin) in centroid.iter_mut().zip(signature.bins()) {
            *slot = f64::from(bin);
        }
        BankClass {
            centroid,
            characteristic,
            members: 0,
        }
    }
}

/// A bank of per-class distortion characteristics, keyed by
/// histogram-signature cluster.
///
/// The single worst-case curve of the paper's flow promises its bound for
/// *every* characterized image — over heterogeneous traffic it therefore
/// refuses to dim at all (the outlier image vetoes everyone's backlight).
/// Clustering the characterization set by histogram shape and fitting one
/// curve per cluster recovers most of the per-image (closed-loop) saving at
/// open-loop lookup cost: each frame is routed to the curve of images that
/// look like it. This mirrors the brightness-preserving HE literature, which
/// partitions by histogram statistics for the same reason — one global curve
/// fits no one.
///
/// Clustering is k-means over the existing 32-bin
/// [`HistogramSignature`]s — `std`-only, deterministic (seeded by the
/// internal PRNG), a few hundred float ops per histogram.
#[derive(Debug, Clone)]
pub struct CharacteristicBank {
    classes: Vec<BankClass>,
}

impl CharacteristicBank {
    /// Builds a bank from traffic histograms: clusters their signatures into
    /// at most `classes` groups (empty clusters are dropped) and fits one
    /// characteristic per group via
    /// [`DistortionCharacteristic::characterize_from_histograms`].
    ///
    /// # Errors
    ///
    /// Returns [`HebsError::InsufficientData`] when `histograms` is empty or
    /// a class ends up with fewer than three `(range, distortion)` samples,
    /// [`HebsError::HistogramIncapableMeasure`] for measures that decline
    /// the histogram-domain path, plus any error from the pipeline.
    pub fn build(
        config: &PipelineConfig,
        histograms: &[Histogram],
        ranges: &[u32],
        classes: usize,
    ) -> Result<Self> {
        if histograms.is_empty() {
            return Err(HebsError::InsufficientData {
                samples: 0,
                required: 1,
            });
        }
        let signatures: Vec<HistogramSignature> =
            histograms.iter().map(HistogramSignature::of).collect();
        let (centroids, assignment) = cluster_signatures(&signatures, classes.max(1));
        let mut bank = Vec::with_capacity(centroids.len());
        for (class, centroid) in centroids.into_iter().enumerate() {
            let members: Vec<&Histogram> = assignment
                .iter()
                .zip(histograms)
                .filter(|(&a, _)| a == class)
                .map(|(_, h)| h)
                .collect();
            let characteristic = DistortionCharacteristic::characterize_from_histograms(
                config,
                members.iter().copied(),
                ranges,
            )?;
            bank.push(BankClass {
                centroid,
                characteristic: Arc::new(characteristic),
                members: members.len(),
            });
        }
        Self::from_classes(bank)
    }

    /// Builds a bank from preassembled classes (hand-tuned deployments,
    /// tests).
    ///
    /// # Errors
    ///
    /// Returns [`HebsError::InsufficientData`] when `classes` is empty.
    pub fn from_classes(classes: Vec<BankClass>) -> Result<Self> {
        if classes.is_empty() {
            return Err(HebsError::InsufficientData {
                samples: 0,
                required: 1,
            });
        }
        Ok(CharacteristicBank { classes })
    }

    /// The bank's classes, in classification-index order.
    pub fn classes(&self) -> &[BankClass] {
        &self.classes
    }

    /// Number of classes in the bank.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the bank has no classes (never true for a constructed bank).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The index of the class whose centroid is nearest (squared Euclidean
    /// distance in signature-bin space) to `signature`.
    pub fn classify(&self, signature: &HistogramSignature) -> usize {
        nearest_centroid(signature, self.classes.iter().map(|class| &class.centroid))
    }
}

/// The index of the centroid nearest (squared Euclidean distance in
/// signature-bin space) to `signature`, 0 when `centroids` is empty.
///
/// This is **the** routing metric of the characteristic bank: anything that
/// classifies frames against bank centroids (the bank itself, the serving
/// runtime's installed copy) must use it, or frames would be routed to a
/// different class than the one their curve was fitted on.
pub fn nearest_centroid<'a, I>(signature: &HistogramSignature, centroids: I) -> usize
where
    I: IntoIterator<Item = &'a [f64; SIGNATURE_BINS]>,
{
    let mut best = 0;
    let mut best_distance = f64::INFINITY;
    for (index, centroid) in centroids.into_iter().enumerate() {
        let distance = centroid_distance(centroid, signature);
        if distance < best_distance {
            best = index;
            best_distance = distance;
        }
    }
    best
}

/// Squared Euclidean distance between a centroid and a signature.
fn centroid_distance(centroid: &[f64; SIGNATURE_BINS], signature: &HistogramSignature) -> f64 {
    centroid
        .iter()
        .zip(signature.bins())
        .map(|(&c, &b)| {
            let d = c - f64::from(b);
            d * d
        })
        .sum()
}

/// K-means over histogram signatures: deterministic farthest-point seeding
/// (first pick by the internal PRNG with a fixed seed), a bounded number of
/// Lloyd iterations, empty clusters dropped. Returns the surviving
/// centroids and each signature's class index.
fn cluster_signatures(
    signatures: &[HistogramSignature],
    k: usize,
) -> (Vec<[f64; SIGNATURE_BINS]>, Vec<usize>) {
    let as_point = |s: &HistogramSignature| {
        let mut point = [0.0f64; SIGNATURE_BINS];
        for (slot, &bin) in point.iter_mut().zip(s.bins()) {
            *slot = f64::from(bin);
        }
        point
    };
    let distance = |a: &[f64; SIGNATURE_BINS], b: &[f64; SIGNATURE_BINS]| {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f64>()
    };
    let points: Vec<[f64; SIGNATURE_BINS]> = signatures.iter().map(as_point).collect();
    let k = k.min(points.len()).max(1);

    // Farthest-point seeding: deterministic and spread-out, which is what
    // matters for histogram shapes (the PRNG only breaks the tie of which
    // point goes first).
    let mut rng = StdRng::seed_from_u64(0x4845_4253);
    let mut centroids: Vec<[f64; SIGNATURE_BINS]> = vec![points[rng.random_range(0..points.len())]];
    while centroids.len() < k {
        let farthest = points
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let da = centroids
                    .iter()
                    .map(|c| distance(c, a))
                    .fold(f64::INFINITY, f64::min);
                let db = centroids
                    .iter()
                    .map(|c| distance(c, b))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).expect("finite distances")
            })
            .map(|(i, _)| i)
            .expect("points is non-empty");
        centroids.push(points[farthest]);
    }

    // Lloyd iterations until stable (or a small bound — signatures are
    // coarse, convergence is fast).
    let mut assignment = vec![0usize; points.len()];
    for _ in 0..25 {
        let mut changed = false;
        for (slot, point) in assignment.iter_mut().zip(&points) {
            let nearest = centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    distance(a, point)
                        .partial_cmp(&distance(b, point))
                        .expect("finite distances")
                })
                .map(|(i, _)| i)
                .expect("centroids is non-empty");
            if *slot != nearest {
                *slot = nearest;
                changed = true;
            }
        }
        let mut sums = vec![[0.0f64; SIGNATURE_BINS]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (&class, point) in assignment.iter().zip(&points) {
            counts[class] += 1;
            for (sum, &value) in sums[class].iter_mut().zip(point) {
                *sum += value;
            }
        }
        for ((centroid, sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
            if count > 0 {
                for (slot, &total) in centroid.iter_mut().zip(sum) {
                    *slot = total / count as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Drop empty clusters and compact the assignment indices.
    let mut counts = vec![0usize; centroids.len()];
    for &class in &assignment {
        counts[class] += 1;
    }
    let mut remap = vec![usize::MAX; centroids.len()];
    let mut kept = Vec::with_capacity(centroids.len());
    for (index, centroid) in centroids.into_iter().enumerate() {
        if counts[index] > 0 {
            remap[index] = kept.len();
            kept.push(centroid);
        }
    }
    for class in &mut assignment {
        *class = remap[*class];
    }
    (kept, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hebs_imaging::synthetic;

    fn tiny_suite() -> Vec<(String, GrayImage)> {
        vec![
            ("portrait".to_string(), synthetic::portrait(48, 48, 31)),
            ("landscape".to_string(), synthetic::landscape(48, 48, 32)),
            ("texture".to_string(), synthetic::fine_texture(48, 48, 33)),
        ]
    }

    fn tiny_characteristic() -> DistortionCharacteristic {
        let config = PipelineConfig::default();
        let suite = tiny_suite();
        DistortionCharacteristic::characterize(
            &config,
            suite.iter().map(|(n, i)| (n.as_str(), i)),
            &[60, 120, 180, 240],
        )
        .unwrap()
    }

    #[test]
    fn characterization_produces_samples_for_every_image_and_range() {
        let characteristic = tiny_characteristic();
        assert_eq!(characteristic.samples().len(), 3 * 4);
        assert!(characteristic
            .samples()
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.distortion)));
    }

    #[test]
    fn distortion_decreases_with_range_on_average() {
        let characteristic = tiny_characteristic();
        let at_60 = characteristic.predicted_distortion(60);
        let at_240 = characteristic.predicted_distortion(240);
        assert!(
            at_60 > at_240,
            "distortion at range 60 ({at_60}) should exceed range 240 ({at_240})"
        );
    }

    #[test]
    fn worst_case_fit_dominates_average_fit() {
        let characteristic = tiny_characteristic();
        for range in [60u32, 120, 180, 240] {
            assert!(
                characteristic.predicted_worst_case(range) + 1e-9
                    >= characteristic.predicted_distortion(range)
            );
        }
    }

    #[test]
    fn envelope_fit_sits_between_average_and_worst_case() {
        let characteristic = tiny_characteristic();
        for range in [60u32, 120, 180, 240] {
            let average = characteristic.predicted_distortion(range);
            let envelope = characteristic.predicted_envelope(range);
            let worst = characteristic.predicted_worst_case(range);
            assert!(envelope + 1e-9 >= average, "envelope below average");
            assert!(envelope <= worst + 1e-9, "envelope above worst case");
            assert_eq!(
                envelope,
                characteristic.predicted(range, CurveFit::Envelope)
            );
        }
        // The envelope lookup never dims more aggressively than the average
        // lookup nor less than the worst-case one.
        let average = characteristic
            .min_range_for_fit(0.10, CurveFit::Average)
            .unwrap_or(256);
        let envelope = characteristic
            .min_range_for_fit(0.10, CurveFit::Envelope)
            .unwrap_or(256);
        let worst = characteristic
            .min_range_for_fit(0.10, CurveFit::WorstCase)
            .unwrap_or(256);
        assert!(average <= envelope);
        assert!(envelope <= worst);
    }

    #[test]
    fn non_monotone_fits_cannot_admit_an_unsafely_narrow_range() {
        // An adversarial scatter whose quadratic fit dips mid-span and rises
        // again within the sampled ranges: a naive first-admissible scan
        // would pick a range inside the dip even though the fit itself says
        // wider sampled ranges exceed the budget.
        let samples: Vec<CharacterizationSample> = [
            (25u32, 0.50),
            (75, 0.20),
            (125, 0.05),
            (175, 0.20),
            (250, 0.50),
        ]
        .iter()
        .map(|&(range, distortion)| CharacterizationSample {
            image: format!("adv{range}"),
            dynamic_range: range,
            distortion,
            power_saving: 0.3,
        })
        .collect();
        let characteristic = DistortionCharacteristic::from_samples(samples).unwrap();
        // The fit really is non-monotone: it dips below 0.10 mid-span...
        let dip = (2..=250u32)
            .map(|r| characteristic.predicted_distortion(r))
            .fold(f64::INFINITY, f64::min);
        assert!(dip < 0.10, "the adversarial fit must dip, got {dip}");
        // ...and rises back above it at the widest sampled range.
        assert!(characteristic.predicted_distortion(250) > 0.10);
        // The monotone-clamped lookup refuses the dip instead of serving an
        // unsafely narrow range.
        assert!(matches!(
            characteristic.min_range_for(0.10, false),
            Err(HebsError::Infeasible { .. })
        ));
        // Budgets above the whole fit remain admissible at narrow ranges.
        let relaxed = characteristic.min_range_for(0.60, false).unwrap();
        assert!(relaxed < 100, "a generous budget still dims, got {relaxed}");
    }

    #[test]
    fn bank_clusters_histogram_shapes_and_routes_lookups() {
        use hebs_quality::GlobalUiqiDistortion;
        let config = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        // Two visibly different traffic shapes, several near-identical
        // members each.
        let dark: Vec<GrayImage> = (0..3).map(|s| synthetic::low_key(32, 32, s)).collect();
        let bright: Vec<GrayImage> = (0..3).map(|s| synthetic::high_key(32, 32, s)).collect();
        let histograms: Vec<Histogram> = dark.iter().chain(&bright).map(Histogram::of).collect();
        let bank =
            CharacteristicBank::build(&config, &histograms, &[60, 120, 180, 240], 2).unwrap();
        assert_eq!(bank.len(), 2, "two shapes make two classes");
        assert!(bank.classes().iter().all(|c| c.members == 3));

        // Every dark frame routes to one class, every bright frame to the
        // other.
        let dark_class = bank.classify(&HistogramSignature::of(&Histogram::of(&dark[0])));
        let bright_class = bank.classify(&HistogramSignature::of(&Histogram::of(&bright[0])));
        assert_ne!(dark_class, bright_class);
        for frame in &dark {
            let signature = HistogramSignature::of(&Histogram::of(frame));
            assert_eq!(bank.classify(&signature), dark_class);
        }
        for frame in &bright {
            let signature = HistogramSignature::of(&Histogram::of(frame));
            assert_eq!(bank.classify(&signature), bright_class);
        }

        // Per-class worst-case curves dim their own members far better than
        // the pooled worst-case curve dims anyone: the pooled curve's
        // admissible range is vetoed by the opposite shape.
        let pooled = DistortionCharacteristic::characterize_from_histograms(
            &config,
            &histograms,
            &[60, 120, 180, 240],
        )
        .unwrap();
        let budget = 0.10;
        let pooled_range = pooled.min_range_for(budget, true).unwrap_or(256);
        for class in bank.classes() {
            let class_range = class
                .characteristic
                .min_range_for(budget, true)
                .unwrap_or(256);
            assert!(
                class_range <= pooled_range,
                "class range {class_range} wider than pooled {pooled_range}"
            );
        }
    }

    #[test]
    fn degenerate_banks_collapse_gracefully() {
        use hebs_quality::GlobalUiqiDistortion;
        let config = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        // Identical histograms cannot support 4 distinct classes: the
        // duplicate centroids collapse and empty clusters are dropped.
        let histograms: Vec<Histogram> = (0..4)
            .map(|_| Histogram::of(&synthetic::portrait(32, 32, 7)))
            .collect();
        let bank =
            CharacteristicBank::build(&config, &histograms, &[60, 120, 180, 240], 4).unwrap();
        assert!(!bank.is_empty());
        let total_members: usize = bank.classes().iter().map(|c| c.members).sum();
        assert_eq!(total_members, 4, "every histogram belongs to a class");
        assert!(matches!(
            CharacteristicBank::build(&config, &[], &[60, 120], 2),
            Err(HebsError::InsufficientData { .. })
        ));
        assert!(matches!(
            CharacteristicBank::from_classes(vec![]),
            Err(HebsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn min_range_for_is_monotone_in_the_budget() {
        let characteristic = tiny_characteristic();
        let strict = characteristic.min_range_for(0.05, false).unwrap_or(256);
        let relaxed = characteristic.min_range_for(0.20, false).unwrap_or(256);
        assert!(relaxed <= strict);
    }

    #[test]
    fn conservative_lookup_requires_wider_range() {
        let characteristic = tiny_characteristic();
        let average = characteristic.min_range_for(0.10, false).unwrap_or(256);
        let conservative = characteristic.min_range_for(0.10, true).unwrap_or(256);
        assert!(conservative >= average);
    }

    #[test]
    fn invalid_budget_rejected() {
        let characteristic = tiny_characteristic();
        assert!(characteristic.min_range_for(-0.1, false).is_err());
        assert!(characteristic.min_range_for(1.5, false).is_err());
        assert!(characteristic.min_range_for(f64::NAN, false).is_err());
    }

    #[test]
    fn histogram_characterization_matches_the_pixel_path() {
        use hebs_quality::GlobalUiqiDistortion;
        // With a histogram-capable measure, rebuilding the curve from bare
        // histograms must produce the same samples as characterizing from
        // the frames they came from.
        let config = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        let suite = tiny_suite();
        let ranges = [60u32, 120, 180, 240];
        let from_frames = DistortionCharacteristic::characterize(
            &config,
            suite.iter().map(|(n, i)| (n.as_str(), i)),
            &ranges,
        )
        .unwrap();
        let histograms: Vec<Histogram> = suite.iter().map(|(_, i)| Histogram::of(i)).collect();
        let from_histograms =
            DistortionCharacteristic::characterize_from_histograms(&config, &histograms, &ranges)
                .unwrap();
        assert_eq!(from_frames.samples().len(), from_histograms.samples().len());
        for (a, b) in from_frames.samples().iter().zip(from_histograms.samples()) {
            assert_eq!(a.dynamic_range, b.dynamic_range);
            assert!((a.distortion - b.distortion).abs() <= 1e-12);
            assert!((a.power_saving - b.power_saving).abs() <= 1e-12);
        }
    }

    #[test]
    fn characterization_solves_two_coarsenings_per_histogram() {
        use crate::pipeline::dp_solves_during;
        use hebs_quality::GlobalUiqiDistortion;
        let config = PipelineConfig::default().with_measure(GlobalUiqiDistortion);
        let histograms: Vec<Histogram> =
            tiny_suite().iter().map(|(_, i)| Histogram::of(i)).collect();
        for ranges in [&[60u32, 240][..], &DEFAULT_RANGES] {
            let (curve, solves) = dp_solves_during(|| {
                DistortionCharacteristic::characterize_from_histograms(&config, &histograms, ranges)
                    .unwrap()
            });
            assert_eq!(curve.samples().len(), histograms.len() * ranges.len());
            assert_eq!(solves, 2 * 3, "independent of the {} ranges", ranges.len());
        }
        let suite = tiny_suite();
        let (_, solves) = dp_solves_during(|| {
            DistortionCharacteristic::characterize(
                &PipelineConfig::default(),
                suite.iter().map(|(n, i)| (n.as_str(), i)),
                &DEFAULT_RANGES,
            )
            .unwrap()
        });
        assert_eq!(solves, 2 * 3);
    }

    #[test]
    fn windowed_measures_decline_histogram_characterization() {
        // The paper's default HVS + SSIM measure needs pixels.
        let config = PipelineConfig::default();
        let histograms = vec![Histogram::of(&synthetic::portrait(32, 32, 3))];
        assert!(matches!(
            DistortionCharacteristic::characterize_from_histograms(
                &config,
                &histograms,
                &[120, 200]
            ),
            Err(HebsError::HistogramIncapableMeasure { .. })
        ));
    }

    #[test]
    fn prediction_delta_is_zero_against_self_and_large_against_a_liar() {
        let characteristic = tiny_characteristic();
        let ranges = [60u32, 120, 180, 240];
        assert!(characteristic.max_prediction_delta(&characteristic, &ranges) <= 1e-12);

        let lying: Vec<CharacterizationSample> = (1..=5)
            .map(|i| CharacterizationSample {
                image: format!("lie{i}"),
                dynamic_range: 40 * i,
                distortion: 0.0,
                power_saving: 0.9,
            })
            .collect();
        let liar = DistortionCharacteristic::from_samples(lying).unwrap();
        assert!(characteristic.max_prediction_delta(&liar, &ranges) > 0.01);
    }

    #[test]
    fn drift_is_positive_past_the_worst_case_prediction() {
        let characteristic = tiny_characteristic();
        let promised = characteristic.predicted_worst_case(120);
        assert!(characteristic.drift(120, promised + 0.05) > 0.04);
        assert!(characteristic.drift(120, promised) <= 1e-12);
        assert!(characteristic.drift(120, 0.0) <= 0.0);
    }

    #[test]
    fn from_samples_requires_enough_data() {
        let samples = vec![CharacterizationSample {
            image: "x".to_string(),
            dynamic_range: 100,
            distortion: 0.1,
            power_saving: 0.3,
        }];
        assert!(matches!(
            DistortionCharacteristic::from_samples(samples),
            Err(HebsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn synthetic_samples_round_trip_through_fit() {
        // Distortion that falls linearly with range: d = 0.3 − 0.001·R.
        let samples: Vec<CharacterizationSample> = (1..=10)
            .map(|i| {
                let range = 25 * i;
                CharacterizationSample {
                    image: format!("img{i}"),
                    dynamic_range: range,
                    distortion: 0.3 - 0.001 * f64::from(range),
                    power_saving: 0.5,
                }
            })
            .collect();
        let characteristic = DistortionCharacteristic::from_samples(samples).unwrap();
        // The fit should reproduce the generating line closely.
        assert!((characteristic.predicted_distortion(100) - 0.2).abs() < 0.01);
        // Inverting: distortion 0.1 needs range ≈ 200.
        let range = characteristic.min_range_for(0.1, false).unwrap();
        assert!((195..=210).contains(&range), "range {range}");
    }
}
