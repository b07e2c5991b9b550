//! The Global Histogram Equalization (GHE) problem solver.
//!
//! Section 4 of the paper: given the cumulative histogram `H` of the
//! original image and a target dynamic range `[g_min, g_max]`, the monotone
//! transformation that maps `H` onto the uniform cumulative histogram `U`
//! supported on `[g_min, g_max]` is (Eq. 5)
//!
//! ```text
//! Φ(x) = g_min + (g_max − g_min) · H(x) / N
//! ```
//!
//! whose discrete form (Eq. 7) accumulates the marginal histogram. The
//! result is the pixel transformation used by HEBS before piecewise-linear
//! coarsening.

use hebs_imaging::{CumulativeHistogram, GrayImage, Histogram};
use hebs_transform::{ControlPoint, PiecewiseLinear};

use crate::error::{HebsError, Result};

/// A target dynamic range for the transformed image, expressed as the
/// inclusive level band `[g_min, g_max]` on the 0–255 scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TargetRange {
    g_min: u8,
    g_max: u8,
}

impl TargetRange {
    /// Creates a target band `[g_min, g_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`HebsError::InvalidDynamicRange`] if the band spans fewer
    /// than 2 levels.
    pub fn new(g_min: u8, g_max: u8) -> Result<Self> {
        if g_max <= g_min {
            return Err(HebsError::InvalidDynamicRange {
                range: u32::from(g_max.saturating_sub(g_min)) + 1,
            });
        }
        Ok(TargetRange { g_min, g_max })
    }

    /// The band `[0, range − 1]`: compress towards black, which maximizes
    /// the admissible backlight dimming (the brightest transformed level is
    /// `range − 1`, so the backlight only needs to reach that luminance).
    ///
    /// # Errors
    ///
    /// Returns [`HebsError::InvalidDynamicRange`] unless `2 ≤ range ≤ 256`.
    pub fn from_span(range: u32) -> Result<Self> {
        if !(2..=256).contains(&range) {
            return Err(HebsError::InvalidDynamicRange { range });
        }
        Ok(TargetRange {
            g_min: 0,
            g_max: (range - 1) as u8,
        })
    }

    /// Lower edge of the band.
    pub fn g_min(&self) -> u8 {
        self.g_min
    }

    /// Upper edge of the band.
    pub fn g_max(&self) -> u8 {
        self.g_max
    }

    /// Number of levels spanned by the band.
    pub fn span(&self) -> u32 {
        u32::from(self.g_max) - u32::from(self.g_min) + 1
    }

    /// The backlight scaling factor naturally associated with this band:
    /// the brightest transformed level over the full scale,
    /// `β = g_max / 255`.
    ///
    /// Dimming below this would make the brightest transformed pixel darker
    /// than intended even at full transmittance.
    pub fn backlight_factor(&self) -> f64 {
        f64::from(self.g_max).max(1.0) / 255.0
    }
}

/// Solution of the GHE problem for one image histogram and target range.
#[derive(Debug, Clone, PartialEq)]
pub struct GheSolution {
    /// The exact transformation `Φ` (one control point per grayscale level).
    pub transform: PiecewiseLinear,
    /// The target range the transformation maps onto.
    pub target: TargetRange,
    /// Residual equalization error: the normalized L1 difference between the
    /// transformed image's cumulative histogram and the ideal uniform
    /// cumulative histogram (the objective of Eq. 4).
    pub equalization_error: f64,
}

/// Solves the GHE problem for an image histogram.
///
/// The returned transformation has one control point per grayscale level
/// (256 points, 255 segments) and is exactly the discrete map of Eq. 7:
/// level `x` maps to `g_min + (g_max − g_min) · H(x)/N`.
///
/// # Errors
///
/// Currently infallible for valid [`TargetRange`] values; the `Result`
/// return type leaves room for stricter validation.
///
/// # Examples
///
/// ```
/// use hebs_core::ghe::{equalize, TargetRange};
/// use hebs_imaging::{GrayImage, Histogram};
/// use hebs_transform::PixelTransform;
///
/// let image = GrayImage::from_fn(64, 64, |x, _| (x * 4) as u8);
/// let hist = Histogram::of(&image);
/// let solution = equalize(&hist, TargetRange::from_span(128)?)?;
/// // The brightest level maps to the top of the target band.
/// assert!((solution.transform.evaluate(1.0) - 127.0 / 255.0).abs() < 1e-9);
/// # Ok::<(), hebs_core::HebsError>(())
/// ```
pub fn equalize(histogram: &Histogram, target: TargetRange) -> Result<GheSolution> {
    let transform = ghe_curve(&normalized_cdf(histogram), target)?;

    // Residual objective of Eq. 4: compare the histogram of the transformed
    // levels with the ideal uniform target.
    let transformed_hist = transformed_histogram(histogram, &transform);
    let target_cum =
        CumulativeHistogram::uniform_target(histogram.total(), target.g_min(), target.g_max());
    let equalization_error = transformed_hist
        .cumulative()
        .equalization_error(&target_cum)
        / 256.0;

    Ok(GheSolution {
        transform,
        target,
        equalization_error,
    })
}

/// The normalized cumulative histogram `H(x)/N` of every level (all zero
/// for an empty histogram).
pub(crate) fn normalized_cdf(histogram: &Histogram) -> [f64; 256] {
    let n = histogram.total().max(1) as f64;
    let cumulative = histogram.cumulative();
    let mut cdf = [0.0f64; 256];
    for (level, slot) in (0..=255u8).zip(cdf.iter_mut()) {
        *slot = cumulative.up_to(level) as f64 / n;
    }
    cdf
}

/// The exact GHE transformation of Eq. 7 for a normalized CDF: level `x`
/// maps to `g_min + (g_max − g_min) · H(x)/N`, one control point per level.
pub(crate) fn ghe_curve(cdf: &[f64; 256], target: TargetRange) -> Result<PiecewiseLinear> {
    let lo = f64::from(target.g_min()) / 255.0;
    let hi = f64::from(target.g_max()) / 255.0;
    let span = hi - lo;
    let points = (0..=255u8)
        .zip(cdf)
        .map(|(level, &h)| {
            let x = f64::from(level) / 255.0;
            ControlPoint::new(x, (lo + span * h).clamp(0.0, 1.0))
        })
        .collect();
    // Enforce the monotone, strictly-increasing-abscissa invariant; the
    // ordinates from a CDF are non-decreasing by construction.
    Ok(PiecewiseLinear::new(points)?)
}

/// Applies a GHE solution to an image, producing the range-compressed image
/// `F' = Φ(F)`.
pub fn apply(solution: &GheSolution, image: &GrayImage) -> GrayImage {
    use hebs_transform::PixelTransform;
    solution.transform.to_lut().apply(image)
}

/// Histogram of the levels an image with histogram `histogram` would have
/// after being pushed through `transform` (without materializing an image).
pub fn transformed_histogram(histogram: &Histogram, transform: &PiecewiseLinear) -> Histogram {
    use hebs_transform::PixelTransform;
    let lut = transform.to_lut();
    let mut counts = [0u64; 256];
    for level in 0..=255u16 {
        let count = histogram.count(level as u8);
        if count > 0 {
            counts[lut.map(level as u8) as usize] += count;
        }
    }
    Histogram::from_counts(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hebs_imaging::synthetic;
    use hebs_transform::PixelTransform;

    #[test]
    fn target_range_validation() {
        assert!(TargetRange::new(10, 10).is_err());
        assert!(TargetRange::new(20, 10).is_err());
        assert!(TargetRange::new(0, 255).is_ok());
        assert!(TargetRange::from_span(1).is_err());
        assert!(TargetRange::from_span(257).is_err());
        let r = TargetRange::from_span(100).unwrap();
        assert_eq!(r.g_min(), 0);
        assert_eq!(r.g_max(), 99);
        assert_eq!(r.span(), 100);
        assert!((r.backlight_factor() - 99.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn full_range_equalization_of_a_ramp_is_identity() {
        // A full ramp already has a uniform histogram: equalizing it onto the
        // full range should leave it (nearly) unchanged.
        let ramp = GrayImage::from_fn(256, 4, |x, _| x as u8);
        let hist = Histogram::of(&ramp);
        let solution = equalize(&hist, TargetRange::new(0, 255).unwrap()).unwrap();
        for level in [0u8, 64, 128, 200, 255] {
            let x = f64::from(level) / 255.0;
            let y = solution.transform.evaluate(x);
            assert!((y - x).abs() < 0.01, "level {level}: {y} vs {x}");
        }
        assert!(solution.equalization_error < 0.02);
    }

    #[test]
    fn equalization_compresses_to_target_range() {
        let img = synthetic::portrait(96, 96, 5);
        let hist = Histogram::of(&img);
        let target = TargetRange::from_span(120).unwrap();
        let solution = equalize(&hist, target).unwrap();
        let compressed = apply(&solution, &img);
        assert!(u32::from(compressed.max_level()) <= target.span());
        assert!(compressed.min_level() <= 5);
    }

    #[test]
    fn transformed_histogram_is_flatter_than_original() {
        // Equalization should reduce the distance to the uniform target
        // compared with simple linear compression.
        let img = synthetic::low_key(96, 96, 9);
        let hist = Histogram::of(&img);
        let target = TargetRange::from_span(128).unwrap();
        let ghe = equalize(&hist, target).unwrap();

        // Linear compression onto the same range for comparison.
        let linear = PiecewiseLinear::new(vec![
            ControlPoint::new(0.0, 0.0),
            ControlPoint::new(1.0, f64::from(target.g_max()) / 255.0),
        ])
        .unwrap();
        let uniform =
            CumulativeHistogram::uniform_target(hist.total(), target.g_min(), target.g_max());
        let ghe_error = transformed_histogram(&hist, &ghe.transform)
            .cumulative()
            .equalization_error(&uniform);
        let linear_error = transformed_histogram(&hist, &linear)
            .cumulative()
            .equalization_error(&uniform);
        assert!(
            ghe_error < linear_error,
            "GHE error {ghe_error} not below linear compression error {linear_error}"
        );
    }

    #[test]
    fn equalized_output_spans_the_band_endpoints() {
        let img = synthetic::still_life(64, 64, 3);
        let hist = Histogram::of(&img);
        let target = TargetRange::new(0, 199).unwrap();
        let solution = equalize(&hist, target).unwrap();
        // The darkest original level maps near g_min and the brightest near
        // g_max (H ranges from ~0 to N).
        assert!(solution.transform.evaluate(0.0) <= 0.05);
        assert!((solution.transform.evaluate(1.0) - 199.0 / 255.0).abs() < 1e-9);
    }

    #[test]
    fn transform_is_monotone_for_arbitrary_histograms() {
        for seed in 0..5u64 {
            let img = synthetic::fine_texture(48, 48, seed);
            let hist = Histogram::of(&img);
            let solution = equalize(&hist, TargetRange::from_span(64).unwrap()).unwrap();
            assert!(solution.transform.to_lut().is_monotone());
        }
    }

    #[test]
    fn constant_image_maps_all_pixels_to_band_top() {
        // For a constant image H(x) jumps from 0 to N at the single level:
        // that level (and everything above) maps to g_max.
        let img = GrayImage::filled(16, 16, 77);
        let hist = Histogram::of(&img);
        let target = TargetRange::from_span(100).unwrap();
        let solution = equalize(&hist, target).unwrap();
        let out = apply(&solution, &img);
        assert_eq!(out.get(0, 0), Some(99));
    }

    #[test]
    fn empty_histogram_does_not_panic() {
        let hist = Histogram::new();
        let solution = equalize(&hist, TargetRange::from_span(64).unwrap()).unwrap();
        assert!(solution.transform.to_lut().is_monotone());
    }

    #[test]
    fn smaller_target_range_means_dimmer_backlight() {
        let wide = TargetRange::from_span(220).unwrap();
        let narrow = TargetRange::from_span(100).unwrap();
        assert!(narrow.backlight_factor() < wide.backlight_factor());
    }
}
