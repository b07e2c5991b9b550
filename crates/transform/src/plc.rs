//! Piecewise Linear Coarsening (PLC).
//!
//! The exact GHE transformation has up to `O(|G|)` linear segments — far too
//! many for the reference-voltage hardware, which only offers `k`
//! controllable voltage sources. The PLC problem (Section 4.1 of the paper)
//! asks for the best approximation of the exact curve by a piecewise-linear
//! curve with a given, small number of segments `m`, where the endpoints of
//! the coarse segments must be a subset of the endpoints of the exact curve
//! and the mean squared error between the two curves is minimized.
//!
//! The dynamic program below implements the recurrence of Eq. 9:
//!
//! ```text
//! E(n, m) = min_{j}  E(j, m − 1) + e(j)
//! ```
//!
//! where `e(j)` is the squared error incurred by replacing all exact
//! segments between point `j` and point `n` with the single chord from `j`
//! to `n`. The implementation runs in `O(m·n²)` time after an `O(n²)`
//! chord-error precomputation, matching the complexity stated in the paper.
//! All tables are flat buffers (one allocation each), and the program
//! relaxes forward from each chord start, so its inner loop walks one
//! contiguous row of the start-major chord table.
//!
//! # Affine invariance
//!
//! The objective only measures vertical deviations from chords. Mapping
//! every ordinate through `y ↦ a + b·y` (with `b > 0`) leaves the
//! abscissas alone and scales every deviation by `b`, so every chord error,
//! and with it every candidate solution's total, scales by `b²`: the
//! optimal kept indices are the same for both curves. HEBS relies on this.
//! The requested curve of Eq. 7 is `g_min + span·shape(x)` with a shape
//! that does not depend on the target range, so the kept indices solved
//! once on the unit-span shape ([`optimal_kept_indices`]) serve every
//! target range of the same histogram. In floating point, exact ties can
//! resolve differently between the two scalings; the alternatives then
//! have the same error to rounding.

use std::ops::Index;

use crate::error::{Result, TransformError};
use crate::piecewise::{ControlPoint, PiecewiseLinear};

/// Outcome of a coarsening run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseningResult {
    /// The coarse curve `Λ` with at most the requested number of segments.
    pub curve: PiecewiseLinear,
    /// Indices into the original control-point list that were kept.
    pub kept_indices: Vec<usize>,
    /// Total squared error between the kept chords and the skipped original
    /// control points (the DP objective).
    pub squared_error: f64,
}

impl CoarseningResult {
    /// Mean squared error per original control point.
    pub fn mse(&self, original_point_count: usize) -> f64 {
        if original_point_count == 0 {
            0.0
        } else {
            self.squared_error / original_point_count as f64
        }
    }
}

/// Approximates `curve` by a piecewise-linear curve with at most
/// `max_segments` segments using dynamic programming.
///
/// The first and last control points of the input are always kept, so the
/// coarse curve covers the same input range and hits the same extreme output
/// values — exactly what the reference-voltage ladder needs.
///
/// # Errors
///
/// Returns [`TransformError::InvalidSegmentCount`] when `max_segments` is 0.
///
/// # Examples
///
/// ```
/// use hebs_transform::{coarsen, PiecewiseLinear, PixelTransform};
///
/// let exact = PiecewiseLinear::from_samples(256, |x| x.sqrt());
/// let coarse = coarsen(&exact, 6)?;
/// assert!(coarse.curve.segment_count() <= 6);
/// // The coarse curve still tracks the exact curve closely.
/// assert!(exact.mse_against(&coarse.curve, 512) < 1e-3);
/// # Ok::<(), hebs_transform::TransformError>(())
/// ```
pub fn coarsen(curve: &PiecewiseLinear, max_segments: usize) -> Result<CoarseningResult> {
    let points = curve.points();
    let (kept, squared_error) = optimal_kept_indices(points, max_segments)?;
    Ok(CoarseningResult {
        curve: PiecewiseLinear::new(kept.iter().map(|&i| points[i]).collect())?,
        kept_indices: kept,
        squared_error,
    })
}

/// The dynamic program behind [`coarsen`]: the indices of the control
/// points an optimal coarsening to at most `max_segments` segments keeps
/// (first and last always included, ascending), and its total squared
/// error.
///
/// This is the entry point for callers that coarsen many affinely related
/// curves: solve once and take each curve's points at the returned indices
/// (see the module docs on affine invariance). When `max_segments` already
/// covers every segment, all indices are kept with zero error.
///
/// # Errors
///
/// Returns [`TransformError::InvalidSegmentCount`] when `max_segments` is 0.
pub fn optimal_kept_indices(
    points: &[ControlPoint],
    max_segments: usize,
) -> Result<(Vec<usize>, f64)> {
    let n = points.len();
    if max_segments == 0 {
        return Err(TransformError::InvalidSegmentCount {
            requested: max_segments,
            available: n.saturating_sub(1),
        });
    }
    if max_segments >= n.saturating_sub(1) {
        return Ok(((0..n).collect(), 0.0));
    }

    let chord_error = chord_errors(points);

    // dp[s·n + j] = minimum error of approximating points 0..=j with s
    // segments that end exactly at point j; parent[s·n + j] is the start of
    // that last segment.
    let mut dp = vec![f64::INFINITY; (max_segments + 1) * n];
    let mut parent = vec![0usize; (max_segments + 1) * n];
    dp[0] = 0.0;
    for s in 1..=max_segments {
        let (done, rest) = dp.split_at_mut(s * n);
        let previous = &done[(s - 1) * n..];
        let row = &mut rest[..n];
        let parents = &mut parent[s * n..(s + 1) * n];
        // Relax every chord i → j forward from its start. Starts ascend and
        // only a strictly smaller cost replaces the incumbent, so each end
        // keeps the smallest optimal start, as a per-end scan would.
        for i in (s - 1)..(n - 1) {
            let base = previous[i];
            if !base.is_finite() {
                continue;
            }
            let ends = row[i + 1..].iter_mut().zip(&mut parents[i + 1..]);
            for ((best, from), &error) in ends.zip(&chord_error[i][i + 1..]) {
                let cost = base + error;
                let better = cost < *best;
                *best = if better { cost } else { *best };
                *from = if better { i } else { *from };
            }
        }
    }

    // The best solution may use fewer than max_segments segments.
    let mut best_s = 1;
    let mut best_err = dp[n + n - 1];
    for s in 2..=max_segments {
        let err = dp[s * n + n - 1];
        if err < best_err {
            best_err = err;
            best_s = s;
        }
    }

    // Backtrack the kept indices.
    let mut kept = vec![0usize; best_s + 1];
    let mut j = n - 1;
    for s in (1..=best_s).rev() {
        kept[s] = j;
        j = parent[s * n + j];
    }
    debug_assert_eq!(j, 0);
    Ok((kept, best_err))
}

/// Squared chord errors in one flat, start-major `n × n` buffer:
/// `errors[i][j]` is the error of the chord from point `i` to point `j`
/// (zero unless `i + 1 < j`).
struct ChordErrors {
    n: usize,
    errors: Vec<f64>,
}

impl Index<usize> for ChordErrors {
    type Output = [f64];

    /// Row `start`: the errors of every chord beginning at that point.
    fn index(&self, start: usize) -> &[f64] {
        &self.errors[start * self.n..(start + 1) * self.n]
    }
}

/// Precomputes, for every pair `i < j`, the squared error of replacing the
/// original points strictly between `i` and `j` with the chord `i → j`.
///
/// Runs in O(n²) (the complexity the DP above assumes): the deviation of an
/// interior point from the chord is `Δy − s·Δx` with `Δx`, `Δy` measured
/// from the chord start and `s` the chord slope, so its square expands into
/// `Δy² − 2s·ΔxΔy + s²Δx²`. For a fixed start the three sums over interior
/// points grow by one term as the chord end advances, making each pair O(1)
/// instead of O(n).
fn chord_errors(points: &[ControlPoint]) -> ChordErrors {
    let n = points.len();
    let mut errors = vec![0.0f64; n * n];
    for (i, row) in errors.chunks_exact_mut(n.max(1)).enumerate() {
        let a = points[i];
        let (mut sum_dy2, mut sum_dxdy, mut sum_dx2) = (0.0f64, 0.0f64, 0.0f64);
        for j in (i + 2)..n {
            // Point j−1 was the previous chord end and is now interior.
            let p = points[j - 1];
            let dx = p.x - a.x;
            let dy = p.y - a.y;
            sum_dy2 += dy * dy;
            sum_dxdy += dx * dy;
            sum_dx2 += dx * dx;
            let b = points[j];
            let slope = (b.y - a.y) / (b.x - a.x);
            row[j] = (sum_dy2 - 2.0 * slope * sum_dxdy + slope * slope * sum_dx2).max(0.0);
        }
    }
    ChordErrors { n, errors }
}

#[cfg(test)]
mod tests_chord_errors {
    use super::*;

    /// The O(n³) reference the fast precomputation must agree with.
    fn naive_chord_errors(points: &[ControlPoint]) -> Vec<Vec<f64>> {
        let n = points.len();
        let mut errors = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let a = points[i];
                let b = points[j];
                let dx = b.x - a.x;
                let mut sum = 0.0;
                for p in &points[i + 1..j] {
                    let t = (p.x - a.x) / dx;
                    let chord_y = a.y + t * (b.y - a.y);
                    let d = p.y - chord_y;
                    sum += d * d;
                }
                errors[i][j] = sum;
            }
        }
        errors
    }

    #[test]
    fn incremental_chord_errors_match_the_naive_sum() {
        let curve = PiecewiseLinear::from_samples(48, |x| (x * 2.2).sin().abs() * 0.5 + x * 0.4);
        let points = curve.points();
        let fast = chord_errors(points);
        let slow = naive_chord_errors(points);
        for i in 0..points.len() {
            for j in 0..points.len() {
                assert!(
                    (fast[i][j] - slow[i][j]).abs() < 1e-9,
                    "chord ({i}, {j}): fast {} vs naive {}",
                    fast[i][j],
                    slow[i][j]
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::PixelTransform;

    #[test]
    fn coarsening_a_line_is_exact_with_one_segment() {
        let exact = PiecewiseLinear::from_samples(64, |x| x);
        let result = coarsen(&exact, 1).unwrap();
        assert_eq!(result.curve.segment_count(), 1);
        assert!(result.squared_error < 1e-18);
        assert!(exact.mse_against(&result.curve, 256) < 1e-18);
    }

    #[test]
    fn coarsening_keeps_endpoints() {
        let exact = PiecewiseLinear::from_samples(100, |x| x.powf(0.3));
        let result = coarsen(&exact, 5).unwrap();
        let pts = result.curve.points();
        assert_eq!(pts[0].x, 0.0);
        assert_eq!(pts[pts.len() - 1].x, 1.0);
        assert_eq!(result.kept_indices[0], 0);
        assert_eq!(*result.kept_indices.last().unwrap(), 99);
    }

    #[test]
    fn more_segments_never_increase_error() {
        let exact = PiecewiseLinear::from_samples(80, |x| x * x);
        let mut previous = f64::INFINITY;
        for m in 1..=10 {
            let result = coarsen(&exact, m).unwrap();
            assert!(
                result.squared_error <= previous + 1e-12,
                "error increased going to {m} segments"
            );
            previous = result.squared_error;
        }
    }

    #[test]
    fn requesting_enough_segments_returns_original() {
        let exact = PiecewiseLinear::from_samples(16, |x| x.sqrt());
        let result = coarsen(&exact, 15).unwrap();
        assert_eq!(result.curve, exact);
        assert_eq!(result.squared_error, 0.0);
        let more = coarsen(&exact, 100).unwrap();
        assert_eq!(more.curve, exact);
    }

    #[test]
    fn zero_segments_is_rejected() {
        let exact = PiecewiseLinear::identity();
        assert!(matches!(
            coarsen(&exact, 0),
            Err(TransformError::InvalidSegmentCount { requested: 0, .. })
        ));
    }

    #[test]
    fn coarse_curve_has_at_most_requested_segments() {
        let exact = PiecewiseLinear::from_samples(200, |x| (x * 6.0).sin().abs() * 0.3 + x * 0.7);
        for m in [2usize, 4, 8, 12] {
            let result = coarsen(&exact, m).unwrap();
            assert!(result.curve.segment_count() <= m);
        }
    }

    #[test]
    fn coarsening_a_step_like_curve_places_breakpoint_at_the_step() {
        // A curve that is flat, then rises steeply, then is flat again: the
        // two interior breakpoints should land near the corners of the step.
        let exact = PiecewiseLinear::from_samples(101, |x| {
            if x < 0.45 {
                0.0
            } else if x > 0.55 {
                1.0
            } else {
                (x - 0.45) / 0.10
            }
        });
        let result = coarsen(&exact, 3).unwrap();
        let xs: Vec<f64> = result.curve.points().iter().map(|p| p.x).collect();
        assert!(xs.iter().any(|&x| (x - 0.45).abs() < 0.03));
        assert!(xs.iter().any(|&x| (x - 0.55).abs() < 0.03));
        assert!(result.squared_error < 1e-3);
    }

    #[test]
    fn dp_error_matches_recomputed_error() {
        let exact = PiecewiseLinear::from_samples(60, |x| x.powf(2.5));
        let result = coarsen(&exact, 4).unwrap();
        // Recompute the objective directly from the kept indices.
        let pts = exact.points();
        let mut recomputed = 0.0;
        for w in result.kept_indices.windows(2) {
            let (i, j) = (w[0], w[1]);
            let a = pts[i];
            let b = pts[j];
            for p in &pts[i + 1..j] {
                let t = (p.x - a.x) / (b.x - a.x);
                let chord = a.y + t * (b.y - a.y);
                recomputed += (p.y - chord) * (p.y - chord);
            }
        }
        assert!((recomputed - result.squared_error).abs() < 1e-12);
    }

    #[test]
    fn mse_normalization() {
        let exact = PiecewiseLinear::from_samples(50, |x| x.sqrt());
        let result = coarsen(&exact, 3).unwrap();
        assert!((result.mse(50) - result.squared_error / 50.0).abs() < 1e-15);
        assert_eq!(result.mse(0), 0.0);
    }

    #[test]
    fn coarse_curve_is_monotone_and_valid_transform() {
        let exact = PiecewiseLinear::from_samples(128, |x| 0.2 + 0.8 * x.powf(0.5));
        let result = coarsen(&exact, 6).unwrap();
        assert!(result.curve.to_lut().is_monotone());
        assert!(result.curve.evaluate(0.5) >= result.curve.evaluate(0.4));
    }
}
