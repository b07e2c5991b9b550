//! Order statistics for latency samples.

/// A tail percentile is only meaningful when at least this many samples lie
/// beyond it; fewer and it is an anecdote about one or two slow frames.
pub const MIN_BEYOND: usize = 10;

/// One nearest-rank percentile together with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample value at the rank.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly beyond the rank.
    pub beyond: usize,
}

impl Quantile {
    /// Whether enough samples lie beyond the rank (see [`MIN_BEYOND`]).
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank percentile of an ascending `sorted` sample, with the
/// percentile given in parts per thousand (`500` is the median, `990` the
/// p99) so the rank `⌈p·n/1000⌉` is computed exactly in integers.
///
/// Returns `None` for an empty sample or `per_mille > 1000`.
pub fn nearest_rank(sorted: &[f64], per_mille: usize) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 || per_mille > 1000 {
        return None;
    }
    let rank = ((per_mille * n).div_ceil(1000)).max(1);
    Some(Quantile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Sorts a copy of `values` ascending (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(values: &[f64], per_mille: usize) -> Option<Quantile> {
    nearest_rank(&sorted(values), per_mille)
}

/// Nearest-rank median, 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 500).map_or(0.0, |q| q.value)
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
