//! Order statistics over small samples.

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    v[lo] + frac * (v[(lo + 1).min(last)] - v[lo])
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

pub fn greatest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method) — the spread the acceptance procedure uses. Samples
/// of fewer than two values have no spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = median(&v);
    if n < 2 || m == 0.0 {
        return 0.0;
    }
    let at = |k: usize| {
        // Exclusive method: position k*(n+1)/4, 1-based, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(3) - at(1)).abs() / m.abs()
}

/// `(max - min) / median`.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    (greatest(values) - least(values)) / m.abs()
}
