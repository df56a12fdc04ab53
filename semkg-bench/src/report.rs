//! Percentiles, medians, the host fingerprint and the result line.

use obs::HistogramSnapshot;

/// The value at quantile `q` of an `obs` histogram, interpolated linearly
/// inside the bucket that holds the rank.
///
/// `HistogramSnapshot::percentile` returns the bucket's upper bound, so a
/// steady metric would read the same quantised value run after run. The
/// interpolation spreads the ranks that share a bucket evenly across it;
/// the result stays inside the bucket, so the error bound of `obs`
/// (≤ 1/32 relative) still holds.
pub fn quantile(snap: &HistogramSnapshot, q: f64) -> f64 {
    let n = snap.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    // Value at a 1-based rank: the quantile `(k - 0.5) / n` ceils to `k`.
    let at = |k: u64| snap.percentile((k as f64 - 0.5) / n as f64);
    let upper = at(rank);
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at(mid) < upper {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at(mid) > upper {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let (bucket_lo, _) = obs::bucket_bounds(obs::bucket_index(upper));
    let share = (rank - first + 1) as f64 / (last - first + 1) as f64;
    bucket_lo as f64 + (upper - bucket_lo) as f64 * share
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Core count and CPU model of the host, printed with every result so
/// figures compare across machines.
pub fn host() -> (usize, String) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    (cores, model)
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in the order they were added.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Prints one `name = value unit  (note)` line per metric.
    pub fn print(&self, notes: &[(String, String)]) {
        for m in &self.0 {
            let note = notes
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, text)| format!("  ({text})"))
                .unwrap_or_default();
            println!("  {:<34} = {:>14.4} {}{note}", m.name, m.value, m.unit);
        }
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inside_the_bucket() {
        let h = obs::Histogram::detached();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        let p50 = quantile(&snap, 0.5);
        assert!((p50 - 1500.0).abs() < 1500.0 / 32.0, "{p50}");
        assert!(p50 <= snap.p50() as f64);
        assert_eq!(quantile(&snap, 1.0), 1999.0);
        assert_eq!(quantile(&obs::Histogram::detached().snapshot(), 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
