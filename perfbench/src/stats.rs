//! Small numeric helpers shared by the workloads.

use std::ops::Range;

/// The `q` quantile of `values` by nearest rank (`q` in `[0, 1]`);
/// `0.0` for an empty slice. Sorts a copy, so callers keep order.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds a window of the run spans at least: long enough that a
/// window's p90 has ten samples beyond it on every workload (the
/// slowest makes about 60 calls a second).
pub const WINDOW_S: f64 = 2.0;

/// Cuts samples taken at `times` (seconds, ascending) into consecutive
/// windows that each span at least [`WINDOW_S`]; a shorter remainder
/// joins the window before it.
pub fn windows(times: &[f64]) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    let mut start = 0;
    for (i, &t) in times.iter().enumerate() {
        if t - times[start] >= WINDOW_S {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    match out.last_mut() {
        Some(last) => last.end = times.len(),
        None => out.push(0..times.len()),
    }
    out
}

/// The median over the windows of `times` (see [`windows`]) of
/// `per_window`, which gets each window's index range. Each window is
/// one sample of the run, so a stall or a slow stretch that spans a few
/// windows out of many leaves the figure where the rest of the run put
/// it, while a change that slows every window moves it in full.
pub fn window_median(times: &[f64], per_window: impl FnMut(Range<usize>) -> f64) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let per: Vec<f64> = windows(times).into_iter().map(per_window).collect();
    median(&per)
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn window_medians_follow_the_bulk_of_the_run() {
        // 8000 samples, 1/1024 s apart: windows of 2049, 2049 and
        // 3902 samples.
        let times: Vec<f64> = (0..8000).map(|i| f64::from(i) / 1024.0).collect();
        assert_eq!(windows(&times), vec![0..2049, 2049..4098, 4098..8000]);
        assert_eq!(windows(&times[..100]), vec![0..100]);
        // The first window slowed 9x, the other two not: the median
        // window is an unslowed one.
        let v: Vec<f64> = (0..8000)
            .map(|i| if i < 2049 { 9.0 } else { 1.0 })
            .collect();
        let p50 = |r: Range<usize>| quantile(&v[r], 0.5);
        assert_eq!(window_median(&times, p50), 1.0);
        // Two of three windows slowed: the median window is slow.
        let v: Vec<f64> = (0..8000)
            .map(|i| if i < 4098 { 9.0 } else { 1.0 })
            .collect();
        assert_eq!(window_median(&times, |r| quantile(&v[r], 0.5)), 9.0);
        assert_eq!(window_median(&[], |_| 1.0), 0.0);
        assert_eq!(window_median(&[0.5], |r| r.len() as f64), 1.0);
    }
}
