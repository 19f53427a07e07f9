//! Summary statistics over timing samples.
//!
//! A latency percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it: a p99 over 200 samples is the second-largest
//! sample, which says more about one stall than about the distribution.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples unsorted");
    let n = sorted.len();
    // Nearest rank: the smallest rank r with r / n >= q (1-based).
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts nanosecond `samples_ns` and returns their [`percentile`] in µs.
pub fn percentile_us(samples_ns: &mut [u64], q: f64) -> Option<f64> {
    samples_ns.sort_unstable();
    percentile(samples_ns, q).map(|ns| ns as f64 / 1e3)
}

/// One line describing nanosecond samples in µs: count, mean, and every
/// percentile of p50, p90, p99, p99.9 the sample supports, and the max.
pub fn describe_us(samples_ns: &[u64]) -> String {
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    let mean = v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3;
    let mut out = format!("n {} mean {mean:.2}", v.len());
    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)] {
        if let Some(ns) = percentile(&v, q) {
            out.push_str(&format!(" {label} {:.2}", ns as f64 / 1e3));
        }
    }
    if let Some(max) = v.last() {
        out.push_str(&format!(" max {:.2}", *max as f64 / 1e3));
    }
    out + " us"
}

/// The median of a handful of repeated whole measurements (set-up times,
/// restarts): the middle value, or the mean of the two middle ones. Not a
/// distribution percentile, so no minimum count beyond one.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Timed events of one measured phase, cut into whole slices of equal
/// length so that a short stall (a preempted virtual CPU, say) moves one
/// slice's figures rather than the whole run's: throughput and latency
/// percentiles are reported as medians over the slices.
#[derive(Debug, Clone)]
pub struct Slices {
    slice_s: f64,
    /// Latencies (ns) of the events that ended in each whole slice.
    slices: Vec<Vec<u64>>,
}

impl Slices {
    /// Slices `events` — `(end, latency)` pairs, `end` in ns since the
    /// phase began — of a phase that lasted `phase_ns`, into whole
    /// slices of `slice_ns`; events in the trailing partial slice are
    /// dropped.
    pub fn new(
        events: impl IntoIterator<Item = (u64, u64)>,
        phase_ns: u64,
        slice_ns: u64,
    ) -> Slices {
        assert!(slice_ns > 0, "slice length must be positive");
        let mut slices = vec![Vec::new(); (phase_ns / slice_ns) as usize];
        for (end, lat) in events {
            if let Some(s) = slices.get_mut((end / slice_ns) as usize) {
                s.push(lat);
            }
        }
        for s in &mut slices {
            s.sort_unstable();
        }
        Slices {
            slice_s: slice_ns as f64 / 1e9,
            slices,
        }
    }

    /// Whole slices in the phase.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether the phase was shorter than one slice.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Median over slices of events completed per second.
    pub fn rate_per_s(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.len() as f64 / self.slice_s)
            .collect();
        median(&rates)
    }

    /// Median over slices of each slice's `q`-quantile latency in µs,
    /// or `None` unless every slice supports the quantile.
    pub fn percentile_us(&self, q: f64) -> Option<f64> {
        let per_slice: Option<Vec<f64>> = self
            .slices
            .iter()
            .map(|s| percentile(s, q).map(|ns| ns as f64 / 1e3))
            .collect();
        median(&per_slice?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // Rank 990 leaves exactly ten samples (991..=1000) beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None, "only nine beyond rank 990");
        assert_eq!(percentile(&v, 0.5), Some(500));
    }

    #[test]
    fn median_percentile_needs_twenty_samples() {
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_us_sorts_first() {
        let mut ns: Vec<u64> = (0..100).rev().map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&mut ns, 0.5), Some(49.0));
        assert_eq!(percentile_us(&mut ns, 0.95), None);
    }

    #[test]
    fn slices_report_medians_over_whole_slices() {
        // Three whole 1000 ns slices (the fourth is partial and dropped):
        // 40, 20 and 30 events with latencies 1..=n.
        let mut events = Vec::new();
        for (slice, n) in [(0u64, 40u64), (1, 20), (2, 30), (3, 50)] {
            events.extend((1..=n).map(|i| (slice * 1000 + i, i)));
        }
        let s = Slices::new(events, 3500, 1000);
        assert_eq!(s.len(), 3);
        assert_eq!(s.rate_per_s(), Some(30.0 * 1e6));
        // Per-slice medians 20, 10, 15 ns.
        assert_eq!(s.percentile_us(0.5), Some(0.015));
        // The 20-event slice cannot support a p90 (only 2 beyond).
        assert_eq!(s.percentile_us(0.9), None);
        assert!(Slices::new(Vec::new(), 999, 1000).is_empty());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
