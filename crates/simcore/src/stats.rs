//! Measurement primitives: rate meters, histograms, and busy meters.
//!
//! The experiment harnesses use these to produce exactly the quantities the
//! paper plots: throughput in Gb/s, memory bandwidth in Gb/s or GB/s, CPU
//! utilization in cores, and latency averages/percentiles.

use crate::time::{Dur, Time};

/// A monotonically increasing byte/event counter with a start timestamp, from
/// which mean rates over a window can be computed.
#[derive(Debug, Clone, Default)]
pub struct RateMeter {
    total: u64,
    events: u64,
}

impl RateMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `amount` units observed at `_now`.
    pub fn record(&mut self, _now: Time, amount: u64) {
        self.total += amount;
        self.events += 1;
    }

    /// Total units recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of record events.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Mean rate in units/second over the window `[from, to]`.
    ///
    /// Returns 0.0 for an empty or inverted window.
    pub fn rate(&self, from: Time, to: Time) -> f64 {
        let secs = to.since(from).as_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.total as f64 / secs
        }
    }
}

/// Converts a byte rate (bytes/second) to gigabits/second as plotted in the
/// paper's throughput figures.
pub fn bytes_per_sec_to_gbps(rate: f64) -> f64 {
    rate * 8.0 / 1e9
}

/// Converts a byte rate (bytes/second) to gigabytes/second (Figure 10's
/// memory-bandwidth axis).
pub fn bytes_per_sec_to_gigabytes(rate: f64) -> f64 {
    rate / 1e9
}

/// A latency histogram backed by the raw samples.
///
/// Experiments collect at most tens of thousands of round-trip samples, so
/// storing them exactly (rather than bucketing) is cheap and gives exact
/// percentiles.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<Dur>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: Dur) {
        self.samples.push(d);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<Dur> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|d| d.as_ps() as u128).sum();
        Some(Dur::from_ps((sum / self.samples.len() as u128) as u64))
    }

    /// The `p`-th percentile (0.0 ≤ p ≤ 100.0) by nearest-rank, or `None` if
    /// empty.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<Dur> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        Some(self.samples[rank.min(n) - 1])
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<Dur> {
        self.samples.iter().copied().min()
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<Dur> {
        self.samples.iter().copied().max()
    }
}

/// Tracks how busy a core (or any binary-occupancy resource) was, yielding
/// utilization in fractional "cores" like the paper's CPU-utilization panels.
#[derive(Debug, Clone, Default)]
pub struct BusyMeter {
    busy: Dur,
}

impl BusyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the resource was busy for `d`.
    pub fn add_busy(&mut self, d: Dur) {
        self.busy += d;
    }

    /// Utilization in `[0, ..]` over `[from, to]` — can exceed 1.0 when used
    /// to aggregate several cores.
    pub fn utilization(&self, from: Time, to: Time) -> f64 {
        let span = to.since(from).as_secs();
        if span <= 0.0 {
            0.0
        } else {
            self.busy.as_secs() / span
        }
    }

    /// Resets accumulated busy time.
    pub fn reset(&mut self) {
        self.busy = Dur::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn rate_meter_basic() {
        let mut m = RateMeter::new();
        m.record(Time::ZERO, 500);
        m.record(Time::from_ms(1), 500);
        assert_eq!(m.total(), 1000);
        assert_eq!(m.events(), 2);
        // 1000 bytes over 1 ms = 1 MB/s.
        assert!((m.rate(Time::ZERO, Time::from_ms(1)) - 1e6).abs() < 1.0);
    }

    #[test]
    fn rate_meter_empty_window() {
        let m = RateMeter::new();
        assert_eq!(m.rate(Time::from_ms(2), Time::from_ms(1)), 0.0);
        assert_eq!(m.rate(Time::ZERO, Time::ZERO), 0.0);
    }

    #[test]
    fn unit_conversions() {
        assert!((bytes_per_sec_to_gbps(12_500_000_000.0) - 100.0).abs() < 1e-9);
        assert!((bytes_per_sec_to_gigabytes(2e9) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_mean_and_percentiles() {
        let mut h = Histogram::new();
        for ns in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(Dur::from_ns(ns));
        }
        assert_eq!(h.mean().unwrap(), Dur::from_ns(55));
        assert_eq!(h.percentile(50.0).unwrap(), Dur::from_ns(50));
        assert_eq!(h.percentile(90.0).unwrap(), Dur::from_ns(90));
        assert_eq!(h.percentile(99.0).unwrap(), Dur::from_ns(100));
        assert_eq!(h.percentile(0.0).unwrap(), Dur::from_ns(10));
        assert_eq!(h.min().unwrap(), Dur::from_ns(10));
        assert_eq!(h.max().unwrap(), Dur::from_ns(100));
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    #[should_panic(expected = "[0,100]")]
    fn histogram_rejects_bad_percentile() {
        let mut h = Histogram::new();
        h.record(Dur::from_ns(1));
        let _ = h.percentile(150.0);
    }

    #[test]
    fn busy_meter_utilization() {
        let mut b = BusyMeter::new();
        b.add_busy(Dur::from_ms(5));
        let u = b.utilization(Time::ZERO, Time::from_ms(10));
        assert!((u - 0.5).abs() < 1e-12);
        b.reset();
        assert_eq!(b.utilization(Time::ZERO, Time::from_ms(10)), 0.0);
    }

    #[test]
    fn prop_percentile_monotone() {
        let mut r = SimRng::seed(0x57a7);
        for _ in 0..64 {
            let n = 1 + r.below(99) as usize;
            let mut h = Histogram::new();
            for _ in 0..n {
                h.record(Dur::from_ns(1 + r.below(999_999)));
            }
            let p1 = r.unit() * 100.0;
            let p2 = r.unit() * 100.0;
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            assert!(h.percentile(lo).unwrap() <= h.percentile(hi).unwrap());
        }
    }

    #[test]
    fn prop_mean_within_min_max() {
        let mut r = SimRng::seed(0x57a8);
        for _ in 0..64 {
            let n = 1 + r.below(99) as usize;
            let mut h = Histogram::new();
            for _ in 0..n {
                h.record(Dur::from_ns(1 + r.below(999_999)));
            }
            let mean = h.mean().unwrap();
            assert!(mean >= h.min().unwrap());
            assert!(mean <= h.max().unwrap());
        }
    }
}
