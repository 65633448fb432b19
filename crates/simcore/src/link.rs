//! Bandwidth servers: shared conduits on which transfers serialize.
//!
//! Every shared physical resource in the simulated machine — a QPI/UPI link
//! direction, a DRAM channel group, a PCIe link direction, the Ethernet wire —
//! is modeled as a [`BwLink`]. A transfer of `n` bytes occupies the link for
//! `n / bandwidth` seconds starting no earlier than the link's current
//! *busy-until* horizon; the completion time additionally includes the link's
//! fixed propagation latency. Congestion (the paper's Figures 11, 12, and 15)
//! emerges naturally from the queueing delay at saturated links.

use crate::stats::RateMeter;
use crate::time::{Dur, Time};

/// A point-to-point bandwidth resource with store-and-forward queueing.
///
/// # Example
/// ```
/// use simcore::{Time, Dur, link::BwLink};
///
/// // 12.5 GB/s (= 100 Gb/s), no propagation delay.
/// let mut l = BwLink::new("qpi", 12_500_000_000, Dur::ZERO);
/// let t1 = l.reserve(Time::ZERO, 1250); // 100 ns of occupancy
/// let t2 = l.reserve(Time::ZERO, 1250); // queues behind the first transfer
/// assert_eq!(t1, Time::from_ns(100));
/// assert_eq!(t2, Time::from_ns(200));
/// ```
#[derive(Debug, Clone)]
pub struct BwLink {
    name: String,
    bytes_per_sec: u64,
    latency: Dur,
    busy_until: Time,
    meter: RateMeter,
}

impl BwLink {
    /// Creates a link with the given bandwidth (bytes/second) and fixed
    /// propagation latency.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(name: impl Into<String>, bytes_per_sec: u64, latency: Dur) -> Self {
        assert!(bytes_per_sec > 0, "link bandwidth must be positive");
        BwLink {
            name: name.into(),
            bytes_per_sec,
            latency,
            busy_until: Time::ZERO,
            meter: RateMeter::new(),
        }
    }

    /// Converts gigabits/second to bytes/second (convenience for configs).
    pub fn gbps(g: f64) -> u64 {
        (g * 1e9 / 8.0).round() as u64
    }

    /// The link's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The link's configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// The link's fixed propagation latency.
    pub fn latency(&self) -> Dur {
        self.latency
    }

    /// Reserves the link for a `bytes`-sized transfer arriving at `now`.
    ///
    /// Returns the time at which the last byte *arrives at the far end*
    /// (serialization + queueing + propagation). Zero-byte reservations pay
    /// only the propagation latency.
    pub fn reserve(&mut self, now: Time, bytes: u64) -> Time {
        let start = now.max(self.busy_until);
        let xfer = Dur::for_bytes(bytes, self.bytes_per_sec);
        self.busy_until = start + xfer;
        self.meter.record(now, bytes);
        self.busy_until + self.latency
    }

    /// [`reserve`](Self::reserve) for an *idle* link with the serialization
    /// time already known (memoized fast path: skips the bytes→duration
    /// division). The caller must guarantee that the link is idle at `now`
    /// and that `xfer == Dur::for_bytes(bytes, self.bytes_per_sec())`; both
    /// are checked in debug builds, so any stale memo entry trips the test
    /// suite rather than silently diverging from [`reserve`].
    pub fn reserve_precomputed(&mut self, now: Time, bytes: u64, xfer: Dur) -> Time {
        debug_assert!(self.busy_until <= now, "link {} not idle", self.name);
        debug_assert_eq!(
            xfer,
            Dur::for_bytes(bytes, self.bytes_per_sec),
            "stale memoized serialization time on link {}",
            self.name
        );
        self.busy_until = now + xfer;
        self.meter.record(now, bytes);
        self.busy_until + self.latency
    }

    /// The queueing delay a transfer arriving `now` would currently suffer
    /// before its first byte goes out.
    pub fn queue_delay(&self, now: Time) -> Dur {
        self.busy_until.since(now)
    }

    /// Whether the link is occupied at `now`.
    pub fn is_busy(&self, now: Time) -> bool {
        self.busy_until > now
    }

    /// Total bytes ever reserved on this link.
    pub fn total_bytes(&self) -> u64 {
        self.meter.total()
    }

    /// Mean throughput in bytes/second over `[from, to]`, based on bytes
    /// recorded in that window.
    pub fn mean_rate(&self, from: Time, to: Time) -> f64 {
        self.meter.rate(from, to)
    }

    /// Resets the traffic meter (e.g. at the start of a measurement window).
    /// The busy-until horizon is preserved — in-flight transfers still occupy
    /// the link.
    pub fn reset_meter(&mut self) {
        self.meter = RateMeter::new();
    }

    /// Changes the link's bandwidth mid-run (e.g. a PCIe link retraining to
    /// fewer lanes). Transfers already reserved keep their committed
    /// completion times; only future reservations see the new rate.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is zero.
    pub fn set_bytes_per_sec(&mut self, bytes_per_sec: u64) {
        assert!(bytes_per_sec > 0, "link bandwidth must be positive");
        self.bytes_per_sec = bytes_per_sec;
    }

    /// Blocks the link until at least `t` (e.g. retraining downtime):
    /// transfers arriving earlier queue behind the stall. Never moves the
    /// busy horizon backwards.
    pub fn stall_until(&mut self, t: Time) {
        self.busy_until = self.busy_until.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn link_100gbe() -> BwLink {
        BwLink::new("t", BwLink::gbps(100.0), Dur::ZERO)
    }

    #[test]
    fn gbps_conversion() {
        assert_eq!(BwLink::gbps(100.0), 12_500_000_000);
        assert_eq!(BwLink::gbps(8.0), 1_000_000_000);
    }

    #[test]
    fn serialization_delay() {
        let mut l = link_100gbe();
        // 1500 B at 12.5 GB/s = 120 ns.
        assert_eq!(l.reserve(Time::ZERO, 1500), Time::from_ns(120));
    }

    #[test]
    fn queueing_serializes_transfers() {
        let mut l = link_100gbe();
        let a = l.reserve(Time::ZERO, 1250);
        let b = l.reserve(Time::ZERO, 1250);
        assert_eq!(b - a, Dur::from_ns(100));
    }

    #[test]
    fn idle_gap_not_reclaimed() {
        let mut l = link_100gbe();
        l.reserve(Time::ZERO, 1250); // busy until 100 ns
                                     // Arriving at 500 ns: link is idle again; starts immediately.
        let done = l.reserve(Time::from_ns(500), 1250);
        assert_eq!(done, Time::from_ns(600));
    }

    #[test]
    fn propagation_latency_added_once() {
        let mut l = BwLink::new("lat", BwLink::gbps(100.0), Dur::from_ns(500));
        let done = l.reserve(Time::ZERO, 1250);
        assert_eq!(done, Time::from_ns(600)); // 100 xfer + 500 prop
    }

    #[test]
    fn zero_bytes_pays_latency_only() {
        let mut l = BwLink::new("lat", BwLink::gbps(100.0), Dur::from_ns(500));
        assert_eq!(l.reserve(Time::ZERO, 0), Time::from_ns(500));
    }

    #[test]
    fn meters_accumulate() {
        let mut l = link_100gbe();
        l.reserve(Time::ZERO, 1000);
        l.reserve(Time::from_ns(50), 2000);
        assert_eq!(l.total_bytes(), 3000);
        l.reset_meter();
        assert_eq!(l.total_bytes(), 0);
    }

    #[test]
    fn mean_rate_over_window() {
        let mut l = link_100gbe();
        // 1 MB over 1 ms = 1 GB/s.
        l.reserve(Time::ZERO, 1_000_000);
        let rate = l.mean_rate(Time::ZERO, Time::from_ms(1));
        assert!((rate - 1e9).abs() < 1.0, "rate = {rate}");
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut l = link_100gbe();
        l.reserve(Time::ZERO, 12_500); // 1 us of occupancy
        assert_eq!(l.queue_delay(Time::ZERO), Dur::from_us(1));
        assert_eq!(l.queue_delay(Time::from_us(2)), Dur::ZERO);
        assert!(l.is_busy(Time::ZERO));
        assert!(!l.is_busy(Time::from_us(2)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = BwLink::new("bad", 0, Dur::ZERO);
    }

    #[test]
    fn downtrain_slows_future_transfers_only() {
        let mut l = link_100gbe();
        let before = l.reserve(Time::ZERO, 1250); // 100 ns at full rate
        l.set_bytes_per_sec(BwLink::gbps(25.0));
        // Same size at quarter rate takes 4x the serialization time,
        // queued behind the committed transfer.
        let after = l.reserve(Time::ZERO, 1250);
        assert_eq!(before, Time::from_ns(100));
        assert_eq!(after, Time::from_ns(500));
    }

    #[test]
    fn stall_blocks_transfers_until_deadline() {
        let mut l = link_100gbe();
        l.stall_until(Time::from_us(5));
        let done = l.reserve(Time::ZERO, 1250);
        assert_eq!(done, Time::from_us(5) + Dur::from_ns(100));
        // Stalling backwards is a no-op.
        l.stall_until(Time::ZERO);
        assert!(l.is_busy(Time::from_us(5)));
    }

    #[test]
    fn prop_completions_monotone() {
        // Back-to-back reservations at t=0 must complete in order.
        let mut r = SimRng::seed(0x1a1);
        for _ in 0..32 {
            let n = 1 + r.below(49) as usize;
            let mut l = link_100gbe();
            let mut last = Time::ZERO;
            for _ in 0..n {
                let done = l.reserve(Time::ZERO, 1 + r.below(999_999));
                assert!(done >= last);
                last = done;
            }
        }
    }

    #[test]
    fn prop_total_time_is_sum() {
        // With all arrivals at t=0, the final completion equals the sum of
        // individual serialization delays (work-conserving server).
        let mut r = SimRng::seed(0x1a2);
        for _ in 0..32 {
            let n = 1 + r.below(49) as usize;
            let mut l = link_100gbe();
            let mut expect = Dur::ZERO;
            let mut last = Time::ZERO;
            for _ in 0..n {
                let s = 1 + r.below(999_999);
                last = l.reserve(Time::ZERO, s);
                expect += Dur::for_bytes(s, BwLink::gbps(100.0));
            }
            assert_eq!(last - Time::ZERO, expect);
        }
    }
}
