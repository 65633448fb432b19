//! Simulated time in integer picoseconds.
//!
//! Integer picoseconds give exact arithmetic for bandwidth computations
//! (e.g. one byte on a 100 Gb/s wire is exactly 80 ps) while still covering
//! ~213 days of simulated time in a `u64` — far beyond the tens-of-
//! milliseconds windows the experiments use.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// The single picosecond→float boundary, used by the `as_*`
/// display/statistics conversions and fractional scaling. `f64` is exact
/// below 2⁵³ ps (~2.5 simulated hours); experiment horizons are tens of
/// milliseconds, far inside that. All event-ordering arithmetic stays in
/// integer ps and never passes through here.
fn ps_to_f64(ps: u64) -> f64 {
    ps as f64
}

/// An absolute instant of simulated time, in picoseconds since simulation start.
///
/// `Time` is ordered and copyable; subtracting two `Time`s yields a [`Dur`].
///
/// # Example
/// ```
/// use simcore::{Time, Dur};
/// let t = Time::ZERO + Dur::from_us(3);
/// assert_eq!(t.as_ns(), 3_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time, in picoseconds.
///
/// # Example
/// ```
/// use simcore::Dur;
/// assert_eq!(Dur::from_ns(2) * 3, Dur::from_ns(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; useful as an "infinity" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * PS_PER_NS)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Time(us * PS_PER_US)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * PS_PER_MS)
    }

    /// Raw picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time as fractional nanoseconds.
    pub fn as_ns(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_NS as f64
    }

    /// Time as fractional microseconds.
    pub fn as_us(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_US as f64
    }

    /// Time as fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_MS as f64
    }

    /// Time as fractional seconds.
    pub fn as_secs(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_SEC as f64
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Duration since an earlier instant, saturating to zero.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);
    /// The greatest representable duration.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Creates a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Dur(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns * PS_PER_NS)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Dur(us * PS_PER_US)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * PS_PER_MS)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * PS_PER_SEC)
    }

    /// Creates a duration from fractional nanoseconds (rounded to the nearest
    /// picosecond).
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns >= 0.0, "durations are non-negative, got {ns}");
        Dur((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration as fractional nanoseconds.
    pub fn as_ns(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_NS as f64
    }

    /// Duration as fractional microseconds.
    pub fn as_us(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_US as f64
    }

    /// Duration as fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_MS as f64
    }

    /// Duration as fractional seconds.
    pub fn as_secs(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_SEC as f64
    }

    /// The longer of two durations.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The shorter of two durations.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time it takes to move `bytes` bytes at `bytes_per_sec`.
    ///
    /// Divides in 64-bit arithmetic while `bytes × PS_PER_SEC` fits, which
    /// covers every transfer up to 17.5 MiB, and in 128-bit arithmetic
    /// above that, so multi-gigabyte transfers on slow links cannot
    /// overflow. Both give the same quotient.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is zero.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Dur {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        if bytes <= u64::MAX / PS_PER_SEC {
            Dur(bytes * PS_PER_SEC / bytes_per_sec)
        } else {
            Self::for_bytes_wide(bytes, bytes_per_sec)
        }
    }

    /// [`for_bytes`](Self::for_bytes) past 17.5 MiB. Out of line, so the
    /// inlined 64-bit path stays small at its callers: a `checked_mul`
    /// with the 128-bit divide inline read `nvme_fio` `sim_speed` ×0.88.
    #[cold]
    #[inline(never)]
    fn for_bytes_wide(bytes: u64, bytes_per_sec: u64) -> Dur {
        Dur((u128::from(bytes) * u128::from(PS_PER_SEC) / u128::from(bytes_per_sec)) as u64)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Mul<f64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: f64) -> Dur {
        assert!(rhs >= 0.0, "duration scale must be non-negative");
        Dur((ps_to_f64(self.0) * rhs).round() as u64)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < PS_PER_US {
            write!(f, "{:.1}ns", self.as_ns())
        } else if self.0 < PS_PER_MS {
            write!(f, "{:.2}us", self.as_us())
        } else {
            write!(f, "{:.3}ms", self.as_ms())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Time::from_ns(5).as_ps(), 5_000);
        assert_eq!(Time::from_us(5).as_ps(), 5_000_000);
        assert_eq!(Time::from_ms(5).as_ps(), 5_000_000_000);
        assert_eq!(Dur::from_secs(1).as_ps(), PS_PER_SEC);
    }

    #[test]
    fn time_dur_arithmetic() {
        let t = Time::from_ns(100);
        let d = Dur::from_ns(40);
        assert_eq!(t + d, Time::from_ns(140));
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn since_saturates() {
        let early = Time::from_ns(10);
        let late = Time::from_ns(50);
        assert_eq!(late.since(early), Dur::from_ns(40));
        assert_eq!(early.since(late), Dur::ZERO);
    }

    #[test]
    fn for_bytes_exact_on_100gbe() {
        // 100 Gb/s = 12.5 GB/s, so one byte takes exactly 80 ps.
        let bps = 12_500_000_000;
        assert_eq!(Dur::for_bytes(1, bps).as_ps(), 80);
        assert_eq!(Dur::for_bytes(1500, bps).as_ps(), 120_000);
    }

    #[test]
    fn for_bytes_large_transfer_no_overflow() {
        // 1 TiB at 1 MB/s: ~12.7 days, should not overflow.
        let d = Dur::for_bytes(1 << 40, 1_000_000);
        assert!(d.as_secs() > 1_000_000.0);
    }

    #[test]
    fn for_bytes_divides_alike_on_both_sides_of_the_overflow_boundary() {
        let wide = |bytes: u64, bw: u64| {
            (u128::from(bytes) * u128::from(PS_PER_SEC) / u128::from(bw)) as u64
        };
        // The largest byte count whose product fits in 64 bits: the last
        // one `for_bytes` divides in 64 bits.
        let edge = u64::MAX / PS_PER_SEC;
        assert!(edge.checked_mul(PS_PER_SEC).is_some());
        assert!((edge + 1).checked_mul(PS_PER_SEC).is_none());
        for bytes in [edge - 1, edge, edge + 1, edge + 2] {
            for bw in [1, 3, 1 << 20, 12_500_000_000, PS_PER_SEC, u64::MAX] {
                assert_eq!(
                    Dur::for_bytes(bytes, bw).as_ps(),
                    wide(bytes, bw),
                    "{bytes} B at {bw}"
                );
            }
        }
        // Random magnitudes on both sides of the edge.
        let mut r = SimRng::seed(0xd1u64);
        for _ in 0..20_000 {
            let bytes = r.next_u64() >> r.below(64);
            let bw = (r.next_u64() >> r.below(64)).max(1);
            assert_eq!(
                Dur::for_bytes(bytes, bw).as_ps(),
                wide(bytes, bw),
                "{bytes} B at {bw}"
            );
        }
    }

    #[test]
    fn dur_scaling() {
        assert_eq!(Dur::from_ns(10) * 3, Dur::from_ns(30));
        assert_eq!(Dur::from_ns(10) * 0.5, Dur::from_ns(5));
        assert_eq!(Dur::from_ns(10) / 2, Dur::from_ns(5));
    }

    #[test]
    fn from_ns_f64_rounds() {
        assert_eq!(Dur::from_ns_f64(1.5).as_ps(), 1_500);
        assert_eq!(Dur::from_ns_f64(0.0004).as_ps(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_ns_f64_rejects_negative() {
        let _ = Dur::from_ns_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_ns(12)), "12.0ns");
        assert_eq!(format!("{}", Dur::from_us(12)), "12.00us");
        assert_eq!(format!("{}", Dur::from_ms(12)), "12.000ms");
    }

    #[test]
    fn min_max_helpers() {
        let a = Time::from_ns(1);
        let b = Time::from_ns(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Dur::from_ns(1).max(Dur::from_ns(2)), Dur::from_ns(2));
    }

    #[test]
    fn prop_add_sub_inverse() {
        let mut r = SimRng::seed(0x71ae);
        for _ in 0..256 {
            let time = Time::from_ps(r.below(u64::MAX / 4));
            let dur = Dur::from_ps(r.below(u64::MAX / 4));
            assert_eq!((time + dur) - dur, time);
            assert_eq!((time + dur) - time, dur);
        }
    }

    #[test]
    fn prop_for_bytes_monotone_in_bytes() {
        let mut r = SimRng::seed(0x71af);
        for _ in 0..256 {
            let b1 = r.below(1 << 32);
            let b2 = r.below(1 << 32);
            let bw = 1 + r.below(100_000_000_000 - 1);
            let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
            assert!(Dur::for_bytes(lo, bw) <= Dur::for_bytes(hi, bw));
        }
    }

    #[test]
    fn prop_for_bytes_antitone_in_bandwidth() {
        let mut r = SimRng::seed(0x71b0);
        for _ in 0..256 {
            let bytes = 1 + r.below((1 << 32) - 1);
            let bw1 = 1 + r.below(100_000_000_000 - 1);
            let bw2 = 1 + r.below(100_000_000_000 - 1);
            let (slow, fast) = if bw1 <= bw2 { (bw1, bw2) } else { (bw2, bw1) };
            assert!(Dur::for_bytes(bytes, fast) <= Dur::for_bytes(bytes, slow));
        }
    }
}
