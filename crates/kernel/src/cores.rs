//! Per-core time accounting.
//!
//! A core is a *serial* resource: application work, softirq processing, and
//! driver code that run on the same core queue behind each other. This is
//! what makes the single-core experiments CPU-bound, exactly as in §5.1.1
//! ("both process and OS networking activity run on a single core").

use simcore::stats::BusyMeter;
use simcore::{Dur, Time};

#[derive(Debug, Clone, Default)]
struct Core {
    busy_until: Time,
    meter: BusyMeter,
}

/// All cores of the machine.
#[derive(Debug)]
pub struct Cores {
    cores: Vec<Core>,
}

impl Cores {
    /// Creates `n` idle cores.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "at least one core");
        Cores {
            cores: vec![Core::default(); n],
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether there are no cores (never true; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Runs `work` on `core` starting no earlier than `now`; returns the
    /// completion time.
    pub fn run(&mut self, core: usize, now: Time, work: Dur) -> Time {
        let c = &mut self.cores[core];
        let start = now.max(c.busy_until);
        c.busy_until = start + work;
        c.meter.add_busy(work);
        c.busy_until
    }

    /// When `core` next becomes free.
    pub fn free_at(&self, core: usize) -> Time {
        self.cores[core].busy_until
    }

    /// Whether `core` is busy at `now`.
    pub fn is_busy(&self, core: usize, now: Time) -> bool {
        self.cores[core].busy_until > now
    }

    /// Utilization of `core` over `[from, to]` in fractional cores.
    pub fn utilization(&self, core: usize, from: Time, to: Time) -> f64 {
        self.cores[core].meter.utilization(from, to)
    }

    /// Aggregate utilization over a set of cores (the paper's "cpu util
    /// [cores]" axis).
    pub fn utilization_of(
        &self,
        cores: impl IntoIterator<Item = usize>,
        from: Time,
        to: Time,
    ) -> f64 {
        cores
            .into_iter()
            .map(|c| self.utilization(c, from, to))
            .sum()
    }

    /// Resets all busy meters (measurement-window start). Busy-until
    /// horizons persist: in-flight work still occupies the cores.
    pub fn reset_meters(&mut self) {
        for c in &mut self.cores {
            c.meter.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_serializes_on_one_core() {
        let mut c = Cores::new(2);
        let a = c.run(0, Time::ZERO, Dur::from_us(10));
        let b = c.run(0, Time::ZERO, Dur::from_us(5));
        assert_eq!(a, Time::from_us(10));
        assert_eq!(b, Time::from_us(15), "queued behind the first chunk");
    }

    #[test]
    fn cores_are_independent() {
        let mut c = Cores::new(2);
        c.run(0, Time::ZERO, Dur::from_us(10));
        let b = c.run(1, Time::ZERO, Dur::from_us(5));
        assert_eq!(b, Time::from_us(5));
    }

    #[test]
    fn idle_gaps_are_idle() {
        let mut c = Cores::new(1);
        c.run(0, Time::ZERO, Dur::from_us(1));
        let done = c.run(0, Time::from_us(10), Dur::from_us(1));
        assert_eq!(done, Time::from_us(11));
        // 2 us busy over 11 us window.
        let u = c.utilization(0, Time::ZERO, Time::from_us(11));
        assert!((u - 2.0 / 11.0).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn utilization_aggregates() {
        let mut c = Cores::new(3);
        c.run(0, Time::ZERO, Dur::from_us(10));
        c.run(1, Time::ZERO, Dur::from_us(10));
        let u = c.utilization_of(0..3, Time::ZERO, Time::from_us(10));
        assert!((u - 2.0).abs() < 1e-9);
    }

    #[test]
    fn busy_query() {
        let mut c = Cores::new(1);
        c.run(0, Time::ZERO, Dur::from_us(1));
        assert!(c.is_busy(0, Time::ZERO));
        assert!(!c.is_busy(0, Time::from_us(2)));
        assert_eq!(c.free_at(0), Time::from_us(1));
    }

    #[test]
    fn reset_preserves_backlog() {
        let mut c = Cores::new(1);
        c.run(0, Time::ZERO, Dur::from_ms(1));
        c.reset_meters();
        assert_eq!(c.utilization(0, Time::ZERO, Time::from_ms(1)), 0.0);
        assert_eq!(c.free_at(0), Time::from_ms(1), "backlog survives reset");
    }
}
