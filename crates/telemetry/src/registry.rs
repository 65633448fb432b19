//! Run accounting and per-run metric tables.
//!
//! Two layers:
//!
//! * **Process-wide run accounting**: four static [`Counter`]s
//!   ([`EVENTS`], [`AUDITS`], [`FENCED`], [`RECONFIGS`]) aggregate across
//!   every simulation a process runs. Runners credit them once per run
//!   through `ioctopus::perf`; the bench footer and the baseline JSON drain
//!   them with [`take_run_stats`]. Crediting is one relaxed atomic add,
//!   with no lock and no allocation.
//! * **Per-run snapshots** ([`Snapshot`]) are plain sorted tables each
//!   component fills from its own counters at harvest time (see
//!   `NetLoop::metrics_snapshot` in the `ioctopus` crate). They carry
//!   the per-run story that must not be smeared across sweep threads.
//!
//! Determinism: snapshots render in sorted label order. Nothing depends
//! on hash order, pointer values, or wallclock.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter (relaxed atomics: cheap under the
/// parallel sweep, exact once the pool has joined).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reads and resets, returning the value at the moment of reset.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A per-run metric table: `(label, value)` rows a harvest pass fills
/// from component counters, rendered in sorted label order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    rows: Vec<(&'static str, u64)>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot { rows: Vec::new() }
    }

    /// Appends one row.
    pub fn push(&mut self, name: &'static str, value: u64) {
        self.rows.push((name, value));
    }

    /// Sorts rows by label (harvest order becomes irrelevant).
    pub fn sort(&mut self) {
        self.rows.sort_by(|a, b| a.0.cmp(b.0));
    }

    /// The rows, in their current order.
    pub fn rows(&self) -> &[(&'static str, u64)] {
        &self.rows
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Renders `label value` lines (sorted beforehand by convention).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (n, v) in &self.rows {
            out.push_str(n);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// Process-wide run accounting (the bench-footer counters).
// ---------------------------------------------------------------------

/// Simulation events dispatched.
pub static EVENTS: Counter = Counter::new();
/// Invariant-audit predicate evaluations.
pub static AUDITS: Counter = Counter::new();
/// Epoch-fenced completions and interrupts (counted, never delivered).
pub static FENCED: Counter = Counter::new();
/// Completed quiesce/drain/rebind reconfigurations.
pub static RECONFIGS: Counter = Counter::new();

/// The aggregate accounting a bench footer prints, drained from the four
/// run counters — the *single* source both the human footer and the
/// machine-readable baseline JSON render from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Simulation events dispatched.
    pub events: u64,
    /// Invariant-audit predicate evaluations.
    pub audits: u64,
    /// Epoch-fenced completions/interrupts (counted, never delivered).
    pub fenced: u64,
    /// Completed quiesce/drain/rebind reconfigurations.
    pub reconfigs: u64,
}

/// Drains the run accounting, returning the values at the reset instant.
/// Harnesses call this once per figure to attribute work per figure.
pub fn take_run_stats() -> RunStats {
    RunStats {
        events: EVENTS.take(),
        audits: AUDITS.take(),
        fenced: FENCED.take(),
        reconfigs: RECONFIGS.take(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_take_resets() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        assert_eq!(c.take(), 7);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn snapshot_renders_sorted() {
        let mut s = Snapshot::new();
        s.push("z.last", 2);
        s.push("a.first", 1);
        s.sort();
        assert_eq!(s.render(), "a.first 1\nz.last 2\n");
        assert_eq!(s.get("z.last"), Some(2));
    }
}
