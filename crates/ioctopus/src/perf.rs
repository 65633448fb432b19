//! Self-profiling counters for the experiment runners.
//!
//! Every runner reports how many simulation events (or equivalent work
//! units) it dispatched; the bench harnesses read the totals alongside
//! wall-clock time to print an events/second figure and to emit the
//! machine-readable perf baseline (`BENCH_2.json`).
//!
//! Storage is the `telemetry` crate's four static run counters, so the
//! human bench footer and the baseline JSON read the *same* cells — this
//! module keeps the established `note_*`/`take_*` API for the runners. The
//! cells are relaxed atomics: cheap enough to bump once per *run* (not per
//! event), safe under the parallel sweep.

use telemetry::registry::{AUDITS, EVENTS, FENCED, RECONFIGS};

/// Credits `n` simulation events to the process-wide counter. Runners call
/// this once per simulation with their event loop's final count.
pub fn note_events(n: u64) {
    EVENTS.add(n);
}

/// Total events credited since the process started (or since the last
/// [`take_events`]).
pub fn events() -> u64 {
    EVENTS.get()
}

/// Reads and resets the counter; returns the count at the moment of reset.
/// Harnesses call this around each figure to attribute events per figure.
pub fn take_events() -> u64 {
    EVENTS.take()
}

/// Credits `n` invariant checks (individual [`simcore::Audit`] predicate
/// evaluations) to the process-wide counter, so bench footers can report
/// audit throughput alongside event throughput.
pub fn note_audits(n: u64) {
    AUDITS.add(n);
}

/// Total invariant checks credited since the process started (or since the
/// last [`take_audits`]).
pub fn audits() -> u64 {
    AUDITS.get()
}

/// Reads and resets the invariant-check counter.
pub fn take_audits() -> u64 {
    AUDITS.take()
}

/// Credits `n` epoch-fenced completions/interrupts (stale deliveries from a
/// surprise-removed device, counted and discarded). Runners call this once
/// per simulation from the host's robustness counters.
pub fn note_fenced(n: u64) {
    FENCED.add(n);
}

/// Total fenced deliveries credited since the process started (or since the
/// last [`take_fenced`]).
pub fn fenced() -> u64 {
    FENCED.get()
}

/// Reads and resets the fenced-delivery counter.
pub fn take_fenced() -> u64 {
    FENCED.take()
}

/// Credits `n` completed quiesce/drain/rebind reconfiguration sequences
/// (hotplug transitions in either direction).
pub fn note_reconfigs(n: u64) {
    RECONFIGS.add(n);
}

/// Total reconfigurations credited since the process started (or since the
/// last [`take_reconfigs`]).
pub fn reconfigs() -> u64 {
    RECONFIGS.get()
}

/// Reads and resets the reconfiguration counter.
pub fn take_reconfigs() -> u64 {
    RECONFIGS.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_take_roundtrip() {
        // The counter is process-global; use take() to isolate this test's
        // contribution from any doctest neighbours.
        let _ = take_events();
        note_events(5);
        note_events(7);
        assert!(events() >= 12);
        let got = take_events();
        assert!(got >= 12);
    }

    #[test]
    fn audit_counter_roundtrip() {
        let _ = take_audits();
        note_audits(9);
        assert!(audits() >= 9);
        assert!(take_audits() >= 9);
    }

    #[test]
    fn reconfig_counters_roundtrip() {
        let _ = take_fenced();
        let _ = take_reconfigs();
        note_fenced(3);
        note_reconfigs(2);
        assert!(fenced() >= 3);
        assert!(reconfigs() >= 2);
        assert!(take_fenced() >= 3);
        assert!(take_reconfigs() >= 2);
    }

    #[test]
    fn shares_cells_with_registry_run_stats() {
        // The shim and telemetry::registry::take_run_stats drain the SAME
        // storage: crediting through the shim must be visible to a
        // registry drain.
        let _ = telemetry::registry::take_run_stats();
        note_events(11);
        note_audits(4);
        let stats = telemetry::registry::take_run_stats();
        assert!(stats.events >= 11);
        assert!(stats.audits >= 4);
    }
}
