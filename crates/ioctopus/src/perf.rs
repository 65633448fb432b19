//! Self-profiling event counter for the experiment runners.
//!
//! Every runner reports how many simulation events (or equivalent work
//! units) it dispatched; the bench harnesses drain the total alongside
//! wall-clock time to print an events/second figure and to emit the
//! machine-readable perf baseline (`BENCH_2.json`).
//!
//! This is the only process-global run counter: a relaxed atomic, cheap
//! enough to bump once per *run* (not per event) and safe under the
//! parallel sweep. Every other run total travels inside the runner's
//! result (e.g. `chaos::CampaignReport`, `results::ReconfigResult`).

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Credits `n` simulation events to the process-wide counter. Runners call
/// this once per simulation with their event loop's final count.
pub fn note_events(n: u64) {
    EVENTS.fetch_add(n, Ordering::Relaxed);
}

/// Reads and resets the counter; returns the count at the moment of reset.
/// Harnesses call this around each figure to attribute events per figure.
pub fn take_events() -> u64 {
    EVENTS.swap(0, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_take_roundtrip() {
        // The counter is process-global and other tests in this binary run
        // experiments concurrently, so only a lower bound is exact.
        let _ = take_events();
        note_events(5);
        note_events(7);
        assert!(take_events() >= 12);
    }
}
