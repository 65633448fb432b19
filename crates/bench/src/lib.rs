//! Shared helpers for the figure-regeneration bench harnesses.
//!
//! Each `benches/figNN_*.rs` target is a `harness = false` binary run by
//! `cargo bench`: it re-runs the corresponding experiment from
//! [`ioctopus::experiments`] and prints the paper's rows/series next to the
//! paper's reference values, so `cargo bench --workspace` regenerates the
//! entire evaluation.

#![warn(missing_docs)]

use std::time::Instant;

/// Prints the standard figure header.
pub fn header(fig: &str, caption: &str) {
    println!("==================================================================");
    println!("{fig}: {caption}");
    println!("==================================================================");
}

/// Prints the closing footer with wall-clock cost and the self-profiled
/// event throughput since the header. Drains the run counters
/// ([`telemetry::registry::take_run_stats`]) — the same cells
/// the experiment runners credit through `ioctopus::perf` and that
/// `perf_baseline` renders into the baseline JSON, so every consumer
/// reports from one source.
pub fn footer(started: Instant) {
    let secs = started.elapsed().as_secs_f64();
    let telemetry::registry::RunStats {
        events,
        audits,
        fenced,
        reconfigs,
    } = telemetry::registry::take_run_stats();
    let checks = if audits > 0 && secs > 0.0 {
        format!(" | {:.1}M checks/s", audits as f64 / 1e6 / secs)
    } else {
        String::new()
    };
    // Hotplug accounting, shown only by harnesses that reconfigured: every
    // fenced delivery was counted-and-discarded, never delivered.
    let hotplug = if reconfigs > 0 || fenced > 0 {
        format!(" | {reconfigs} reconfigs | {fenced} fenced")
    } else {
        String::new()
    };
    if events > 0 && secs > 0.0 {
        println!(
            "--------------------- [{:.1}s wall-clock | {:.1}M events | {:.1}M events/s{}{} | {} workers]\n",
            secs,
            events as f64 / 1e6,
            events as f64 / 1e6 / secs,
            checks,
            hotplug,
            simcore::pool::worker_count(usize::MAX),
        );
    } else {
        println!("------------------------------------------------ [{secs:.1}s wall-clock]\n");
    }
}

/// Formats a ratio as the paper's `N.NNx` annotations.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".into()
    } else {
        format!("{:.2}x", a / b)
    }
}

/// Quick pass/attention marker for shape checks printed by the harnesses.
pub fn shape(ok: bool) -> &'static str {
    if ok {
        "[shape OK]"
    } else {
        "[shape DEVIATES — see EXPERIMENTS.md]"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(2.0, 1.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }

    #[test]
    fn shape_marker() {
        assert_eq!(shape(true), "[shape OK]");
        assert!(shape(false).contains("DEVIATES"));
    }
}
