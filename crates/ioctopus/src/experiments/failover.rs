//! Robustness: per-PF throughput through a PF outage (fault injection).
//!
//! Not a figure from the paper — the fault-injection companion to
//! Figure 14. A [`FaultPlan`] kills PF0 mid-stream and revives it later:
//!
//! * **octoNIC**: IOctoRFS resteers PF0's flows to the surviving PF at the
//!   failure instant — the stream never goes dark. Service degrades to
//!   NUDMA: every DMA now crosses the interconnect to reach the node-0
//!   application and misses DDIO, so the outage is paid in memory and QPI
//!   bandwidth. (Raw throughput can even *exceed* the healthy level,
//!   because the survivor queue's NAPI runs on the far socket and frees
//!   the application's core — the classic remote-IRQ tradeoff.) After
//!   `PfRecover` the driver pulls the flows home and throughput returns
//!   to the pre-fault level.
//! * **ethNIC** (single-PF placement): the standard firmware has no
//!   cross-PF path, so the stream goes dark for the whole outage.
//!
//! The same 1000× time scale as the migration experiment applies.

use kernel::NetdevId;
use simcore::{Dur, FaultPlan, Time};

use crate::config::{BuildOpts, Placement};
use crate::experiments::pf_rates;
use crate::netloop::{make_rx_stream, App, NetLoop};
use crate::results::FailoverResult;
use crate::system::build_duplex;

/// Total simulated duration.
pub const TOTAL: Dur = Dur::from_ms(10);
/// PF0 fails here.
pub const FAIL_AT: Dur = Dur::from_ms(3);
/// PF0 completes its function-level reset here.
pub const RECOVER_AT: Dur = Dur::from_ms(6);
/// Per-PF throughput sampling interval.
pub const SAMPLE_EVERY: Dur = Dur::from_us(50);
/// Driver-watchdog cadence while faults are in play.
pub const WATCHDOG_EVERY: Dur = Dur::from_us(50);

/// Runs the failover experiment. `octo = false` uses the standard
/// firmware/driver with the workload placed on PF0's node (the
/// configuration with no surviving path).
pub fn run(octo: bool) -> FailoverResult {
    let p = if octo {
        Placement::Octopus
    } else {
        Placement::Local
    };
    let mut duplex = build_duplex(p, BuildOpts::default());
    // The workload lives on core 0 (node 0), local to the PF that dies.
    let app = make_rx_stream(&mut duplex, 0, 0, NetdevId(0), 65536, 512 * 1024, 4777);
    let mut nl = NetLoop::new(duplex);
    let i = nl.add_app(App::Rx(app));
    nl.enable_sampling(SAMPLE_EVERY);
    let plan = FaultPlan::pf_outage(0, Time::ZERO + FAIL_AT, Time::ZERO + RECOVER_AT);
    nl.install_fault_plan(&plan, WATCHDOG_EVERY);
    nl.start_apps(Time::ZERO);
    nl.run(Time::ZERO + TOTAL);
    crate::perf::note_events(nl.events_processed());

    let consumed = nl.app(i).progress();
    let nic = nl.duplex.server.nic.counters();
    let robust = nl.duplex.server.robustness();
    FailoverResult {
        config: if octo { "octoNIC" } else { "ethNIC" }.to_string(),
        samples: pf_rates(&nl.samples),
        resteered_flows: nic.resteered_flows,
        error_completions: nic.error_completions,
        dropped_pf_dead: nic.dropped_pf_dead,
        watchdog_recoveries: robust.watchdog_irq_recoveries,
        consumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::window_mean;

    /// Mean total (PF0+PF1) throughput over `[a_ms, b_ms)`.
    fn mean_total(r: &FailoverResult, a_ms: f64, b_ms: f64) -> f64 {
        window_mean(&r.samples, a_ms, b_ms, |s| s.pf0_gbps + s.pf1_gbps)
    }

    #[test]
    fn octonic_survives_pf_outage_and_recovers() {
        let r = run(true);
        let before = mean_total(&r, 1.0, 2.9);
        let during = mean_total(&r, 3.3, 5.8);
        let after = mean_total(&r, 7.0, 9.5);
        assert!(before > 5.0, "healthy baseline: {before:.2} Gb/s");
        assert!(
            during > 0.5,
            "survivor keeps the stream alive: {during:.2} Gb/s"
        );
        // During the outage every byte rides PF1 — remote DMA for the
        // node-0 application (graceful degradation to NUDMA).
        let pf1_during = window_mean(&r.samples, 3.3, 5.8, |s| s.pf1_gbps);
        assert!(pf1_during > 0.5, "PF1 carries the outage: {pf1_during:.2}");
        assert!(
            (after / before - 1.0).abs() < 0.05,
            "throughput returns within 5%: {before:.2} -> {after:.2}"
        );
        assert!(r.resteered_flows >= 1, "firmware moved the flow");
    }

    #[test]
    fn single_pf_placement_goes_dark_during_outage() {
        let r = run(false);
        let before = mean_total(&r, 1.0, 2.9);
        let during = mean_total(&r, 3.3, 5.8);
        assert!(before > 5.0, "healthy baseline: {before:.2} Gb/s");
        assert!(during < 0.1, "no failover path exists: {during:.2} Gb/s");
        assert!(r.dropped_pf_dead > 0, "arrivals died at the dead PF");
    }
}
