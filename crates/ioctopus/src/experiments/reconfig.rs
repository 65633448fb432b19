//! Hotplug reconfiguration: epoch-fenced transitions between uniform
//! IOctopus mode and legacy NUDMA mode.
//!
//! The failover experiment ([`super::failover`]) kills a *function*
//! (`PfFail`) and revives it in place; this one removes the *device*:
//! PF0 is surprise-removed from the PCIe fabric mid-stream (its endpoint
//! vanishes, in-flight transactions die, the device epoch advances) and
//! later re-enumerated (slot power-up, link retrain, fresh epoch). The
//! driver runs each transition as a three-phase quiesce/drain/rebind
//! sequence behind the epoch fence:
//!
//! * **down** — the firmware's MPFS failover resteers PF0's flows to the
//!   surviving PF at the removal instant; landed-but-unconsumed
//!   completions from the dead instance are drained and *fenced* (counted,
//!   resources reclaimed, never delivered); the system degrades to legacy
//!   NUDMA mode, where every DMA for the node-0 application crosses the
//!   interconnect via PF1 — degraded but alive;
//! * **up** — re-enumeration bumps the epoch again, the drain fences any
//!   stragglers that landed during the outage, the rings rebind, steering
//!   reinstalls, and the stream returns home to uniform IOctopus mode.
//!
//! The emitted timeline and counters quantify the contract: transition
//! latency at sampling resolution, the degraded-mode throughput ratio,
//! how much stale work the fence discarded, and that *nothing* stale was
//! ever delivered (the audit would catch it).

use kernel::NetdevId;
use simcore::{Dur, FaultKind, FaultPlan, Time};

use crate::config::{BuildOpts, Placement};
use crate::experiments::{pf_rates, window_mean};
use crate::netloop::{make_rx_stream, App, NetLoop};
use crate::results::{LocalityWindow, PfSample, ReconfigResult};
use crate::system::build_duplex;

/// Total simulated duration.
pub const TOTAL: Dur = Dur::from_ms(10);
/// PF0 is surprise-removed here.
pub const REMOVE_AT: Dur = Dur::from_ms(3);
/// PF0 re-enumerates here (plus the fabric's 20 µs retrain stall).
pub const READD_AT: Dur = Dur::from_ms(6);
/// Per-PF throughput sampling interval.
pub const SAMPLE_EVERY: Dur = Dur::from_us(50);
/// Driver-watchdog cadence while faults are in play.
pub const WATCHDOG_EVERY: Dur = Dur::from_us(50);

/// A PF "carries the stream" once its sampled rate crosses this floor
/// (Gb/s); transition latency is measured to the first such sample.
const CARRY_FLOOR: f64 = 0.1;

/// Runs one full remove → NUDMA → re-add cycle against the Figure 7
/// receive stream on the octoNIC.
pub fn run() -> ReconfigResult {
    let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
    // The workload lives on core 0 (node 0), local to the PF that vanishes.
    let app = make_rx_stream(&mut duplex, 0, 0, NetdevId(0), 65536, 512 * 1024, 4777);
    let mut nl = NetLoop::new(duplex);
    let i = nl.add_app(App::Rx(app));
    nl.enable_sampling(SAMPLE_EVERY);
    nl.enable_flight_recorder(16);
    let mut plan = FaultPlan::new();
    plan.push(Time::ZERO + REMOVE_AT, 0, FaultKind::SurpriseRemove);
    plan.push(Time::ZERO + READD_AT, 0, FaultKind::Reenumerate);
    nl.install_fault_plan(&plan, WATCHDOG_EVERY);
    nl.start_apps(Time::ZERO);
    // Pause at the phase boundaries to read the flight recorder and the
    // interconnect meter; windowed differences expose the NUDMA interval.
    let at_start = pause(&nl);
    nl.run(Time::ZERO + REMOVE_AT);
    let at_remove = pause(&nl);
    nl.run(Time::ZERO + READD_AT);
    let at_readd = pause(&nl);
    nl.run(Time::ZERO + TOTAL);
    crate::perf::note_events(nl.events_processed());
    let at_end = pause(&nl);
    let locality = at_end.table.clone();

    let consumed = nl.app(i).progress();
    let samples = pf_rates(&nl.samples);
    let robust = nl.duplex.server.robustness();
    let nic = nl.duplex.server.nic.counters();

    let remove_ms = REMOVE_AT.as_secs() * 1e3;
    let readd_ms = READD_AT.as_secs() * 1e3;
    let total = |s: &PfSample| s.pf0_gbps + s.pf1_gbps;
    let healthy = window_mean(&samples, 1.0, remove_ms - 0.1, total);
    let degraded = window_mean(&samples, remove_ms + 0.3, readd_ms - 0.2, |s| s.pf1_gbps);
    let recovered = window_mean(&samples, readd_ms + 1.0, 9.5, total);
    ReconfigResult {
        config: "octoNIC".to_string(),
        remove_to_survivor_us: latency_us(&samples, remove_ms, |s| s.pf1_gbps),
        readd_to_home_us: latency_us(&samples, readd_ms, |s| s.pf0_gbps),
        degraded_ratio: if healthy > 0.0 {
            degraded / healthy
        } else {
            0.0
        },
        recovered_ratio: if healthy > 0.0 {
            recovered / healthy
        } else {
            0.0
        },
        samples,
        fenced_completions: robust.fenced_completions,
        fenced_irqs: robust.fenced_irqs,
        reconfigs: robust.reconfigs,
        nudma_entries: robust.nudma_entries,
        nudma_exits: robust.nudma_exits,
        dropped_pf_dead: nic.dropped_pf_dead,
        resteered_flows: nic.resteered_flows,
        consumed,
        locality_healthy: window(&at_start, &at_remove),
        locality_nudma: window(&at_remove, &at_readd),
        locality_recovered: window(&at_readd, &at_end),
        locality,
    }
}

/// Cumulative telemetry reading at one pause point of the segmented run.
struct Pause {
    table: telemetry::LocalityTable,
    interconnect_bytes: u64,
}

fn pause(nl: &NetLoop) -> Pause {
    Pause {
        table: nl.flight_table().expect("flight recorder enabled"),
        interconnect_bytes: nl.duplex.server.mem.counters().interconnect_bytes,
    }
}

/// Windowed difference between two pause points.
fn window(from: &Pause, to: &Pause) -> LocalityWindow {
    LocalityWindow {
        dma: to.table.totals.since(&from.table.totals),
        home_pf: to.table.pf_cells(0).since(&from.table.pf_cells(0)),
        survivor_pf: to.table.pf_cells(1).since(&from.table.pf_cells(1)),
        interconnect_bytes: to.interconnect_bytes - from.interconnect_bytes,
    }
}

/// Time (µs past `from_ms`) of the first sample at/after `from_ms` whose
/// selected PF rate crosses [`CARRY_FLOOR`]; `f64::INFINITY` if none does.
fn latency_us(samples: &[PfSample], from_ms: f64, rate: impl Fn(&PfSample) -> f64) -> f64 {
    samples
        .iter()
        .find(|s| s.t_secs >= from_ms && rate(s) > CARRY_FLOOR)
        .map_or(f64::INFINITY, |s| (s.t_secs - from_ms) * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cycle_degrades_gracefully_and_restores_uniform_mode() {
        let r = run();
        // One complete cycle: down into NUDMA, back up to uniform mode,
        // each transition a fenced reconfiguration.
        assert_eq!(r.reconfigs, 2, "both transitions completed");
        assert_eq!(r.nudma_entries, 1);
        assert_eq!(r.nudma_exits, 1);
        assert!(r.resteered_flows >= 1, "firmware moved the flow");
        // Degraded but alive: the survivor carries a useful fraction of
        // the healthy rate through the outage...
        assert!(
            r.degraded_ratio > 0.05,
            "NUDMA mode stays alive: {:.3}",
            r.degraded_ratio
        );
        // ...and the service is whole again after the re-add.
        assert!(
            (r.recovered_ratio - 1.0).abs() < 0.05,
            "throughput returns within 5%: {:.3}",
            r.recovered_ratio
        );
        // Transitions are fast at sampling resolution.
        assert!(
            r.remove_to_survivor_us < 500.0,
            "failover latency: {} µs",
            r.remove_to_survivor_us
        );
        assert!(
            r.readd_to_home_us < 1000.0,
            "restore latency: {} µs",
            r.readd_to_home_us
        );
        assert!(r.consumed > 0);
    }

    #[test]
    fn flight_ledger_exposes_the_nudma_window() {
        let r = run();
        let h = &r.locality_healthy;
        let n = &r.locality_nudma;
        let v = &r.locality_recovered;
        // Healthy window: uniform IOctopus mode — the home PF carries
        // everything, every DMA byte stays node-local.
        assert!(h.dma.local_bytes() > 0);
        assert_eq!(h.dma.remote_bytes(), 0, "uniform mode: no remote DMA");
        assert_eq!(
            h.survivor_pf.local_bytes() + h.survivor_pf.remote_bytes(),
            0
        );
        // Outage window: the ledger shows the flow living on the survivor
        // PF (the home PF's rows stop moving)...
        let n_total = n.dma.local_bytes() + n.dma.remote_bytes();
        let n_survivor = n.survivor_pf.local_bytes() + n.survivor_pf.remote_bytes();
        assert!(n_total > 0, "stream stayed alive through the outage");
        assert!(
            n_survivor as f64 > 0.99 * n_total as f64,
            "survivor carries the NUDMA window: {n_survivor}/{n_total}"
        );
        // ...and the node-0 application pays for its node-1 buffers on the
        // CPU side: interconnect traffic is an order of magnitude above
        // the healthy window's.
        assert!(
            n.interconnect_bytes > 10 * h.interconnect_bytes.max(1),
            "NUDMA interconnect {} vs healthy {}",
            n.interconnect_bytes,
            h.interconnect_bytes
        );
        // Recovered window: the home PF dominates again and the
        // interconnect rate falls back (windows are 3 ms / 4 ms wide).
        let v_total = v.dma.local_bytes() + v.dma.remote_bytes();
        let v_home = v.home_pf.local_bytes() + v.home_pf.remote_bytes();
        assert!(
            v_home as f64 > 0.7 * v_total as f64,
            "home PF carries the recovered window: {v_home}/{v_total}"
        );
        assert!(
            v.interconnect_bytes / 4 < n.interconnect_bytes / 6,
            "interconnect rate halves after restore: {} vs {}",
            v.interconnect_bytes,
            n.interconnect_bytes
        );
        // The full-run table shows the flow's footprint on both PFs.
        assert!(
            r.locality.rows.iter().any(|row| row.pf == 0)
                && r.locality.rows.iter().any(|row| row.pf == 1),
            "ledger has rows on both PFs:\n{}",
            r.locality.render()
        );
        assert_eq!(r.locality.overflow_rows, 0);
    }

    #[test]
    fn reconfig_is_deterministic() {
        let a = run();
        let b = run();
        assert_eq!(a.samples.len(), b.samples.len());
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa.pf0_gbps.to_bits(), sb.pf0_gbps.to_bits());
            assert_eq!(sa.pf1_gbps.to_bits(), sb.pf1_gbps.to_bits());
        }
        assert_eq!(a.fenced_completions, b.fenced_completions);
        assert_eq!(a.fenced_irqs, b.fenced_irqs);
        assert_eq!(a.consumed, b.consumed);
    }
}
