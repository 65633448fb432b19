//! Figures 6 and 7: single-core netperf TCP_STREAM receive / transmit.
//!
//! "In these tests, the process repeatedly receives (or transmits) a
//! fixed-size buffer from (or to) a TCP socket … both process and OS
//! networking activity run on a single core." (§5.1.1)

use kernel::NetdevId;
use simcore::Time;

use crate::config::{BuildOpts, Placement};
use crate::netloop::{make_rx_stream, App, NetLoop};
use crate::results::ThroughputResult;
use crate::system::build_duplex;

use super::{run_window, throughput, Window};

/// Telemetry artifacts harvested from a traced experiment run: the merged
/// trace set, the NUMA-locality ledger, and the per-run metric snapshot.
#[derive(Debug)]
pub struct RunTelemetry {
    /// Harvested tracer rings (NIC + kernel domains).
    pub trace: telemetry::TraceSet,
    /// The NIC's per-flow/per-PF DMA locality table.
    pub locality: telemetry::LocalityTable,
    /// Sorted per-run component metrics.
    pub metrics: telemetry::Snapshot,
}

/// Flight-recorder row capacity for the streaming experiments (flow × PF
/// cardinality is tiny; generous headroom regardless).
const FLIGHT_ROWS: usize = 64;

/// Runs single-core TCP Rx at `msg`-byte buffers for `sim_ms` simulated
/// milliseconds.
pub fn run_rx(p: Placement, msg: u64, sim_ms: u64) -> ThroughputResult {
    run(p, false, msg, sim_ms, None).0
}

/// [`run_rx`] with telemetry enabled: tracing into rings of `trace_cap`
/// records plus the NUMA-locality flight recorder.
pub fn run_rx_traced(
    p: Placement,
    msg: u64,
    sim_ms: u64,
    trace_cap: usize,
) -> (ThroughputResult, RunTelemetry) {
    let (r, t) = run(p, false, msg, sim_ms, Some(trace_cap));
    (r, t.expect("telemetry was enabled"))
}

/// Runs single-core TCP Tx (TSO) at `msg`-byte buffers.
pub fn run_tx(p: Placement, msg: u64, sim_ms: u64) -> ThroughputResult {
    run(p, true, msg, sim_ms, None).0
}

/// [`run_tx`] with telemetry enabled (see [`run_rx_traced`]).
pub fn run_tx_traced(
    p: Placement,
    msg: u64,
    sim_ms: u64,
    trace_cap: usize,
) -> (ThroughputResult, RunTelemetry) {
    let (r, t) = run(p, true, msg, sim_ms, Some(trace_cap));
    (r, t.expect("telemetry was enabled"))
}

/// One single-core stream: the server transmits if `tx`, else it
/// receives.
fn run(
    p: Placement,
    tx: bool,
    msg: u64,
    sim_ms: u64,
    trace_cap: Option<usize>,
) -> (ThroughputResult, Option<RunTelemetry>) {
    let mut duplex = build_duplex(p, BuildOpts::default());
    let window = if tx { 4 * 1024 * 1024 } else { 512 * 1024 };
    let stream = make_rx_stream(&mut duplex, p.app_core(), 0, NetdevId(0), msg, window, 4242);
    let mut nl = NetLoop::new(duplex);
    if let Some(cap) = trace_cap {
        nl.enable_tracing(cap);
        nl.enable_flight_recorder(FLIGHT_ROWS);
    }
    let i = nl.add_app(if tx { App::Tx(stream) } else { App::Rx(stream) });
    nl.start_apps(Time::ZERO);

    let w = Window::of_ms(sim_ms);
    let (consumed, _) = run_window(&mut nl, &[i], w);
    let result = throughput(
        &nl,
        w,
        p.label(),
        msg as f64,
        consumed,
        consumed as f64 / msg as f64,
    );
    let telem = harvest(&mut nl, trace_cap.is_some());
    (result, telem)
}

/// Harvests the telemetry artifacts of a finished run, if enabled.
fn harvest(nl: &mut NetLoop, enabled: bool) -> Option<RunTelemetry> {
    if !enabled {
        return None;
    }
    Some(RunTelemetry {
        locality: nl.flight_table().expect("flight recorder was enabled"),
        metrics: nl.metrics_snapshot(),
        trace: nl.take_trace(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shape_local_beats_remote_at_large_msgs() {
        let local = run_rx(Placement::Local, 65536, 8);
        let remote = run_rx(Placement::Remote, 65536, 8);
        let ratio = local.throughput_gbps / remote.throughput_gbps;
        assert!(
            ratio > 1.1 && ratio < 1.6,
            "Rx 64K local/remote ratio = {ratio:.2} (paper ~1.26)"
        );
        // Paper: remote memory bandwidth ≈ 3x its throughput; local ≈ 0.
        assert!(
            remote.membw_gbps > 1.5 * remote.throughput_gbps,
            "remote membw {:.1} vs tput {:.1}",
            remote.membw_gbps,
            remote.throughput_gbps
        );
        assert!(
            local.membw_gbps < 0.5 * local.throughput_gbps,
            "local membw {:.1} vs tput {:.1}",
            local.membw_gbps,
            local.throughput_gbps
        );
    }

    #[test]
    fn fig6_octopus_matches_local() {
        let local = run_rx(Placement::Local, 65536, 8);
        let octo = run_rx(Placement::Octopus, 65536, 8);
        let ratio = octo.throughput_gbps / local.throughput_gbps;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "octo/local = {ratio:.3} (paper: identical)"
        );
    }

    #[test]
    fn fig6_single_core_is_cpu_bound() {
        let r = run_rx(Placement::Local, 65536, 8);
        assert!(r.cpu_cores > 0.85, "cpu = {:.2} cores", r.cpu_cores);
        assert!(r.cpu_cores < 1.3, "cpu = {:.2} cores", r.cpu_cores);
    }

    #[test]
    fn fig7_tx_throughputs_comparable() {
        let local = run_tx(Placement::Local, 65536, 8);
        let remote = run_tx(Placement::Remote, 65536, 8);
        let ratio = local.throughput_gbps / remote.throughput_gbps;
        assert!(
            (0.9..=1.15).contains(&ratio),
            "Tx local/remote = {ratio:.2} (paper: comparable)"
        );
        // Tx should far exceed Rx ("both configurations more than double
        // their throughput compared to the Rx workload").
        let rx = run_rx(Placement::Local, 65536, 8);
        assert!(local.throughput_gbps > 1.5 * rx.throughput_gbps);
    }

    #[test]
    fn fig7_remote_membw_tracks_throughput() {
        let remote = run_tx(Placement::Remote, 65536, 8);
        let ratio = remote.membw_gbps / remote.throughput_gbps;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "remote Tx membw/tput = {ratio:.2} (paper ~1.0)"
        );
        let local = run_tx(Placement::Local, 65536, 8);
        assert!(
            local.membw_gbps < 0.4 * local.throughput_gbps,
            "local Tx membw {:.1} vs tput {:.1} (paper ~0)",
            local.membw_gbps,
            local.throughput_gbps
        );
    }
}
