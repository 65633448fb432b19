//! Figures 11 and 12: I/O co-located with QPI-congesting STREAM pairs.
//!
//! "We measure the effect that QPI load has on single-core TCP Rx
//! throughput (netperf) and 64-byte UDP message latency (using sockperf).
//! To load the QPI, we occupy the other server cores with pairs of the
//! STREAM memory bandwidth benchmark. Both STREAM instances in each pair
//! target memory remote to their CPU, one reading and the other writing."
//! (§5.2)

use kernel::NetdevId;
use memsys::NodeId;
use simcore::Time;
use workloads::StreamAntagonist;

use crate::config::{BuildOpts, Placement};
use crate::netloop::{make_rr, make_rx_stream, App, NetLoop};
use crate::results::{LatencyResult, ThroughputResult};
use crate::system::build_duplex;

use super::{latency, run_window, throughput, Window};

/// Installs `pairs` STREAM pairs, split across both sockets, skipping the
/// netperf/sockperf cores (0 and 14).
fn add_pairs(nl: &mut NetLoop, pairs: usize) {
    for i in 0..pairs {
        let reader_core = 1 + i; // node 0 cores 1..
        let writer_core = 15 + i; // node 1 cores 15..
        assert!(reader_core < 14 && writer_core < 28, "too many pairs");
        let (r, _) = StreamAntagonist::pair(reader_core, reader_core, NodeId(1));
        let (_, w) = StreamAntagonist::pair(writer_core, writer_core, NodeId(0));
        nl.add_antagonist(r, Time::ZERO);
        nl.add_antagonist(w, Time::ZERO);
    }
}

/// Figure 11: single-core TCP Rx throughput under `pairs` STREAM pairs.
pub fn run_fig11(p: Placement, pairs: usize, sim_ms: u64) -> ThroughputResult {
    let mut duplex = build_duplex(p, BuildOpts::default());
    let app = make_rx_stream(
        &mut duplex,
        p.app_core(),
        0,
        NetdevId(0),
        65536,
        512 * 1024,
        4242,
    );
    let mut nl = NetLoop::new(duplex);
    let i = nl.add_app(App::Rx(app));
    add_pairs(&mut nl, pairs);
    nl.start_apps(Time::ZERO);

    let w = Window::of_ms(sim_ms);
    let (consumed, _) = run_window(&mut nl, &[i], w);
    throughput(
        &nl,
        w,
        p.label(),
        pairs as f64,
        consumed,
        consumed as f64 / 65536.0,
    )
}

/// Figure 12: 64-byte UDP ping-pong latency under `pairs` STREAM pairs.
pub fn run_fig12(p: Placement, pairs: usize, transactions: usize) -> LatencyResult {
    let mut duplex = build_duplex(
        p,
        BuildOpts {
            coalescing_off: true,
            ..BuildOpts::default()
        },
    );
    let app = make_rr(
        &mut duplex,
        p.app_core(),
        0,
        NetdevId(0),
        64,
        transactions + 16,
        4242,
        true,
    );
    let mut nl = NetLoop::new(duplex);
    let i = nl.add_app(App::Rr(app));
    add_pairs(&mut nl, pairs);
    nl.start_apps(Time::ZERO);
    nl.run(Time::from_ms(400));
    crate::perf::note_events(nl.events_processed());
    let App::Rr(a) = nl.app(i) else {
        unreachable!("app {i} is the ping-pong pair")
    };
    latency(p.label(), pairs as f64, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_congestion_craters_remote_not_local() {
        let local = run_fig11(Placement::Octopus, 4, 10);
        let remote = run_fig11(Placement::Remote, 4, 10);
        let ratio = local.throughput_gbps / remote.throughput_gbps;
        assert!(
            ratio > 1.5,
            "ioct/remote under 4 STREAM pairs = {ratio:.2} (paper 1.82-2.67)"
        );
    }

    #[test]
    fn fig11_remote_degrades_with_pairs() {
        let r1 = run_fig11(Placement::Remote, 1, 10);
        let r6 = run_fig11(Placement::Remote, 6, 10);
        assert!(
            r6.throughput_gbps < r1.throughput_gbps,
            "remote under 6 pairs ({:.1}) must be below 1 pair ({:.1})",
            r6.throughput_gbps,
            r1.throughput_gbps
        );
    }

    #[test]
    fn fig12_remote_latency_grows_with_pairs() {
        let l = run_fig12(Placement::Octopus, 4, 50);
        let r = run_fig12(Placement::Remote, 4, 50);
        assert!(l.transactions >= 50 && r.transactions >= 50);
        assert!(
            l.mean_us < r.mean_us,
            "ioct {:.1}us vs remote {:.1}us (paper: 10-22% lower)",
            l.mean_us,
            r.mean_us
        );
        // Local latency should be roughly flat in the antagonist count.
        let l0 = run_fig12(Placement::Octopus, 1, 50);
        assert!(
            l.mean_us < l0.mean_us * 1.35,
            "ioct latency nearly flat: {:.1} -> {:.1}",
            l0.mean_us,
            l.mean_us
        );
    }
}
