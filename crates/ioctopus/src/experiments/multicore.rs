//! The multi-core throughput experiment of §5.1.1 (described in prose; the
//! paper omits the figures "due to space constraints"):
//!
//! "We evaluate multi-core performance by running a netperf instance on
//! each core of the machine. Having multiple cores driving the workload
//! shifts the bottleneck from the CPU to the network, and both
//! configurations are able to sustain line rate. However, ioct/local incurs
//! memory traffic, unlike the single-core workloads. The reason is that the
//! combined working set of all the cores exceeds the LLC size."

use kernel::NetdevId;
use simcore::Time;

use crate::config::{BuildOpts, Placement};
use crate::netloop::{make_rx_stream, App, NetLoop};
use crate::results::ThroughputResult;
use crate::system::build_duplex;

use super::{run_window, throughput, Window};

/// Runs `instances` single-flow netperf Rx instances, one per server core.
///
/// * `Local`: instances on node 0, netdev 0 (PF0) — every flow local.
/// * `Remote`: instances on node 1, netdev 0 — every flow remote.
/// * `Octopus`: instances spread across *both* sockets on the single
///   octoNIC netdev — the configuration multiple devices cannot express
///   (§2.5) and the octoNIC handles natively.
pub fn run_rx(p: Placement, instances: usize, sim_ms: u64) -> ThroughputResult {
    assert!(
        (1..=13).contains(&instances),
        "1..=13 instances (client has 14 cores)"
    );
    let mut duplex = build_duplex(p, BuildOpts::default());
    let mut apps = Vec::new();
    for k in 0..instances {
        let server_core = match p {
            Placement::Local => k,                      // node 0 cores
            Placement::Remote => 14 + k,                // node 1 cores
            Placement::Octopus => (k % 2) * 14 + k / 2, // both sockets
        };
        apps.push(make_rx_stream(
            &mut duplex,
            server_core,
            k, // one client core each
            NetdevId(0),
            65536,
            512 * 1024,
            7000 + k as u16,
        ));
    }
    let mut nl = NetLoop::new(duplex);
    let idxs: Vec<usize> = apps.into_iter().map(|a| nl.add_app(App::Rx(a))).collect();
    nl.start_apps(Time::ZERO);

    let w = Window::of_ms(sim_ms);
    let (consumed, _) = run_window(&mut nl, &idxs, w);
    throughput(
        &nl,
        w,
        p.label(),
        instances as f64,
        consumed,
        consumed as f64 / 65536.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicore_shifts_bottleneck_off_the_cpu() {
        // Aggregate throughput must far exceed a single core's and the
        // per-instance CPU must drop below saturation (the NIC/PCIe becomes
        // the limit).
        let one = run_rx(Placement::Octopus, 1, 6);
        let many = run_rx(Placement::Octopus, 8, 6);
        assert!(
            many.throughput_gbps > 2.0 * one.throughput_gbps,
            "8 instances {:.1} vs 1 instance {:.1}",
            many.throughput_gbps,
            one.throughput_gbps
        );
        let per_core = many.cpu_cores / 8.0;
        assert!(
            per_core < 0.95,
            "per-instance cpu = {per_core:.2} (network-bound)"
        );
    }

    #[test]
    fn multicore_local_incurs_memory_traffic() {
        // "ioct/local incurs memory traffic, unlike the single-core
        // workloads ... the combined working set of all the cores exceeds
        // the LLC size."
        let one = run_rx(Placement::Local, 1, 6);
        let many = run_rx(Placement::Local, 12, 6);
        assert!(one.membw_gbps < 0.1 * one.throughput_gbps.max(1.0));
        assert!(
            many.membw_gbps > one.membw_gbps,
            "12 instances spill the LLC: {:.2} vs {:.2} Gb/s",
            many.membw_gbps,
            one.membw_gbps
        );
    }

    #[test]
    fn multicore_local_saturates_its_pf() {
        // "both configurations are able to sustain line rate" — for a
        // single PF of the bifurcated NIC, line rate is the x8 link
        // (~57 Gb/s payload).
        let local = run_rx(Placement::Local, 13, 6);
        assert!(
            local.throughput_gbps > 45.0,
            "local must saturate its x8 PF: {:.1}",
            local.throughput_gbps
        );
        let remote = run_rx(Placement::Remote, 13, 6);
        let ratio = local.throughput_gbps / remote.throughput_gbps;
        assert!(ratio < 1.55, "multi-core gap bounded: {ratio:.2}");
    }

    #[test]
    fn octopus_aggregates_both_pfs_beyond_single_pf_line_rate() {
        // With instances on both sockets, the octoNIC drives BOTH x8
        // endpoints — throughput no single-PF configuration can reach.
        // (The paper's transparency goal, §3.4, quantified.)
        let octo = run_rx(Placement::Octopus, 8, 6);
        let local = run_rx(Placement::Local, 8, 6);
        assert!(
            octo.throughput_gbps > 70.0 && octo.throughput_gbps > 1.3 * local.throughput_gbps,
            "octo {:.1} vs single-PF local {:.1}",
            octo.throughput_gbps,
            local.throughput_gbps
        );
    }
}
