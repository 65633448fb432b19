//! Figure outputs pinned across commits.
//!
//! The determinism tests compare two runs of one build; these compare a
//! build against exact `f64` bit patterns recorded from an earlier one, so
//! a change meant to be invisible to results (a faster LLC walk, a new
//! dispatch path) that moves any figure output by one ulp fails here. A
//! deliberate fidelity change re-records the constants and says why in
//! EXPERIMENTS.md.

use ioctopus::config::Placement;
use ioctopus::experiments::colocation::IoKind;
use ioctopus::experiments::tcp_rr::RrConfig;
use ioctopus::experiments::{
    chaos, colocation, congestion, failover, memcached, migration, multicore, nvme_fio, pktgen,
    reconfig, tcp_rr, tcp_stream,
};
use ioctopus::results::{LatencyResult, PfSample, ThroughputResult};

/// Every `f64` field of a throughput result as raw bits: `x`,
/// `throughput_gbps`, `membw_gbps`, `cpu_cores`, `rate_per_sec`.
fn bits(r: &ThroughputResult) -> [u64; 5] {
    [
        r.x,
        r.throughput_gbps,
        r.membw_gbps,
        r.cpu_cores,
        r.rate_per_sec,
    ]
    .map(f64::to_bits)
}

fn assert_pinned(what: &str, r: &ThroughputResult, want: [u64; 5]) {
    assert_eq!(
        bits(r),
        want,
        "{what}: got {r:?}, want {:?}",
        want.map(f64::from_bits)
    );
}

/// Figure 10 at 50% SET: a 32 MB working set in a 35 MiB LLC. By the end
/// of 24 ms every set of the ioct server's LLC is full (over half of the
/// remote server's), so the CPU copies and DMA walks evict dirty lines.
#[test]
fn memcached_half_set_outputs_are_pinned() {
    assert_pinned(
        "memcached ioct",
        &memcached::run(Placement::Octopus, 0.5, 24),
        [
            0x4049000000000000,
            0x404f84a67bb8966f,
            0x405477954af6ce11,
            0x4007f68c161ac0ef,
            0x40cdbb1c71c71c72,
        ],
    );
    assert_pinned(
        "memcached remote",
        &memcached::run(Placement::Remote, 0.5, 24),
        [
            0x4049000000000000,
            0x403f022a1d39b4cf,
            0x40529d027b343be8,
            0x4015c0bf77b3eca0,
            0x40bcdce38e38e38f,
        ],
    );
}

/// Figure 6 at 64 KiB: local DDIO writes for ioct, remote DRAM writes
/// (which invalidate cached copies) for remote.
#[test]
fn tcp_rx_64k_outputs_are_pinned() {
    assert_pinned(
        "rx 64 KiB ioct",
        &tcp_stream::run_rx(Placement::Octopus, 65536, 6),
        [
            0x40f0000000000000,
            0x4033d16e1c3d4d69,
            0x0000000000000000,
            0x3feffb1e69099f5f,
            0x40e2750000000000,
        ],
    );
    assert_pinned(
        "rx 64 KiB remote",
        &tcp_stream::run_rx(Placement::Remote, 65536, 6),
        [
            0x40f0000000000000,
            0x402e32f0ee144531,
            0x40404b53bb68f73b,
            0x3ff007db4ae14724,
            0x40dc200000000000,
        ],
    );
}

/// Figure 6 at 256 B: every segment takes its own Rx buffer, and the
/// receive path hands each one back to its pool and re-posts it.
#[test]
fn tcp_rx_256_outputs_are_pinned() {
    assert_pinned(
        "rx 256 B ioct",
        &tcp_stream::run_rx(Placement::Octopus, 256, 6),
        [
            0x4070000000000000,
            0x4004544adaefa53f,
            0x3f963ad4e8244128,
            0x3ff000b03565b325,
            0x4132eee000000000,
        ],
    );
    assert_pinned(
        "rx 256 B remote",
        &tcp_stream::run_rx(Placement::Remote, 256, 6),
        [
            0x4070000000000000,
            0x4000f0124c32de79,
            0x401776089ad934ba,
            0x3ff00658c51d68e2,
            0x412f8c9000000000,
        ],
    );
}

/// Figure 8's pktgen at both packet sizes, and the §2.4 ablation that
/// moves the completion rings next to the device: every packet takes a
/// Tx kernel buffer from its node's pool.
#[test]
fn pktgen_outputs_are_pinned() {
    let points = [
        (
            "64 B ioct",
            Placement::Octopus,
            64,
            false,
            [
                0x4050000000000000,
                0x4003a92a30553261,
                0x0000000000000000,
                0x3ff0000000000000,
                0x41524f8000000000,
            ],
        ),
        (
            "64 B remote",
            Placement::Remote,
            64,
            false,
            [
                0x4050000000000000,
                0x3ffdb5abd74229ff,
                0x401dc0db2702a349,
                0x3ff0000000000000,
                0x414bab5555555555,
            ],
        ),
        (
            "64 B remote, device-local rings",
            Placement::Remote,
            64,
            true,
            [
                0x4050000000000000,
                0x3ffdb5abd74229ff,
                0x40165370313218c8,
                0x3ff0000000000000,
                0x414bab5555555555,
            ],
        ),
        (
            "1500 B ioct",
            Placement::Octopus,
            1500,
            false,
            [
                0x4097700000000000,
                0x4050000000000000,
                0x0000000000000000,
                0x3ff0000000000000,
                0x4154585555555555,
            ],
        ),
        (
            "1500 B remote",
            Placement::Remote,
            1500,
            false,
            [
                0x4097700000000000,
                0x4045e353f7ced916,
                0x40493708aac96cc6,
                0x3ff0000000000000,
                0x414bd50000000000,
            ],
        ),
        (
            "1500 B remote, device-local rings",
            Placement::Remote,
            1500,
            true,
            [
                0x4097700000000000,
                0x4045c28f5c28f5c3,
                0x40482396073de1e2,
                0x3ff0000000000000,
                0x414bab5555555555,
            ],
        ),
    ];
    for (what, p, bytes, rings_device_local, want) in points {
        assert_pinned(
            &format!("pktgen {what}"),
            &pktgen::run(p, bytes, 4, rings_device_local),
            want,
        );
    }
}

/// Figure 7 at 64 KiB: TSO sends whose DMA reads hit the LLC for ioct and
/// cross to remote DRAM for remote; the client's GRO-batched receives
/// drive the credit loop.
#[test]
fn tcp_tx_64k_outputs_are_pinned() {
    assert_pinned(
        "tx 64 KiB ioct",
        &tcp_stream::run_tx(Placement::Octopus, 65536, 6),
        [
            0x40f0000000000000,
            0x404838dbe9a0422a,
            0x3fa838dbe9a0422a,
            0x3fecfb30f7b36f1c,
            0x40f68f0000000000,
        ],
    );
    assert_pinned(
        "tx 64 KiB remote",
        &tcp_stream::run_tx(Placement::Remote, 65536, 6),
        [
            0x40f0000000000000,
            0x40488963c1707838,
            0x4048af8ece647c81,
            0x3feda3fb34afae2f,
            0x40f6da0000000000,
        ],
    );
}

/// Figure 11 under 4 STREAM pairs: the receive stream shares the
/// interconnect and DRAM servers with STREAM steps.
#[test]
fn fig11_outputs_are_pinned() {
    assert_pinned(
        "fig11 ioct",
        &congestion::run_fig11(Placement::Octopus, 4, 10),
        [
            0x4010000000000000,
            0x4033cab81f969e3c,
            0x406cd5f99c38b04b,
            0x402205679481e048,
            0x40e26ec000000000,
        ],
    );
    assert_pinned(
        "fig11 remote",
        &congestion::run_fig11(Placement::Remote, 4, 10),
        [
            0x4010000000000000,
            0x4023a92a30553261,
            0x406f7801b4352651,
            0x4021ad6141c41aa2,
            0x40d24f8000000000,
        ],
    );
}

/// §5.1.1's multi-core run with 4 instances: several streams sum into one
/// result, and the octoNIC spreads them over both sockets.
#[test]
fn multicore_outputs_are_pinned() {
    assert_pinned(
        "multicore ioct",
        &multicore::run_rx(Placement::Octopus, 4, 6),
        [
            0x4010000000000000,
            0x4053d16e1c3d4d69,
            0x4041f53edbdde1c8,
            0x401000fc85a8f522,
            0x4102750000000000,
        ],
    );
    assert_pinned(
        "multicore remote",
        &multicore::run_rx(Placement::Remote, 4, 6),
        [
            0x4010000000000000,
            0x40320916fff6c5c5,
            0x4043898cdc1bf529,
            0x40101773b00fa296,
            0x40e0cc0000000000,
        ],
    );
}

/// Figure 13 at 40 PageRank chunks and a 10 ms deadline: PageRank
/// finishes in every configuration, so both fields are finite.
#[test]
fn colocation_outputs_are_pinned() {
    // (placement, I/O kind, [pr_time_ms, io_metric])
    let points = [
        (
            Placement::Octopus,
            IoKind::Netperf,
            [0x40055a6e3d7ded74, 0x405291b31b4adf22],
        ),
        (
            Placement::Octopus,
            IoKind::Memcached,
            [0x400d9db0dab16f82, 0x402599999999999a],
        ),
        (
            Placement::Remote,
            IoKind::Netperf,
            [0x4018ed6f63a9e256, 0x4037b2a42c9a92be],
        ),
        (
            Placement::Remote,
            IoKind::Memcached,
            [0x400cb873126018b3, 0x4021cccccccccccd],
        ),
    ];
    for (p, io, want) in points {
        let r = colocation::run(p, io, 40, 10);
        assert_eq!(
            [r.pr_time_ms, r.io_metric].map(f64::to_bits),
            want,
            "colocation {p:?} {io:?}: got {r:?}"
        );
    }
}

/// Figure 15 under 5 STREAMs, 8 ms. The legacy point DMA-writes node-1
/// buffers through a node-0 port: remote, non-DDIO writes that must first
/// invalidate every cached copy. OctoSSD DDIO-writes them into the node-1
/// LLC, whose peer must lose any copy it holds.
#[test]
fn nvme_fio_outputs_are_pinned() {
    let points = [
        ("legacy", false, (0x4201c81555555555, 0x42286a0000000000)),
        ("octo", true, (0x4205e42aaaaaaaab, 0x422ccf0000000000)),
    ];
    for (what, octo, want) in points {
        let r = nvme_fio::run_raw(5, octo, 8);
        let got = (
            r.fio_bytes_per_sec.to_bits(),
            r.stream_bytes_per_sec.to_bits(),
        );
        assert_eq!(
            got,
            want,
            "nvme {what}: got ({}, {}) B/s, want ({}, {})",
            r.fio_bytes_per_sec,
            r.stream_bytes_per_sec,
            f64::from_bits(want.0),
            f64::from_bits(want.1)
        );
    }
}

/// Every `f64` field of a latency result as raw bits: `x`, `mean_us`,
/// `p90_us`, `p99_us`.
fn latency_bits(r: &LatencyResult) -> [u64; 4] {
    [r.x, r.mean_us, r.p90_us, r.p99_us].map(f64::to_bits)
}

/// FNV-1a over the raw bits of every sample of a per-PF timeline: one
/// number that moves if any sample moves by one ulp.
fn timeline_bits(samples: &[PfSample]) -> u64 {
    samples
        .iter()
        .flat_map(|s| [s.t_secs, s.pf0_gbps, s.pf1_gbps])
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3)
        })
}

/// Figure 9's ping-pong with interrupt coalescing off: among the runs with
/// the densest same-instant ties, where the queue's tie order shows first.
#[test]
fn tcp_rr_outputs_are_pinned() {
    let points = [
        (
            "ll 64 B",
            RrConfig::Ll,
            64,
            [
                0x4050000000000000,
                0x40254e030c23fab1,
                0x402554450268900c,
                0x402554450268900c,
            ],
        ),
        (
            "rr 4 KiB",
            RrConfig::Rr,
            4096,
            [
                0x40b0000000000000,
                0x40357fb03e20ccff,
                0x403586fa0d77b7c8,
                0x403586fa0d77b7c8,
            ],
        ),
    ];
    for (what, cfg, msg, want) in points {
        let r = tcp_rr::run(cfg, msg, 20);
        assert_eq!(latency_bits(&r), want, "rr {what}: got {r:?}");
        assert_eq!(r.transactions, 36, "rr {what}");
    }
}

/// Figure 12's remote ping-pong under 4 STREAM pairs: STREAM steps and
/// ping-pong DMAs contend for the same interconnect and DRAM servers.
#[test]
fn fig12_remote_latency_is_pinned() {
    let r = congestion::run_fig12(Placement::Remote, 4, 40);
    assert_eq!(
        latency_bits(&r),
        [
            0x4010000000000000,
            0x40823cf2b6f19935,
            0x408236d1904b3c3e,
            0x40838f0fdb8fde2f,
        ],
        "fig12 remote: got {r:?}"
    );
    assert_eq!(r.transactions, 56);
}

/// The PF outage timeline: fault, watchdog and sample events interleave
/// with the stream at 50 µs ticks.
#[test]
fn failover_timeline_is_pinned() {
    let r = failover::run(true);
    assert_eq!(
        (
            r.resteered_flows,
            r.error_completions,
            r.dropped_pf_dead,
            r.watchdog_recoveries,
            r.consumed,
        ),
        (1, 0, 0, 0, 27_650_516)
    );
    assert_eq!(r.samples.len(), 199);
    assert_eq!(timeline_bits(&r.samples), 0x13738819dc776865);
}

/// Figure 14: the receiving thread moves to the far socket mid-stream, so
/// its segments switch queues (and buffer pools) on octoNIC and stay on
/// the old PF with the standard driver.
#[test]
fn migration_timelines_are_pinned() {
    for (octo, want) in [(true, 0x33721a538bd9d304), (false, 0x9958a342b66fc2b4)] {
        let r = migration::run(octo);
        assert_eq!((r.ooo_packets, r.dropped), (0, 0), "{}", r.config);
        assert_eq!(r.samples.len(), 199, "{}", r.config);
        assert_eq!(timeline_bits(&r.samples), want, "{}", r.config);
    }
}

/// The surprise-removal → re-enumeration cycle: counters, the transition
/// latencies and ratios, and every sample.
#[test]
fn reconfig_cycle_is_pinned() {
    let r = reconfig::run();
    assert_eq!(
        (
            r.fenced_completions,
            r.fenced_irqs,
            r.reconfigs,
            r.nudma_entries,
            r.nudma_exits,
            r.dropped_pf_dead,
            r.resteered_flows,
            r.consumed,
        ),
        (0, 0, 2, 1, 1, 0, 1, 27_650_516)
    );
    assert_eq!(
        [
            r.remove_to_survivor_us,
            r.readd_to_home_us,
            r.degraded_ratio,
            r.recovered_ratio,
        ]
        .map(f64::to_bits),
        [
            0x4048ffffffffffe7,
            0x4048ffffffffffe7,
            0x3ff6f8091a2b3c47,
            0x3fefeaaa3d70a3d9,
        ]
    );
    assert_eq!(r.samples.len(), 199);
    assert_eq!(timeline_bits(&r.samples), 0x8ae6643252523814);
}

/// Chaos schedules under the periodic audit: fault bursts, zero-gap flaps
/// and retry timers that land at the current instant. The hotplug ones
/// reconfigure twice and fence stale deliveries. Audit check counts are
/// left out: they count the audit's predicates, not the run.
#[test]
fn chaos_schedules_are_pinned() {
    let base = chaos::base_config(7);
    let hotplug = chaos::hotplug_config(7);
    // (config, index, (events, recoveries, fenced, reconfigs))
    let points = [
        (&base, 0, (19_140, 0, 0, 0)),
        (&base, 1, (3_187, 1, 0, 0)),
        (&base, 2, (13_864, 1, 0, 0)),
        (&base, 3, (46, 2, 0, 0)),
        (&hotplug, 4, (11_377, 2, 14, 2)),
        (&hotplug, 5, (3_181, 3, 2, 2)),
        (&hotplug, 14, (13_893, 2, 9, 2)),
    ];
    for (cfg, i, want) in points {
        let r = chaos::run_schedule(cfg, i);
        assert!(r.violations.is_empty(), "schedule {i}: {:?}", r.violations);
        assert_eq!(
            (r.events, r.recoveries, r.fenced, r.reconfigs),
            want,
            "{:?} schedule {i}",
            r.family
        );
    }
}
