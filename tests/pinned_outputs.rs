//! Figure outputs pinned across commits.
//!
//! The determinism tests compare two runs of one build; these compare a
//! build against exact `f64` bit patterns recorded from an earlier one, so
//! a change meant to be invisible to results (a faster LLC walk, a new
//! dispatch path) that moves any figure output by one ulp fails here. A
//! deliberate fidelity change re-records the constants and says why in
//! EXPERIMENTS.md.

use ioctopus::config::Placement;
use ioctopus::experiments::{memcached, nvme_fio, tcp_stream};
use ioctopus::results::ThroughputResult;

/// `(throughput_gbps, membw_gbps)` as raw bits.
fn bits(r: &ThroughputResult) -> (u64, u64) {
    (r.throughput_gbps.to_bits(), r.membw_gbps.to_bits())
}

fn assert_pinned(what: &str, r: &ThroughputResult, want: (u64, u64)) {
    assert_eq!(
        bits(r),
        want,
        "{what}: got ({}, {}) Gb/s, want ({}, {})",
        r.throughput_gbps,
        r.membw_gbps,
        f64::from_bits(want.0),
        f64::from_bits(want.1)
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
        (0x404f84a67bb8966f, 0x405477954af6ce11),
    );
    assert_pinned(
        "memcached remote",
        &memcached::run(Placement::Remote, 0.5, 24),
        (0x403f022a1d39b4cf, 0x40529d027b343be8),
    );
}

/// Figure 6 at 64 KiB: local DDIO writes for ioct, remote DRAM writes
/// (which invalidate cached copies) for remote.
#[test]
fn tcp_rx_64k_outputs_are_pinned() {
    assert_pinned(
        "rx 64 KiB ioct",
        &tcp_stream::run_rx(Placement::Octopus, 65536, 6),
        (0x4033d16e1c3d4d69, 0x0000000000000000),
    );
    assert_pinned(
        "rx 64 KiB remote",
        &tcp_stream::run_rx(Placement::Remote, 65536, 6),
        (0x402e32f0ee144531, 0x40404b53bb68f73b),
    );
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
