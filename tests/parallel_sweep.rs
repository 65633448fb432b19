//! Differential test: the parallel sweep must be bit-for-bit identical to
//! the serial loop it replaced. Each sweep point is a self-contained,
//! deterministic simulation, so any divergence means shared mutable state
//! leaked between points — exactly the bug class this test exists to catch.

use ioctopus::config::Placement;
use ioctopus::experiments::tcp_rr::RrConfig;
use ioctopus::experiments::{tcp_rr, tcp_stream};
use ioctopus::sweep;

/// A full Figure 6-style sweep (both placements at every message size),
/// serial vs parallel, compared through exact bit patterns of every float.
#[test]
fn fig06_sweep_parallel_is_bit_identical_to_serial() {
    let sizes: Vec<u64> = vec![256, 4096, 65536];
    let point = |msg: u64| {
        let l = tcp_stream::run_rx(Placement::Octopus, msg, 3);
        let r = tcp_stream::run_rx(Placement::Remote, msg, 3);
        [
            l.throughput_gbps,
            l.membw_gbps,
            l.cpu_cores,
            r.throughput_gbps,
            r.membw_gbps,
            r.cpu_cores,
        ]
        .map(f64::to_bits)
    };
    let serial = sweep::sweep_serial(sizes.clone(), point);
    let parallel = sweep::sweep(sizes, point);
    assert_eq!(serial, parallel, "parallel sweep diverged from serial");
}

/// Latency figures exercise the RR apps and histograms; check those too.
#[test]
fn rr_sweep_parallel_is_bit_identical_to_serial() {
    let sizes: Vec<u64> = vec![64, 1024, 16384];
    let point = |msg: u64| {
        let r = tcp_rr::run(RrConfig::Rr, msg, 30);
        [r.mean_us, r.p90_us, r.p99_us].map(f64::to_bits)
    };
    let serial = sweep::sweep_serial(sizes.clone(), point);
    let parallel = sweep::sweep(sizes, point);
    assert_eq!(serial, parallel, "parallel RR sweep diverged from serial");
}

/// Repeated parallel sweeps of the same points agree with each other
/// (schedule-independence: results cannot depend on worker interleaving).
#[test]
fn parallel_sweep_is_schedule_independent() {
    let point = |msg: u64| {
        tcp_stream::run_rx(Placement::Octopus, msg, 2)
            .throughput_gbps
            .to_bits()
    };
    let a = sweep::sweep(vec![512, 8192], point);
    let b = sweep::sweep(vec![512, 8192], point);
    assert_eq!(a, b);
}
