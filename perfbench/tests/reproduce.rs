//! The benchmark's compositions against the figure runners, and its
//! output against `BENCHMARK.json`.
//!
//! At seed 0 and the figure harness's length, every workload point must
//! reproduce its runner's result bit for bit: the benchmark measures the
//! simulator the figures come from, not a look-alike.

use std::collections::BTreeSet;

use ioctopus::config::Placement;
use ioctopus::experiments::{congestion, memcached, nvme_fio, tcp_stream};
use ioctopus::results::{LatencyResult, NvmeResult, ThroughputResult};
use perfbench::ledger::Ledger;
use perfbench::net::{run_point, NetApp, NetPoint, NetResult};
use perfbench::spans::Spans;
use perfbench::{report, run_traced, run_workload, Inputs, WorkloadRun, WORKLOADS};
use simcore::Audit;

fn point(placement: Placement, app: NetApp, sim_ms: u64, spans: &mut Spans) -> NetResult {
    let pt = NetPoint {
        placement,
        app,
        sim_ms,
        seed: 0,
    };
    let mut checks = Audit::new();
    let (r, _) = run_point(&pt, "test", spans, &mut checks, &mut Ledger::default());
    assert!(checks.ok(), "{:?}", checks.violations());
    r
}

fn same_bits(a: &[f64], b: &[f64]) {
    let a: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
    let b: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
    assert_eq!(a, b);
}

fn same_tput(a: &ThroughputResult, b: &ThroughputResult) {
    assert_eq!(a.config, b.config);
    same_bits(
        &[
            a.x,
            a.throughput_gbps,
            a.membw_gbps,
            a.cpu_cores,
            a.rate_per_sec,
        ],
        &[
            b.x,
            b.throughput_gbps,
            b.membw_gbps,
            b.cpu_cores,
            b.rate_per_sec,
        ],
    );
}

fn same_lat(a: &LatencyResult, b: &LatencyResult) {
    assert_eq!((&a.config, a.transactions), (&b.config, b.transactions));
    same_bits(
        &[a.x, a.mean_us, a.p90_us, a.p99_us],
        &[b.x, b.mean_us, b.p90_us, b.p99_us],
    );
}

fn same_nvme(a: &NvmeResult, b: &NvmeResult) {
    assert_eq!(a.streams, b.streams);
    same_bits(
        &[a.fio_normalized, a.stream_normalized, a.fio_gbs],
        &[b.fio_normalized, b.stream_normalized, b.fio_gbs],
    );
}

#[test]
fn rx_stream_matches_tcp_stream_run_rx() {
    for p in [Placement::Octopus, Placement::Remote] {
        for msg in [65536, 256] {
            let bench = point(p, NetApp::Rx { msg }, 8, &mut Spans::off());
            same_tput(bench.tput(), &tcp_stream::run_rx(p, msg, 8));
        }
    }
}

#[test]
fn traced_rx_stream_matches_tcp_stream_run_rx() {
    let bench = point(
        Placement::Remote,
        NetApp::Rx { msg: 65536 },
        8,
        &mut Spans::on(),
    );
    same_tput(
        bench.tput(),
        &tcp_stream::run_rx(Placement::Remote, 65536, 8),
    );
}

#[test]
fn kv_mix_matches_memcached_run() {
    for p in [Placement::Octopus, Placement::Remote] {
        let bench = point(p, NetApp::Kv { set_ratio: 0.5 }, 12, &mut Spans::off());
        same_tput(bench.tput(), &memcached::run(p, 0.5, 12));
    }
}

#[test]
fn qpi_congestion_matches_fig11_and_fig12_runners() {
    for p in [Placement::Octopus, Placement::Remote] {
        let fig11 = point(p, NetApp::RxCongested { pairs: 4 }, 10, &mut Spans::off());
        same_tput(fig11.tput(), &congestion::run_fig11(p, 4, 10));
        let app = NetApp::RrCongested { pairs: 4, txns: 60 };
        let fig12 = point(p, app, perfbench::net::FIG12_MS, &mut Spans::off());
        same_lat(fig12.lat(), &congestion::run_fig12(p, 4, 60));
    }
}

#[test]
fn nvme_fio_matches_nvme_fio_run() {
    let mut run = WorkloadRun::default();
    let mut reference = perfbench::reference::Reference::new();
    let (legacy, octo, alone) =
        perfbench::nvme::points(8, &mut Spans::off(), &mut run, &mut reference);
    assert!(run.checks.ok(), "{:?}", run.checks.violations());
    same_nvme(&legacy, &nvme_fio::run(5, false, 8));
    same_nvme(&octo, &nvme_fio::run(5, true, 8));
    same_bits(
        &[alone],
        &[nvme_fio::run_raw(0, false, 8).fio_bytes_per_sec],
    );
}

/// Every `"name"` in `BENCHMARK.json`.
fn declared_names() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    text.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn output_matches_benchmark_json_and_checks_pass() {
    let declared = declared_names();
    let tiny = Inputs {
        seed: 3,
        budget_s: 0.2,
    };
    for w in WORKLOADS {
        assert!(declared.contains(w), "workload {w} not in BENCHMARK.json");
        let untraced = run_workload(w, &tiny, &mut Spans::off()).expect("known workload");
        let e2e = report::end_to_end(&untraced);
        let (mut traced, spans) = run_traced(w, &tiny).expect("known workload");
        let layers = report::per_layer(&untraced, &mut traced, &spans, 0.0);
        for r in [&e2e, &layers] {
            assert_eq!(r.failed, 0, "{w}: {:?}", r.failures);
            for m in &r.metrics {
                assert!(declared.contains(&m.name), "{w}: {} not declared", m.name);
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
            }
        }
        let printed: BTreeSet<&str> = e2e
            .metrics
            .iter()
            .chain(&layers.metrics)
            .map(|m| m.name.as_str())
            .chain(WORKLOADS)
            .collect();
        let missing: Vec<&String> = declared
            .iter()
            .filter(|n| !printed.contains(n.as_str()))
            .collect();
        assert!(
            missing.is_empty(),
            "{w}: declared but not printed: {missing:?}"
        );
        let attributed: f64 = layers
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".attributed_s") || m.name == "host.unattributed_s")
            .map(|m| m.value)
            .sum();
        let wall = layers
            .metrics
            .iter()
            .find(|m| m.name == "host.wall_s")
            .expect("host.wall_s")
            .value;
        assert!(
            (attributed - wall).abs() < 1e-9 * wall.max(1.0),
            "{w}: ledger does not add up"
        );
    }
}
