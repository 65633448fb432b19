//! Determinism gate for the telemetry subsystem (DESIGN.md §11).
//!
//! Trace artifacts are part of the experiment output, so they obey the
//! same contract as every number the simulator produces: identical
//! configuration ⇒ byte-identical bytes, whether the sweep ran serially
//! or on the worker pool. Exporters format integers only (timestamps are
//! fixed-point microseconds computed in integer arithmetic), so there is
//! no platform float-formatting to leak through.

use ioctopus::config::Placement;
use ioctopus::experiments::tcp_stream;
use ioctopus::sweep;
use telemetry::export;

/// One traced Figure 7 point, exported every way we know how.
fn traced_exports(msg: u64) -> (String, String) {
    let (_, telem) = tcp_stream::run_tx_traced(Placement::Octopus, msg, 2, 1 << 12);
    (
        export::to_native(&telem.trace),
        export::to_chrome_json(&telem.trace),
    )
}

#[test]
fn identical_runs_produce_byte_identical_trace_exports() {
    let (n1, c1) = traced_exports(16384);
    let (n2, c2) = traced_exports(16384);
    assert!(n1.lines().count() > 10, "trace must have content");
    assert_eq!(n1, n2, "native export must be byte-identical across runs");
    assert_eq!(c1, c2, "chrome export must be byte-identical across runs");
}

#[test]
fn traced_sweep_parallel_is_byte_identical_to_serial() {
    let sizes: Vec<u64> = vec![4096, 65536];
    let serial = sweep::sweep_serial(sizes.clone(), traced_exports);
    let parallel = sweep::sweep(sizes, traced_exports);
    assert_eq!(
        serial, parallel,
        "trace artifacts must not depend on sweep scheduling"
    );
}

#[test]
fn exports_roundtrip_and_validate() {
    let (native, chrome) = traced_exports(16384);
    let parsed = export::parse_native(&native).expect("native export parses back");
    assert!(!parsed.is_empty());
    let events = export::json::validate_chrome(&chrome).expect("chrome schema");
    assert!(events > parsed.len(), "metadata events + records");
}

#[test]
fn flight_ledger_is_deterministic() {
    let (_, a) = tcp_stream::run_rx_traced(Placement::Remote, 16384, 2, 64);
    let (_, b) = tcp_stream::run_rx_traced(Placement::Remote, 16384, 2, 64);
    assert_eq!(a.locality, b.locality, "ledger must be run-stable");
    assert_eq!(
        a.metrics.rows(),
        b.metrics.rows(),
        "snapshot must be run-stable"
    );
}
