//! Telemetry smoke: a short traced Figure 7 pass that exercises the whole
//! telemetry subsystem end to end — tracer rings, flight recorder, metric
//! snapshot, and every exporter — then writes the trace artifacts under
//! `target/telemetry/` and schema-validates the Chrome JSON in-process
//! (the same check CI's `telemetry-dump check-json` re-runs on the
//! uploaded artifact).
//!
//! Exits nonzero if the flight recorder sees a single remote-DMA byte in
//! uniform IOctopus mode, or if any export fails validation.

use ioctopus::config::Placement;
use ioctopus::experiments::tcp_stream;

/// Ring capacity for the traced pass: small enough to exercise the
/// overwrite path, large enough to keep a meaningful tail.
const TRACE_CAP: usize = 1 << 14;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "telemetry_smoke",
        "Traced Figure 7 pass: trace artifacts, locality ledger, metric snapshot",
    );

    let (r, telem) = tcp_stream::run_tx_traced(Placement::Octopus, 65536, 2, TRACE_CAP);
    println!(
        "traced run: {:.2} Gb/s | {} trace records retained ({} overwritten)",
        r.throughput_gbps,
        telem.trace.retained(),
        telem.trace.overwritten()
    );
    assert!(telem.trace.retained() > 0, "tracer recorded nothing");

    // The IOctopus claim, as the flight recorder saw it.
    let t = &telem.locality;
    println!("\nlocality ledger:\n{}", t.render());
    assert_eq!(
        t.remote_bytes(),
        0,
        "uniform IOctopus mode must keep every DMA byte node-local"
    );
    assert!(t.local_bytes() > 0);

    // Exports: native and Chrome trace_event JSON.
    let native = telemetry::export::to_native(&telem.trace);
    let chrome = telemetry::export::to_chrome_json(&telem.trace);
    let events = telemetry::export::json::validate_chrome(&chrome)
        .expect("chrome export must satisfy the trace_event schema");
    println!("chrome export: {events} events, schema OK");
    assert!(
        telemetry::export::parse_native(&native).is_ok(),
        "native export must parse back"
    );

    let dir = bench::repo_root().join("target").join("telemetry");
    if std::fs::create_dir_all(&dir).is_ok() {
        for (name, body) in [("fig07.trace", &native), ("fig07.chrome.json", &chrome)] {
            let p = dir.join(name);
            if std::fs::write(&p, body).is_ok() {
                println!("[artifact] {}", p.display());
            }
        }
    }

    // Spot-check a few metric-snapshot rows every run must produce.
    let m = &telem.metrics;
    for key in [
        "nic.tx.bytes",
        "nic.dma.local_bytes",
        "net.events_processed",
    ] {
        let v = m.get(key).unwrap_or_else(|| panic!("snapshot lacks {key}"));
        assert!(v > 0, "{key} = 0 in a traced streaming run");
    }
    assert_eq!(m.get("nic.dma.remote_bytes"), Some(0));
    println!("\nmetric snapshot ({} rows):", m.rows().len());
    print!("{}", m.render());

    bench::footer(t0);
}
