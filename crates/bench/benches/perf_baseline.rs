//! Self-profiling perf baseline: times a representative sweep from each
//! figure family serially and in parallel, and writes the machine-readable
//! `BENCH_2.json` at the workspace root (consumed by CI and tracked in the
//! repo as the PR's perf record).
//!
//! `--smoke` shrinks every sweep to its cheapest point so CI can run the
//! whole harness in seconds; the full run uses figure-sized points.
//!
//! Serial runs are forced with `IOCTOPUS_THREADS=1` via an env guard around
//! the timed closure; parallel runs use the machine's available
//! parallelism. Results are bit-identical either way (the `parallel_sweep`
//! test enforces it), so the comparison is pure scheduling overhead vs
//! speedup. On a 1-worker machine the second pass is labeled `repeat`, not
//! `parallel` — there is no parallelism to claim.
//!
//! The process runs under a counting global allocator; each figure's second
//! pass reports its allocation count and allocs/event, making the
//! zero-allocation hot-path claim a tracked number rather than an assertion
//! in a doc comment.

use std::time::Instant;

use simcore::alloc_count::{allocation_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

use bench::{json_escape, repo_root};
use ioctopus::config::Placement;
use ioctopus::experiments::tcp_rr::RrConfig;
use ioctopus::experiments::{congestion, nvme_fio, pktgen, tcp_rr, tcp_stream};
use ioctopus::{perf, sweep};

struct Case {
    name: &'static str,
    /// Sweep points; each returns a checksum-able f64 so serial/parallel
    /// agreement is asserted on actual results, not just timing.
    run: fn(smoke: bool) -> f64,
}

fn fig06(smoke: bool) -> f64 {
    let sizes: Vec<u64> = if smoke {
        vec![256, 65536]
    } else {
        vec![256, 1024, 4096, 16384, 65536]
    };
    let ms = if smoke { 2 } else { 6 };
    sweep::sweep(sizes, |msg| {
        let l = tcp_stream::run_rx(Placement::Octopus, msg, ms);
        let r = tcp_stream::run_rx(Placement::Remote, msg, ms);
        l.throughput_gbps + r.throughput_gbps
    })
    .iter()
    .sum()
}

fn fig07(smoke: bool) -> f64 {
    let sizes: Vec<u64> = if smoke {
        vec![256, 65536]
    } else {
        vec![256, 1024, 4096, 16384, 65536]
    };
    let ms = if smoke { 2 } else { 6 };
    sweep::sweep(sizes, |msg| {
        tcp_stream::run_tx(Placement::Octopus, msg, ms).throughput_gbps
    })
    .iter()
    .sum()
}

fn fig08(smoke: bool) -> f64 {
    let pkts: Vec<u64> = if smoke {
        vec![64, 1500]
    } else {
        vec![64, 128, 256, 512, 1024, 1500]
    };
    let ms = if smoke { 2 } else { 6 };
    sweep::sweep(pkts, |pkt| {
        pktgen::run(Placement::Remote, pkt, ms, false).rate_per_sec
    })
    .iter()
    .sum()
}

fn fig09(smoke: bool) -> f64 {
    let sizes: Vec<u64> = if smoke {
        vec![64, 4096]
    } else {
        vec![64, 256, 1024, 4096, 16384]
    };
    let n = if smoke { 20 } else { 60 };
    sweep::sweep(sizes, |msg| {
        tcp_rr::run(RrConfig::Ll, msg, n).mean_us + tcp_rr::run(RrConfig::Rr, msg, n).mean_us
    })
    .iter()
    .sum()
}

fn fig11(smoke: bool) -> f64 {
    let pairs: Vec<usize> = if smoke { vec![1, 4] } else { (1..=6).collect() };
    let ms = if smoke { 3 } else { 10 };
    sweep::sweep(pairs, |p| {
        congestion::run_fig11(Placement::Remote, p, ms).throughput_gbps
    })
    .iter()
    .sum()
}

fn fig15(smoke: bool) -> f64 {
    let streams: Vec<usize> = if smoke { vec![1, 4] } else { (1..=8).collect() };
    let ms = if smoke { 3 } else { 8 };
    sweep::sweep(streams, |s| nvme_fio::run(s, false, ms).fio_normalized)
        .iter()
        .sum()
}

const CASES: &[Case] = &[
    Case {
        name: "fig06_tcp_rx",
        run: fig06,
    },
    Case {
        name: "fig07_tcp_tx",
        run: fig07,
    },
    Case {
        name: "fig08_pktgen",
        run: fig08,
    },
    Case {
        name: "fig09_tcp_rr",
        run: fig09,
    },
    Case {
        name: "fig11_congestion",
        run: fig11,
    },
    Case {
        name: "fig15_nvme",
        run: fig15,
    },
];

struct Row {
    name: &'static str,
    serial_s: f64,
    parallel_s: f64,
    events: u64,
    /// Heap allocations during the second (parallel/repeat) pass, including
    /// per-sweep setup (machine construction); steady-state dispatch itself
    /// allocates nothing.
    allocs: u64,
    checksum_match: bool,
}

impl Row {
    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

/// Runs `f` with `IOCTOPUS_THREADS` pinned to `threads`, restoring the
/// previous value afterwards.
fn with_threads<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    let key = simcore::pool::THREADS_ENV;
    let prev = std::env::var(key).ok();
    // Single-threaded harness: no concurrent reader of this env var exists
    // while we swap it (sweeps only read it at fan-out time, inside `f`).
    match threads {
        Some(n) => std::env::set_var(key, n.to_string()),
        None => std::env::remove_var(key),
    }
    let out = f();
    match prev {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
    out
}

/// Pulls a `"key": <number>` value out of a flat JSON document. Enough
/// parser for our own `BENCH_2.json`; avoids a serde dependency.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = doc[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `events` count a baseline document records for figure `name`.
fn baseline_events(doc: &str, name: &str) -> Option<u64> {
    let start = doc.find(&format!("\"name\": \"{}\"", json_escape(name)))?;
    let figure = &doc[start..start + doc[start..].find('}')?];
    json_number(figure, "events").map(|e| e as u64)
}

/// Regression gate against a previously committed baseline JSON, in two
/// steps. First, exact work counts: every figure this run reports must
/// appear in the baseline with the same `events`, since the simulation is
/// deterministic and any difference is a behavior change. Second, the loose
/// wall-clock gate: the aggregate event rate must not fall more than 20%
/// below the baseline's. Smoke and full runs differ in both counts and
/// rates — smoke points are setup-dominated — so the gate only fires when
/// the baseline was recorded in the same mode (CI compares smoke against the
/// committed `BENCH_2_SMOKE.json`).
fn check_against_baseline(rows: &[Row], smoke: bool, path: &str) {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            // A missing baseline is not a regression (fresh clone, first
            // run); the gate only fires on measured decay.
            println!("[baseline] {path} unreadable ({e}); skipping gate");
            return;
        }
    };
    let base_smoke = doc.contains("\"smoke\": true");
    if base_smoke != smoke {
        println!(
            "[baseline] {path} was recorded with smoke={base_smoke}, this run is \
             smoke={smoke}; counts and rates are not comparable, skipping gate"
        );
        return;
    }
    let mut mismatches = Vec::new();
    for r in rows {
        match baseline_events(&doc, r.name) {
            Some(e) if e == r.events => {}
            Some(e) => mismatches.push(format!("{}: {} events, baseline {e}", r.name, r.events)),
            None => mismatches.push(format!("{}: missing from the baseline", r.name)),
        }
    }
    assert!(
        mismatches.is_empty(),
        "work-count change against {path}:\n  {}",
        mismatches.join("\n  ")
    );
    println!("[baseline] events match the committed count on every figure");

    let base_events = json_number(&doc, "total_events");
    let base_secs = json_number(&doc, "total_parallel_s");
    let (Some(base_events), Some(base_secs)) = (base_events, base_secs) else {
        println!("[baseline] {path} lacks total_events/total_parallel_s; skipping rate gate");
        return;
    };
    let base_rate = base_events / base_secs.max(1e-9);
    let events: u64 = rows.iter().map(|r| r.events).sum();
    let secs: f64 = rows.iter().map(|r| r.parallel_s).sum();
    let rate = events as f64 / secs.max(1e-9);
    let ratio = rate / base_rate.max(1e-9);
    println!(
        "[baseline] {rate:.0} events/s vs committed {base_rate:.0} events/s (ratio {ratio:.2})"
    );
    assert!(
        ratio >= 0.80,
        "perf regression: {rate:.0} events/s is more than 20% below the \
         committed baseline's {base_rate:.0} events/s ({path})"
    );
}

fn write_json(rows: &[Row], smoke: bool, threads: usize) -> Option<std::path::PathBuf> {
    let path = repo_root().join("BENCH_2.json");
    let mut j = String::from("{\n");
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str(&format!("  \"threads\": {threads},\n"));
    // A 1-thread run's second pass measured no parallelism; say so.
    j.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if threads > 1 {
            "parallel"
        } else {
            "serial-repeat"
        }
    ));
    let total_serial: f64 = rows.iter().map(|r| r.serial_s).sum();
    let total_parallel: f64 = rows.iter().map(|r| r.parallel_s).sum();
    j.push_str(&format!("  \"total_serial_s\": {total_serial:.3},\n"));
    j.push_str(&format!("  \"total_parallel_s\": {total_parallel:.3},\n"));
    let total_events: u64 = rows.iter().map(|r| r.events).sum();
    j.push_str(&format!("  \"total_events\": {total_events},\n"));
    j.push_str(&format!(
        "  \"speedup\": {:.3},\n",
        total_serial / total_parallel.max(1e-9)
    ));
    j.push_str("  \"figures\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_s\": {:.3}, \"parallel_s\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {:.0}, \"speedup\": {:.3}, \
             \"allocs\": {}, \"allocs_per_event\": {:.4}, \
             \"serial_parallel_match\": {}}}{}\n",
            json_escape(r.name),
            r.serial_s,
            r.parallel_s,
            r.events,
            r.events as f64 / r.parallel_s.max(1e-9),
            r.serial_s / r.parallel_s.max(1e-9),
            r.allocs,
            r.allocs_per_event(),
            r.checksum_match,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&path, j).ok()?;
    Some(path)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let t0 = Instant::now();
    bench::header(
        "perf_baseline",
        if smoke {
            "self-profiling sweep baseline (smoke points)"
        } else {
            "self-profiling sweep baseline (figure-sized points)"
        },
    );
    let threads = simcore::pool::worker_count(usize::MAX);
    // With one worker the second pass exercises no parallelism; refusing
    // the label keeps the table and json honest on small machines.
    let second = if threads > 1 { "parallel" } else { "repeat" };
    println!(
        "{:>18} | {:>9} | {:>10} | {:>8} | {:>12} | {:>10} | {:>7}",
        "figure",
        "serial[s]",
        format!("{second}[s]"),
        "speedup",
        "events",
        "allocs/ev",
        "match"
    );
    let mut rows = Vec::new();
    for c in CASES {
        let _ = perf::take_events();
        let s0 = Instant::now();
        let serial_sum = with_threads(Some(1), || (c.run)(smoke));
        let serial_s = s0.elapsed().as_secs_f64();
        let _ = perf::take_events();

        let a0 = allocation_count();
        let p0 = Instant::now();
        let parallel_sum = (c.run)(smoke);
        let parallel_s = p0.elapsed().as_secs_f64();
        let events = perf::take_events();
        let allocs = allocation_count() - a0;

        let checksum_match = serial_sum.to_bits() == parallel_sum.to_bits();
        let row = Row {
            name: c.name,
            serial_s,
            parallel_s,
            events,
            allocs,
            checksum_match,
        };
        println!(
            "{:>18} | {:>9.2} | {:>10.2} | {:>7.2}x | {:>12} | {:>10.4} | {:>7}",
            row.name,
            row.serial_s,
            row.parallel_s,
            row.serial_s / row.parallel_s.max(1e-9),
            row.events,
            row.allocs_per_event(),
            row.checksum_match,
        );
        assert!(
            checksum_match,
            "{}: serial and {second} sweeps disagree",
            c.name
        );
        rows.push(row);
    }
    let total_serial: f64 = rows.iter().map(|r| r.serial_s).sum();
    let total_parallel: f64 = rows.iter().map(|r| r.parallel_s).sum();
    let total_allocs: u64 = rows.iter().map(|r| r.allocs).sum();
    let total_events: u64 = rows.iter().map(|r| r.events).sum();
    println!(
        "\ntotal: serial {total_serial:.2}s, {second} {total_parallel:.2}s, speedup {:.2}x on {threads} worker(s)",
        total_serial / total_parallel.max(1e-9)
    );
    println!(
        "allocations: {total_allocs} over {total_events} events = {:.4} allocs/event \
         (includes per-sweep machine setup; steady-state dispatch is 0)",
        total_allocs as f64 / total_events.max(1) as f64
    );
    if let Some(p) = write_json(&rows, smoke, threads) {
        println!("[json] {}", p.display());
    }
    if let Some(path) = baseline {
        check_against_baseline(&rows, smoke, &path);
    }
    bench::footer(t0);
}
