//! Turns workload runs into the named metrics the benchmark prints.

use std::collections::BTreeMap;

use crate::ledger::LAYERS;
use crate::spans::{Span, Spans};
use crate::{cpu_sim_speed, median, Counts, WorkloadRun};

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The printed result of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Checks run.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Failed checks, described.
    pub failures: Vec<String>,
    /// Per-point lines printed above the metrics.
    pub points: Vec<String>,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn take_checks(&mut self, run: &WorkloadRun) {
        self.attempted += run.checks.checks();
        for v in run.checks.violations() {
            self.failed += 1;
            self.failures
                .push(format!("{}/{}: {}", v.subsystem, v.check, v.detail));
        }
    }

    /// The human table: one `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for p in &self.points {
            s.push_str(p);
            s.push('\n');
        }
        for m in &self.metrics {
            s.push_str(&format!("{:<34} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(run: &WorkloadRun) -> Report {
    let mut r = Report::default();
    r.take_checks(run);
    let setups: Vec<f64> = run.points.iter().flat_map(|p| p.setup_s.clone()).collect();
    for p in &run.points {
        r.points.push(format!(
            "point {:<18} window {:>8.1} sim_ms  wall {:>7.3} s  cpu {:>7.3} s  {:>11.1} sim_us/cpu_s  setup {:.4} s  events {}",
            p.name,
            p.window_sim_us / 1e3,
            p.window_host_s,
            p.window_cpu_s,
            cpu_sim_speed(std::slice::from_ref(p)),
            median(&p.setup_s),
            p.counts.events,
        ));
    }
    for q in &run.quantities {
        r.points.push(format!(
            "model {:<18} {:>12.6} (paper {})",
            q.name, q.sim, q.paper
        ));
    }
    r.points.push(format!(
        "reference round {:.3} ms (nominal {} ms); unscaled sim_speed {:.1} sim_us/s, setup {:.6} s",
        run.ref_round_s * 1e3,
        crate::reference::NOMINAL_ROUND_S * 1e3,
        cpu_sim_speed(&run.points),
        median(&setups),
    ));
    r.push("sim_speed", run.sim_speed(), "sim_us/s");
    r.push("setup_s", run.setup_s(), "s");
    r.push(
        "heap_peak_mb",
        run.heap_peak as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    r.push("paper_err", run.paper_err(), "ratio");
    let passed = r.attempted - r.failed;
    r.push(
        "pass_ratio",
        passed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    r
}

/// Counts summed over a run's points.
fn sum_counts(run: &WorkloadRun) -> Counts {
    let mut t = Counts::default();
    for p in &run.points {
        let c = &p.counts;
        t.events += c.events;
        t.irqs += c.irqs;
        t.dma_reads += c.dma_reads;
        t.dma_writes += c.dma_writes;
        t.steering += c.steering;
        t.local_bytes += c.local_bytes;
        t.remote_bytes += c.remote_bytes;
        t.ddio_hits += c.ddio_hits;
        t.ddio_misses += c.ddio_misses;
        t.qpi_crossings += c.qpi_crossings;
        t.issued_txns += c.issued_txns;
        t.dropped_txns += c.dropped_txns;
        t.llc_hits += c.llc_hits;
        t.llc_misses += c.llc_misses;
        t.dram_bytes += c.dram_bytes;
        t.interconnect_bytes += c.interconnect_bytes;
        t.memo_hits += c.memo_hits;
        t.memo_misses += c.memo_misses;
        t.nvme_reads += c.nvme_reads;
        t.stream_steps += c.stream_steps;
        t.queue_len = t.queue_len.max(c.queue_len);
    }
    t
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Constructors timed during set-up, as `setup.<name>_ms`.
const CONSTRUCTORS: [&str; 12] = [
    "build_duplex",
    "make_app",
    "netloop_new",
    "add_app",
    "add_antagonist",
    "start_apps",
    "memsystem_new",
    "pciefabric_new",
    "cores_new",
    "ssd_new",
    "fiojob_new",
    "stream_pair",
];

/// Per build, the summed duration of each constructor's spans; returns,
/// per constructor, the median over the builds that called it (ms).
fn setup_ms(spans: &Spans) -> BTreeMap<&'static str, f64> {
    let all: &[Span] = spans.spans();
    let mut per_build: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for s in all {
        let mut p = s.parent;
        while let Some(i) = p {
            if all[i as usize].name == "setup" {
                *per_build.entry(i).or_default().entry(s.name).or_default() +=
                    (s.end - s.start) as f64 / 1e6;
                break;
            }
            p = all[i as usize].parent;
        }
    }
    CONSTRUCTORS
        .iter()
        .map(|&c| {
            let v: Vec<f64> = per_build
                .values()
                .filter_map(|b| b.get(c).copied())
                .collect();
            (c, median(&v))
        })
        .collect()
}

/// Model metric names, in the order `BENCHMARK.json` lists them; a
/// workload reports 0 for the quantities it does not simulate.
pub const MODEL: [(&str, &str); 9] = [
    ("rx64k_ratio", "ratio"),
    ("rx256_ratio", "ratio"),
    ("rx64k_ioct_gbps", "Gb/s"),
    ("kv_ktps_ratio", "ratio"),
    ("kv_membw_ratio", "ratio"),
    ("qpi_tput_ratio", "ratio"),
    ("qpi_lat_ratio", "ratio"),
    ("nvme_fio_norm", "ratio"),
    ("nvme_fio_alone_gbs", "GB/s"),
];

/// Host time this thread has spent waiting on a run queue, s (0 where the
/// kernel does not report it).
pub fn sched_wait_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Per-layer metrics from a traced run and the untraced run of the same
/// scenario; also checks that both simulated the same thing.
pub fn per_layer(
    untraced: &WorkloadRun,
    traced: &mut WorkloadRun,
    spans: &Spans,
    sched_wait: f64,
) -> Report {
    for (u, t) in untraced.quantities.iter().zip(&traced.quantities) {
        traced.checks.check(
            "perfbench",
            "traced-model-equals-untraced",
            u.sim.to_bits() == t.sim.to_bits(),
            || format!("model.{}: traced {} vs untraced {}", u.name, t.sim, u.sim),
        );
    }
    let (u, t) = (untraced.checksum(), traced.checksum());
    traced.checks.check(
        "perfbench",
        "traced-checksum-equals-untraced",
        u == t,
        || format!("checksum {t} vs {u}"),
    );
    let mut r = Report::default();
    r.take_checks(untraced);
    r.take_checks(traced);

    let c = sum_counts(traced);
    let ledger = &traced.ledger;
    let t_run_s: f64 = traced.points.iter().map(|p| p.run_s).sum();
    // Tracing's cost compares the two runs' simulation CPU time, each
    // scaled by its own run's reference rounds, so host drift between the
    // runs cancels. It is negative when the drift left over is larger.
    let run_cpu =
        |run: &WorkloadRun| run.points.iter().map(|p| p.run_cpu_s).sum::<f64>() / run.ref_round_s;
    let trace_overhead = run_cpu(traced) / run_cpu(untraced) - 1.0;
    let win_events: u64 = untraced.points.iter().map(|p| p.window_events).sum();
    let win_allocs: u64 = untraced.points.iter().map(|p| p.window_allocs).sum();
    let win_cpu: f64 = untraced.points.iter().map(|p| p.window_cpu_s).sum();
    let cost = |f: &dyn Fn(&crate::ledger::UnitCosts) -> f64| ledger.mean_cost(f);

    r.push("simcore.events", c.events as f64, "count");
    r.push(
        "simcore.ns_per_event",
        win_cpu * 1e9 / win_events.max(1) as f64,
        "ns",
    );
    r.push("simcore.queue_op_ns", cost(&|u| u.queue_op), "ns");
    r.push("simcore.queue_len", c.queue_len, "count");
    r.push("simcore.bwlink_reserve_ns", cost(&|u| u.link_reserve), "ns");
    r.push("ioctopus.run_s", t_run_s, "s");
    r.push("ioctopus.checksum", traced.checksum() as f64, "hash");
    r.push("kernel.irqs", c.irqs as f64, "count");
    r.push("kernel.events_per_irq", ratio(c.events, c.irqs), "ratio");
    r.push("nic.dma_reads", c.dma_reads as f64, "count");
    r.push("nic.dma_writes", c.dma_writes as f64, "count");
    r.push("nic.steering_decisions", c.steering as f64, "count");
    r.push(
        "nic.remote_dma_share",
        ratio(c.remote_bytes, c.local_bytes + c.remote_bytes),
        "ratio",
    );
    r.push(
        "nic.ddio_hit_ratio",
        ratio(c.ddio_hits, c.ddio_hits + c.ddio_misses),
        "ratio",
    );
    r.push("nic.qpi_crossings", c.qpi_crossings as f64, "count");
    r.push("nic.dma_lat_p50_ns", ledger.dma_lat.percentile(50.0), "ns");
    r.push("nic.dma_lat_p99_ns", ledger.dma_lat.percentile(99.0), "ns");
    r.push("pcie.issued_txns", c.issued_txns as f64, "count");
    r.push("pcie.dropped_txns", c.dropped_txns as f64, "count");
    r.push("memsys.llc_hits", c.llc_hits as f64, "count");
    r.push(
        "memsys.llc_miss_ratio",
        ratio(c.llc_misses, c.llc_hits + c.llc_misses),
        "ratio",
    );
    r.push("memsys.dram_bytes", c.dram_bytes as f64, "B");
    r.push(
        "memsys.interconnect_bytes",
        c.interconnect_bytes as f64,
        "B",
    );
    r.push(
        "memsys.stall_memo_hit_ratio",
        ratio(c.memo_hits, c.memo_hits + c.memo_misses),
        "ratio",
    );
    for (op, label) in [(1, "dma_write"), (0, "dma_read"), (2, "cpu_read")] {
        for (remote, side) in ["local", "remote"].into_iter().enumerate() {
            r.push(
                format!("memsys.{label}_ns_{side}"),
                cost(&|u| u.mem[op][remote][1]),
                "ns",
            );
        }
    }
    let totals = spans.totals();
    let span = |n: &str| totals.get(n).copied().unwrap_or_default();
    let reads = span("ssd.read");
    r.push("nvme.reads", c.nvme_reads as f64, "count");
    r.push("nvme.read_ns", ratio(reads.total_ns, reads.count), "ns");
    let steps = span("stream.step");
    r.push("workloads.stream_steps", c.stream_steps as f64, "count");
    let step_ns = if steps.count > 0 {
        ratio(steps.total_ns, steps.count)
    } else {
        cost(&|u| u.stream_step)
    };
    r.push("workloads.stream_step_ns", step_ns, "ns");
    for (name, ms) in setup_ms(spans) {
        r.push(format!("setup.{name}_ms"), ms, "ms");
    }
    r.push(
        "alloc.steady_per_event",
        ratio(win_allocs, win_events),
        "allocs/event",
    );

    // The traced run's host time, less the unit-cost probes timed on its
    // machines after they finished and the host-speed reference rounds.
    let wall = (span("workload").total_ns - span("probe").total_ns - span("reference").total_ns)
        as f64
        / 1e9;
    let tracing_s = t_run_s * trace_overhead / (1.0 + trace_overhead);
    let attributed = ledger.attributed(spans, tracing_s);
    for l in LAYERS {
        r.push(format!("{l}.attributed_s"), attributed[l], "s");
    }
    let sum: f64 = attributed.values().sum();
    r.push("host.unattributed_s", wall - sum, "s");
    r.push("host.wall_s", wall, "s");
    r.push("host.sched_wait_s", sched_wait, "s");
    r.push("host.ref_round_ms", untraced.ref_round_s * 1e3, "ms");
    r.push(
        "host.cpu_sim_speed",
        cpu_sim_speed(&untraced.points),
        "sim_us/s",
    );
    r.push("telemetry.trace_overhead", trace_overhead, "ratio");
    for (name, unit) in MODEL {
        let v = traced
            .quantities
            .iter()
            .find(|q| q.name == name)
            .map_or(0.0, |q| q.sim);
        r.push(format!("model.{name}"), v, unit);
    }
    r.push("checks.fail_ratio", ratio(r.failed, r.attempted), "ratio");
    r.push("checks.run", r.attempted as f64, "count");
    r
}
