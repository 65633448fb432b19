//! The simulator benchmark: four long workloads composed from the public
//! constructors the figure runners use, five end-to-end metrics from an
//! untraced run, and a per-layer ledger from a traced run of the same
//! scenario. `README.md` in this directory explains the design.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CLOCK_THREAD_CPUTIME_ID and runs on 64-bit Linux only");

pub mod alloc;
pub mod ledger;
pub mod net;
pub mod nvme;
pub mod reference;
pub mod report;
pub mod spans;

use reference::Reference;
use simcore::Audit;
use spans::Spans;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["rx_stream", "kv_mix", "qpi_congestion", "nvme_fio"];

/// Each point's simulated time is cut into this many slices: a quarter of
/// them cover the warm-up of the figure runners' `Window::of_ms`, the rest
/// the measurement window.
pub const SLICES: u64 = 40;

/// What one run gets from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// Workload seed (the network workloads' client source ports).
    pub seed: u64,
    /// Host seconds the scenario is sized for; simulated lengths are this
    /// times fixed per-point rates, so a budget always gives the same
    /// scenario.
    pub budget_s: f64,
}

/// Simulated length of a point, ms: `budget_s` host seconds at `ms_per_s`
/// simulated ms per host second.
pub fn sim_ms(inputs: &Inputs, ms_per_s: f64) -> u64 {
    ((inputs.budget_s * ms_per_s) as u64).max(8)
}

/// End of slice `k` of `1..=SLICES` in a run measured over `w`: the first
/// quarter of the slices cover the warm-up, the rest the window.
pub fn slice_end(w: &ioctopus::experiments::Window, k: u64) -> simcore::Time {
    let (warm, end) = (w.warmup.as_ps(), w.end.as_ps());
    let q = SLICES / 4;
    simcore::Time::from_ps(if k <= q {
        warm * k / q
    } else {
        warm + (end - warm) * (k - q) / (SLICES - q)
    })
}

/// Deterministic counters and host timings of one simulated machine.
#[derive(Debug, Default, Clone)]
pub struct PointStats {
    /// Point label, e.g. `rx64k.ioct`.
    pub name: String,
    /// On-CPU seconds from the first constructor call to the first
    /// dispatched event of one more build of the point, one entry per
    /// measurement-window round (see [`time_build`]).
    pub setup_s: Vec<f64>,
    /// Simulated µs of the measurement window (after warm-up).
    pub window_sim_us: f64,
    /// Wall seconds of the window.
    pub window_host_s: f64,
    /// On-CPU seconds of the simulation thread during the window.
    pub window_cpu_s: f64,
    /// Events dispatched during the window.
    pub window_events: u64,
    /// Heap allocation calls during the window.
    pub window_allocs: u64,
    /// Wall seconds of every simulation slice, warm-up included.
    pub run_s: f64,
    /// On-CPU seconds of every simulation slice, warm-up included.
    pub run_cpu_s: f64,
    /// Event-stream checksum of the point.
    pub checksum: u64,
    /// Layer counters (see [`Counts`]).
    pub counts: Counts,
}

/// Work counts of the layers, summed over a point's whole run.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Events dispatched (NetLoop queue pops; `nvme_fio`: fio completions
    /// and STREAM-alone steps).
    pub events: u64,
    /// Delivered interrupts (traced).
    pub irqs: u64,
    /// NIC DMA reads and writes (traced).
    pub dma_reads: u64,
    /// NIC DMA writes (traced).
    pub dma_writes: u64,
    /// Steering decisions (traced).
    pub steering: u64,
    /// NIC DMA calls and 64 B lines by `[read, write][local, remote]`
    /// (traced), for the memsys ledger.
    pub dma_calls: [[u64; 2]; 2],
    /// See `dma_calls`.
    pub dma_lines: [[u64; 2]; 2],
    /// Flight-recorder totals (traced).
    pub local_bytes: u64,
    /// See `local_bytes`.
    pub remote_bytes: u64,
    /// See `local_bytes`.
    pub ddio_hits: u64,
    /// See `local_bytes`.
    pub ddio_misses: u64,
    /// See `local_bytes`.
    pub qpi_crossings: u64,
    /// Trace records lost to ring wrap (must stay 0).
    pub trace_overwritten: u64,
    /// PCIe transactions issued and dropped.
    pub issued_txns: u64,
    /// See `issued_txns`.
    pub dropped_txns: u64,
    /// Memory-system counters at the end of the run.
    pub llc_hits: u64,
    /// See `llc_hits`.
    pub llc_misses: u64,
    /// See `llc_hits`.
    pub dram_bytes: u64,
    /// See `llc_hits`.
    pub interconnect_bytes: u64,
    /// See `llc_hits`.
    pub memo_hits: u64,
    /// See `llc_hits`.
    pub memo_misses: u64,
    /// Server socket payload bytes (received + sent), copied by a CPU.
    pub copy_bytes: u64,
    /// Mean estimated pending events over the slice ends (traced).
    pub queue_len: f64,
    /// NVMe reads issued.
    pub nvme_reads: u64,
    /// STREAM loop iterations.
    pub stream_steps: u64,
}

/// One compared paper quantity.
#[derive(Debug, Clone)]
pub struct Quantity {
    /// Metric name under `model.`.
    pub name: &'static str,
    /// Simulated value.
    pub sim: f64,
    /// Midpoint of the paper's range.
    pub paper: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    /// One entry per simulated machine that was run.
    pub points: Vec<PointStats>,
    /// The paper quantities behind `paper_err`.
    pub quantities: Vec<Quantity>,
    /// Audits, direction checks and finiteness checks.
    pub checks: Audit,
    /// Per-layer ledger of the traced run (empty when untraced).
    pub ledger: ledger::Ledger,
    /// Mean CPU seconds of the host-speed reference's rounds.
    pub ref_round_s: f64,
    /// Per measurement-window round: the simulation CPU seconds of every
    /// point's slice, and the CPU seconds of the reference round after it.
    pub rounds: Vec<(f64, f64)>,
    /// Peak live heap above the heap live when the run started, bytes
    /// (0 where the counting allocator is not installed).
    pub heap_peak: u64,
}

impl WorkloadRun {
    /// Nominal ÷ the mean reference round over the measurement window:
    /// the factor that turns this run's CPU seconds into CPU seconds on
    /// the nominal host.
    pub fn host_scale(&self) -> f64 {
        let refs: Vec<f64> = self.rounds.iter().map(|&(_, r)| r).collect();
        reference::NOMINAL_ROUND_S * refs.len() as f64 / refs.iter().sum::<f64>()
    }

    /// Simulated µs per second of simulation CPU time over the measurement
    /// window, at nominal host speed.
    pub fn sim_speed(&self) -> f64 {
        let sim_us: f64 = self.points.iter().map(|p| p.window_sim_us).sum();
        let cpu_s: f64 = self.rounds.iter().map(|&(cpu, _)| cpu).sum();
        sim_us / (cpu_s * self.host_scale())
    }

    /// Median over every point's timed builds, in CPU seconds at nominal
    /// host speed.
    pub fn setup_s(&self) -> f64 {
        let builds: Vec<f64> = self
            .points
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect();
        median(&builds) * self.host_scale()
    }

    /// Mean |sim/paper − 1| over the paper quantities.
    pub fn paper_err(&self) -> f64 {
        let n = self.quantities.len() as f64;
        self.quantities
            .iter()
            .map(|q| (q.sim / q.paper - 1.0).abs())
            .sum::<f64>()
            / n
    }

    /// FNV-1a fold of every point's checksum, cut to 53 bits so it is
    /// exact as a JSON number.
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in &self.points {
            h = (h ^ p.checksum).wrapping_mul(0x100_0000_01b3);
        }
        h & ((1 << 53) - 1)
    }

    /// Checks that every paper quantity is finite and positive.
    pub fn check_finite(&mut self) {
        for q in &self.quantities {
            self.checks.check(
                "perfbench",
                "finite-result",
                q.sim.is_finite() && q.sim > 0.0,
                || format!("model.{} = {}", q.name, q.sim),
            );
        }
    }
}

/// Runs `workload` once with the given span recorder.
pub fn run_workload(workload: &str, inputs: &Inputs, spans: &mut Spans) -> Option<WorkloadRun> {
    let mut reference = Reference::new();
    alloc::reset_peak();
    let base = alloc::live();
    let mut run = match workload {
        "rx_stream" => net::rx_stream(inputs, spans, &mut reference),
        "kv_mix" => net::kv_mix(inputs, spans, &mut reference),
        "qpi_congestion" => net::qpi_congestion(inputs, spans, &mut reference),
        "nvme_fio" => nvme::nvme_fio(inputs, spans, &mut reference),
        _ => return None,
    };
    run.heap_peak = alloc::peak().saturating_sub(base);
    run.ref_round_s = reference.round_s();
    run.check_finite();
    Some(run)
}

/// Runs `workload` with spans recorded, all inside one `workload` span.
pub fn run_traced(workload: &str, inputs: &Inputs) -> Option<(WorkloadRun, Spans)> {
    let mut spans = Spans::on();
    let open = spans.enter("workload");
    let run = run_workload(workload, inputs, &mut spans)?;
    spans.exit(open);
    Some((run, spans))
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Simulated µs per second of simulation-thread CPU time, over every
/// point's measurement window (not scaled by the host-speed reference).
pub fn cpu_sim_speed(points: &[PointStats]) -> f64 {
    let sim_us: f64 = points.iter().map(|p| p.window_sim_us).sum();
    let cpu_s: f64 = points.iter().map(|p| p.window_cpu_s).sum();
    sim_us / cpu_s
}

/// Builds one machine with `build` and returns the thread CPU seconds
/// from the first constructor call to the first dispatched event; the
/// machine is dropped after the clock is read, and left out of the run's
/// heap peak. Workloads time one build of every point at the start of each
/// measurement-window round, so the builds sample the host over the whole
/// run, as the simulation does.
pub fn time_build<T>(spans: &mut Spans, build: impl FnOnce(&mut Spans) -> T) -> f64 {
    let peak = alloc::peak();
    let c0 = thread_cpu_s();
    let machine = build_in_span(spans, build);
    let dc = thread_cpu_s() - c0;
    drop(machine);
    alloc::restore_peak(peak);
    dc
}

/// Runs `build` inside a `setup` span.
pub fn build_in_span<T>(spans: &mut Spans, build: impl FnOnce(&mut Spans) -> T) -> T {
    let open = spans.enter("setup");
    let b = build(spans);
    spans.exit(open);
    b
}

/// On-CPU seconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`). On a
/// shared virtual machine this leaves out time the thread waited for a
/// CPU or the hypervisor ran another guest, which wall time includes.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and the clock
    // id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Wall and thread-CPU seconds `f` took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let c0 = thread_cpu_s();
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64(), thread_cpu_s() - c0)
}
