//! The `nvme_fio` workload: Figure 15 with 8 fio jobs at QD32 reading
//! 128 KiB blocks from 4 SSDs under 5 STREAM instances, legacy port vs
//! OctoSSD. The figure runner keeps its own heap loop over `MemSystem`,
//! `PcieFabric`, `Ssd`, `FioJob` and `StreamAntagonist`; this module runs
//! the same loop call for call, with host-time spans around each
//! `Ssd::read`, `StreamAntagonist::step` and `Cores::run` when traced. It
//! has no random input: the seed is not used.

use std::collections::BinaryHeap;

use ioctopus::experiments::nvme_fio::{FioRun, JOBS, SSDS};
use ioctopus::experiments::Window;
use ioctopus::results::NvmeResult;
use kernel::Cores;
use memsys::{MemConfig, MemSystem, NodeId};
use nvme::{MediaConfig, PortPolicy, Ssd, SsdConfig};
use pcie::{FabricConfig, PcieFabric, PcieGen};
use simcore::{Audit, Dur, Time};
use workloads::fio::{FioJob, BLOCK_BYTES, QUEUE_DEPTH};
use workloads::StreamAntagonist;

use crate::reference::Reference;
use crate::spans::Spans;
use crate::{ledger, sim_ms, Inputs, PointStats, Quantity, WorkloadRun, SLICES};

/// STREAM instances of the loaded points (the paper's worst case).
const STREAMS: usize = 5;
/// The runner's per-completion reap + resubmit CPU cost.
const REAP_COST: Dur = Dur::from_us(2);

/// A pending completion; ordered by time only, like the runner's.
#[derive(Debug, PartialEq, Eq)]
struct Pending {
    at: Time,
    job: usize,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One Figure 15 testbed, built up to its first read.
struct Testbed {
    mem: MemSystem,
    fabric: PcieFabric,
    cores: Cores,
    ssds: Vec<Ssd>,
    jobs: Vec<FioJob>,
    ants: Vec<StreamAntagonist>,
}

fn build(streams: usize, octo: bool, spans: &mut Spans) -> Testbed {
    let mut mem = spans.time("memsystem_new", || {
        MemSystem::new(MemConfig::dual_socket_skylake())
    });
    let mut fabric = spans.time(
        "pciefabric_new",
        || PcieFabric::new(FabricConfig::default()),
    );
    let cores = spans.time("cores_new", || Cores::new(mem.topology().total_cores()));
    let policy = if octo {
        PortPolicy::LocalToBuffer
    } else {
        PortPolicy::Fixed(0)
    };
    let ssds = spans.time("ssd_new", || {
        (0..SSDS)
            .map(|i| {
                let p0 = fabric.add_endpoint(NodeId(0), PcieGen::Gen3, 4);
                let p1 = fabric.add_endpoint(NodeId(1), PcieGen::Gen3, 4);
                Ssd::new(
                    i,
                    SsdConfig::new(MediaConfig::pm1725a(), policy),
                    vec![p0, p1],
                    &mut mem,
                    NodeId(1),
                )
            })
            .collect()
    });
    let jobs = spans.time("fiojob_new", || {
        (0..JOBS)
            .map(|j| {
                let bufs = (0..QUEUE_DEPTH)
                    .map(|_| mem.alloc(NodeId(1), BLOCK_BYTES))
                    .collect();
                FioJob::new(24 + j, j % SSDS, QUEUE_DEPTH, bufs)
            })
            .collect()
    });
    let ants = spans.time("stream_pair", || {
        (0..streams)
            .flat_map(|i| {
                let (r, w) = StreamAntagonist::pair((2 * i) % 20, (2 * i + 1) % 20, NodeId(1));
                [r, w]
            })
            .collect()
    });
    Testbed {
        mem,
        fabric,
        cores,
        ssds,
        jobs,
        ants,
    }
}

fn fold(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x100_0000_01b3);
}

fn new_stats(name: &str, sim_ms: u64) -> PointStats {
    PointStats {
        name: name.to_string(),
        checksum: 0xcbf2_9ce4_8422_2325,
        window_sim_us: Time::from_ms(sim_ms)
            .since(Time::from_ms(sim_ms / 4))
            .as_us(),
        ..PointStats::default()
    }
}

/// End of slice `k` of a `sim_ms` run of the runner's window.
fn slice_end(sim_ms: u64, k: u64) -> Time {
    crate::slice_end(&Window::of_ms(sim_ms), k)
}

/// `nvme_fio::run_raw(streams, octo, sim_ms)` as a machine that runs slice
/// by slice: the runner's heap loop, cut where the next completion lies
/// past the slice end.
pub struct FioMachine {
    bed: Testbed,
    streams: usize,
    octo: bool,
    sim_ms: u64,
    st: PointStats,
    ant_clocks: Vec<Time>,
    heap: BinaryHeap<Pending>,
    errors: u64,
    fio_bytes: u64,
    stream_base: u64,
    counted: bool,
}

impl FioMachine {
    /// Builds the testbed and primes every job's queue, as the runner does.
    pub fn new(streams: usize, octo: bool, sim_ms: u64, name: &str, spans: &mut Spans) -> Self {
        let st = new_stats(name, sim_ms);
        let mut bed = crate::build_in_span(spans, |spans| build(streams, octo, spans));
        let mut heap = BinaryHeap::new();
        let mut errors = 0;
        // Prime the queues, staggered at roughly the drives' service cadence.
        let Testbed {
            mem,
            fabric,
            ssds,
            jobs,
            ..
        } = &mut bed;
        for (j, job) in jobs.iter_mut().enumerate() {
            let mut at = Time::ZERO;
            while job.want_to_submit() > 0 {
                let buf = job.submit();
                let ssd = &mut ssds[job.ssd];
                let r = spans.time("ssd.read", || ssd.read(at, buf, BLOCK_BYTES, fabric, mem));
                errors += r.error as u64;
                heap.push(Pending {
                    at: r.done_at,
                    job: j,
                });
                at += Dur::from_us(10);
            }
        }
        FioMachine {
            ant_clocks: vec![Time::ZERO; bed.ants.len()],
            bed,
            streams,
            octo,
            sim_ms,
            st,
            heap,
            errors,
            fio_bytes: 0,
            stream_base: 0,
            counted: false,
        }
    }

    /// Times one more build of the testbed into `setup_s` (see
    /// [`crate::time_build`]).
    pub fn time_build(&mut self, spans: &mut Spans) {
        let (streams, octo) = (self.streams, self.octo);
        let dc = crate::time_build(spans, |spans| build(streams, octo, spans));
        self.st.setup_s.push(dc);
    }

    /// Processes every completion up to the end of slice `k`; returns the
    /// CPU seconds it took.
    pub fn slice(&mut self, k: u64, spans: &mut Spans) -> f64 {
        let until = slice_end(self.sim_ms, k);
        let warmup = Time::from_ms(self.sim_ms / 4);
        let open = spans.enter("fio.loop");
        let ((), dt, dc) = crate::timed(|| {
            let Testbed {
                mem,
                fabric,
                cores,
                ssds,
                jobs,
                ants,
            } = &mut self.bed;
            while let Some(&Pending { at, .. }) = self.heap.peek() {
                if at > until {
                    break;
                }
                let Pending { at, job } = self.heap.pop().expect("peeked");
                self.st.counts.events += 1;
                fold(&mut self.st.checksum, at.as_ps());
                fold(&mut self.st.checksum, job as u64);
                for (a, clock) in ants.iter_mut().zip(&mut self.ant_clocks) {
                    while *clock < at {
                        *clock = spans.time("stream.step", || a.step(*clock, mem, cores));
                    }
                }
                if !self.counted && at >= warmup {
                    self.counted = true;
                    self.stream_base = ants.iter().map(StreamAntagonist::bytes_done).sum();
                }
                jobs[job].complete(BLOCK_BYTES);
                if at >= warmup {
                    self.fio_bytes += BLOCK_BYTES;
                    self.st.window_events += 1;
                }
                let core = jobs[job].core;
                let t = spans.time("cores.run", || cores.run(core, at, REAP_COST));
                let buf = jobs[job].submit();
                let ssd = &mut ssds[jobs[job].ssd];
                let r = spans.time("ssd.read", || ssd.read(t, buf, BLOCK_BYTES, fabric, mem));
                self.errors += r.error as u64;
                self.heap.push(Pending { at: r.done_at, job });
            }
        });
        spans.exit(open);
        self.st.run_s += dt;
        self.st.run_cpu_s += dc;
        if k > SLICES / 4 {
            self.st.window_host_s += dt;
            self.st.window_cpu_s += dc;
        }
        dc
    }

    /// The runner's result, the layer counts and the checks.
    pub fn finish(
        mut self,
        spans: &mut Spans,
        checks: &mut Audit,
        ledger: &mut ledger::Ledger,
    ) -> (FioRun, PointStats) {
        let window = Time::from_ms(self.sim_ms)
            .since(Time::from_ms(self.sim_ms / 4))
            .as_secs();
        let bed = &mut self.bed;
        let stream_total: u64 = bed
            .ants
            .iter()
            .map(StreamAntagonist::bytes_done)
            .sum::<u64>()
            - self.stream_base;
        let out = FioRun {
            fio_bytes_per_sec: self.fio_bytes as f64 / window,
            stream_bytes_per_sec: stream_total as f64 / window,
        };
        let st = &mut self.st;
        let c = &mut st.counts;
        c.nvme_reads = bed.ssds.iter().map(Ssd::reads).sum();
        c.stream_steps = bed
            .ants
            .iter()
            .map(|a| a.bytes_done() / a.chunk_bytes)
            .sum();
        let fc = bed.fabric.counters();
        c.issued_txns = fc.issued_txns;
        c.dropped_txns = fc.dropped_txns;
        mem_counts(&bed.mem, c);
        bed.fabric.audit(checks);
        let (name, errors) = (&st.name, self.errors);
        checks.check("perfbench", "nvme-reads-succeed", errors == 0, || {
            format!("{name}: {errors} of {} reads failed", c.nvme_reads)
        });
        checks.check(
            "perfbench",
            "no-dropped-pcie-txns",
            c.dropped_txns == 0,
            || format!("{name}: {} PCIe transactions dropped", c.dropped_txns),
        );
        if spans.is_on() {
            let end = Time::from_ms(self.sim_ms);
            ledger.add_nvme_point(st, self.octo, &mut bed.mem, &mut bed.cores, end, spans);
        }
        (out, self.st)
    }
}

fn mem_counts(mem: &MemSystem, c: &mut crate::Counts) {
    let mc = mem.counters();
    c.llc_hits = mc.llc_hits;
    c.llc_misses = mc.llc_misses;
    c.dram_bytes = mc.total_dram_bytes();
    c.interconnect_bytes = mc.interconnect_bytes;
    (c.memo_hits, c.memo_misses) = mem.memo_stats();
}

/// The STREAM-alone testbed.
fn solo_build(spans: &mut Spans) -> (MemSystem, Cores, (StreamAntagonist, StreamAntagonist)) {
    let mem = spans.time("memsystem_new", || {
        MemSystem::new(MemConfig::dual_socket_skylake())
    });
    let cores = spans.time("cores_new", || Cores::new(mem.topology().total_cores()));
    let pair = spans.time("stream_pair", || StreamAntagonist::pair(0, 1, NodeId(1)));
    (mem, cores, pair)
}

/// `nvme_fio::run_raw_stream_solo(sim_ms)` as a machine: one STREAM pair
/// alone on the testbed.
pub struct SoloMachine {
    mem: MemSystem,
    cores: Cores,
    pair: (StreamAntagonist, StreamAntagonist),
    clocks: (Time, Time),
    sim_ms: u64,
    st: PointStats,
}

impl SoloMachine {
    /// Builds the testbed and the pair.
    pub fn new(sim_ms: u64, spans: &mut Spans) -> Self {
        let st = new_stats("stream.solo", sim_ms);
        let (mem, cores, pair) = crate::build_in_span(spans, solo_build);
        SoloMachine {
            mem,
            cores,
            pair,
            clocks: (Time::ZERO, Time::ZERO),
            sim_ms,
            st,
        }
    }

    /// Times one more build of the testbed and the pair into `setup_s`.
    pub fn time_build(&mut self, spans: &mut Spans) {
        let dc = crate::time_build(spans, solo_build);
        self.st.setup_s.push(dc);
    }

    /// Steps the pair, earlier clock first, up to the end of slice `k`;
    /// returns the CPU seconds it took.
    pub fn slice(&mut self, k: u64, spans: &mut Spans) -> f64 {
        let until = slice_end(self.sim_ms, k);
        let end = Time::from_ms(self.sim_ms);
        let open = spans.enter("stream.loop");
        let ((), dt, dc) = crate::timed(|| {
            let (r, w) = &mut self.pair;
            let (tr, tw) = &mut self.clocks;
            while (*tr < end || *tw < end) && (*tr).min(*tw) <= until {
                let (mem, cores) = (&mut self.mem, &mut self.cores);
                if *tr <= *tw {
                    *tr = spans.time("stream.step", || r.step(*tr, mem, cores));
                } else {
                    *tw = spans.time("stream.step", || w.step(*tw, mem, cores));
                }
                fold(&mut self.st.checksum, tr.as_ps() ^ tw.as_ps());
                self.st.counts.events += 1;
                if k > SLICES / 4 {
                    self.st.window_events += 1;
                }
            }
        });
        spans.exit(open);
        self.st.run_s += dt;
        self.st.run_cpu_s += dc;
        if k > SLICES / 4 {
            self.st.window_host_s += dt;
            self.st.window_cpu_s += dc;
        }
        dc
    }

    /// The pair's bandwidth and the layer counts.
    pub fn finish(mut self, spans: &mut Spans, ledger: &mut ledger::Ledger) -> (f64, PointStats) {
        let (r, w) = &self.pair;
        let end = Time::from_ms(self.sim_ms);
        let bw = (r.bytes_done() + w.bytes_done()) as f64 / end.as_secs();
        let c = &mut self.st.counts;
        c.stream_steps = c.events;
        mem_counts(&self.mem, c);
        if spans.is_on() {
            ledger.add_nvme_point(&self.st, true, &mut self.mem, &mut self.cores, end, spans);
        }
        (bw, self.st)
    }
}

/// `nvme_fio::run(STREAMS, octo, sim_ms)` from its three machines.
pub fn normalized(loaded: FioRun, alone: FioRun, solo: f64) -> NvmeResult {
    NvmeResult {
        streams: STREAMS,
        fio_normalized: loaded.fio_bytes_per_sec / alone.fio_bytes_per_sec,
        stream_normalized: loaded.stream_bytes_per_sec / (STREAMS as f64 * solo),
        fio_gbs: loaded.fio_bytes_per_sec / 1e9,
    }
}

/// Runs the workload's five machines: legacy and OctoSSD, each loaded and
/// alone, and the STREAM pair alone, slice by slice in turn so that
/// contention from other tenants of the host falls on all of them alike.
/// Each measurement-window round starts with one timed build of every
/// machine. Returns the legacy and OctoSSD results and the legacy
/// fio-alone rate.
pub fn points(
    sim_ms: u64,
    spans: &mut Spans,
    run: &mut WorkloadRun,
    reference: &mut Reference,
) -> (NvmeResult, NvmeResult, f64) {
    let fio_points = [
        (STREAMS, false, "fio.legacy.loaded"),
        (0, false, "fio.legacy.alone"),
        (STREAMS, true, "fio.octo.loaded"),
        (0, true, "fio.octo.alone"),
    ];
    let mut fio: Vec<FioMachine> = fio_points
        .into_iter()
        .map(|(streams, octo, name)| FioMachine::new(streams, octo, sim_ms, name, spans))
        .collect();
    let mut solo = SoloMachine::new(sim_ms, spans);
    for k in 1..=SLICES {
        if k > SLICES / 4 {
            fio.iter_mut().for_each(|m| m.time_build(spans));
            solo.time_build(spans);
        }
        let cpu: f64 =
            fio.iter_mut().map(|m| m.slice(k, spans)).sum::<f64>() + solo.slice(k, spans);
        let reference_s = spans.time("reference", || reference.round());
        if k > SLICES / 4 {
            run.rounds.push((cpu, reference_s));
        }
    }
    let mut outs = Vec::new();
    for m in fio {
        let (out, st) = m.finish(spans, &mut run.checks, &mut run.ledger);
        outs.push(out);
        run.points.push(st);
    }
    let (solo_bw, st) = solo.finish(spans, &mut run.ledger);
    run.points.push(st);
    (
        normalized(outs[0], outs[1], solo_bw),
        normalized(outs[2], outs[3], solo_bw),
        outs[1].fio_bytes_per_sec,
    )
}

/// Figure 15 at 5 STREAMs, legacy port vs OctoSSD.
pub fn nvme_fio(inputs: &Inputs, spans: &mut Spans, reference: &mut Reference) -> WorkloadRun {
    let mut run = WorkloadRun::default();
    let (legacy, octo, alone) = points(sim_ms(inputs, 75.0), spans, &mut run, reference);
    run.checks.check(
        "perfbench",
        "octossd-ge-legacy",
        octo.fio_normalized >= legacy.fio_normalized,
        || {
            format!(
                "OctoSSD {} < legacy {}",
                octo.fio_normalized, legacy.fio_normalized
            )
        },
    );
    run.quantities = vec![
        Quantity {
            name: "nvme_fio_norm",
            sim: legacy.fio_normalized,
            paper: 0.76,
        },
        Quantity {
            name: "nvme_fio_alone_gbs",
            sim: alone / 1e9,
            paper: 12.8,
        },
    ];
    run
}
