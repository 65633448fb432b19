//! The per-layer ledger of the traced run.
//!
//! After each traced point, the unit costs of the layers' public hot calls
//! are timed on that point's warmed machine: `EventQueue` push+pop at the
//! estimated queue length, `BwLink::reserve`, `MemSystem::dma_write`,
//! `dma_read` and `cpu_read` (local and remote, 64 B and 4 KiB) and
//! `StreamAntagonist::step`. Counts times unit costs give each layer's
//! attributed seconds; spans the benchmark recorded around constructors,
//! audits, harvests, `Ssd::read`, `StreamAntagonist::step` and `Cores::run`
//! are attributed directly. Whatever the measured host time has left is
//! `host.unattributed_s`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use kernel::Cores;
use memsys::{AccessKind, MemSystem, NodeId};
use simcore::{BwLink, Dur, EventQueue, Time};
use workloads::fio::BLOCK_BYTES;
use workloads::StreamAntagonist;

use crate::spans::Spans;
use crate::PointStats;

/// Layers of the ledger, in report order.
pub const LAYERS: [&str; 9] = [
    "simcore",
    "ioctopus",
    "kernel",
    "nic",
    "pcie",
    "memsys",
    "nvme",
    "workloads",
    "telemetry",
];

/// The layer each benchmark span belongs to. `workload`, `setup` and the
/// simulation loops are containers: their own time is not attributed.
fn span_layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "build_duplex" | "make_app" | "netloop_new" | "add_app" | "add_antagonist"
        | "start_apps" | "run_audit" | "harvest.result" => "ioctopus",
        "harvest.trace" | "harvest.metrics" | "harvest.flight" => "telemetry",
        "memsystem_new" => "memsys",
        "pciefabric_new" => "pcie",
        "cores_new" | "cores.run" => "kernel",
        "ssd_new" | "ssd.read" => "nvme",
        "fiojob_new" | "stream_pair" | "stream.step" => "workloads",
        _ => return None,
    })
}

/// A log-linear histogram (32 buckets per power of two, ~3% resolution).
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: vec![0; 32 * 60],
            n: 0,
        }
    }
}

impl LogHist {
    fn index(v: u64) -> usize {
        if v < 32 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as usize;
        32 + (e - 5) * 32 + ((v >> (e - 5)) as usize - 32)
    }

    fn midpoint(i: usize) -> f64 {
        if i < 32 {
            return i as f64;
        }
        let e = 5 + (i - 32) / 32;
        let lo = ((32 + (i - 32) % 32) as u64) << (e - 5);
        lo as f64 + ((1u64 << (e - 5)) as f64 - 1.0) / 2.0
    }

    /// Adds one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.n += 1;
    }

    /// Adds every value of `other`.
    pub fn absorb(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `p`-th percentile (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i);
            }
        }
        Self::midpoint(self.buckets.len() - 1)
    }
}

/// Unit costs timed on one warmed machine, ns per call.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnitCosts {
    /// `EventQueue` pop + push at the estimated queue length.
    pub queue_op: f64,
    /// `BwLink::reserve`.
    pub link_reserve: f64,
    /// `MemSystem` calls by `[dma_read, dma_write, cpu_read][local,
    /// remote][64 B, 4 KiB]`.
    pub mem: [[[f64; 2]; 2]; 3],
    /// `StreamAntagonist::step` (0 when not probed).
    pub stream_step: f64,
}

const DMA_READ: usize = 0;
const DMA_WRITE: usize = 1;
const CPU_READ: usize = 2;

impl UnitCosts {
    /// Cost of one `op` call moving `lines` 64 B lines: linear between the
    /// timed 1-line and 64-line calls.
    fn mem_call_ns(&self, op: usize, remote: usize, lines: f64) -> f64 {
        let [one, page] = self.mem[op][remote];
        one + (page - one) * (lines - 1.0) / 63.0
    }
}

/// Times `f` over `iters` calls after a tenth as many warm-up calls;
/// returns ns per call.
fn per_call_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// `EventQueue` hold model: pop the earliest event, push it back up to
/// 50 µs later, with `len` events pending.
pub fn queue_op_ns(len: usize) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut q = EventQueue::new();
    for i in 0..len.max(1) {
        q.push(Time::from_ns(next() % 50_000), i as u64);
    }
    per_call_ns(200_000, || {
        let (at, v) = q.pop().expect("the hold model keeps the queue full");
        q.push(at + Dur::from_ns(1 + next() % 50_000), black_box(v));
    })
}

/// `BwLink::reserve` of a 1500 B frame every 100 ns on a 100 Gb/s link.
pub fn link_reserve_ns() -> f64 {
    let mut l = BwLink::new("probe", BwLink::gbps(100.0), Dur::ZERO);
    let mut t = Time::ZERO;
    per_call_ns(200_000, || {
        t += Dur::from_ns(100);
        black_box(l.reserve(t, 1500));
    })
}

/// Times one `MemSystem` call kind on a warmed machine: 512 calls over a
/// fresh 1 MiB buffer on `buf_node`, issued from `from` (the device's node
/// for DMA, the core's node for CPU reads), 2 µs of simulated time apart.
fn mem_op_ns(mem: &mut MemSystem, now: Time, op: usize, remote: bool, bytes: u64) -> f64 {
    const REGION: u64 = 1 << 20;
    let buf_node = NodeId(1);
    let from = NodeId(if remote { 0 } else { 1 });
    let buf = mem.alloc(buf_node, REGION);
    let mut t = now;
    let mut off = 0;
    per_call_ns(512, || {
        let addr = buf.offset(off);
        let d = match op {
            DMA_READ => mem.dma_read(t, from, addr, bytes),
            DMA_WRITE => mem.dma_write(t, from, addr, bytes),
            _ => mem.cpu_read(t, from, addr, bytes, AccessKind::Stream),
        };
        black_box(d);
        t += Dur::from_us(2);
        off = (off + 4096) % REGION;
    })
}

/// Times every unit cost on a warmed machine whose clock reads `now`.
fn probe(
    mem: &mut MemSystem,
    cores: &mut Cores,
    now: Time,
    queue_len: f64,
    stream_steps: u64,
) -> UnitCosts {
    let mut u = UnitCosts {
        queue_op: queue_op_ns(queue_len.round() as usize),
        link_reserve: link_reserve_ns(),
        ..UnitCosts::default()
    };
    let t = now + Dur::from_ms(1);
    for op in [DMA_READ, DMA_WRITE, CPU_READ] {
        for remote in [false, true] {
            for (i, bytes) in [64, 4096].into_iter().enumerate() {
                u.mem[op][remote as usize][i] = mem_op_ns(mem, t, op, remote, bytes);
            }
        }
    }
    if stream_steps > 0 {
        let mut a = StreamAntagonist::new(1, NodeId(1), false);
        let mut clock = t;
        u.stream_step = per_call_ns(256, || clock = a.step(clock, mem, cores));
    }
    u
}

/// Attributed seconds per layer plus the unit costs behind them.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Seconds attributed through counts × unit costs, by layer.
    pub counted_s: BTreeMap<&'static str, f64>,
    /// Unit costs of each traced point.
    pub costs: Vec<UnitCosts>,
    /// DMA issue→land latencies of every traced network point, ns.
    pub dma_lat: LogHist,
    /// Seconds of `ssd.read` spans spent in the memory system (moved from
    /// `nvme` to `memsys`).
    pub nvme_memsys_s: f64,
}

impl Ledger {
    fn add(&mut self, layer: &'static str, s: f64) {
        *self.counted_s.entry(layer).or_default() += s;
    }

    /// Probes a traced network point's machine and attributes its counts.
    pub fn add_net_point(
        &mut self,
        st: &PointStats,
        lat: &LogHist,
        mem: &mut MemSystem,
        cores: &mut Cores,
        now: Time,
        spans: &mut Spans,
    ) {
        let c = &st.counts;
        let u = spans.time("probe", || {
            probe(mem, cores, now, c.queue_len, c.stream_steps)
        });
        self.add("simcore", c.events as f64 * u.queue_op / 1e9);
        self.add("pcie", c.issued_txns as f64 * u.link_reserve / 1e9);
        let mut mem_ns = 0.0;
        for (op, (calls, lines)) in c.dma_calls.iter().zip(&c.dma_lines).enumerate() {
            for remote in 0..2 {
                if calls[remote] > 0 {
                    let per = lines[remote] as f64 / calls[remote] as f64;
                    mem_ns += calls[remote] as f64 * u.mem_call_ns(op, remote, per);
                }
            }
        }
        // Socket payload is copied by a core local to its buffer.
        mem_ns += c.copy_bytes as f64 / 4096.0 * u.mem[CPU_READ][0][1];
        self.add("memsys", mem_ns / 1e9);
        self.add("workloads", c.stream_steps as f64 * u.stream_step / 1e9);
        self.dma_lat.absorb(lat);
        self.costs.push(u);
    }

    /// Probes a traced NVMe testbed and moves the memory-system share of
    /// its reads (a 128 KiB data write, a 64 B command fetch and a CQE
    /// write each) from `nvme` to `memsys`.
    pub fn add_nvme_point(
        &mut self,
        st: &PointStats,
        local: bool,
        mem: &mut MemSystem,
        cores: &mut Cores,
        now: Time,
        spans: &mut Spans,
    ) {
        let c = &st.counts;
        let u = spans.time("probe", || probe(mem, cores, now, 0.0, 0));
        self.add("pcie", c.issued_txns as f64 * u.link_reserve / 1e9);
        let data = u.mem_call_ns(DMA_WRITE, (!local) as usize, (BLOCK_BYTES / 64) as f64);
        let per_read = data + u.mem[DMA_READ][1][0] + u.mem[DMA_WRITE][(!local) as usize][0];
        let s = c.nvme_reads as f64 * per_read / 1e9;
        self.add("memsys", s);
        self.nvme_memsys_s += s;
        self.costs.push(UnitCosts { queue_op: 0.0, ..u });
    }

    /// Attributed seconds per layer: counted costs plus the spans of each
    /// layer, with `telemetry_extra_s` (the share of the traced run's
    /// simulation time that tracing added) added to `telemetry`.
    pub fn attributed(&self, spans: &Spans, telemetry_extra_s: f64) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (l, s) in &self.counted_s {
            *out.get_mut(l).expect("known layer") += s;
        }
        for (name, t) in spans.totals() {
            if let Some(l) = span_layer(name) {
                *out.get_mut(l).expect("known layer") += t.self_ns as f64 / 1e9;
            }
        }
        *out.get_mut("nvme").expect("known layer") -= self.nvme_memsys_s;
        *out.get_mut("telemetry").expect("known layer") += telemetry_extra_s;
        out
    }

    /// Mean of one unit cost over the probed points that measured it.
    pub fn mean_cost(&self, f: impl Fn(&UnitCosts) -> f64) -> f64 {
        let v: Vec<f64> = self.costs.iter().map(f).filter(|&x| x > 0.0).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_hist_percentiles_are_within_resolution() {
        let mut h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((p50 / 5000.0 - 1.0).abs() < 0.04, "p50 {p50}");
        assert!((p99 / 9900.0 - 1.0).abs() < 0.04, "p99 {p99}");
        for v in [0, 31, 32, 33, 1 << 20, u64::MAX >> 4] {
            let m = LogHist::midpoint(LogHist::index(v));
            assert!((m - v as f64).abs() <= v as f64 * 0.04 + 0.5, "{v} -> {m}");
        }
    }
}
