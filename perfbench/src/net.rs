//! The three network workloads (`rx_stream`, `kv_mix`, `qpi_congestion`),
//! composed from the constructors the figure runners use: `build_duplex`,
//! `make_rx_stream`, `make_kv`, `make_rr` and `NetLoop`. Each point mirrors
//! its runner's composition call for call, so at seed 0 and the runner's
//! length it reproduces the runner's result bit for bit
//! (`tests/reproduce.rs`).

use ioctopus::config::{BuildOpts, Placement};
use ioctopus::experiments::{gbps, Window};
use ioctopus::netloop::{make_kv, make_rr, make_rx_stream, App, NetLoop};
use ioctopus::results::{LatencyResult, ThroughputResult};
use ioctopus::system::build_duplex;
use kernel::NetdevId;
use memsys::NodeId;
use simcore::{Audit, Time};
use telemetry::trace::DmaRoute;
use telemetry::TraceKind;
use workloads::StreamAntagonist;

use crate::reference::Reference;
use crate::spans::Spans;
use crate::{alloc, ledger, sim_ms, Inputs, PointStats, Quantity, WorkloadRun, SLICES};

/// Records per tracer ring; rings are harvested at every slice end.
const TRACE_CAP: usize = 1 << 18;
/// Flight-recorder rows (flows × PFs; 14 KV flows on 2 PFs is the most).
const FLIGHT_ROWS: usize = 64;
/// The figure runners' fixed Figure 12 horizon.
pub const FIG12_MS: u64 = 400;
/// STREAM pairs of the congestion workload (Figures 11 and 12).
const PAIRS: usize = 4;
/// Ping-pong transactions of the Figure 12 points.
const FIG12_TXNS: usize = 400;

/// The application a point runs.
#[derive(Debug, Clone, Copy)]
pub enum NetApp {
    /// Figure 6: one netperf TCP_STREAM receiver with `msg`-byte reads.
    Rx {
        /// Read size, bytes.
        msg: u64,
    },
    /// Figure 10: 14 memcached connections.
    Kv {
        /// Share of SETs.
        set_ratio: f64,
    },
    /// Figure 11: a 64 KiB TCP receiver under STREAM pairs.
    RxCongested {
        /// STREAM pairs.
        pairs: usize,
    },
    /// Figure 12: a 64 B UDP ping-pong under STREAM pairs; always runs the
    /// runner's fixed [`FIG12_MS`].
    RrCongested {
        /// STREAM pairs.
        pairs: usize,
        /// Transactions asked for.
        txns: usize,
    },
}

/// One simulated machine of a network workload.
#[derive(Debug, Clone, Copy)]
pub struct NetPoint {
    /// NIC placement.
    pub placement: Placement,
    /// What runs on it.
    pub app: NetApp,
    /// Simulated length, ms.
    pub sim_ms: u64,
    /// Workload seed.
    pub seed: u64,
}

/// A point's figure-runner result.
#[derive(Debug, Clone)]
pub enum NetResult {
    /// Figures 6, 10 and 11.
    Tput(ThroughputResult),
    /// Figure 12.
    Lat(LatencyResult),
}

impl NetResult {
    /// The throughput result; panics on a latency point.
    pub fn tput(&self) -> &ThroughputResult {
        match self {
            NetResult::Tput(r) => r,
            NetResult::Lat(_) => panic!("latency point has no throughput"),
        }
    }

    /// The latency result; panics on a throughput point.
    pub fn lat(&self) -> &LatencyResult {
        match self {
            NetResult::Lat(r) => r,
            NetResult::Tput(_) => panic!("throughput point has no latency"),
        }
    }
}

/// Client source port: the runner's port at seed 0, shifted by the seed.
/// This is the seed's only input to the network workloads: `kv_mix` keeps
/// the runner's per-connection request streams, because fresh streams
/// move its `paper_err` by about a quarter from seed to seed, pooled
/// draws included (README.md, "Seeds").
pub fn port(base: u16, seed: u64) -> u16 {
    base + (seed.wrapping_mul(7919) % 4096) as u16
}

/// Installs `pairs` STREAM pairs exactly as the congestion runner does:
/// readers on node-0 cores from 1 targeting node 1, writers on node-1
/// cores from 15 targeting node 0.
fn add_pairs(nl: &mut NetLoop, pairs: usize, spans: &mut Spans) {
    for i in 0..pairs {
        let (r, w) = spans.time("stream_pair", || {
            let (r, _) = StreamAntagonist::pair(1 + i, 1 + i, NodeId(1));
            let (_, w) = StreamAntagonist::pair(15 + i, 15 + i, NodeId(0));
            (r, w)
        });
        spans.time("add_antagonist", || {
            nl.add_antagonist(r, Time::ZERO);
            nl.add_antagonist(w, Time::ZERO);
        });
    }
}

/// Builds the point's machine up to (not including) its first dispatched
/// event; returns the loop and the app indices.
fn build(pt: &NetPoint, spans: &mut Spans) -> (NetLoop, Vec<usize>) {
    let p = pt.placement;
    let opts = match pt.app {
        NetApp::RrCongested { .. } => BuildOpts {
            coalescing_off: true,
            ..BuildOpts::default()
        },
        _ => BuildOpts::default(),
    };
    let mut d = spans.time("build_duplex", || build_duplex(p, opts));
    let apps: Vec<App> = spans.time("make_app", || match pt.app {
        NetApp::Rx { msg } => vec![App::Rx(make_rx_stream(
            &mut d,
            p.app_core(),
            0,
            NetdevId(0),
            msg,
            512 * 1024,
            port(4242, pt.seed),
        ))],
        NetApp::RxCongested { .. } => vec![App::Rx(make_rx_stream(
            &mut d,
            p.app_core(),
            0,
            NetdevId(0),
            65536,
            512 * 1024,
            port(4242, pt.seed),
        ))],
        NetApp::RrCongested { txns, .. } => vec![App::Rr(make_rr(
            &mut d,
            p.app_core(),
            0,
            NetdevId(0),
            64,
            txns + 16,
            port(4242, pt.seed),
            true,
        ))],
        NetApp::Kv { set_ratio } => {
            use ioctopus::experiments::memcached::{CLIENTS, KEYS, SERVER_CORES};
            (0..CLIENTS)
                .map(|c| {
                    App::Kv(make_kv(
                        &mut d,
                        p.app_core() + (c % SERVER_CORES),
                        c,
                        NetdevId(0),
                        set_ratio,
                        KEYS,
                        port(5000, pt.seed) + c as u16,
                        0xC0FFEE + c as u64,
                    ))
                })
                .collect()
        }
    });
    let mut nl = spans.time("netloop_new", || NetLoop::new(d));
    if spans.is_on() {
        nl.enable_tracing(TRACE_CAP);
        nl.enable_flight_recorder(FLIGHT_ROWS);
    }
    let idxs = spans.time("add_app", || {
        apps.into_iter().map(|a| nl.add_app(a)).collect()
    });
    if let NetApp::RxCongested { pairs } | NetApp::RrCongested { pairs, .. } = pt.app {
        add_pairs(&mut nl, pairs, spans);
    }
    spans.time("start_apps", || nl.start_apps(Time::ZERO));
    (nl, idxs)
}

/// Payload bytes the app's server socket received plus sent.
fn server_bytes(nl: &NetLoop, idxs: &[usize]) -> u64 {
    idxs.iter()
        .map(|&i| {
            let s = nl.duplex.server.socket(server_sock(nl.app(i)));
            s.rx_bytes + s.tx_bytes
        })
        .sum()
}

fn server_sock(a: &App) -> kernel::SockId {
    match a {
        App::Rx(a) => a.server_sock,
        App::Tx(a) => a.server_sock,
        App::Rr(a) => a.server_sock,
        App::Kv(a) => a.server_sock,
    }
}

fn client_sock(a: &App) -> kernel::SockId {
    match a {
        App::Rx(a) => a.client_sock,
        App::Tx(a) => a.client_sock,
        App::Rr(a) => a.client_sock,
        App::Kv(a) => a.client_sock,
    }
}

/// Estimated pending events: NetLoop does not expose its queue, so count
/// the wire segments the sockets' byte counters say are in flight in
/// either direction, one wake-up and one interrupt per app, and one step
/// per STREAM antagonist. Bytes still in a send buffer count as in
/// flight, so this is an upper bound.
fn pending_estimate(nl: &NetLoop, idxs: &[usize]) -> f64 {
    let mut n = nl.antagonists.len() as u64;
    for &i in idxs {
        let s = nl.duplex.server.socket(server_sock(nl.app(i)));
        let c = nl.duplex.client.socket(client_sock(nl.app(i)));
        let inflight =
            c.tx_bytes.saturating_sub(s.rx_bytes) + s.tx_bytes.saturating_sub(c.rx_bytes);
        n += inflight.div_ceil(1448) + 2;
    }
    n as f64
}

/// Folds a harvested trace set into the point's counts.
fn count_trace(set: &telemetry::TraceSet, st: &mut PointStats, lat: &mut ledger::LogHist) {
    let c = &mut st.counts;
    c.trace_overwritten += set.overwritten();
    for (_, r) in set.merged() {
        match r.kind {
            TraceKind::DmaRead | TraceKind::DmaWrite => {
                let write = r.kind == TraceKind::DmaWrite;
                let local = DmaRoute::unpack(r.b).local;
                let (w, l) = (write as usize, (!local) as usize);
                c.dma_calls[w][l] += 1;
                c.dma_lines[w][l] += r.d.div_ceil(64).max(1);
                if write {
                    c.dma_writes += 1;
                } else {
                    c.dma_reads += 1;
                }
                lat.record(r.c.saturating_sub(r.t.as_ps()) / 1000);
            }
            TraceKind::IrqDelivered => c.irqs += 1,
            TraceKind::FlowSteered => c.steering += 1,
            TraceKind::ReconfigPhase => {}
        }
    }
}

/// One network point on its machine: built, then run slice by slice
/// (possibly interleaved with other points), then harvested.
pub struct NetMachine {
    pt: NetPoint,
    nl: NetLoop,
    idxs: Vec<usize>,
    w: Window,
    st: PointStats,
    lat: ledger::LogHist,
    /// The runner's progress counters at the warm-up boundary.
    base: (u64, u64),
}

impl NetMachine {
    /// Builds the point's machine.
    pub fn new(pt: &NetPoint, name: &str, spans: &mut Spans) -> Self {
        let mut st = PointStats {
            name: name.to_string(),
            ..PointStats::default()
        };
        let (nl, idxs) = crate::build_in_span(spans, |spans| build(pt, spans));
        let w = Window::of_ms(match pt.app {
            NetApp::RrCongested { .. } => FIG12_MS,
            _ => pt.sim_ms,
        });
        st.window_sim_us = w.end.since(w.warmup).as_us();
        NetMachine {
            pt: *pt,
            nl,
            idxs,
            w,
            st,
            lat: ledger::LogHist::default(),
            base: (0, 0),
        }
    }

    /// Times one more build of the point into `setup_s` (see
    /// [`crate::time_build`]).
    pub fn time_build(&mut self, spans: &mut Spans) {
        let pt = self.pt;
        let dc = crate::time_build(spans, |spans| build(&pt, spans));
        self.st.setup_s.push(dc);
    }

    /// Runs slice `k` of `1..=SLICES`, then `run_audit`; returns the CPU
    /// seconds `NetLoop::run` took. Slice `SLICES/4` ends at the warm-up,
    /// where the runner resets its meters.
    pub fn slice(&mut self, k: u64, spans: &mut Spans) -> f64 {
        let until = crate::slice_end(&self.w, k);
        let (ev0, al0) = (self.nl.events_processed(), alloc::calls());
        let open = spans.enter("netloop.run");
        let ((), dt, dc) = crate::timed(|| self.nl.run(until));
        spans.exit(open);
        let st = &mut self.st;
        st.run_s += dt;
        st.run_cpu_s += dc;
        if k > SLICES / 4 {
            st.window_host_s += dt;
            st.window_cpu_s += dc;
            st.window_allocs += alloc::calls() - al0;
            st.window_events += self.nl.events_processed() - ev0;
        }
        spans.time("run_audit", || self.nl.run_audit());
        if spans.is_on() {
            st.counts.queue_len += pending_estimate(&self.nl, &self.idxs) / SLICES as f64;
            let nl = &mut self.nl;
            let set = spans.time("harvest.trace", || {
                let set = nl.take_trace();
                nl.enable_tracing(TRACE_CAP);
                set
            });
            count_trace(&set, st, &mut self.lat);
        }
        if k == SLICES / 4 {
            debug_assert_eq!(until, self.w.warmup);
            if !matches!(self.pt.app, NetApp::RrCongested { .. }) {
                self.nl.duplex.server.mem.reset_counters();
                self.nl.duplex.server.cores.reset_meters();
            }
            self.base = app_progress(&self.nl, &self.idxs);
        }
        dc
    }

    /// Harvests the runner's result, the layer counts and the audit; when
    /// traced, times the unit costs on the warmed machine into `ledger`.
    pub fn finish(
        mut self,
        spans: &mut Spans,
        checks: &mut Audit,
        ledger: &mut ledger::Ledger,
    ) -> (NetResult, PointStats) {
        let (nl, idxs) = (&mut self.nl, &self.idxs);
        let result = spans.time("harvest.result", || {
            result_of(&self.pt, nl, idxs, self.w, self.base)
        });
        let snap = spans.time("harvest.metrics", || nl.metrics_snapshot());
        let get = |k: &str| snap.get(k).unwrap_or(0);
        let st = &mut self.st;
        let c = &mut st.counts;
        c.events = nl.events_processed();
        c.issued_txns = get("pcie.issued_txns");
        c.dropped_txns = get("pcie.dropped_txns");
        c.llc_hits = get("mem.llc_hits");
        c.llc_misses = get("mem.llc_misses");
        c.dram_bytes = get("mem.dram_bytes");
        c.interconnect_bytes = get("mem.interconnect_bytes");
        c.memo_hits = get("mem.stall_memo_hits");
        c.memo_misses = get("mem.stall_memo_misses");
        c.copy_bytes = server_bytes(nl, idxs);
        c.stream_steps = nl
            .antagonists
            .iter()
            .map(|a| a.bytes_done() / a.chunk_bytes)
            .sum();
        if let Some(t) = spans.time("harvest.flight", || nl.flight_table()) {
            c.local_bytes = t.totals.local_bytes();
            c.remote_bytes = t.totals.remote_bytes();
            c.ddio_hits = t.totals.ddio_hits;
            c.ddio_misses = t.totals.ddio_misses;
            c.qpi_crossings = t.totals.qpi_crossings;
        }
        st.checksum = nl.checksum();
        checks.merge(std::mem::replace(&mut nl.audit, Audit::new()));
        let name = &st.name;
        checks.check(
            "perfbench",
            "no-dropped-pcie-txns",
            c.dropped_txns == 0,
            || format!("{name}: {} PCIe transactions dropped", c.dropped_txns),
        );
        checks.check(
            "perfbench",
            "trace-complete",
            c.trace_overwritten == 0,
            || format!("{name}: {} trace records overwritten", c.trace_overwritten),
        );
        if spans.is_on() {
            let now = nl.now();
            let server = &mut nl.duplex.server;
            ledger.add_net_point(
                st,
                &self.lat,
                &mut server.mem,
                &mut server.cores,
                now,
                spans,
            );
        }
        (result, self.st)
    }
}

/// Runs one point alone: build, every slice, harvest.
pub fn run_point(
    pt: &NetPoint,
    name: &str,
    spans: &mut Spans,
    checks: &mut Audit,
    ledger: &mut ledger::Ledger,
) -> (NetResult, PointStats) {
    let mut m = NetMachine::new(pt, name, spans);
    for k in 1..=SLICES {
        m.slice(k, spans);
    }
    m.finish(spans, checks, ledger)
}

/// The runner's progress counters: (bytes or transactions, KV bytes).
fn app_progress(nl: &NetLoop, idxs: &[usize]) -> (u64, u64) {
    let mut done = 0;
    let mut bytes = 0;
    for &i in idxs {
        match nl.app(i) {
            App::Rx(a) => done += a.consumed,
            App::Kv(a) => {
                done += a.done;
                let s = nl.duplex.server.socket(a.server_sock);
                bytes += s.rx_bytes + s.tx_bytes;
            }
            App::Rr(_) | App::Tx(_) => {}
        }
    }
    (done, bytes)
}

/// Computes the figure runner's result from the finished loop, with the
/// runner's arithmetic.
fn result_of(
    pt: &NetPoint,
    nl: &NetLoop,
    idxs: &[usize],
    w: Window,
    base: (u64, u64),
) -> NetResult {
    let p = pt.placement;
    let cores = nl.duplex.server.mem.topology().total_cores();
    let cpu = nl
        .duplex
        .server
        .cores
        .utilization_of(0..cores, w.warmup, w.end);
    let membw = gbps(nl.duplex.server.mem.counters().total_dram_bytes(), w);
    let (done, bytes) = app_progress(nl, idxs);
    match pt.app {
        NetApp::Rx { msg } => {
            let consumed = done - base.0;
            NetResult::Tput(ThroughputResult {
                config: p.label().to_string(),
                x: msg as f64,
                throughput_gbps: gbps(consumed, w),
                membw_gbps: membw,
                cpu_cores: cpu,
                rate_per_sec: consumed as f64 / msg as f64 / w.secs(),
            })
        }
        NetApp::RxCongested { pairs } => {
            let consumed = done - base.0;
            NetResult::Tput(ThroughputResult {
                config: p.label().to_string(),
                x: pairs as f64,
                throughput_gbps: gbps(consumed, w),
                membw_gbps: membw,
                cpu_cores: cpu,
                rate_per_sec: consumed as f64 / 65536.0 / w.secs(),
            })
        }
        NetApp::Kv { set_ratio } => NetResult::Tput(ThroughputResult {
            config: p.label().to_string(),
            x: set_ratio * 100.0,
            throughput_gbps: gbps(bytes - base.1, w),
            membw_gbps: membw,
            cpu_cores: cpu,
            rate_per_sec: (done - base.0) as f64 / w.secs(),
        }),
        NetApp::RrCongested { pairs, .. } => match nl.app(idxs[0]) {
            App::Rr(a) => {
                let mut h = a.rtt.clone();
                NetResult::Lat(LatencyResult {
                    config: p.label().to_string(),
                    x: pairs as f64,
                    mean_us: h.mean().map(|d| d.as_us()).unwrap_or(f64::NAN),
                    p90_us: h.percentile(90.0).map(|d| d.as_us()).unwrap_or(f64::NAN),
                    p99_us: h.percentile(99.0).map(|d| d.as_us()).unwrap_or(f64::NAN),
                    transactions: a.done,
                })
            }
            _ => unreachable!("Figure 12 points run one ping-pong app"),
        },
    }
}

/// Builds every point's machine, runs them slice by slice in turn so
/// that contention from other tenants of the host falls on every point
/// alike, and harvests them into `run` in order. Each measurement-window
/// round starts with one timed build of every point.
fn run_points(
    points: &[(&str, NetPoint)],
    spans: &mut Spans,
    run: &mut WorkloadRun,
    reference: &mut Reference,
) -> Vec<NetResult> {
    let mut machines: Vec<NetMachine> = points
        .iter()
        .map(|(name, pt)| NetMachine::new(pt, name, spans))
        .collect();
    for k in 1..=SLICES {
        if k > SLICES / 4 {
            machines.iter_mut().for_each(|m| m.time_build(spans));
        }
        let cpu: f64 = machines.iter_mut().map(|m| m.slice(k, spans)).sum();
        let reference_s = spans.time("reference", || reference.round());
        if k > SLICES / 4 {
            run.rounds.push((cpu, reference_s));
        }
    }
    let mut results = Vec::new();
    for m in machines {
        let (r, st) = m.finish(spans, &mut run.checks, &mut run.ledger);
        results.push(r);
        run.points.push(st);
    }
    results
}

fn check_at_least(run: &mut WorkloadRun, what: &'static str, hi: f64, lo: f64) {
    run.checks.check("perfbench", what, hi >= lo, || {
        format!("{what}: {hi} < {lo}")
    });
}

/// Figure 6 at 64 KiB and 256 B, octoNIC and remote. 256 B points get
/// about 2.4x the simulated time of 64 KiB points, so both sizes take a
/// similar share of host time.
pub fn rx_stream(inputs: &Inputs, spans: &mut Spans, reference: &mut Reference) -> WorkloadRun {
    let pt = |placement, msg, ms_per_s| NetPoint {
        placement,
        app: NetApp::Rx { msg },
        sim_ms: sim_ms(inputs, ms_per_s),
        seed: inputs.seed,
    };
    let mut run = WorkloadRun::default();
    let r = run_points(
        &[
            ("rx64k.ioct", pt(Placement::Octopus, 65536, 35.0)),
            ("rx64k.remote", pt(Placement::Remote, 65536, 42.0)),
            ("rx256.ioct", pt(Placement::Octopus, 256, 82.0)),
            ("rx256.remote", pt(Placement::Remote, 256, 82.0)),
        ],
        spans,
        &mut run,
        reference,
    );
    let (l64, r64, l256, r256) = (r[0].tput(), r[1].tput(), r[2].tput(), r[3].tput());
    check_at_least(
        &mut run,
        "rx64k-ioct-ge-remote",
        l64.throughput_gbps,
        r64.throughput_gbps,
    );
    check_at_least(
        &mut run,
        "rx256-ioct-ge-remote",
        l256.throughput_gbps,
        r256.throughput_gbps,
    );
    run.quantities = vec![
        Quantity {
            name: "rx64k_ratio",
            sim: l64.throughput_gbps / r64.throughput_gbps,
            paper: 1.25,
        },
        Quantity {
            name: "rx256_ratio",
            sim: l256.throughput_gbps / r256.throughput_gbps,
            paper: 1.08,
        },
        Quantity {
            name: "rx64k_ioct_gbps",
            sim: l64.throughput_gbps,
            paper: 22.0,
        },
    ];
    run
}

/// Figure 10 at 50% SET, octoNIC and remote.
pub fn kv_mix(inputs: &Inputs, spans: &mut Spans, reference: &mut Reference) -> WorkloadRun {
    let pt = |placement, ms_per_s| NetPoint {
        placement,
        app: NetApp::Kv { set_ratio: 0.5 },
        sim_ms: sim_ms(inputs, ms_per_s),
        seed: inputs.seed,
    };
    let mut run = WorkloadRun::default();
    let r = run_points(
        &[
            ("kv.ioct", pt(Placement::Octopus, 11.0)),
            ("kv.remote", pt(Placement::Remote, 16.0)),
        ],
        spans,
        &mut run,
        reference,
    );
    let (l, rm) = (r[0].tput(), r[1].tput());
    check_at_least(
        &mut run,
        "kv-ioct-ge-remote",
        l.rate_per_sec,
        rm.rate_per_sec,
    );
    run.quantities = vec![
        Quantity {
            name: "kv_ktps_ratio",
            sim: l.rate_per_sec / rm.rate_per_sec,
            paper: 1.13,
        },
        Quantity {
            name: "kv_membw_ratio",
            sim: l.membw_gbps / rm.membw_gbps,
            paper: 0.66,
        },
    ];
    run
}

/// Figures 11 and 12 under 4 STREAM pairs, octoNIC and remote.
pub fn qpi_congestion(
    inputs: &Inputs,
    spans: &mut Spans,
    reference: &mut Reference,
) -> WorkloadRun {
    let rx = |placement, ms_per_s| NetPoint {
        placement,
        app: NetApp::RxCongested { pairs: PAIRS },
        sim_ms: sim_ms(inputs, ms_per_s),
        seed: inputs.seed,
    };
    let rr = |placement| NetPoint {
        placement,
        app: NetApp::RrCongested {
            pairs: PAIRS,
            txns: FIG12_TXNS,
        },
        sim_ms: FIG12_MS,
        seed: inputs.seed,
    };
    let mut run = WorkloadRun::default();
    let r = run_points(
        &[
            ("fig11.ioct", rx(Placement::Octopus, 70.0)),
            ("fig11.remote", rx(Placement::Remote, 140.0)),
            ("fig12.ioct", rr(Placement::Octopus)),
            ("fig12.remote", rr(Placement::Remote)),
        ],
        spans,
        &mut run,
        reference,
    );
    let (lt, rt, ll, rl) = (r[0].tput(), r[1].tput(), r[2].lat(), r[3].lat());
    check_at_least(
        &mut run,
        "fig11-ioct-ge-remote",
        lt.throughput_gbps,
        rt.throughput_gbps,
    );
    check_at_least(&mut run, "fig12-ioct-le-remote", rl.mean_us, ll.mean_us);
    run.quantities = vec![
        Quantity {
            name: "qpi_tput_ratio",
            sim: lt.throughput_gbps / rt.throughput_gbps,
            paper: 2.245,
        },
        Quantity {
            name: "qpi_lat_ratio",
            sim: ll.mean_us / rl.mean_us,
            paper: 0.84,
        },
    ];
    run
}
