//! The discrete-event loop driving applications over the two hosts.
//!
//! [`NetLoop`] owns the [`Duplex`], an event queue, and a set of
//! applications:
//!
//! * [`Stream`] — netperf TCP_STREAM: the sender streams fixed-size
//!   messages under a receive-window credit loop and the receiver `recv`s
//!   them. [`App::Rx`] streams client → server (Figures 6, 11, 13, 14),
//!   [`App::Tx`] server → client with TSO (Figure 7);
//! * [`Rr`] — netperf TCP_RR / sockperf ping-pong latency (Figures 9, 12);
//! * [`Kv`] — memcached/memslap GET/SET transactions (Figures 10, 13).
//!
//! STREAM antagonists and the PageRank victim ride the same queue as
//! stepper events, so their memory traffic contends with the I/O path in
//! simulated time — which is precisely how the paper's co-location and
//! congestion figures arise.

use simcore::FxHashMap;

use kernel::{HostOut, NetdevId, RecvOutcome, SendOutcome, SockId, ThreadId};
use memsys::{AccessKind, PhysAddr};
use nic::FlowTuple;
use simcore::stats::Histogram;
use simcore::{Dur, EventQueue, OutBuf, Time};
use workloads::{KvOp, KvWorkload, PageRank, StreamAntagonist};

use crate::system::{Duplex, Event, OutRouter, Side};

/// Acknowledgement path delay for receive-window credits: wire latency plus
/// the client's (GRO-batched) ACK processing.
pub const ACK_DELAY: Dur = Dur::from_us(2);

/// Most bytes one bounded `recv` consumes: one TSO/GRO aggregate.
const RECV_CAP: u64 = 64 * 1024;

/// netperf TCP_STREAM: one side sends, the other receives (see [`App::Rx`]
/// and [`App::Tx`]).
#[derive(Debug)]
pub struct Stream {
    /// Server-side socket.
    pub server_sock: SockId,
    /// Server app thread.
    pub server_thread: ThreadId,
    /// Client-side socket.
    pub client_sock: SockId,
    /// Client app thread.
    pub client_thread: ThreadId,
    /// Message size per send call (and per recv call of the Rx server).
    pub msg: u64,
    credit: i64,
    /// Bytes the receiving application has consumed.
    pub consumed: u64,
}

impl Stream {
    /// The socket and thread of one side of the connection.
    fn end(&self, side: Side) -> (SockId, ThreadId) {
        match side {
            Side::Server => (self.server_sock, self.server_thread),
            Side::Client => (self.client_sock, self.client_thread),
        }
    }
}

/// Request/response ping-pong (netperf TCP_RR, sockperf).
#[derive(Debug)]
pub struct Rr {
    /// Server-side socket.
    pub server_sock: SockId,
    /// Server app thread.
    pub server_thread: ThreadId,
    /// Client-side socket.
    pub client_sock: SockId,
    /// Client app thread.
    pub client_thread: ThreadId,
    /// Message size (both directions).
    pub msg: u64,
    /// Transactions to run.
    pub target: usize,
    server_acc: u64,
    client_acc: u64,
    sent_at: Time,
    /// Completed transactions.
    pub done: usize,
    /// Round-trip samples.
    pub rtt: Histogram,
}

/// One memcached connection (client memslap instance ↔ server worker).
#[derive(Debug)]
pub struct Kv {
    /// Server-side socket.
    pub server_sock: SockId,
    /// Server worker thread.
    pub server_thread: ThreadId,
    /// Client-side socket.
    pub client_sock: SockId,
    /// Client memslap thread.
    pub client_thread: ThreadId,
    /// Request mix generator.
    pub workload: KvWorkload,
    /// Value store: key → value address (on the server worker's node).
    pub values: Vec<PhysAddr>,
    cur_op: KvOp,
    server_acc: u64,
    client_acc: u64,
    send_pending: bool,
    /// Completed operations.
    pub done: u64,
    /// Per-op hash/bookkeeping CPU cost on the server.
    pub op_cost: Dur,
}

/// An application driven by the loop.
#[derive(Debug)]
pub enum App {
    /// netperf Rx: the client streams to the server.
    Rx(Stream),
    /// netperf Tx: the server streams to the client.
    Tx(Stream),
    /// Ping-pong latency.
    Rr(Rr),
    /// memcached connection.
    Kv(Kv),
}

impl App {
    /// Progress so far: the bytes a stream's receiver consumed, or the
    /// round trips (Rr) or operations (Kv) completed.
    pub fn progress(&self) -> u64 {
        match self {
            App::Rx(a) | App::Tx(a) => a.consumed,
            App::Rr(a) => a.done as u64,
            App::Kv(a) => a.done,
        }
    }

    /// The server-side socket.
    pub(crate) fn server_sock(&self) -> SockId {
        match self {
            App::Rx(a) | App::Tx(a) => a.server_sock,
            App::Rr(a) => a.server_sock,
            App::Kv(a) => a.server_sock,
        }
    }

    /// A stream and the side that sends its messages.
    fn stream(&mut self) -> (&mut Stream, Side) {
        match self {
            App::Rx(a) => (a, Side::Client),
            App::Tx(a) => (a, Side::Server),
            App::Rr(_) | App::Kv(_) => unreachable!("not a stream"),
        }
    }

    fn rr(&mut self) -> &mut Rr {
        match self {
            App::Rr(a) => a,
            _ => unreachable!("not a ping-pong app"),
        }
    }

    fn kv(&mut self) -> &mut Kv {
        match self {
            App::Kv(a) => a,
            _ => unreachable!("not a memcached connection"),
        }
    }
}

/// The two-host event loop.
#[derive(Debug)]
pub struct NetLoop {
    /// The machines.
    pub duplex: Duplex,
    q: EventQueue<Event>,
    router: OutRouter,
    apps: Vec<App>,
    by_server_thread: FxHashMap<ThreadId, usize>,
    by_client_thread: FxHashMap<ThreadId, usize>,
    /// STREAM antagonists on the server.
    pub antagonists: Vec<StreamAntagonist>,
    /// Optional PageRank victim on the server (Figure 13).
    pub pagerank: Option<PageRank>,
    /// When PageRank finished, if it did.
    pub pagerank_done: Option<Time>,
    sample_every: Option<Dur>,
    /// Per-PF `(time, rx_bytes, tx_bytes)` samples of the server NIC.
    pub samples: Vec<(Time, Vec<(u64, u64)>)>,
    watchdog_every: Option<Dur>,
    audit_every: Option<Dur>,
    /// Accumulated invariant-audit results (see [`NetLoop::enable_audit`]).
    pub audit: simcore::Audit,
    now: Time,
    /// Recycled out-buffer threaded through every host entry point: hosts
    /// append follow-ups here and [`NetLoop::push_outs`] drains them into
    /// the queue, so steady-state dispatch never allocates.
    outbuf: OutBuf<HostOut>,
    /// Recycled same-timestamp batch for NAPI-style dispatch (see
    /// [`NetLoop::run`]).
    batch: Vec<Event>,
    /// Rolling FNV-1a checksum over the dispatched event stream (see
    /// [`NetLoop::checksum`]).
    checksum: u64,
}

/// FNV-1a offset basis: the checksum of an empty event stream.
const CHECKSUM_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one dispatched event into the rolling stream checksum (FNV-1a over
/// the dispatch time, the event kind, and every delivery-visible field).
/// Alloc-free — it runs on the hot dispatch path. Interrupt epoch stamps
/// are deliberately excluded: a reconfiguration cycle applied to a fully
/// quiesced system must leave the subsequent event stream bit-identical to
/// a never-reconfigured run, epochs aside (`tests/reconfig_differential`).
fn fold_event(h: &mut u64, now: Time, ev: &Event) {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut fold = |v: u64| *h = (*h ^ v).wrapping_mul(PRIME);
    fold(now.as_ps());
    match *ev {
        Event::WireArrival {
            to,
            flow,
            bytes,
            seq,
        } => {
            fold(1);
            fold(to as u64);
            fold(u64::from(flow.src_ip) << 32 | u64::from(flow.dst_ip));
            fold(u64::from(flow.src_port) << 16 | u64::from(flow.dst_port));
            fold(bytes);
            fold(seq);
        }
        Event::Irq { side, queue, .. } => {
            fold(2);
            fold(side as u64);
            fold(queue.0 as u64);
        }
        Event::Wake { side, thread } => {
            fold(3);
            fold(side as u64);
            fold(thread.0 as u64);
        }
        Event::Credit { app, bytes } => {
            fold(4);
            fold(app as u64);
            fold(bytes);
        }
        Event::Migrate { thread, core } => {
            fold(5);
            fold(thread.0 as u64);
            fold(core as u64);
        }
        Event::Sample => fold(6),
        Event::Fault { pf, kind } => {
            fold(7);
            fold(pf as u64);
            fold(fault_tag(kind));
        }
        Event::Watchdog => fold(8),
        Event::StreamStep { idx } => {
            fold(9);
            fold(idx as u64);
        }
        Event::PrStep { idx } => {
            fold(10);
            fold(idx as u64);
        }
        Event::Audit => fold(11),
    }
}

/// Stable small integer for each fault kind (checksum input only).
fn fault_tag(kind: simcore::FaultKind) -> u64 {
    use simcore::FaultKind::*;
    match kind {
        LinkDown => 0,
        LinkDegrade { lanes, gen } => 100 + u64::from(lanes) * 8 + u64::from(gen),
        LinkRecover => 1,
        PfFail => 2,
        PfRecover => 3,
        IrqLoss => 4,
        MediaFault { errors } => 200 + u64::from(errors),
        SurpriseRemove => 5,
        Reenumerate => 6,
    }
}

impl NetLoop {
    /// Wraps a duplex in an empty loop.
    pub fn new(duplex: Duplex) -> Self {
        NetLoop {
            duplex,
            q: EventQueue::new(),
            router: OutRouter::new(),
            apps: Vec::new(),
            by_server_thread: FxHashMap::default(),
            by_client_thread: FxHashMap::default(),
            antagonists: Vec::new(),
            pagerank: None,
            pagerank_done: None,
            sample_every: None,
            samples: Vec::new(),
            watchdog_every: None,
            audit_every: None,
            audit: simcore::Audit::new(),
            now: Time::ZERO,
            outbuf: OutBuf::new(),
            batch: Vec::new(),
            checksum: CHECKSUM_BASIS,
        }
    }

    /// Rolling checksum of every event dispatched so far. Two loops that
    /// dispatched the same event stream (times, kinds, delivery-visible
    /// fields) report the same value; the differential suites compare it
    /// across batched/unbatched and degrade→restore runs.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Returns the stream checksum and resets it to the empty-stream basis,
    /// so a later window of the run can be compared in isolation (e.g. the
    /// post-restore tail of a reconfiguration cycle).
    pub fn take_checksum(&mut self) -> u64 {
        std::mem::replace(&mut self.checksum, CHECKSUM_BASIS)
    }

    /// Registers an application; returns its index.
    pub fn add_app(&mut self, app: App) -> usize {
        let i = self.apps.len();
        let (st, ct) = match &app {
            App::Rx(a) | App::Tx(a) => (a.server_thread, a.client_thread),
            App::Rr(a) => (a.server_thread, a.client_thread),
            App::Kv(a) => (a.server_thread, a.client_thread),
        };
        self.by_server_thread.insert(st, i);
        self.by_client_thread.insert(ct, i);
        self.apps.push(app);
        i
    }

    /// Immutable access to an app.
    pub fn app(&self, i: usize) -> &App {
        &self.apps[i]
    }

    /// Current simulated time (last dispatched event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Enables Figure 14-style per-PF sampling.
    pub fn enable_sampling(&mut self, every: Dur) {
        self.sample_every = Some(every);
        self.q.push(Time::ZERO + every, Event::Sample);
    }

    /// Enables the system-wide invariant audit: conservation checks on
    /// both hosts (buffer pools, descriptor rings, socket accounting, PCIe
    /// transaction tallies) plus event-queue time-monotonicity, run every
    /// `every` of simulated time. Results accumulate in
    /// [`NetLoop::audit`]; auditing reads the simulation without touching
    /// it, so enabling it never perturbs a run's event order.
    ///
    /// # Panics
    /// If `every` is zero: the audit would re-arm at the same instant
    /// forever.
    pub fn enable_audit(&mut self, every: Dur) {
        assert!(every > Dur::ZERO, "audit period must be positive");
        self.audit_every = Some(every);
        self.q.push(Time::ZERO + every, Event::Audit);
    }

    /// Runs one audit pass over the whole system into
    /// [`NetLoop::audit`] — both hosts and the event queue. Harnesses call
    /// this at quiesce points; the periodic [`Event::Audit`] tick calls it
    /// on schedule.
    pub fn run_audit(&mut self) {
        self.duplex.server.audit(&mut self.audit);
        self.duplex.client.audit(&mut self.audit);
        self.q.audit(&mut self.audit);
    }

    /// Enables sim-time tracing on the server stack: the kernel host's
    /// ring (IRQ delivery, reconfiguration phases) and the NIC's ring
    /// (steering decisions, DMA issue/land). `cap` records per ring, each
    /// pre-sized here — the record path never allocates. Off by default.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.duplex.server.enable_tracing(cap);
        self.duplex.server.nic.enable_tracing(cap);
    }

    /// Harvests every enabled tracer ring into a [`telemetry::TraceSet`]
    /// (disabling tracing). The set's merged order is `(time, domain,
    /// seq)` — independent of harvest order, so serial and parallel sweeps
    /// export bit-identical artifacts.
    pub fn take_trace(&mut self) -> telemetry::TraceSet {
        let mut set = telemetry::TraceSet::new();
        if let Some(r) = self.duplex.server.nic.take_trace() {
            set.add(r);
        }
        if let Some(r) = self.duplex.server.take_trace() {
            set.add(r);
        }
        set
    }

    /// Enables the NUMA-locality flight recorder on the server NIC with
    /// room for `cap` distinct `(flow, PF)` rows. Off by default.
    pub fn enable_flight_recorder(&mut self, cap: usize) {
        self.duplex.server.nic.enable_flight_recorder(cap);
    }

    /// A sorted snapshot of the server NIC's locality ledger, if the
    /// flight recorder is enabled.
    pub fn flight_table(&self) -> Option<telemetry::LocalityTable> {
        self.duplex.server.nic.flight_table()
    }

    /// Harvests a per-run metric snapshot from every server-side
    /// component (kernel, NIC, PCIe fabric, memory system) plus the
    /// loop's own dispatch accounting, sorted by label.
    pub fn metrics_snapshot(&self) -> telemetry::Snapshot {
        let mut s = telemetry::Snapshot::new();
        self.duplex.server.publish_metrics(&mut s);
        self.duplex.server.fabric.publish_metrics(&mut s);
        self.duplex.server.mem.publish_metrics(&mut s);
        s.push("net.events_processed", self.events_processed());
        s.push("net.audit_checks", self.audit.checks());
        s.sort();
        s
    }

    /// Schedules a thread migration (Figure 14's `sched_setaffinity`).
    pub fn schedule_migration(&mut self, at: Time, thread: ThreadId, core: usize) {
        self.q.push(at, Event::Migrate { thread, core });
    }

    /// Installs a fault plan against the server and starts the server
    /// driver's watchdog ticking every `watchdog_every` (the watchdog is
    /// what turns lost interrupts and dropped doorbells into recoveries
    /// rather than hangs). The plan's events enter the same queue as all
    /// other events, so a faulted run stays fully deterministic.
    pub fn install_fault_plan(&mut self, plan: &simcore::FaultPlan, watchdog_every: Dur) {
        for e in plan.events() {
            self.q.push(
                e.at,
                Event::Fault {
                    pf: e.pf,
                    kind: e.kind,
                },
            );
        }
        if self.watchdog_every.is_none() {
            self.watchdog_every = Some(watchdog_every);
            self.q.push(Time::ZERO + watchdog_every, Event::Watchdog);
        }
    }

    /// Adds a STREAM antagonist and starts its loop at `start`.
    pub fn add_antagonist(&mut self, ant: StreamAntagonist, start: Time) {
        let idx = self.antagonists.len();
        self.antagonists.push(ant);
        self.q.push(start, Event::StreamStep { idx });
    }

    /// Installs the PageRank victim and starts all its workers at `start`.
    pub fn set_pagerank(&mut self, pr: PageRank, start: Time) {
        for i in 0..pr.thread_count() {
            self.q.push(start, Event::PrStep { idx: i });
        }
        self.pagerank = Some(pr);
    }

    /// Kicks every registered application at `start`: the receiver parks
    /// in recv, then the sender starts streaming or sends the first
    /// request.
    pub fn start_apps(&mut self, start: Time) {
        for i in 0..self.apps.len() {
            match &self.apps[i] {
                App::Rx(a) => {
                    let _ = self.duplex.server.recv(start, a.server_sock, u64::MAX);
                    self.pump_stream(i, start, 0);
                }
                App::Tx(a) => {
                    let _ = self.duplex.client.recv(start, a.client_sock, u64::MAX);
                    self.pump_stream(i, start, 0);
                }
                App::Rr(a) => {
                    let _ = self.duplex.server.recv(start, a.server_sock, u64::MAX);
                    self.rr_client_send(i, start);
                }
                App::Kv(a) => {
                    let _ = self.duplex.server.recv(start, a.server_sock, u64::MAX);
                    self.kv_client_send(i, start);
                }
            }
        }
    }

    /// Runs the loop until the queue drains or simulated time passes
    /// `until`.
    ///
    /// NAPI-style dispatch: all events sharing the head timestamp are
    /// drained into one (recycled) batch, and consecutive [`Event::
    /// WireArrival`]s for the same destination are dispatched under a single
    /// host borrow with their follow-ups routed together. Bit-identical to
    /// [`run_unbatched`](Self::run_unbatched): same-instant events dispatch
    /// in push-sequence order either way, handlers never read the queue, and
    /// anything they schedule lands at a later sequence number than every
    /// batch member — so the pop order, the router's sequence assignment,
    /// and every reservation are unchanged. Batching earns its place by
    /// measurement: on the binary-heap queue the one-at-a-time loop ran
    /// `kv_mix` 4–8% slower (EXPERIMENTS.md, "Binary-heap event queue").
    pub fn run(&mut self, until: Time) {
        while let Some(at) = self.q.peek_time() {
            if at > until {
                break;
            }
            let mut batch = std::mem::take(&mut self.batch);
            self.q.pop_batch_into(&mut batch);
            self.now = at;
            let mut k = 0;
            while k < batch.len() {
                if let Event::WireArrival { to, .. } = batch[k] {
                    // One borrow of the destination host for the whole run
                    // of same-destination arrivals; follow-ups accumulate in
                    // `outbuf` in dispatch order and route once at the end.
                    let host = self.duplex.host_mut(to);
                    while k < batch.len() {
                        match batch[k] {
                            Event::WireArrival {
                                to: t2,
                                flow,
                                bytes,
                                seq,
                            } if t2 == to => {
                                fold_event(&mut self.checksum, at, &batch[k]);
                                host.wire_arrival(at, flow, bytes, seq, &mut self.outbuf);
                                k += 1;
                            }
                            _ => break,
                        }
                    }
                    self.push_outs(to);
                } else {
                    let ev = batch[k];
                    self.dispatch(at, ev);
                    k += 1;
                }
            }
            batch.clear();
            self.batch = batch;
        }
        self.now = self.now.max(until);
    }

    /// The reference event loop: pops and dispatches one event at a time.
    /// Kept as the differential-test oracle for the batched [`run`]
    /// (`tests/batched_dispatch.rs` requires bit-identical results).
    pub fn run_unbatched(&mut self, until: Time) {
        while let Some(at) = self.q.peek_time() {
            if at > until {
                break;
            }
            let (at, ev) = self.q.pop().expect("peeked");
            self.now = at;
            self.dispatch(at, ev);
        }
        self.now = self.now.max(until);
    }

    /// Events this loop's queue has dispatched so far (perf accounting).
    pub fn events_processed(&self) -> u64 {
        self.q.events_processed()
    }

    /// Drains the shared [`OutBuf`] through the router into the queue.
    /// Allocation-free: the buffer's capacity is retained across drains.
    fn push_outs(&mut self, from: Side) {
        let NetLoop {
            q, router, outbuf, ..
        } = self;
        for o in outbuf.drain() {
            let (t, e) = router.route_one(from, o);
            q.push(t, e);
        }
    }

    fn dispatch(&mut self, now: Time, ev: Event) {
        fold_event(&mut self.checksum, now, &ev);
        match ev {
            Event::WireArrival {
                to,
                flow,
                bytes,
                seq,
            } => {
                self.duplex
                    .host_mut(to)
                    .wire_arrival(now, flow, bytes, seq, &mut self.outbuf);
                self.push_outs(to);
            }
            Event::Irq { side, queue, epoch } => {
                self.duplex
                    .host_mut(side)
                    .irq_stamped(now, queue, epoch, &mut self.outbuf);
                self.push_outs(side);
            }
            Event::Wake { side, thread } => {
                let by_thread = match side {
                    Side::Server => &self.by_server_thread,
                    Side::Client => &self.by_client_thread,
                };
                if let Some(&i) = by_thread.get(&thread) {
                    self.on_wake(i, side, now);
                }
            }
            // Only stream receivers return credit.
            Event::Credit { app, bytes } => self.pump_stream(app, now, bytes),
            Event::Migrate { thread, core } => {
                self.duplex.server.migrate_thread(now, thread, core);
            }
            Event::Sample => {
                let duplex = &self.duplex;
                let snap = duplex
                    .server_pfs
                    .iter()
                    .map(|&pf| {
                        (
                            duplex.server.nic.rx_bytes(pf),
                            duplex.server.nic.tx_bytes(pf),
                        )
                    })
                    .collect();
                self.samples.push((now, snap));
                if let Some(every) = self.sample_every {
                    self.q.push(now + every, Event::Sample);
                }
            }
            Event::Fault { pf, kind } => {
                let target = self.duplex.server_pfs[pf % self.duplex.server_pfs.len()];
                self.duplex
                    .server
                    .apply_fault(now, target, kind, &mut self.outbuf);
                // Hotplug drains can wake senders whose fenced buffers were
                // reclaimed; route those like any other host follow-up.
                self.push_outs(Side::Server);
            }
            Event::Watchdog => {
                self.duplex.server.watchdog(now, &mut self.outbuf);
                self.push_outs(Side::Server);
                if let Some(every) = self.watchdog_every {
                    self.q.push(now + every, Event::Watchdog);
                }
            }
            Event::Audit => {
                self.run_audit();
                if let Some(every) = self.audit_every {
                    self.q.push(now + every, Event::Audit);
                }
            }
            Event::StreamStep { idx } => {
                let server = &mut self.duplex.server;
                let next = self.antagonists[idx].step(now, &mut server.mem, &mut server.cores);
                self.q.push(next, Event::StreamStep { idx });
            }
            Event::PrStep { idx } => {
                if let Some(pr) = &mut self.pagerank {
                    let server = &mut self.duplex.server;
                    match pr.step(idx, now, &mut server.mem, &mut server.cores) {
                        Some(next) => self.q.push(next, Event::PrStep { idx }),
                        None => {
                            if pr.finished() && self.pagerank_done.is_none() {
                                self.pagerank_done = Some(now);
                            }
                        }
                    }
                }
            }
        }
    }

    // ---------- streams ----------

    /// Adds `credit` to the stream's receive window, then sends its next
    /// message if the window has room. One send per invocation,
    /// continuation self-scheduled: chaining an unbounded send loop inside
    /// one event would run the core's clock arbitrarily far ahead of
    /// simulated time.
    fn pump_stream(&mut self, i: usize, now: Time, credit: u64) {
        let (a, sender) = self.apps[i].stream();
        a.credit += credit as i64;
        if a.credit < a.msg as i64 {
            return;
        }
        let (sock, thread) = a.end(sender);
        let msg = a.msg;
        if let SendOutcome::Sent { done_at } =
            self.duplex
                .host_mut(sender)
                .send(now, sock, msg, &mut self.outbuf)
        {
            a.credit -= msg as i64;
            self.push_outs(sender);
            self.q.push(
                done_at,
                Event::Wake {
                    side: sender,
                    thread,
                },
            );
        }
    }

    /// One recv per wake: the continuation is self-scheduled so that
    /// interrupts and arrivals interleave at their correct times instead
    /// of an unbounded synchronous drain starving ring refills. The Rx
    /// server reads at most one message per call; the Tx client is
    /// GRO-batched, at most one TSO aggregate.
    fn drain_stream(&mut self, i: usize, now: Time) {
        let (a, sender) = self.apps[i].stream();
        let receiver = sender.other();
        let cap = match receiver {
            Side::Server => a.msg,
            Side::Client => RECV_CAP,
        };
        let (sock, thread) = a.end(receiver);
        if let RecvOutcome::Data { done_at, bytes } =
            self.duplex.host_mut(receiver).recv(now, sock, cap)
        {
            a.consumed += bytes;
            self.q
                .push(done_at + ACK_DELAY, Event::Credit { app: i, bytes });
            self.q.push(
                done_at,
                Event::Wake {
                    side: receiver,
                    thread,
                },
            );
        }
    }

    // ---------- RR ----------

    fn rr_client_send(&mut self, i: usize, now: Time) {
        let a = self.apps[i].rr();
        if a.done >= a.target {
            return;
        }
        let sock = a.client_sock;
        // Tiny messages never block in practice; retry on wake.
        if let SendOutcome::Sent { done_at } =
            self.duplex.client.send(now, sock, a.msg, &mut self.outbuf)
        {
            a.sent_at = now;
            self.push_outs(Side::Client);
            // Park in recv for the response.
            let _ = self.duplex.client.recv(done_at, sock, u64::MAX);
        }
    }

    fn rr_server_wake(&mut self, i: usize, now: Time) {
        // All host calls anchor at the event's dispatch time: the calling
        // thread's ordering is carried by its core's busy-until horizon, and
        // reservations must never be issued at chained future times.
        loop {
            let a = self.apps[i].rr();
            let RecvOutcome::Data { bytes, .. } =
                self.duplex.server.recv(now, a.server_sock, u64::MAX)
            else {
                return;
            };
            a.server_acc += bytes;
            if a.server_acc >= a.msg {
                a.server_acc -= a.msg;
                if let SendOutcome::Sent { .. } =
                    self.duplex
                        .server
                        .send(now, a.server_sock, a.msg, &mut self.outbuf)
                {
                    self.push_outs(Side::Server);
                }
            }
        }
    }

    fn rr_client_wake(&mut self, i: usize, now: Time) {
        loop {
            let a = self.apps[i].rr();
            let RecvOutcome::Data { done_at, bytes } =
                self.duplex.client.recv(now, a.client_sock, u64::MAX)
            else {
                return;
            };
            a.client_acc += bytes;
            if a.client_acc >= a.msg {
                a.client_acc -= a.msg;
                a.rtt.record(done_at.since(a.sent_at));
                a.done += 1;
                // Anchor at the event time (see rr_server_wake).
                self.rr_client_send(i, now);
            }
        }
    }

    // ---------- memcached ----------

    fn kv_client_send(&mut self, i: usize, now: Time) {
        let a = self.apps[i].kv();
        if !a.send_pending {
            a.cur_op = a.workload.next_op();
        }
        let sock = a.client_sock;
        match self
            .duplex
            .client
            .send(now, sock, a.cur_op.request_bytes(), &mut self.outbuf)
        {
            SendOutcome::Sent { done_at } => {
                a.send_pending = false;
                self.push_outs(Side::Client);
                let _ = self.duplex.client.recv(done_at, sock, u64::MAX);
            }
            // Woken by a Tx completion; retried from kv_client_wake.
            SendOutcome::WouldBlock => a.send_pending = true,
        }
    }

    fn kv_server_wake(&mut self, i: usize, now: Time) {
        // One bounded recv per event, self-continued at its completion time:
        // draining an arbitrarily large request at a single instant would
        // charge n² self-queueing on the memory links (see pump_stream).
        let a = self.apps[i].kv();
        let RecvOutcome::Data { done_at, bytes } =
            self.duplex.server.recv(now, a.server_sock, RECV_CAP)
        else {
            return;
        };
        a.server_acc += bytes;
        let thread = a.server_thread;
        if a.server_acc >= a.cur_op.request_bytes() {
            // Serve at the event's dispatch time, not the chained recv
            // completion: the worker core's busy-until horizon already
            // orders the serve after the copy, and issuing the value-store
            // reservation at a future `done_at` would push shared FIFO
            // horizons ahead of simulated time (a positive feedback that
            // wedges the run).
            self.kv_serve(i, now);
        }
        // Re-enter recv: either more data is already buffered (continues
        // the drain) or the thread parks for the next request.
        self.q.push(
            done_at,
            Event::Wake {
                side: Side::Server,
                thread,
            },
        );
    }

    fn kv_serve(&mut self, i: usize, now: Time) {
        let a = self.apps[i].kv();
        let op = a.cur_op;
        a.server_acc -= op.request_bytes();
        let sock = a.server_sock;
        let value_addr = a.values[op.key() % a.values.len()];
        let server = &mut self.duplex.server;
        let core = server.sched.core_of(a.server_thread);
        let node = server.sched.node_of(a.server_thread);
        // Hash lookup + item bookkeeping (core busy-until carries ordering;
        // everything anchors at the event time `now`).
        server.cores.run(core, now, a.op_cost);
        let resp = op.response_bytes();
        let sent = match op {
            // Response payload is copied straight out of the value region,
            // so its residency (LLC vs DRAM) is what the copy pays for.
            KvOp::Get { .. } => server.send_from(now, sock, resp, value_addr, &mut self.outbuf),
            KvOp::Set { .. } => {
                // Store the new value, then acknowledge.
                let w = server.mem.cpu_write(
                    now,
                    node,
                    value_addr,
                    workloads::memcached::VALUE_BYTES,
                    AccessKind::Stream,
                );
                server.cores.run(core, now, w);
                server.send(now, sock, resp, &mut self.outbuf)
            }
        };
        if let SendOutcome::Sent { .. } = sent {
            self.push_outs(Side::Server);
        }
    }

    fn kv_client_wake(&mut self, i: usize, now: Time) {
        let a = self.apps[i].kv();
        // Retry a backpressured request first (woken by a Tx completion).
        if a.send_pending {
            self.kv_client_send(i, now);
            return;
        }
        // One bounded (GRO-batched) recv per event; see kv_server_wake.
        let RecvOutcome::Data { done_at, bytes } =
            self.duplex.client.recv(now, a.client_sock, RECV_CAP)
        else {
            return;
        };
        a.client_acc += bytes;
        let resp = a.cur_op.response_bytes();
        if a.client_acc >= resp {
            a.client_acc -= resp;
            a.done += 1;
            // Anchor the next request at the event time (see
            // kv_server_wake): the client core's horizon carries the
            // ordering.
            self.kv_client_send(i, now);
        } else {
            self.q.push(
                done_at,
                Event::Wake {
                    side: Side::Client,
                    thread: a.client_thread,
                },
            );
        }
    }

    fn on_wake(&mut self, i: usize, side: Side, now: Time) {
        match (&self.apps[i], side) {
            (App::Rx(_), Side::Client) | (App::Tx(_), Side::Server) => self.pump_stream(i, now, 0),
            (App::Rx(_), Side::Server) | (App::Tx(_), Side::Client) => self.drain_stream(i, now),
            (App::Rr(_), Side::Server) => self.rr_server_wake(i, now),
            (App::Rr(_), Side::Client) => self.rr_client_wake(i, now),
            (App::Kv(_), Side::Server) => self.kv_server_wake(i, now),
            (App::Kv(_), Side::Client) => self.kv_client_wake(i, now),
        }
    }
}

/// Opens one connection: spawns the server thread, then the client thread,
/// then opens the server's socket for `flow` on `server_netdev` and the
/// client's for the reversed flow. Returns `(server_sock, server_thread,
/// client_sock, client_thread)`.
fn connect(
    duplex: &mut Duplex,
    server_core: usize,
    client_core: usize,
    server_netdev: NetdevId,
    flow: FlowTuple,
) -> (SockId, ThreadId, SockId, ThreadId) {
    let st = duplex.server.spawn_thread(server_core);
    let ct = duplex.client.spawn_thread(client_core);
    let ss = duplex
        .server
        .open_socket(Time::ZERO, st, flow, server_netdev);
    let cs = duplex
        .client
        .open_socket(Time::ZERO, ct, flow.reversed(), NetdevId(0));
    (ss, st, cs, ct)
}

/// Builds a [`Stream`] over fresh sockets/threads with `window` bytes of
/// receive-window credit. [`App::Rx`] wraps it to stream client → server,
/// [`App::Tx`] to stream server → client.
pub fn make_rx_stream(
    duplex: &mut Duplex,
    server_core: usize,
    client_core: usize,
    server_netdev: NetdevId,
    msg: u64,
    window: u64,
    port: u16,
) -> Stream {
    // The flow as the server sees it inbound: client → server.
    let flow = FlowTuple::tcp(0x0A00_0001, port, 0x0A00_0002, 5001);
    let (server_sock, server_thread, client_sock, client_thread) =
        connect(duplex, server_core, client_core, server_netdev, flow);
    Stream {
        server_sock,
        server_thread,
        client_sock,
        client_thread,
        msg,
        credit: window as i64,
        consumed: 0,
    }
}

/// Builds an [`Rr`] app over fresh sockets/threads.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one knob of the RR pair the figure runners vary"
)]
pub fn make_rr(
    duplex: &mut Duplex,
    server_core: usize,
    client_core: usize,
    server_netdev: NetdevId,
    msg: u64,
    target: usize,
    port: u16,
    udp: bool,
) -> Rr {
    let flow = if udp {
        FlowTuple::udp(0x0A00_0001, port, 0x0A00_0002, 5001)
    } else {
        FlowTuple::tcp(0x0A00_0001, port, 0x0A00_0002, 5001)
    };
    let (server_sock, server_thread, client_sock, client_thread) =
        connect(duplex, server_core, client_core, server_netdev, flow);
    Rr {
        server_sock,
        server_thread,
        client_sock,
        client_thread,
        msg,
        target,
        server_acc: 0,
        client_acc: 0,
        sent_at: Time::ZERO,
        done: 0,
        rtt: Histogram::new(),
    }
}

/// Builds a [`Kv`] connection with `keys` values stored on the server
/// worker's node.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one knob of the KV pair the figure runners vary"
)]
pub fn make_kv(
    duplex: &mut Duplex,
    server_core: usize,
    client_core: usize,
    server_netdev: NetdevId,
    set_ratio: f64,
    keys: usize,
    port: u16,
    seed: u64,
) -> Kv {
    let flow = FlowTuple::tcp(0x0A00_0001, port, 0x0A00_0002, 11211);
    let (server_sock, server_thread, client_sock, client_thread) =
        connect(duplex, server_core, client_core, server_netdev, flow);
    let node = duplex.server.sched.node_of(server_thread);
    let values = (0..keys)
        .map(|_| {
            duplex
                .server
                .mem
                .alloc(node, workloads::memcached::VALUE_BYTES)
        })
        .collect();
    Kv {
        server_sock,
        server_thread,
        client_sock,
        client_thread,
        workload: KvWorkload::new(set_ratio, keys, seed),
        values,
        cur_op: KvOp::Get { key: 0 },
        server_acc: 0,
        client_acc: 0,
        send_pending: false,
        done: 0,
        op_cost: Dur::from_us(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BuildOpts, Placement};
    use crate::system::build_duplex;

    #[test]
    fn rx_stream_moves_data_end_to_end() {
        let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
        let app = make_rx_stream(&mut duplex, 14, 0, NetdevId(0), 65536, 512 * 1024, 4000);
        let mut nl = NetLoop::new(duplex);
        let i = nl.add_app(App::Rx(app));
        nl.start_apps(Time::ZERO);
        nl.run(Time::from_ms(5));
        let consumed = nl.app(i).progress();
        // At ≥10 Gb/s, 5 ms moves ≥ 6 MB.
        assert!(consumed > 6_000_000, "consumed = {consumed}");
        assert_eq!(nl.duplex.server.nic.rx_dropped(), 0);
    }

    #[test]
    fn tx_stream_moves_data_end_to_end() {
        let mut duplex = build_duplex(Placement::Local, BuildOpts::default());
        let app = make_rx_stream(&mut duplex, 0, 0, NetdevId(0), 65536, 4 * 1024 * 1024, 4001);
        let mut nl = NetLoop::new(duplex);
        let i = nl.add_app(App::Tx(app));
        nl.start_apps(Time::ZERO);
        nl.run(Time::from_ms(5));
        let consumed = nl.app(i).progress();
        assert!(consumed > 10_000_000, "consumed = {consumed}");
    }

    #[test]
    fn rr_completes_transactions() {
        let mut duplex = build_duplex(
            Placement::Local,
            BuildOpts {
                coalescing_off: true,
                ..BuildOpts::default()
            },
        );
        let app = make_rr(&mut duplex, 0, 0, NetdevId(0), 64, 50, 4002, false);
        let mut nl = NetLoop::new(duplex);
        let i = nl.add_app(App::Rr(app));
        nl.start_apps(Time::ZERO);
        nl.run(Time::from_ms(50));
        match nl.app(i) {
            App::Rr(a) => {
                assert_eq!(a.done, 50, "all transactions complete");
                let mean = a.rtt.clone().mean().unwrap();
                assert!(mean > Dur::from_us(5), "RTT {mean} too small");
                assert!(mean < Dur::from_us(200), "RTT {mean} too large");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn kv_completes_ops() {
        let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
        let app = make_kv(&mut duplex, 14, 0, NetdevId(0), 0.5, 8, 4003, 7);
        let mut nl = NetLoop::new(duplex);
        let i = nl.add_app(App::Kv(app));
        nl.start_apps(Time::ZERO);
        nl.run(Time::from_ms(20));
        match nl.app(i) {
            App::Kv(a) => {
                assert!(a.done > 5, "ops done = {}", a.done);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn antagonists_step_in_loop() {
        let duplex = build_duplex(Placement::Local, BuildOpts::default());
        let mut nl = NetLoop::new(duplex);
        let (r, w) = StreamAntagonist::pair(2, 3, memsys::NodeId(1));
        nl.add_antagonist(r, Time::ZERO);
        nl.add_antagonist(w, Time::ZERO);
        nl.run(Time::from_ms(2));
        assert!(nl.antagonists[0].bytes_done() > 10_000_000);
        assert!(nl.antagonists[1].bytes_done() > 10_000_000);
    }

    #[test]
    fn sampling_produces_a_monotone_timeline() {
        let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
        let app = make_rx_stream(&mut duplex, 14, 0, NetdevId(0), 65536, 512 * 1024, 4010);
        let mut nl = NetLoop::new(duplex);
        let _ = nl.add_app(App::Rx(app));
        nl.enable_sampling(Dur::from_us(100));
        nl.start_apps(Time::ZERO);
        nl.run(Time::from_ms(3));
        assert!(nl.samples.len() >= 25, "got {} samples", nl.samples.len());
        assert!(nl.samples.windows(2).all(|w| w[0].0 < w[1].0), "monotone");
        // Cumulative per-PF byte counters never decrease.
        for pf in 0..2 {
            assert!(nl.samples.windows(2).all(|w| w[0].1[pf].0 <= w[1].1[pf].0));
        }
    }

    #[test]
    fn migration_mid_stream_is_transparent_to_the_app() {
        let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
        let app = make_rx_stream(&mut duplex, 0, 0, NetdevId(0), 65536, 512 * 1024, 4011);
        let th = app.server_thread;
        let sock = app.server_sock;
        let mut nl = NetLoop::new(duplex);
        let i = nl.add_app(App::Rx(app));
        nl.schedule_migration(Time::from_ms(2), th, 14);
        nl.start_apps(Time::ZERO);
        nl.run(Time::from_ms(5));
        let consumed = nl.app(i).progress();
        assert!(
            consumed > 5_000_000,
            "stream survived migration: {consumed}"
        );
        assert_eq!(nl.duplex.server.ooo_count(sock), 0);
        assert_eq!(nl.duplex.server.nic.rx_dropped(), 0);
    }

    #[test]
    fn rr_latency_percentiles_are_ordered() {
        let mut duplex = build_duplex(
            Placement::Local,
            BuildOpts {
                coalescing_off: true,
                ..BuildOpts::default()
            },
        );
        let app = make_rr(&mut duplex, 0, 0, NetdevId(0), 256, 80, 4012, false);
        let mut nl = NetLoop::new(duplex);
        let i = nl.add_app(App::Rr(app));
        nl.start_apps(Time::ZERO);
        nl.run(Time::from_ms(50));
        match nl.app(i) {
            App::Rr(a) => {
                let mut h = a.rtt.clone();
                let mean = h.mean().unwrap();
                let p90 = h.percentile(90.0).unwrap();
                let p99 = h.percentile(99.0).unwrap();
                assert!(p90 <= p99);
                assert!(mean <= p99);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn udp_and_tcp_rr_both_complete() {
        for udp in [false, true] {
            let mut duplex = build_duplex(
                Placement::Octopus,
                BuildOpts {
                    coalescing_off: true,
                    ..BuildOpts::default()
                },
            );
            let app = make_rr(&mut duplex, 14, 0, NetdevId(0), 64, 30, 4013, udp);
            let mut nl = NetLoop::new(duplex);
            let i = nl.add_app(App::Rr(app));
            nl.start_apps(Time::ZERO);
            nl.run(Time::from_ms(30));
            match nl.app(i) {
                App::Rr(a) => assert!(a.done >= 30, "udp={udp}: done {}", a.done),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn kv_get_and_set_roundtrip_accounting() {
        let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
        let app = make_kv(&mut duplex, 14, 0, NetdevId(0), 0.5, 4, 4014, 99);
        let mut nl = NetLoop::new(duplex);
        let i = nl.add_app(App::Kv(app));
        nl.start_apps(Time::ZERO);
        nl.run(Time::from_ms(25));
        match nl.app(i) {
            App::Kv(a) => {
                assert!(a.done >= 5, "ops: {}", a.done);
                let (gets, sets) = a.workload.counts();
                assert!(gets > 0 && sets > 0, "mix exercised: {gets}/{sets}");
            }
            _ => unreachable!(),
        }
    }
}
