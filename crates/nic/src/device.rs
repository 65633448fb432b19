//! The NIC device model: queues, DMA pipelines, steering, interrupts.
//!
//! One [`Nic`] instance models the server's adapter — either a conventional
//! NIC (every PF a separate logical device, MAC-steered) or the octoNIC
//! (one MAC, IOctoRFS flow steering). The difference is *only* firmware
//! state ([`SteeringMode`]) plus which driver manages it, exactly as in the
//! paper (§4.1: "By loading our IOctopus firmware, we can turn the server's
//! NIC into an octoNIC").

use std::cell::Cell;

use memsys::{MemSystem, NodeId, PhysAddr};
use pcie::{PcieFabric, PfId};
use simcore::{Dur, Time};
use telemetry::trace::{DdioOutcome, DmaRoute, Domain, TraceKind};
use telemetry::{FlightRecorder, LocalityTable, Snapshot, TraceRing};

use crate::desc::{Completion, RxDesc, TxDesc, CQE_BYTES, DESC_BYTES};
use crate::flow::{FlowTuple, MacAddr};
use crate::mpfs::{Mpfs, SteeringMode};
use crate::ring::DescRing;
use crate::steering::ArfsTable;
use crate::tso;
use crate::wire::{Wire, WireConfig};

/// Identifies one queue pair (Tx + Rx rings and their completion queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub usize);

impl std::fmt::Display for QueueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Device-wide parameters.
#[derive(Debug, Clone, Copy)]
pub struct NicConfig {
    /// Wire MTU.
    pub mtu: u64,
    /// TCP MSS (MTU minus IP/TCP headers).
    pub mss: u64,
    /// Ring capacity (descriptors per ring).
    pub ring_entries: usize,
    /// Per-packet device pipeline latency (parse, steer, schedule).
    pub processing_delay: Dur,
    /// Interrupt moderation delay: time from completion to MSI-X fire while
    /// armed. Zero models §5.1.2's "disable adaptive interrupt coalescing".
    pub irq_delay: Dur,
    /// Steering firmware.
    pub steering: SteeringMode,
    /// Wire parameters.
    pub wire: WireConfig,
}

impl NicConfig {
    /// The paper's server NIC as shipped (standard firmware).
    pub fn standard_100g() -> Self {
        NicConfig {
            mtu: crate::wire::MTU,
            mss: crate::wire::MSS,
            ring_entries: 1024,
            processing_delay: Dur::from_ns(10),
            irq_delay: Dur::from_us(8),
            steering: SteeringMode::MacBased,
            wire: WireConfig::back_to_back_100g(),
        }
    }

    /// The same hardware after loading the IOctopus firmware.
    pub fn octonic_100g() -> Self {
        NicConfig {
            steering: SteeringMode::FlowBased,
            ..Self::standard_100g()
        }
    }

    /// Completion-queue capacity, four times the work rings: buffers
    /// recycle through the rings faster than NAPI drains under bursts, so
    /// more completions than ring slots can be outstanding.
    pub fn cq_entries(&self) -> usize {
        self.ring_entries * 4
    }
}

/// Static configuration of one queue pair.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// The PCIe endpoint this queue's DMA flows through.
    pub pf: PfId,
    /// The core whose interrupts service this queue.
    pub irq_core: usize,
    /// The NUMA node the queue's rings and buffers live on.
    pub node: NodeId,
}

#[derive(Debug)]
struct Queue {
    cfg: QueueConfig,
    tx_ring: DescRing<TxDesc>,
    tx_cq: DescRing<Completion>,
    rx_ring: DescRing<RxDesc>,
    rx_cq: DescRing<Completion>,
    irq_armed: bool,
    busy_until: Time,
    /// Rx buffers the hardware popped from the ring and then lost (the
    /// link dropped mid-DMA, so the buffer could not be returned). The
    /// host's pool-conservation audit subtracts these from the pool
    /// capacity it expects to account for.
    rx_bufs_lost: u64,
}

/// What happened to an arriving wire packet.
#[derive(Debug, Clone)]
pub enum RxOutcome {
    /// Delivered into a posted buffer; a completion entry was written.
    Delivered {
        /// Queue the packet landed on.
        queue: QueueId,
        /// PF the DMA went through (for per-PF accounting).
        pf: PfId,
        /// When the payload + CQE writes finished.
        done_at: Time,
        /// MSI-X delivery, if one fired: `(time, target core)`.
        irq: Option<(Time, usize)>,
    },
    /// No posted Rx buffer — the packet was dropped.
    DroppedNoBuffer {
        /// Queue whose ring was empty.
        queue: QueueId,
    },
    /// The steered PF is dead and no surviving PF could take the packet
    /// (standard firmware has no cross-PF path; or every PF is down).
    DroppedPfDead {
        /// The dead PF the packet was steered to.
        pf: PfId,
    },
    /// The PCIe link under the delivery PF dropped mid-transfer.
    DroppedLinkDown {
        /// Queue the packet was headed for.
        queue: QueueId,
        /// The PF whose link is down.
        pf: PfId,
    },
    /// The steered PF has no attached queues to land the packet on.
    DroppedNoQueue {
        /// The queueless PF.
        pf: PfId,
    },
}

/// Result of processing a Tx doorbell.
#[derive(Debug, Clone, Default)]
pub struct TxOutcome {
    /// Wire packets sent: `(arrival time at peer, flow, payload bytes)`.
    pub packets: Vec<(Time, FlowTuple, u64)>,
    /// When each descriptor's completion entry landed in host memory.
    pub completions: Vec<Time>,
    /// MSI-X delivery, if one fired: `(time, target core)`.
    pub irq: Option<(Time, usize)>,
    /// Descriptors that completed with error status instead of reaching
    /// the wire (dead PF, dead link).
    pub errors: u64,
}

impl TxOutcome {
    /// Empties the outcome for reuse, keeping the vectors' capacity so a
    /// recycled scratch outcome never reallocates in steady state.
    pub fn clear(&mut self) {
        self.packets.clear();
        self.completions.clear();
        self.irq = None;
        self.errors = 0;
    }
}

/// Robustness counters: everything the device absorbed instead of
/// panicking. Deterministic for a given run (same seed + same fault plan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicCounters {
    /// Descriptors completed with error status (PF failed / link down).
    pub error_completions: u64,
    /// Flow rules migrated off failed PFs by firmware failover.
    pub resteered_flows: u64,
    /// Wire packets dropped because their PF was dead with no failover
    /// path (plus packets steered to a PF with no queues).
    pub dropped_pf_dead: u64,
    /// Interrupts that should have fired but never reached the host
    /// (injected IRQ loss, or the link dropped under the MSI-X write).
    pub lost_irqs: u64,
    /// Operations that referenced a queue the device does not have.
    pub invalid_refs: u64,
    /// PF failure events absorbed.
    pub pf_fails: u64,
    /// PF recovery events absorbed.
    pub pf_recoveries: u64,
}

/// The NIC device.
#[derive(Debug)]
pub struct Nic {
    cfg: NicConfig,
    queues: Vec<Queue>,
    mpfs: Mpfs,
    arfs: Vec<ArfsTable>,
    wire: Wire,
    pf_count: usize,
    rx_bytes_per_pf: Vec<u64>,
    tx_bytes_per_pf: Vec<u64>,
    rx_dropped: u64,
    rx_no_buffer: u64,
    pf_alive: Vec<bool>,
    irq_loss_pending: Vec<bool>,
    /// Per-PF device epoch mirrored from the fabric by the driver's hotplug
    /// path: every completion the device writes is stamped with its PF's
    /// epoch at issue time, so the driver can fence stale entries after a
    /// surprise removal / re-enumeration.
    pf_epoch: Vec<u64>,
    home_default: PfId,
    counters: NicCounters,
    invalid_refs: Cell<u64>,
    /// Sim-time tracer ring, `None` (one branch per site) unless enabled.
    tracer: Option<TraceRing>,
    /// NUMA-locality flight recorder, `None` unless enabled.
    flight: Option<FlightRecorder>,
}

impl Nic {
    /// Creates the device with `pf_count` physical functions. `default_pf`
    /// catches traffic no steering rule matches.
    pub fn new(cfg: NicConfig, pf_count: usize, default_pf: PfId) -> Self {
        assert!(pf_count > 0, "a NIC needs at least one PF");
        assert!(default_pf.0 < pf_count, "default PF out of range");
        Nic {
            mpfs: Mpfs::new(cfg.steering, default_pf),
            cfg,
            queues: Vec::new(),
            arfs: vec![ArfsTable::new(Dur::from_ms(500)); pf_count],
            wire: Wire::new(cfg.wire),
            pf_count,
            rx_bytes_per_pf: vec![0; pf_count],
            tx_bytes_per_pf: vec![0; pf_count],
            rx_dropped: 0,
            rx_no_buffer: 0,
            pf_alive: vec![true; pf_count],
            irq_loss_pending: vec![false; pf_count],
            pf_epoch: vec![0; pf_count],
            home_default: default_pf,
            counters: NicCounters::default(),
            invalid_refs: Cell::new(0),
            tracer: None,
            flight: None,
        }
    }

    /// Enables sim-time tracing into a pre-sized ring of `cap` records
    /// (the one allocation tracing performs; the steady-state record path
    /// stays alloc-free). Off by default.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Some(TraceRing::new(Domain::Nic, cap));
    }

    /// Takes the tracer ring for harvest, disabling tracing.
    pub fn take_trace(&mut self) -> Option<TraceRing> {
        self.tracer.take()
    }

    /// Enables the NUMA-locality flight recorder with room for `cap`
    /// distinct `(flow, PF)` rows. Off by default.
    pub fn enable_flight_recorder(&mut self, cap: usize) {
        self.flight = Some(FlightRecorder::new(cap));
    }

    /// A sorted snapshot of the locality ledger, if recording is enabled.
    pub fn flight_table(&self) -> Option<LocalityTable> {
        self.flight.as_ref().map(|f| f.table())
    }

    /// Publishes the device's counters into a per-run metric snapshot.
    pub fn publish_metrics(&self, s: &mut Snapshot) {
        let c = self.counters();
        s.push("nic.error_completions", c.error_completions);
        s.push("nic.resteered_flows", c.resteered_flows);
        s.push("nic.dropped_pf_dead", c.dropped_pf_dead);
        s.push("nic.lost_irqs", c.lost_irqs);
        s.push("nic.invalid_refs", c.invalid_refs);
        s.push("nic.pf_fails", c.pf_fails);
        s.push("nic.pf_recoveries", c.pf_recoveries);
        s.push("nic.rx.dropped", self.rx_dropped);
        s.push("nic.rx.no_buffer", self.rx_no_buffer);
        s.push("nic.rx.bytes", self.rx_bytes_per_pf.iter().sum());
        s.push("nic.tx.bytes", self.tx_bytes_per_pf.iter().sum());
        if let Some(fr) = &self.flight {
            let t = fr.table();
            s.push("nic.dma.local_bytes", t.totals.local_bytes());
            s.push("nic.dma.remote_bytes", t.totals.remote_bytes());
            s.push("nic.dma.ddio_hits", t.totals.ddio_hits);
            s.push("nic.dma.ddio_misses", t.totals.ddio_misses);
            s.push("nic.dma.qpi_crossings", t.totals.qpi_crossings);
        }
    }

    /// Whether any telemetry sink wants per-DMA notifications (hot-path
    /// guard: one load per packet when everything is off).
    #[inline]
    fn telemetry_on(&self) -> bool {
        self.tracer.is_some() || self.flight.is_some()
    }

    /// Feeds one DMA transaction to the enabled telemetry sinks. The NIC
    /// is the one component that knows the flow, the PF, *and* the target
    /// address at the same time, so locality is classified here:
    /// `local` means the PF's I/O controller and the address's home node
    /// coincide; DDIO applies to payload writes only.
    #[inline]
    #[expect(
        clippy::too_many_arguments,
        reason = "per-DMA bookkeeping from the callers' locals; a struct would be built per DMA only to be unpacked"
    )]
    fn note_dma(
        &mut self,
        now: Time,
        flow: u64,
        pf: PfId,
        dev_node: Option<NodeId>,
        addr: PhysAddr,
        bytes: u64,
        write: bool,
        payload: bool,
        ddio_on: bool,
        d: Dur,
    ) {
        let home = addr.home();
        let local = dev_node == Some(home);
        let ddio_hit = if write && payload {
            Some(local && ddio_on)
        } else {
            None
        };
        if let Some(fr) = &mut self.flight {
            fr.record_dma(flow, pf.0 as u32, bytes, write, local, ddio_hit);
        }
        if let Some(tr) = &mut self.tracer {
            let dev = dev_node.map_or(0, |n| n.0 as u8);
            let route = DmaRoute {
                pf: pf.0 as u8,
                src_node: if write { dev } else { home.0 as u8 },
                dst_node: if write { home.0 as u8 } else { dev },
                local,
                ddio: match ddio_hit {
                    Some(true) => DdioOutcome::Hit,
                    Some(false) => DdioOutcome::Miss,
                    None => DdioOutcome::NotApplicable,
                },
            };
            let kind = if write {
                TraceKind::DmaWrite
            } else {
                TraceKind::DmaRead
            };
            tr.push(now, kind, flow, route.pack(), (now + d).as_ps(), bytes);
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// The integrated multi-PF switch (firmware steering state).
    pub fn mpfs_mut(&mut self) -> &mut Mpfs {
        &mut self.mpfs
    }

    /// Read access to the switch.
    pub fn mpfs(&self) -> &Mpfs {
        &self.mpfs
    }

    /// Robustness counters accumulated since construction.
    pub fn counters(&self) -> NicCounters {
        NicCounters {
            invalid_refs: self.invalid_refs.get(),
            ..self.counters
        }
    }

    /// Whether `pf` is currently operational.
    pub fn pf_alive(&self, pf: PfId) -> bool {
        self.pf_alive.get(pf.0).copied().unwrap_or(false)
    }

    /// The device epoch completions from `pf` are currently stamped with
    /// (0 for an unknown PF, counted).
    pub fn pf_epoch(&self, pf: PfId) -> u64 {
        match self.pf_epoch.get(pf.0) {
            Some(&e) => e,
            None => {
                self.invalid_refs.set(self.invalid_refs.get() + 1);
                0
            }
        }
    }

    /// Advances `pf`'s device epoch to `epoch` (the driver mirrors the
    /// fabric's epoch here across surprise removals and re-enumerations;
    /// completions already sitting in CQs keep their older stamp and are
    /// fenced by the driver when reaped). Epochs never move backwards.
    pub fn set_pf_epoch(&mut self, pf: PfId, epoch: u64) {
        match self.pf_epoch.get_mut(pf.0) {
            Some(e) => *e = (*e).max(epoch),
            None => self.invalid_refs.set(self.invalid_refs.get() + 1),
        }
    }

    /// Fails physical function `pf` (function-level death: its queues stop,
    /// in-flight Tx descriptors complete with error status at `now`, and —
    /// with octoNIC firmware — every flow rule steering to it migrates to
    /// the lowest-indexed surviving PF, as does the default-PF fallback).
    /// Standard firmware has no cross-PF path, so its flows go dark until
    /// recovery. Returns the number of flow rules re-steered. Idempotent.
    pub fn fail_pf(&mut self, now: Time, pf: PfId) -> usize {
        if pf.0 >= self.pf_count {
            self.invalid_refs.set(self.invalid_refs.get() + 1);
            return 0;
        }
        if !self.pf_alive[pf.0] {
            return 0;
        }
        self.pf_alive[pf.0] = false;
        self.counters.pf_fails += 1;
        let epoch = self.pf_epoch[pf.0];
        for i in 0..self.queues.len() {
            if self.queues[i].cfg.pf == pf {
                self.counters.error_completions +=
                    Self::flush_queue_on_reset(&mut self.queues[i], now, epoch);
            }
        }
        // ARFS rules on the dead PF are function state; the reset wipes
        // them. The driver re-installs after recovery.
        self.arfs[pf.0] = ArfsTable::new(Dur::from_ms(500));
        let mut moved = 0;
        if self.cfg.steering == SteeringMode::FlowBased {
            if let Some(s) = self.failover_target() {
                moved = self.mpfs.resteer(pf, s);
                self.counters.resteered_flows += moved as u64;
                if self.mpfs.default_pf() == pf {
                    self.mpfs.set_default_pf(s);
                }
            }
        }
        moved
    }

    /// Brings `pf` back after a function-level reset. Steering state stays
    /// where failover moved it — the driver decides what to migrate back
    /// (via `install_flow`/`arfs_install`) — except the default-PF
    /// fallback, which firmware restores to its configured home, or adopts
    /// onto the recovering PF if the current default is dead (the
    /// all-PFs-down-then-partial-recovery case: with no survivor at the
    /// last failure, the fallback had nowhere to fail over to, and waiting
    /// for the home PF specifically would blackhole unmatched traffic on
    /// an otherwise serving device — found by the chaos campaign's
    /// fail-while-failed schedules). Idempotent.
    pub fn recover_pf(&mut self, pf: PfId) {
        if pf.0 >= self.pf_count {
            self.invalid_refs.set(self.invalid_refs.get() + 1);
            return;
        }
        if self.pf_alive[pf.0] {
            return;
        }
        self.pf_alive[pf.0] = true;
        self.counters.pf_recoveries += 1;
        if self.cfg.steering == SteeringMode::FlowBased
            && (self.home_default == pf || !self.pf_alive(self.mpfs.default_pf()))
        {
            self.mpfs.set_default_pf(pf);
        }
    }

    /// Arms a one-shot interrupt loss on `pf`: the next MSI-X that would
    /// fire from one of its queues is silently swallowed (the completion
    /// still lands in host memory — only the doorbell to the CPU is lost).
    /// The driver's watchdog must notice the unserviced completions.
    pub fn inject_irq_loss(&mut self, pf: PfId) {
        if pf.0 >= self.pf_count {
            self.invalid_refs.set(self.invalid_refs.get() + 1);
            return;
        }
        self.irq_loss_pending[pf.0] = true;
    }

    /// The lowest-indexed live PF, if any — where failover sends orphaned
    /// flows.
    fn failover_target(&self) -> Option<PfId> {
        (0..self.pf_count).find(|&i| self.pf_alive[i]).map(PfId)
    }

    /// Consumes a pending one-shot IRQ loss on `pf`, counting it.
    fn take_irq_loss(&mut self, pf: PfId) -> bool {
        if self.irq_loss_pending[pf.0] {
            self.irq_loss_pending[pf.0] = false;
            self.counters.lost_irqs += 1;
            true
        } else {
            false
        }
    }

    /// Function-level reset of one queue: outstanding Tx work completes
    /// with error status at `now` (no DMA — the CQEs are synthesized by
    /// firmware on the control path). Posted Rx descriptors survive the
    /// reset in this model: a real driver would free and repost identical
    /// entries, and skipping that churn keeps the host's buffer pools
    /// balanced without an extra repost handshake. Returns the error
    /// completions generated.
    fn flush_queue_on_reset(q: &mut Queue, now: Time, epoch: u64) -> u64 {
        let mut n = 0;
        while let Some((_, desc)) = q.tx_ring.consume() {
            if q.tx_cq.next_slot_addr().is_some() {
                q.tx_cq
                    .post(Completion {
                        bytes: desc.len,
                        seq: 0,
                        flow: desc.flow,
                        buffer: None,
                        landed_at: now,
                        error: true,
                        epoch,
                    })
                    .expect("slot checked above");
            }
            n += 1;
        }
        q.irq_armed = true;
        n
    }

    /// Registers a queue pair whose rings live at the given host addresses
    /// (allocated by the driver, node-local to the queue's CPU — §2.3 "Q's
    /// memory is allocated from C's node").
    pub fn attach_queue(
        &mut self,
        cfg: QueueConfig,
        tx_ring_base: PhysAddr,
        tx_cq_base: PhysAddr,
        rx_ring_base: PhysAddr,
        rx_cq_base: PhysAddr,
    ) -> QueueId {
        assert!(cfg.pf.0 < self.pf_count, "queue references unknown PF");
        let (n, cq) = (self.cfg.ring_entries, self.cfg.cq_entries());
        let id = QueueId(self.queues.len());
        self.queues.push(Queue {
            cfg,
            tx_ring: DescRing::new(tx_ring_base, DESC_BYTES, n),
            tx_cq: DescRing::new(tx_cq_base, CQE_BYTES, cq),
            rx_ring: DescRing::new(rx_ring_base, DESC_BYTES, n),
            rx_cq: DescRing::new(rx_cq_base, CQE_BYTES, cq),
            irq_armed: true,
            busy_until: Time::ZERO,
            rx_bufs_lost: 0,
        });
        id
    }

    /// Number of attached queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// The static configuration of `q`, if the queue exists.
    pub fn queue_config(&self, q: QueueId) -> Option<QueueConfig> {
        self.queue(q).map(|qq| qq.cfg)
    }

    /// Installs an ARFS rule on `pf`: packets of `flow` arriving at that PF
    /// go to `queue`.
    pub fn arfs_install(&mut self, now: Time, pf: PfId, flow: FlowTuple, queue: QueueId) {
        self.arfs[pf.0].install(now, flow, queue);
    }

    /// Expires idle ARFS rules on every PF; returns the total removed.
    pub fn arfs_expire(&mut self, now: Time) -> usize {
        self.arfs.iter_mut().map(|t| t.expire(now)).sum()
    }

    /// The driver posts an Rx buffer to `q`'s ring. Returns the slot address
    /// written (the driver charges its own `cpu_write`), or `None` if the
    /// ring is full or the queue does not exist.
    pub fn post_rx(&mut self, q: QueueId, desc: RxDesc) -> Option<PhysAddr> {
        self.queue_mut(q)?.rx_ring.post(desc)
    }

    /// The driver posts `descs` to `q`'s Rx ring in one step when it sets
    /// the queue up: the same ring as one [`Nic::post_rx`] per buffer, in
    /// order.
    ///
    /// # Panics
    /// Panics if the queue does not exist or `descs` does not fit its Rx
    /// ring.
    pub fn fill_rx(&mut self, q: QueueId, descs: impl ExactSizeIterator<Item = RxDesc>) {
        self.queue_mut(q)
            .expect("fill_rx on an attached queue")
            .rx_ring
            .fill(descs);
    }

    /// The driver posts a Tx descriptor. Returns the slot address, or
    /// `None` if the ring is full or the queue does not exist.
    pub fn post_tx(&mut self, q: QueueId, desc: TxDesc) -> Option<PhysAddr> {
        assert!(desc.is_consistent(), "malformed Tx descriptor");
        self.queue_mut(q)?.tx_ring.post(desc)
    }

    /// Outstanding Tx descriptors on `q` (drained by doorbells).
    pub fn tx_backlog(&self, q: QueueId) -> usize {
        self.queue(q).map_or(0, |qq| qq.tx_ring.len())
    }

    /// Posted Rx buffers available on `q`.
    pub fn rx_buffers_available(&self, q: QueueId) -> usize {
        self.queue(q).map_or(0, |qq| qq.rx_ring.len())
    }

    /// The driver consumes one completion from `q`'s Rx CQ, if any.
    /// Returns the CQE address (for the driver's `cpu_read` charge) and the
    /// completion.
    pub fn pop_rx_completion(&mut self, q: QueueId) -> Option<(PhysAddr, Completion)> {
        self.queue_mut(q)?.rx_cq.consume()
    }

    /// The driver consumes one Tx completion, if any.
    pub fn pop_tx_completion(&mut self, q: QueueId) -> Option<(PhysAddr, Completion)> {
        self.queue_mut(q)?.tx_cq.consume()
    }

    /// When the oldest un-reaped Rx completion becomes visible in host
    /// memory, if any.
    pub fn rx_landing(&self, q: QueueId) -> Option<Time> {
        self.queue(q)?.rx_cq.peek().map(|c| c.landed_at)
    }

    /// When the oldest un-reaped Tx completion becomes visible, if any.
    pub fn tx_landing(&self, q: QueueId) -> Option<Time> {
        self.queue(q)?.tx_cq.peek().map(|c| c.landed_at)
    }

    /// Re-arms `q`'s interrupt (NAPI poll finished and found nothing).
    pub fn rearm_irq(&mut self, q: QueueId) {
        if let Some(qq) = self.queue_mut(q) {
            qq.irq_armed = true;
        }
    }

    /// Whether `q` currently has completions waiting in its Rx CQ.
    pub fn rx_cq_depth(&self, q: QueueId) -> usize {
        self.queue(q).map_or(0, |qq| qq.rx_cq.len())
    }

    /// Whether `q`'s interrupt is currently armed (diagnostics).
    pub fn irq_armed(&self, q: QueueId) -> bool {
        self.queue(q).is_some_and(|qq| qq.irq_armed)
    }

    /// Processes a Tx doorbell: drains every posted descriptor on `q`,
    /// performing descriptor fetches, payload DMA reads (TSO-segmented),
    /// wire transmission, and completion writes.
    ///
    /// `doorbell_at` should already include the driver's MMIO cost and sets
    /// the pipeline chronology; `reserve_at` is the *event time* the caller
    /// is executing at, used for all shared-resource reservations (bandwidth
    /// must never be reserved at chained future times — that pushes FIFO
    /// horizons ahead of concurrent traffic and destabilizes the model).
    ///
    /// Results land in `out`, a caller-owned scratch outcome that is
    /// cleared on entry and recycled across doorbells so the Tx path does
    /// not allocate in steady state.
    pub fn tx_doorbell(
        &mut self,
        doorbell_at: Time,
        reserve_at: Time,
        q: QueueId,
        fabric: &mut PcieFabric,
        mem: &mut MemSystem,
        out: &mut TxOutcome,
    ) {
        out.clear();
        let Some((pf, irq_core, node)) = self
            .queue(q)
            .map(|qq| (qq.cfg.pf, qq.cfg.irq_core, qq.cfg.node))
        else {
            return;
        };
        if !self.pf_alive[pf.0] {
            // Doorbell rang on a dead function: everything posted completes
            // with error status (the ring doorbell itself is a posted MMIO
            // write — nothing tells the driver synchronously).
            let epoch = self.pf_epoch[pf.0];
            let qq = &mut self.queues[q.0];
            let n = Self::flush_queue_on_reset(qq, doorbell_at, epoch);
            self.counters.error_completions += n;
            out.errors += n;
            return;
        }
        let epoch = self.pf_epoch[pf.0];
        let telem = self.telemetry_on();
        let ddio_on = mem.ddio();
        let dev_node = if telem { fabric.node_of(pf) } else { None };
        // The engine is pipelined: it spends `processing_delay` of occupancy
        // per descriptor while the DMA latencies of consecutive packets
        // overlap (bandwidth is still serialized inside the PCIe links).
        let mut engine = doorbell_at.max(self.queues[q.0].busy_until);
        let mut t = engine;

        while let Some((slot_addr, desc)) = self.queues[q.0].tx_ring.consume() {
            engine += self.cfg.processing_delay;
            let fkey = if telem { desc.flow.key() } else { 0 };
            // Fetch the work descriptor from host memory. Bandwidth is
            // reserved at the doorbell's event time: feeding chained
            // (future) completion times back into shared-link FIFOs would
            // let congested chains starve near-term traffic.
            //
            // Any DMA on the path returning `None` means the link under the
            // PF is down: the descriptor completes with error status and
            // the drain continues — later descriptors fail the same way.
            let fetched = 'fetch: {
                let Some(d_desc) = fabric.dma_read(reserve_at, pf, mem, slot_addr, DESC_BYTES)
                else {
                    break 'fetch None;
                };
                if telem {
                    self.note_dma(
                        reserve_at, fkey, pf, dev_node, slot_addr, DESC_BYTES, false, false,
                        ddio_on, d_desc,
                    );
                }
                // Read the payload. IOctoSG (§3.3): fragments may carry
                // a PF hint so cross-node payloads are fetched through
                // the local PF. FIFO on the link: slowest component
                // bounds readiness.
                let mut slowest = d_desc;
                for frag in &desc.fragments {
                    let frag_pf = frag.pf_hint.unwrap_or(pf);
                    let Some(d) = fabric.dma_read(reserve_at, frag_pf, mem, frag.addr, frag.len)
                    else {
                        break 'fetch None;
                    };
                    if telem {
                        let frag_node = if frag_pf == pf {
                            dev_node
                        } else {
                            fabric.node_of(frag_pf)
                        };
                        self.note_dma(
                            reserve_at, fkey, frag_pf, frag_node, frag.addr, frag.len, false, true,
                            ddio_on, d,
                        );
                    }
                    slowest = slowest.max(d);
                }
                Some(slowest)
            };
            let Some(slowest) = fetched else {
                Self::post_error_completion(&mut self.queues[q.0], &desc, engine, epoch);
                self.counters.error_completions += 1;
                out.errors += 1;
                continue;
            };
            t = engine + slowest;

            // Segment onto the wire. Non-TSO descriptors go out as one
            // packet; TSO ones stream through the segment iterator, so
            // neither path allocates.
            if desc.tso {
                for seg in tso::segments(desc.len, self.cfg.mss) {
                    let arrive = self.wire.send_tx(t, seg);
                    self.tx_bytes_per_pf[pf.0] += seg;
                    out.packets.push((arrive, desc.flow, seg));
                }
            } else {
                let seg = desc.len;
                let arrive = self.wire.send_tx(t, seg);
                self.tx_bytes_per_pf[pf.0] += seg;
                out.packets.push((arrive, desc.flow, seg));
            }

            // Completion entry.
            let Some(cq_slot) = self.queues[q.0].tx_cq.next_slot_addr() else {
                // CQ full: completion coalesced onto the oldest outstanding
                // entry (real hardware cannot overrun its CQ because the
                // driver sizes it to the ring).
                out.completions.push(t);
                continue;
            };
            let cqe_done = match fabric.dma_write(reserve_at, pf, mem, cq_slot, CQE_BYTES) {
                Some(d) => {
                    if telem {
                        self.note_dma(
                            reserve_at, fkey, pf, dev_node, cq_slot, CQE_BYTES, true, false,
                            ddio_on, d,
                        );
                    }
                    t + d
                }
                // Link died between payload fetch and CQE write: the packet
                // reached the wire but its completion never lands; firmware
                // synthesizes an error CQE for the watchdog to find.
                None => {
                    Self::post_error_completion(&mut self.queues[q.0], &desc, t, epoch);
                    self.counters.error_completions += 1;
                    out.errors += 1;
                    continue;
                }
            };
            self.queues[q.0]
                .tx_cq
                .post(Completion {
                    bytes: desc.len,
                    seq: 0,
                    flow: desc.flow,
                    buffer: None,
                    landed_at: cqe_done,
                    error: false,
                    epoch,
                })
                .expect("slot checked above");
            out.completions.push(cqe_done);
            t = t.max(engine);
        }

        // The interrupt is triggered by the FIRST completion written while
        // armed (moderated by irq_delay); NAPI then paces itself with the
        // later landings.
        if !out.completions.is_empty() && self.queues[q.0].irq_armed {
            self.queues[q.0].irq_armed = false;
            let first = out.completions.iter().copied().min().unwrap_or(t);
            let fire = first + self.cfg.irq_delay;
            if self.take_irq_loss(pf) {
                // Swallowed: completions landed, doorbell to the CPU lost.
            } else if let Some(lat) = fabric.interrupt(reserve_at, pf, mem, node) {
                out.irq = Some((fire + lat, irq_core));
            } else {
                self.counters.lost_irqs += 1;
            }
        }
        self.queues[q.0].busy_until = engine;
    }

    /// Synthesizes an error CQE for `desc` at `at` (control path, no DMA
    /// charge), if the CQ has room.
    fn post_error_completion(q: &mut Queue, desc: &TxDesc, at: Time, epoch: u64) {
        if q.tx_cq.next_slot_addr().is_some() {
            q.tx_cq
                .post(Completion {
                    bytes: desc.len,
                    seq: 0,
                    flow: desc.flow,
                    buffer: None,
                    landed_at: at,
                    error: true,
                    epoch,
                })
                .expect("slot checked above");
        }
    }

    /// Handles a packet arriving from the wire at `now` (already including
    /// wire serialization — the caller reserved [`Wire::send_rx`]).
    ///
    /// Steering: MPFS picks the PF (by MAC or by IOctoRFS flow rule), the
    /// PF's ARFS table picks the queue, RSS hashes as a fallback.
    #[expect(
        clippy::too_many_arguments,
        reason = "the packet's fields plus the two substrates it touches; a struct would be built per packet"
    )]
    pub fn on_wire_packet(
        &mut self,
        now: Time,
        dst_mac: MacAddr,
        flow: FlowTuple,
        payload: u64,
        seq: u64,
        fabric: &mut PcieFabric,
        mem: &mut MemSystem,
    ) -> RxOutcome {
        let steered = self.mpfs.steer(dst_mac, &flow);
        let pf = if self.pf_alive[steered.0] {
            steered
        } else if self.cfg.steering == SteeringMode::FlowBased {
            // OctoNIC firmware: a packet for a dead PF lands on a survivor
            // (its flow rule normally migrated at fail time; this catches
            // the default-PF path and races around the failover instant).
            match self.failover_target() {
                Some(s) => s,
                None => {
                    self.counters.dropped_pf_dead += 1;
                    self.rx_dropped += 1;
                    return RxOutcome::DroppedPfDead { pf: steered };
                }
            }
        } else {
            // Standard firmware: each PF is its own logical NIC; with the
            // function dead its traffic has nowhere to go.
            self.counters.dropped_pf_dead += 1;
            self.rx_dropped += 1;
            return RxOutcome::DroppedPfDead { pf: steered };
        };
        let q = match self.arfs[pf.0]
            .steer(now, &flow)
            .or_else(|| self.rss_fallback(pf, &flow))
        {
            Some(q) => q,
            None => {
                self.counters.dropped_pf_dead += 1;
                self.rx_dropped += 1;
                return RxOutcome::DroppedNoQueue { pf };
            }
        };
        let (qpf, irq_core, node) = {
            let qq = &self.queues[q.0];
            (qq.cfg.pf, qq.cfg.irq_core, qq.cfg.node)
        };
        let telem = self.telemetry_on();
        let fkey = if telem { flow.key() } else { 0 };
        if let Some(tr) = &mut self.tracer {
            tr.push(
                now,
                TraceKind::FlowSteered,
                fkey,
                qpf.0 as u64,
                q.0 as u64,
                (pf != steered) as u64,
            );
        }
        // Pipelined Rx engine: `processing_delay` of per-packet occupancy;
        // descriptor prefetch + payload/CQE DMA latencies overlap across
        // packets (bandwidth still serializes inside the PCIe links).
        let engine = now.max(self.queues[q.0].busy_until) + self.cfg.processing_delay;

        // Pop a posted buffer.
        let (rx_slot, buf) = match self.queues[q.0].rx_ring.consume() {
            Some(x) => x,
            None => {
                self.rx_dropped += 1;
                self.rx_no_buffer += 1;
                return RxOutcome::DroppedNoBuffer { queue: q };
            }
        };
        debug_assert!(buf.len >= payload, "posted buffer smaller than MTU packet");
        // Fetch the Rx descriptor, write the payload, write the CQE.
        // Bandwidth reserved at the arrival time (see tx_doorbell). The
        // three DMAs of one packet queue FIFO on the endpoint's link, so
        // the slowest component (whose duration already includes the
        // backlog of the earlier ones) bounds delivery; summing would
        // charge the same queue delay multiple times. Any of the three
        // returning `None` means the link dropped under the PF: the packet
        // (and the popped buffer — hardware cannot return it) is lost.
        let cq_slot = self.queues[q.0]
            .rx_cq
            .next_slot_addr()
            .expect("Rx CQ sized to ring; cannot overrun");
        let dev_node = if telem { fabric.node_of(qpf) } else { None };
        let ddio_on = mem.ddio();
        let dmas = 'dma: {
            let Some(d_desc) = fabric.dma_read(now, qpf, mem, rx_slot, DESC_BYTES) else {
                break 'dma None;
            };
            let Some(d_payload) = fabric.dma_write(now, qpf, mem, buf.addr, payload) else {
                break 'dma None;
            };
            let Some(d_cqe) = fabric.dma_write(now, qpf, mem, cq_slot, CQE_BYTES) else {
                break 'dma None;
            };
            if telem {
                self.note_dma(
                    now, fkey, qpf, dev_node, rx_slot, DESC_BYTES, false, false, ddio_on, d_desc,
                );
                self.note_dma(
                    now, fkey, qpf, dev_node, buf.addr, payload, true, true, ddio_on, d_payload,
                );
                self.note_dma(
                    now, fkey, qpf, dev_node, cq_slot, CQE_BYTES, true, false, ddio_on, d_cqe,
                );
            }
            Some(d_desc.max(d_payload).max(d_cqe))
        };
        let Some(slowest) = dmas else {
            self.rx_dropped += 1;
            self.queues[q.0].rx_bufs_lost += 1;
            return RxOutcome::DroppedLinkDown { queue: q, pf: qpf };
        };
        let t = engine + slowest;
        self.queues[q.0]
            .rx_cq
            .post(Completion {
                bytes: payload,
                seq,
                flow,
                buffer: Some(buf),
                landed_at: t,
                error: false,
                epoch: self.pf_epoch[qpf.0],
            })
            .expect("slot checked above");
        self.rx_bytes_per_pf[qpf.0] += payload;
        self.queues[q.0].busy_until = engine;

        let irq = if self.queues[q.0].irq_armed {
            self.queues[q.0].irq_armed = false;
            let fire = t + self.cfg.irq_delay;
            if self.take_irq_loss(qpf) {
                None
            } else if let Some(lat) = fabric.interrupt(now, qpf, mem, node) {
                Some((fire + lat, irq_core))
            } else {
                self.counters.lost_irqs += 1;
                None
            }
        } else {
            None
        };
        RxOutcome::Delivered {
            queue: q,
            pf: qpf,
            done_at: t,
            irq,
        }
    }

    /// Receive bytes that flowed through `pf` since construction (Figure 14
    /// samples the per-PF difference every 50 ms).
    pub fn rx_bytes(&self, pf: PfId) -> u64 {
        self.rx_bytes_per_pf[pf.0]
    }

    /// Transmit bytes that flowed through `pf`.
    pub fn tx_bytes(&self, pf: PfId) -> u64 {
        self.tx_bytes_per_pf[pf.0]
    }

    /// Packets dropped for lack of a posted Rx buffer.
    pub fn rx_dropped(&self) -> u64 {
        self.rx_dropped
    }

    /// Rx buffers queue `q` popped from its ring and then lost because the
    /// PCIe link dropped mid-DMA. These buffers never come back: the host's
    /// conservation audit writes them off against the pool capacity.
    pub fn rx_bufs_lost(&self, q: QueueId) -> u64 {
        self.queue(q).map_or(0, |qq| qq.rx_bufs_lost)
    }

    /// Rx buffers currently parked in queue `q`'s completion queue —
    /// delivered packets the host has not reaped yet. Error completions
    /// carry no buffer and are not counted.
    pub fn rx_cq_held_buffers(&self, q: QueueId) -> usize {
        self.queue(q).map_or(0, |qq| {
            qq.rx_cq.iter().filter(|c| c.buffer.is_some()).count()
        })
    }

    /// Runs the device's own conservation checks into `a`.
    ///
    /// * `rx-drop-conservation` — every increment of the aggregate
    ///   `rx_dropped` tally happens at a site that also classifies the drop
    ///   (dead PF, empty ring, link down), so the aggregate must equal the
    ///   sum of the classified counters. A new drop path that forgets to
    ///   classify (or classifies without counting) trips this.
    /// * `default-pf-alive` — with octoNIC firmware, firmware failover
    ///   keeps the default-PF fallback pointed at a live function whenever
    ///   any function survives.
    pub fn audit(&self, a: &mut simcore::Audit) {
        let lost: u64 = self.queues.iter().map(|q| q.rx_bufs_lost).sum();
        let classified = self.counters.dropped_pf_dead + self.rx_no_buffer + lost;
        a.check(
            "nic",
            "rx-drop-conservation",
            self.rx_dropped == classified,
            || {
                format!(
                    "rx_dropped {} != pf_dead {} + no_buffer {} + link_lost {}",
                    self.rx_dropped, self.counters.dropped_pf_dead, self.rx_no_buffer, lost
                )
            },
        );
        if self.cfg.steering == SteeringMode::FlowBased {
            let any_alive = self.pf_alive.iter().any(|&x| x);
            let default_alive = self.pf_alive(self.mpfs.default_pf());
            a.check(
                "nic",
                "default-pf-alive",
                !any_alive || default_alive,
                || {
                    format!(
                        "default PF {:?} is dead while {} PFs are alive",
                        self.mpfs.default_pf(),
                        self.pf_alive.iter().filter(|&&x| x).count()
                    )
                },
            );
        }
    }

    fn rss_fallback(&self, pf: PfId, flow: &FlowTuple) -> Option<QueueId> {
        // Count-then-nth keeps this per-packet fallback allocation-free.
        let n = self.queues.iter().filter(|q| q.cfg.pf == pf).count();
        if n == 0 {
            return None;
        }
        let pick = (flow.rss_hash() % n as u64) as usize;
        (0..self.queues.len())
            .filter(|i| self.queues[*i].cfg.pf == pf)
            .nth(pick)
            .map(QueueId)
    }

    /// Resolves a queue reference, counting (rather than panicking on)
    /// references to queues the device does not have — a buggy or stale
    /// driver must degrade the run, not abort it.
    fn queue(&self, q: QueueId) -> Option<&Queue> {
        let qq = self.queues.get(q.0);
        if qq.is_none() {
            self.invalid_refs.set(self.invalid_refs.get() + 1);
        }
        qq
    }

    fn queue_mut(&mut self, q: QueueId) -> Option<&mut Queue> {
        if q.0 >= self.queues.len() {
            self.invalid_refs.set(self.invalid_refs.get() + 1);
            return None;
        }
        Some(&mut self.queues[q.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::MemConfig;
    use pcie::{Bifurcation, FabricConfig, PcieGen};

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    struct Rig {
        mem: MemSystem,
        fab: PcieFabric,
        nic: Nic,
        pfs: Vec<PfId>,
        q0: QueueId,
        q1: QueueId,
    }

    fn rig(mode: SteeringMode) -> Rig {
        let mut mem = MemSystem::new(MemConfig::dual_socket_broadwell());
        let mut fab = PcieFabric::new(FabricConfig::default());
        let pfs = fab.add_bifurcated(&Bifurcation::x8x8_dual_socket(PcieGen::Gen3));
        let cfg = if mode == SteeringMode::FlowBased {
            NicConfig::octonic_100g()
        } else {
            NicConfig::standard_100g()
        };
        let mut nic = Nic::new(cfg, 2, pfs[0]);
        let mk_queue = |nic: &mut Nic, mem: &mut MemSystem, pf: PfId, node: NodeId, core: usize| {
            let ring_bytes = DESC_BYTES * 1024;
            let tx = mem.alloc(node, ring_bytes);
            let txc = mem.alloc(node, ring_bytes);
            let rx = mem.alloc(node, ring_bytes);
            let rxc = mem.alloc(node, ring_bytes);
            nic.attach_queue(
                QueueConfig {
                    pf,
                    irq_core: core,
                    node,
                },
                tx,
                txc,
                rx,
                rxc,
            )
        };
        let q0 = mk_queue(&mut nic, &mut mem, pfs[0], N0, 0);
        let q1 = mk_queue(&mut nic, &mut mem, pfs[1], N1, 14);
        nic.mpfs_mut().register_mac(MacAddr::local_admin(0), pfs[0]);
        nic.mpfs_mut().register_mac(MacAddr::local_admin(1), pfs[1]);
        Rig {
            mem,
            fab,
            nic,
            pfs,
            q0,
            q1,
        }
    }

    fn post_buffers(r: &mut Rig, q: QueueId, node: NodeId, n: usize) {
        for _ in 0..n {
            let buf = r.mem.alloc(node, 2048);
            r.nic
                .post_rx(
                    q,
                    RxDesc {
                        addr: buf,
                        len: 2048,
                    },
                )
                .unwrap();
        }
    }

    fn flow() -> FlowTuple {
        FlowTuple::tcp(100, 5000, 200, 80)
    }

    #[test]
    fn rx_delivers_into_posted_buffer() {
        let mut r = rig(SteeringMode::MacBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 4);
        let out = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        match out {
            RxOutcome::Delivered {
                queue,
                pf,
                done_at,
                irq,
            } => {
                assert_eq!(queue, r.q0);
                assert_eq!(pf, r.pfs[0]);
                assert!(done_at > Time::ZERO);
                assert!(irq.is_some(), "first packet fires the armed irq");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(r.nic.rx_cq_depth(r.q0), 1);
        assert_eq!(r.nic.rx_bytes(r.pfs[0]), 1448);
    }

    #[test]
    fn rx_without_buffers_drops() {
        let mut r = rig(SteeringMode::MacBased);
        let out = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(matches!(out, RxOutcome::DroppedNoBuffer { .. }));
        assert_eq!(r.nic.rx_dropped(), 1);
    }

    #[test]
    fn irq_moderation_fires_once_until_rearm() {
        let mut r = rig(SteeringMode::MacBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 8);
        let first = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            100,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        let second = r.nic.on_wire_packet(
            Time::from_us(1),
            MacAddr::local_admin(0),
            flow(),
            100,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        let irq1 = matches!(first, RxOutcome::Delivered { irq: Some(_), .. });
        let irq2 = matches!(second, RxOutcome::Delivered { irq: None, .. });
        assert!(irq1 && irq2, "second completion is coalesced");
        r.nic.rearm_irq(r.q0);
        let third = r.nic.on_wire_packet(
            Time::from_us(2),
            MacAddr::local_admin(0),
            flow(),
            100,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(matches!(third, RxOutcome::Delivered { irq: Some(_), .. }));
    }

    #[test]
    fn mac_steering_picks_pf_by_mac() {
        let mut r = rig(SteeringMode::MacBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 4);
        let q1_ = r.q1;
        post_buffers(&mut r, q1_, N1, 4);
        let out = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(1),
            flow(),
            100,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        match out {
            RxOutcome::Delivered { pf, queue, .. } => {
                assert_eq!(pf, r.pfs[1]);
                assert_eq!(queue, r.q1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ioctorfs_moves_flow_between_pfs() {
        let mut r = rig(SteeringMode::FlowBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 8);
        let q1_ = r.q1;
        post_buffers(&mut r, q1_, N1, 8);
        let one_mac = MacAddr::local_admin(7); // single externally visible MAC
        r.nic.mpfs_mut().install_flow(flow(), r.pfs[0]);
        r.nic.arfs_install(Time::ZERO, r.pfs[0], flow(), r.q0);
        let a = r
            .nic
            .on_wire_packet(Time::ZERO, one_mac, flow(), 100, 0, &mut r.fab, &mut r.mem);
        assert!(matches!(a, RxOutcome::Delivered { pf, .. } if pf == r.pfs[0]));
        // Process migrated: the driver updates IOctoRFS + the new PF's ARFS.
        r.nic.mpfs_mut().install_flow(flow(), r.pfs[1]);
        r.nic.arfs_install(Time::ZERO, r.pfs[1], flow(), r.q1);
        let b = r.nic.on_wire_packet(
            Time::from_us(5),
            one_mac,
            flow(),
            100,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(
            matches!(b, RxOutcome::Delivered { pf, queue, .. } if pf == r.pfs[1] && queue == r.q1)
        );
    }

    #[test]
    fn local_rx_faster_than_remote_rx() {
        // The NUDMA effect at device level: same packet, buffer on node 0,
        // via the node-0 PF vs the node-1 PF.
        let mut rl = rig(SteeringMode::MacBased);
        let q0_ = rl.q0;
        post_buffers(&mut rl, q0_, N0, 4);
        let local = match rl.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            0,
            &mut rl.fab,
            &mut rl.mem,
        ) {
            RxOutcome::Delivered { done_at, .. } => done_at,
            o => panic!("{o:?}"),
        };
        let mut rr = rig(SteeringMode::MacBased);
        // Queue q1 rides PF1 (node 1) but we give it node-0 buffers: every
        // payload DMA crosses the socket.
        let q1_ = rr.q1;
        post_buffers(&mut rr, q1_, N0, 4);
        let remote = match rr.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(1),
            flow(),
            1448,
            0,
            &mut rr.fab,
            &mut rr.mem,
        ) {
            RxOutcome::Delivered { done_at, .. } => done_at,
            o => panic!("{o:?}"),
        };
        assert!(remote > local, "remote {remote} vs local {local}");
    }

    #[test]
    fn tx_doorbell_sends_and_completes() {
        let mut r = rig(SteeringMode::MacBased);
        let payload = r.mem.alloc(N0, 4096);
        r.nic
            .post_tx(r.q0, TxDesc::simple(payload, 1448, flow(), false))
            .unwrap();
        let mut out = TxOutcome::default();
        r.nic.tx_doorbell(
            Time::ZERO,
            Time::ZERO,
            r.q0,
            &mut r.fab,
            &mut r.mem,
            &mut out,
        );
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.packets[0].2, 1448);
        assert_eq!(out.completions.len(), 1);
        assert!(out.irq.is_some());
        assert_eq!(r.nic.tx_bytes(r.pfs[0]), 1448);
        assert_eq!(r.nic.tx_backlog(r.q0), 0);
    }

    #[test]
    fn tso_segments_on_device() {
        let mut r = rig(SteeringMode::MacBased);
        let payload = r.mem.alloc(N0, 65536);
        r.nic
            .post_tx(r.q0, TxDesc::simple(payload, 64 * 1024, flow(), true))
            .unwrap();
        let mut out = TxOutcome::default();
        r.nic.tx_doorbell(
            Time::ZERO,
            Time::ZERO,
            r.q0,
            &mut r.fab,
            &mut r.mem,
            &mut out,
        );
        let expect = tso::segment_count(64 * 1024, crate::wire::MSS);
        assert_eq!(out.packets.len() as u64, expect);
        assert_eq!(out.packets.iter().map(|p| p.2).sum::<u64>(), 64 * 1024);
        // One CQE for the aggregate, not per segment.
        assert_eq!(out.completions.len(), 1);
    }

    #[test]
    fn ioctosg_fetches_fragments_through_hinted_pf() {
        let mut r = rig(SteeringMode::FlowBased);
        // Payload spans both nodes (sendfile page-cache case, §3.3).
        let frag0 = r.mem.alloc(N0, 4096);
        let frag1 = r.mem.alloc(N1, 4096);
        let desc = TxDesc {
            fragments: vec![
                crate::desc::TxFragment {
                    addr: frag0,
                    len: 1000,
                    pf_hint: Some(r.pfs[0]),
                },
                crate::desc::TxFragment {
                    addr: frag1,
                    len: 448,
                    pf_hint: Some(r.pfs[1]),
                },
            ]
            .into(),
            flow: flow(),
            len: 1448,
            tso: false,
        };
        r.nic.post_tx(r.q0, desc).unwrap();
        let before0 = r.fab.downstream_bytes(r.pfs[0]);
        let before1 = r.fab.downstream_bytes(r.pfs[1]);
        r.nic.tx_doorbell(
            Time::ZERO,
            Time::ZERO,
            r.q0,
            &mut r.fab,
            &mut r.mem,
            &mut TxOutcome::default(),
        );
        assert!(r.fab.downstream_bytes(r.pfs[0]) > before0, "frag 0 via PF0");
        assert!(r.fab.downstream_bytes(r.pfs[1]) > before1, "frag 1 via PF1");
    }

    #[test]
    fn tx_ring_full_rejected() {
        let mut r = rig(SteeringMode::MacBased);
        let payload = r.mem.alloc(N0, 4096);
        for _ in 0..1024 {
            assert!(r
                .nic
                .post_tx(r.q0, TxDesc::simple(payload, 100, flow(), false))
                .is_some());
        }
        assert!(r
            .nic
            .post_tx(r.q0, TxDesc::simple(payload, 100, flow(), false))
            .is_none());
    }

    #[test]
    fn unknown_queue_counted_not_panicking() {
        let mut r = rig(SteeringMode::MacBased);
        let bogus = QueueId(99);
        assert_eq!(r.nic.tx_backlog(bogus), 0);
        assert_eq!(r.nic.rx_buffers_available(bogus), 0);
        assert!(r.nic.queue_config(bogus).is_none());
        assert!(r.nic.pop_rx_completion(bogus).is_none());
        assert!(r
            .nic
            .post_rx(
                bogus,
                RxDesc {
                    addr: PhysAddr(0),
                    len: 2048,
                },
            )
            .is_none());
        r.nic.rearm_irq(bogus);
        assert!(!r.nic.irq_armed(bogus));
        let mut out = TxOutcome::default();
        r.nic.tx_doorbell(
            Time::ZERO,
            Time::ZERO,
            bogus,
            &mut r.fab,
            &mut r.mem,
            &mut out,
        );
        assert!(out.packets.is_empty() && out.completions.is_empty());
        assert_eq!(r.nic.counters().invalid_refs, 8);
    }

    #[test]
    fn flight_recorder_classifies_local_rx() {
        let mut r = rig(SteeringMode::MacBased);
        r.nic.enable_flight_recorder(16);
        r.nic.enable_tracing(64);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 4);
        let out = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(matches!(out, RxOutcome::Delivered { .. }));
        let t = r.nic.flight_table().expect("recorder enabled");
        assert_eq!(t.remote_bytes(), 0, "node-0 buffers via the node-0 PF");
        assert!(t.totals.local_write_bytes >= 1448);
        assert_eq!(t.totals.qpi_crossings, 0);
        assert_eq!(t.totals.ddio_hits, 1, "one payload write, DDIO absorbed");
        let ring = r.nic.take_trace().expect("tracer enabled");
        // FlowSteered + descriptor read + payload write + CQE write.
        assert_eq!(ring.recorded(), 4);
    }

    #[test]
    fn flight_recorder_sees_remote_rx_dma() {
        let mut r = rig(SteeringMode::MacBased);
        r.nic.enable_flight_recorder(16);
        // Queue q1 rides PF1 (node 1) but gets node-0 buffers: every
        // payload DMA crosses the socket.
        let q1_ = r.q1;
        post_buffers(&mut r, q1_, N0, 4);
        let out = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(1),
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(matches!(out, RxOutcome::Delivered { .. }));
        let t = r.nic.flight_table().expect("recorder enabled");
        assert!(t.totals.remote_write_bytes >= 1448, "payload crossed QPI");
        assert!(t.totals.qpi_crossings >= 1);
        assert_eq!(t.totals.ddio_hits, 0, "remote writes cannot hit DDIO");
    }

    #[test]
    fn tx_dma_reads_recorded_with_locality() {
        let mut r = rig(SteeringMode::MacBased);
        r.nic.enable_flight_recorder(16);
        let payload = r.mem.alloc(N0, 4096);
        r.nic
            .post_tx(r.q0, TxDesc::simple(payload, 1448, flow(), false))
            .unwrap();
        let mut out = TxOutcome::default();
        r.nic.tx_doorbell(
            Time::ZERO,
            Time::ZERO,
            r.q0,
            &mut r.fab,
            &mut r.mem,
            &mut out,
        );
        assert_eq!(out.packets.len(), 1);
        let t = r.nic.flight_table().expect("recorder enabled");
        assert!(t.totals.local_read_bytes >= 1448, "payload fetch was local");
        assert_eq!(t.remote_bytes(), 0);
    }

    #[test]
    fn pf_fail_flushes_tx_ring_with_error_completions() {
        let mut r = rig(SteeringMode::FlowBased);
        let payload = r.mem.alloc(N0, 4096);
        for _ in 0..3 {
            r.nic
                .post_tx(r.q0, TxDesc::simple(payload, 1000, flow(), false))
                .unwrap();
        }
        let flushed = r.nic.fail_pf(Time::from_us(3), r.pfs[0]);
        assert_eq!(flushed, 0, "no flow rules installed yet");
        assert_eq!(r.nic.tx_backlog(r.q0), 0);
        assert_eq!(r.nic.counters().error_completions, 3);
        let mut seen = 0;
        while let Some((_, c)) = r.nic.pop_tx_completion(r.q0) {
            assert!(c.error, "flushed descriptors carry error status");
            assert_eq!(c.landed_at, Time::from_us(3));
            seen += 1;
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn doorbell_on_dead_pf_errors_out() {
        let mut r = rig(SteeringMode::FlowBased);
        r.nic.fail_pf(Time::ZERO, r.pfs[0]);
        let payload = r.mem.alloc(N0, 4096);
        r.nic
            .post_tx(r.q0, TxDesc::simple(payload, 1448, flow(), false))
            .unwrap();
        let mut out = TxOutcome::default();
        r.nic.tx_doorbell(
            Time::from_us(1),
            Time::from_us(1),
            r.q0,
            &mut r.fab,
            &mut r.mem,
            &mut out,
        );
        assert!(out.packets.is_empty(), "dead PF sends nothing");
        assert_eq!(out.errors, 1);
        assert_eq!(r.nic.tx_bytes(r.pfs[0]), 0);
    }

    #[test]
    fn ioctorfs_fails_over_to_surviving_pf() {
        let mut r = rig(SteeringMode::FlowBased);
        let q1_ = r.q1;
        post_buffers(&mut r, q1_, N1, 4);
        let one_mac = MacAddr::local_admin(7);
        r.nic.mpfs_mut().install_flow(flow(), r.pfs[0]);
        r.nic.arfs_install(Time::ZERO, r.pfs[0], flow(), r.q0);
        let moved = r.nic.fail_pf(Time::from_us(1), r.pfs[0]);
        assert_eq!(moved, 1, "the flow rule migrates to the survivor");
        assert!(!r.nic.pf_alive(r.pfs[0]));
        let out = r.nic.on_wire_packet(
            Time::from_us(2),
            one_mac,
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        match out {
            RxOutcome::Delivered { pf, queue, .. } => {
                assert_eq!(pf, r.pfs[1], "delivered through the survivor");
                assert_eq!(queue, r.q1);
            }
            other => panic!("expected failover delivery, got {other:?}"),
        }
        assert_eq!(r.nic.counters().resteered_flows, 1);
    }

    #[test]
    fn mac_steering_drops_when_pf_dead() {
        let mut r = rig(SteeringMode::MacBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 4);
        r.nic.fail_pf(Time::ZERO, r.pfs[0]);
        let out = r.nic.on_wire_packet(
            Time::from_us(1),
            MacAddr::local_admin(0),
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(
            matches!(out, RxOutcome::DroppedPfDead { pf } if pf == r.pfs[0]),
            "standard firmware has no failover path: {out:?}"
        );
        assert_eq!(r.nic.counters().dropped_pf_dead, 1);
        assert_eq!(r.nic.rx_dropped(), 1);
    }

    #[test]
    fn pf_recovery_restores_default_steering() {
        let mut r = rig(SteeringMode::FlowBased);
        assert_eq!(r.nic.mpfs().default_pf(), r.pfs[0]);
        r.nic.fail_pf(Time::ZERO, r.pfs[0]);
        assert_eq!(
            r.nic.mpfs().default_pf(),
            r.pfs[1],
            "default fallback moves off the dead PF"
        );
        r.nic.recover_pf(r.pfs[0]);
        assert!(r.nic.pf_alive(r.pfs[0]));
        assert_eq!(r.nic.mpfs().default_pf(), r.pfs[0]);
        assert_eq!(r.nic.counters().pf_fails, 1);
        assert_eq!(r.nic.counters().pf_recoveries, 1);
        // Idempotence: repeated events are absorbed, not double-counted.
        r.nic.recover_pf(r.pfs[0]);
        assert_eq!(r.nic.counters().pf_recoveries, 1);
    }

    #[test]
    fn injected_irq_loss_swallows_exactly_one_interrupt() {
        let mut r = rig(SteeringMode::MacBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 8);
        r.nic.inject_irq_loss(r.pfs[0]);
        let first = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            100,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(
            matches!(first, RxOutcome::Delivered { irq: None, .. }),
            "the completion lands but the MSI-X is lost: {first:?}"
        );
        assert_eq!(r.nic.counters().lost_irqs, 1);
        assert_eq!(r.nic.rx_cq_depth(r.q0), 1, "data is not lost");
        // After the watchdog re-arms, interrupts flow again.
        r.nic.rearm_irq(r.q0);
        let second = r.nic.on_wire_packet(
            Time::from_us(5),
            MacAddr::local_admin(0),
            flow(),
            100,
            1,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(matches!(second, RxOutcome::Delivered { irq: Some(_), .. }));
        assert_eq!(r.nic.counters().lost_irqs, 1);
    }

    #[test]
    fn link_down_under_pf_drops_rx() {
        let mut r = rig(SteeringMode::MacBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 4);
        r.fab.link_down(r.pfs[0]);
        let out = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(
            matches!(out, RxOutcome::DroppedLinkDown { pf, .. } if pf == r.pfs[0]),
            "{out:?}"
        );
        assert_eq!(r.nic.rx_dropped(), 1);
        assert!(r.fab.counters().dropped_txns > 0);
        assert_eq!(
            r.nic.rx_bufs_lost(q0_),
            1,
            "the popped buffer is written off, not silently leaked"
        );
        assert_eq!(r.nic.rx_buffers_available(q0_), 3);
    }

    #[test]
    fn audit_balances_drops_across_all_classified_paths() {
        let mut r = rig(SteeringMode::FlowBased);
        let q0_ = r.q0;
        // Path 1: empty ring.
        let out = r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        assert!(matches!(out, RxOutcome::DroppedNoBuffer { .. }), "{out:?}");
        // Path 2: link down under the PF mid-DMA.
        post_buffers(&mut r, q0_, N0, 1);
        r.fab.link_down(r.pfs[0]);
        r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            1,
            &mut r.fab,
            &mut r.mem,
        );
        // Path 3: every PF dead, nowhere to fail over to.
        r.fab.link_recover(Time::ZERO, r.pfs[0]);
        r.nic.fail_pf(Time::ZERO, r.pfs[0]);
        r.nic.fail_pf(Time::ZERO, r.pfs[1]);
        r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            2,
            &mut r.fab,
            &mut r.mem,
        );
        assert_eq!(r.nic.rx_dropped(), 3);
        let mut a = simcore::Audit::new();
        r.nic.audit(&mut a);
        assert!(a.ok(), "{:?}", a.violations());
        assert!(a.checks() >= 2);
    }

    #[test]
    fn cq_held_buffers_tracks_unreaped_deliveries() {
        let mut r = rig(SteeringMode::MacBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 2);
        for seq in 0..2 {
            r.nic.on_wire_packet(
                Time::ZERO,
                MacAddr::local_admin(0),
                flow(),
                100,
                seq,
                &mut r.fab,
                &mut r.mem,
            );
        }
        assert_eq!(r.nic.rx_cq_held_buffers(q0_), 2);
        r.nic.pop_rx_completion(q0_);
        assert_eq!(r.nic.rx_cq_held_buffers(q0_), 1);
    }

    #[test]
    fn default_pf_adopts_survivor_after_total_outage_partial_recovery() {
        // Chaos-campaign reproducer (seed 0x10c70b05, schedule 592,
        // minimized): kill PF1, then PF0 — no survivor, so the default-PF
        // fallback has nowhere to move — then recover only PF1. Firmware
        // must adopt PF1 as the default instead of blackholing unmatched
        // traffic on dead PF0 forever.
        let mut r = rig(SteeringMode::FlowBased);
        r.nic.fail_pf(Time::ZERO, r.pfs[1]);
        r.nic.fail_pf(Time::ZERO, r.pfs[0]);
        r.nic.recover_pf(r.pfs[1]);
        assert_eq!(r.nic.mpfs().default_pf(), r.pfs[1]);
        let mut a = simcore::Audit::new();
        r.nic.audit(&mut a);
        assert!(a.ok(), "{:?}", a.violations());
        // The home PF coming back reclaims its configured role.
        r.nic.recover_pf(r.pfs[0]);
        assert_eq!(r.nic.mpfs().default_pf(), r.pfs[0]);
    }

    #[test]
    fn completions_carry_the_pf_epoch() {
        let mut r = rig(SteeringMode::MacBased);
        let q0_ = r.q0;
        post_buffers(&mut r, q0_, N0, 4);
        assert_eq!(r.nic.pf_epoch(r.pfs[0]), 0);
        r.nic.set_pf_epoch(r.pfs[0], 2);
        // Epochs never move backwards.
        r.nic.set_pf_epoch(r.pfs[0], 1);
        assert_eq!(r.nic.pf_epoch(r.pfs[0]), 2);
        r.nic.on_wire_packet(
            Time::ZERO,
            MacAddr::local_admin(0),
            flow(),
            1448,
            0,
            &mut r.fab,
            &mut r.mem,
        );
        let (_, c) = r.nic.pop_rx_completion(q0_).unwrap();
        assert_eq!(c.epoch, 2, "rx CQE stamped with the PF's current epoch");
        let payload = r.mem.alloc(N0, 4096);
        r.nic
            .post_tx(r.q0, TxDesc::simple(payload, 100, flow(), false))
            .unwrap();
        let mut out = TxOutcome::default();
        r.nic.tx_doorbell(
            Time::from_us(1),
            Time::from_us(1),
            r.q0,
            &mut r.fab,
            &mut r.mem,
            &mut out,
        );
        let (_, tc) = r.nic.pop_tx_completion(r.q0).unwrap();
        assert_eq!(tc.epoch, 2, "tx CQE stamped too");
        // Error completions from a function-level reset carry the epoch at
        // flush time.
        r.nic
            .post_tx(r.q0, TxDesc::simple(payload, 100, flow(), false))
            .unwrap();
        r.nic.fail_pf(Time::from_us(2), r.pfs[0]);
        let (_, ec) = r.nic.pop_tx_completion(r.q0).unwrap();
        assert!(ec.error);
        assert_eq!(ec.epoch, 2);
        // Unknown PFs are absorbed as counters.
        assert_eq!(r.nic.pf_epoch(PfId(9)), 0);
        r.nic.set_pf_epoch(PfId(9), 5);
        assert!(r.nic.counters().invalid_refs >= 2);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn malformed_tx_desc_panics() {
        let mut r = rig(SteeringMode::MacBased);
        let desc = TxDesc {
            fragments: crate::desc::FragList::default(),
            flow: flow(),
            len: 10,
            tso: false,
        };
        r.nic.post_tx(r.q0, desc);
    }
}
