//! The simulated host: syscalls, NAPI, XPS, ARFS callbacks, drivers.
//!
//! [`Host`] owns the memory system, the PCIe fabric, the NIC, the cores and
//! the socket table, and exposes the operations the workloads and the
//! experiment event loop drive:
//!
//! * [`Host::send`] / [`Host::recv`] — the application data path, charging
//!   syscall, copy, and descriptor costs on the caller's core and issuing
//!   doorbells;
//! * [`Host::wire_arrival`] — a packet arriving from the peer, steered by
//!   the NIC (MPFS → ARFS → RSS) and DMA'd into a posted buffer;
//! * [`Host::irq`] — NAPI: drains completion queues, delivers segments to
//!   sockets, refills Rx rings, frees Tx buffers, wakes blocked threads,
//!   and applies deferred steering updates once the old queue is drained
//!   (the paper's out-of-order guard, §2.3/§4.2);
//! * [`Host::migrate_thread`] — `sched_setaffinity`, which triggers the
//!   ARFS callback chain that, under the `OctoTeam` driver, reprograms
//!   IOctoRFS so the flow follows the process to the local PF (§5.3).

use std::collections::VecDeque;

use memsys::{AccessKind, MemSystem, NodeId, PhysAddr};
use nic::desc::TxFragment;
use nic::desc::{CQE_BYTES, DESC_BYTES};
use nic::{FlowTuple, MacAddr, Nic, QueueConfig, QueueId, RxDesc, RxOutcome, TxDesc, TxOutcome};
use pcie::{PcieFabric, PfId};
use simcore::{Audit, Dur, FaultKind, FxHashMap, OutBuf, Time};
use telemetry::trace::{Domain, TraceKind};
use telemetry::{Snapshot, TraceRing};

use crate::cores::Cores;
use crate::netdev::{DriverModel, Netdev, NetdevId};
use crate::params::CpuCosts;
use crate::pools::BufPool;
use crate::sched::{Sched, ThreadId};
use crate::socket::{RxSegment, SockId, Socket, SocketTable};

/// Host-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// CPU cost model.
    pub costs: CpuCosts,
    /// Driver managing the NIC.
    pub driver: DriverModel,
    /// Rx buffers allocated per queue.
    pub rx_buffers_per_queue: usize,
    /// Size of each Rx buffer (≥ MTU).
    pub rx_buf_bytes: u64,
    /// Tx kernel buffers per node.
    pub tx_bufs_per_node: usize,
    /// Size of each Tx kernel buffer (one TSO aggregate).
    pub tx_buf_bytes: u64,
    /// Socket send-buffer limit (bytes in flight to the NIC).
    pub sndbuf_bytes: u64,
    /// Per-socket user buffer size.
    pub user_buf_bytes: u64,
    /// §2.4 ablation: allocate ring/CQ memory on the *device's* node instead
    /// of the queue's CPU node ("a response ring is allocated locally to the
    /// device and remotely to the CPU").
    pub rings_device_local: bool,
    /// Driver watchdog: completions visible in host memory at least this
    /// long without being reaped mean an interrupt was lost; the queue is
    /// polled directly. Must comfortably exceed the NIC's `irq_delay`.
    pub watchdog_timeout: Dur,
    /// Maximum doorbell re-rings per stuck Tx queue before the watchdog
    /// gives up (descriptors then sit until the application tears down).
    pub tx_retry_limit: u32,
    /// Base backoff between doorbell retries; doubled per attempt.
    pub tx_retry_backoff: Dur,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            costs: CpuCosts::default(),
            driver: DriverModel::Standard,
            rx_buffers_per_queue: 512,
            rx_buf_bytes: 2048,
            tx_bufs_per_node: 256,
            tx_buf_bytes: 64 * 1024,
            sndbuf_bytes: 4 << 20,
            user_buf_bytes: 1 << 20,
            rings_device_local: false,
            watchdog_timeout: Dur::from_us(100),
            tx_retry_limit: 5,
            tx_retry_backoff: Dur::from_us(20),
        }
    }
}

/// Robustness counters: what the driver absorbed and recovered from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostRobustness {
    /// Tx completions reaped with error status (PF failed / link down).
    pub tx_error_completions: u64,
    /// Queues the watchdog polled because completions sat unreaped past
    /// the timeout (lost interrupts).
    pub watchdog_irq_recoveries: u64,
    /// Doorbell MMIO writes dropped by a dead link.
    pub doorbells_lost: u64,
    /// Doorbell re-rings issued by the watchdog.
    pub doorbell_retries: u64,
    /// Fault events applied via [`Host::apply_fault`].
    pub faults_applied: u64,
    /// Steering re-install passes that reached every queue's control path
    /// (flows pulled home after PF recovery).
    pub steering_reinstalls: u64,
    /// Steering re-install attempts retried by the watchdog because a
    /// queue's control path was dead when the PF came back.
    pub steering_reinstall_retries: u64,
    /// Completions fenced by the epoch check: they were in flight across a
    /// surprise removal / re-enumeration, so they were counted and their
    /// resources recycled, but never delivered.
    pub fenced_completions: u64,
    /// Interrupts discarded because their epoch stamp predated the queue
    /// PF's current epoch (the device that raised them is gone).
    pub fenced_irqs: u64,
    /// Completed quiesce/drain/rebind reconfiguration sequences (one per
    /// presence transition in either direction).
    pub reconfigs: u64,
    /// Transitions into legacy NUDMA mode: a surprise removal left exactly
    /// one live PF, so every flow crosses the socket interconnect.
    pub nudma_entries: u64,
    /// Transitions back to uniform IOctopus mode: a re-enumeration restored
    /// a second live PF and steering was pulled home.
    pub nudma_exits: u64,
}

/// Per-queue doorbell-retry state (bounded exponential backoff).
#[derive(Debug, Clone, Copy, Default)]
struct RetryState {
    retries: u32,
    next_at: Time,
}

/// Events the host hands back to the experiment loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOut {
    /// A wire packet left for the peer; arrives there at `at`.
    PacketToPeer {
        /// Arrival time at the peer NIC.
        at: Time,
        /// Flow (server→client direction).
        flow: FlowTuple,
        /// Payload bytes.
        bytes: u64,
    },
    /// An MSI-X interrupt will invoke [`Host::irq`] for `queue` at `at`.
    Irq {
        /// Delivery time.
        at: Time,
        /// Queue to service.
        queue: QueueId,
        /// Device epoch of the queue's PF when the interrupt was raised.
        /// [`Host::irq_stamped`] discards the interrupt if the PF has been
        /// surprise-removed or re-enumerated since (a stale epoch).
        epoch: u64,
    },
    /// A blocked thread becomes runnable at `at`.
    Wake {
        /// Wake time.
        at: Time,
        /// The thread to resume.
        thread: ThreadId,
    },
}

/// Result of [`Host::send`]. Follow-up events (wire packets, interrupts)
/// are appended to the `OutBuf` the caller passed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Data queued to the NIC.
    Sent {
        /// When the sending core finished the syscall.
        done_at: Time,
    },
    /// Send buffer / ring / kernel-buffer pressure: the caller blocks and is
    /// woken by a Tx completion.
    WouldBlock,
}

/// Result of [`Host::recv`].
#[derive(Debug, Clone)]
pub enum RecvOutcome {
    /// Data copied to the user buffer.
    Data {
        /// When the syscall returned.
        done_at: Time,
        /// Bytes delivered.
        bytes: u64,
    },
    /// Nothing buffered: the caller blocks and is woken by NAPI delivery.
    WouldBlock,
}

/// The simulated server host.
#[derive(Debug)]
pub struct Host {
    /// Memory system (public: harnesses read counters).
    pub mem: MemSystem,
    /// PCIe fabric.
    pub fabric: PcieFabric,
    /// The NIC.
    pub nic: Nic,
    /// Cores (public: harnesses read utilization).
    pub cores: Cores,
    /// Thread registry.
    pub sched: Sched,
    cfg: HostConfig,
    sockets: SocketTable,
    netdevs: Vec<Netdev>,
    /// The NIC's endpoints in PF-index order (as passed to [`Host::new`]).
    pfs: Vec<PfId>,
    /// Which PF each queue rides (cached from the NIC).
    queue_pf: Vec<PfId>,
    queue_node: Vec<NodeId>,
    queue_irq_core: Vec<usize>,
    rx_pools: Vec<BufPool>,
    tx_pools: Vec<BufPool>,
    /// Per-queue FIFO of in-flight Tx buffers: `(kernel buffer to recycle —
    /// `None` for zero-copy sendfile pages, socket, bytes)`. Empty, and
    /// without storage, until the queue first sends.
    tx_pending: Vec<VecDeque<(Option<PhysAddr>, SockId, u64)>>,
    /// Sockets whose steering should move to a new queue once their old
    /// queue drains: old queue → (socket, desired queue).
    pending_steer: FxHashMap<QueueId, Vec<(SockId, QueueId)>>,
    rx_no_socket_drops: u64,
    tx_retry: Vec<RetryState>,
    /// Bounded-backoff state for re-installing steering after PF recovery
    /// found a dead control path (see [`Host::watchdog`]).
    steer_retry: RetryState,
    steer_pending: bool,
    break_recovery: bool,
    break_readd: bool,
    robust: HostRobustness,
    /// Recycled scratch for NIC Tx doorbells so ringing one never
    /// allocates in steady state (the NIC clears it on entry).
    tx_scratch: TxOutcome,
    /// Kernel-domain sim-time tracer (IRQ delivery, reconfiguration
    /// phases), `None` unless enabled.
    tracer: Option<TraceRing>,
}

impl Host {
    /// Builds the host over an assembled machine. `pfs` are the NIC's
    /// endpoints in PF-index order.
    pub fn new(
        mut mem: MemSystem,
        fabric: PcieFabric,
        mut nic: Nic,
        pfs: &[PfId],
        cfg: HostConfig,
    ) -> Self {
        let topo = mem.topology().clone();
        let total_cores = topo.total_cores();
        let cores = Cores::new(total_cores);
        let sched = Sched::new(topo.clone());

        let mut netdevs = Vec::new();
        let mut queue_pf = Vec::new();
        let mut queue_node = Vec::new();
        let mut queue_irq_core = Vec::new();
        let mut rx_pools = Vec::new();

        let pf_nodes: FxHashMap<PfId, NodeId> = pfs
            .iter()
            .map(|&pf| {
                let node = fabric.node_of(pf).expect("PF attached to the fabric");
                (pf, node)
            })
            .collect();
        let fabric_node_of = |pf: PfId| pf_nodes[&pf];
        let make_queue = |nic: &mut Nic,
                          mem: &mut MemSystem,
                          pf: PfId,
                          core: usize,
                          node: NodeId,
                          queue_pf: &mut Vec<PfId>,
                          queue_node: &mut Vec<NodeId>,
                          queue_irq_core: &mut Vec<usize>,
                          rx_pools: &mut Vec<BufPool>|
         -> QueueId {
            let entries = nic.config().ring_entries as u64;
            let cq_entries = nic.config().cq_entries() as u64;
            // §2.4's ablation moves only the *response* (completion) rings
            // next to the device's I/O controller; request rings stay with
            // the CPU ("a response ring ... allocated locally to the device
            // and remotely to the CPU").
            let cq_node = if cfg.rings_device_local {
                fabric_node_of(pf)
            } else {
                node
            };
            let tx = mem.alloc(node, DESC_BYTES * entries);
            let txc = mem.alloc(cq_node, CQE_BYTES * cq_entries);
            let rx = mem.alloc(node, DESC_BYTES * entries);
            let rxc = mem.alloc(cq_node, CQE_BYTES * cq_entries);
            let q = nic.attach_queue(
                QueueConfig {
                    pf,
                    irq_core: core,
                    node,
                },
                tx,
                txc,
                rx,
                rxc,
            );
            queue_pf.push(pf);
            queue_node.push(node);
            queue_irq_core.push(core);
            let mut pool = BufPool::new(mem, node, cfg.rx_buf_bytes, cfg.rx_buffers_per_queue);
            // Fill the ring from the pool in one step. Every ring starts
            // full, because RSS fallback can steer a packet to any queue.
            let fill = pool.available().min(nic.config().ring_entries);
            nic.fill_rx(
                q,
                (0..fill).map(|_| RxDesc {
                    addr: pool.take().expect("counted above"),
                    len: cfg.rx_buf_bytes,
                }),
            );
            rx_pools.push(pool);
            q
        };

        match cfg.driver {
            DriverModel::Standard => {
                // One netdev per PF; each netdev gets a queue on every core.
                for (i, &pf) in pfs.iter().enumerate() {
                    let mac = MacAddr::local_admin(i as u64);
                    nic.mpfs_mut().register_mac(mac, pf);
                    let queue_by_core = (0..total_cores)
                        .map(|core| {
                            make_queue(
                                &mut nic,
                                &mut mem,
                                pf,
                                core,
                                topo.node_of_core(core),
                                &mut queue_pf,
                                &mut queue_node,
                                &mut queue_irq_core,
                                &mut rx_pools,
                            )
                        })
                        .collect();
                    netdevs.push(Netdev { mac, queue_by_core });
                }
            }
            DriverModel::OctoTeam => {
                // One netdev over all PFs; core i's queue rides the PF local
                // to core i's node (§4.2 "Transmit").
                let mac = MacAddr::local_admin(0x0C70);
                nic.mpfs_mut().register_mac(mac, pfs[0]);
                let queue_by_core = (0..total_cores)
                    .map(|core| {
                        let node = topo.node_of_core(core);
                        let pf = pfs[node.0.min(pfs.len() - 1)];
                        make_queue(
                            &mut nic,
                            &mut mem,
                            pf,
                            core,
                            node,
                            &mut queue_pf,
                            &mut queue_node,
                            &mut queue_irq_core,
                            &mut rx_pools,
                        )
                    })
                    .collect();
                netdevs.push(Netdev { mac, queue_by_core });
            }
        }

        let tx_pools = (0..topo.nodes())
            .map(|n| BufPool::new(&mut mem, NodeId(n), cfg.tx_buf_bytes, cfg.tx_bufs_per_node))
            .collect();
        let n_queues = queue_pf.len();

        Host {
            mem,
            fabric,
            nic,
            cores,
            sched,
            cfg,
            sockets: SocketTable::new(),
            netdevs,
            pfs: pfs.to_vec(),
            queue_pf,
            queue_node,
            queue_irq_core,
            rx_pools,
            tx_pools,
            tx_pending: (0..n_queues).map(|_| VecDeque::new()).collect(),
            pending_steer: FxHashMap::default(),
            rx_no_socket_drops: 0,
            tx_retry: vec![RetryState::default(); n_queues],
            steer_retry: RetryState::default(),
            steer_pending: false,
            break_recovery: false,
            break_readd: false,
            robust: HostRobustness::default(),
            tx_scratch: TxOutcome::default(),
            tracer: None,
        }
    }

    /// Enables kernel-domain tracing (IRQ deliveries, reconfiguration
    /// phase transitions) into a pre-sized ring of `cap` records. Off by
    /// default; the record path is one branch when disabled.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Some(TraceRing::new(Domain::Kernel, cap));
    }

    /// Takes the kernel tracer ring for harvest, disabling tracing.
    pub fn take_trace(&mut self) -> Option<TraceRing> {
        self.tracer.take()
    }

    /// Publishes the host's robustness counters — and the NIC's device
    /// counters — into a per-run metric snapshot.
    pub fn publish_metrics(&self, s: &mut Snapshot) {
        let r = self.robust;
        s.push("kernel.tx_error_completions", r.tx_error_completions);
        s.push("kernel.watchdog_irq_recoveries", r.watchdog_irq_recoveries);
        s.push("kernel.doorbells_lost", r.doorbells_lost);
        s.push("kernel.doorbell_retries", r.doorbell_retries);
        s.push("kernel.faults_applied", r.faults_applied);
        s.push("kernel.steering_reinstalls", r.steering_reinstalls);
        s.push(
            "kernel.steering_reinstall_retries",
            r.steering_reinstall_retries,
        );
        s.push("kernel.fenced_completions", r.fenced_completions);
        s.push("kernel.fenced_irqs", r.fenced_irqs);
        s.push("kernel.reconfigs", r.reconfigs);
        s.push("kernel.nudma_entries", r.nudma_entries);
        s.push("kernel.nudma_exits", r.nudma_exits);
        s.push("kernel.rx_no_socket_drops", self.rx_no_socket_drops);
        self.nic.publish_metrics(s);
    }

    /// Records one reconfiguration phase transition (no-op when tracing
    /// is off). `phase`: 0 quiesce / 1 drain / 2 rebind; `mode`: 0
    /// uniform IOctopus / 1 legacy NUDMA.
    #[inline]
    fn note_reconfig_phase(&mut self, now: Time, pf: PfId, phase: u64, epoch: u64, mode: u64) {
        if let Some(tr) = &mut self.tracer {
            tr.push(
                now,
                TraceKind::ReconfigPhase,
                pf.0 as u64,
                phase,
                epoch,
                mode,
            );
        }
    }

    /// The host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Interfaces on this host.
    pub fn netdev_count(&self) -> usize {
        self.netdevs.len()
    }

    /// The MAC of `nd`.
    pub fn netdev_mac(&self, nd: NetdevId) -> MacAddr {
        self.netdevs[nd.0].mac
    }

    /// Spawns a thread pinned to `core`.
    pub fn spawn_thread(&mut self, core: usize) -> ThreadId {
        self.sched.spawn(core)
    }

    /// Opens a socket owned by `thread`, bound to inbound flow `flow` on
    /// interface `nd`, and installs initial steering so the flow is serviced
    /// by the owner's queue.
    pub fn open_socket(
        &mut self,
        now: Time,
        thread: ThreadId,
        flow: FlowTuple,
        nd: NetdevId,
    ) -> SockId {
        let core = self.sched.core_of(thread);
        let node = self.sched.node_of(thread);
        let user_buf = self.mem.alloc(node, self.cfg.user_buf_bytes);
        let sock = Socket {
            flow,
            owner: thread,
            netdev: nd,
            rx_q: VecDeque::new(),
            rx_waiting: false,
            tx_waiting: false,
            tx_inflight: 0,
            last_tx_queue: None,
            next_seq: 0,
            ooo_count: 0,
            rx_bytes: 0,
            tx_bytes: 0,
            user_buf,
        };
        let id = self.sockets.insert(sock);
        let q = self.netdevs[nd.0].queue_for_core(core);
        self.install_steering(now, id, q);
        id
    }

    /// Shared access to a socket (harness inspection).
    pub fn socket(&self, id: SockId) -> &Socket {
        self.sockets.get(id)
    }

    /// Packets dropped because no socket matched their flow.
    pub fn rx_no_socket_drops(&self) -> u64 {
        self.rx_no_socket_drops
    }

    /// `sched_setaffinity`: moves `thread` to `core` and queues steering
    /// updates for its sockets (applied once their old queues drain).
    pub fn migrate_thread(&mut self, _now: Time, thread: ThreadId, core: usize) {
        let old_core = self.sched.migrate(thread, core);
        if old_core == core {
            return;
        }
        let socks: Vec<SockId> = self
            .sockets
            .ids()
            .filter(|s| self.sockets.get(*s).owner == thread)
            .collect();
        for s in socks {
            let nd = self.sockets.get(s).netdev;
            let old_q = self.netdevs[nd.0].queue_for_core(old_core);
            let new_q = self.netdevs[nd.0].queue_for_core(core);
            if old_q != new_q {
                self.pending_steer
                    .entry(old_q)
                    .or_default()
                    .push((s, new_q));
            }
        }
    }

    /// Application `send(2)`: copies `bytes` from the socket's user buffer
    /// into kernel buffers, posts descriptors via XPS, and rings the
    /// doorbell. Follow-up events are appended to `out`.
    pub fn send(
        &mut self,
        now: Time,
        sock: SockId,
        bytes: u64,
        out: &mut OutBuf<HostOut>,
    ) -> SendOutcome {
        let src = self.sockets.get(sock).user_buf;
        self.send_from(now, sock, bytes, src, out)
    }

    /// Like [`send`](Self::send) but copying from an arbitrary source
    /// buffer (e.g. a key-value store's value region), so the copy's cache
    /// locality reflects where the application's data actually lives.
    pub fn send_from(
        &mut self,
        now: Time,
        sock: SockId,
        bytes: u64,
        src: PhysAddr,
        out: &mut OutBuf<HostOut>,
    ) -> SendOutcome {
        let costs = self.cfg.costs;
        let (node, core, flow_out, netdev) = {
            let s = self.sockets.get(sock);
            (
                self.sched.node_of(s.owner),
                self.sched.core_of(s.owner),
                s.flow.reversed(),
                s.netdev,
            )
        };
        // Back-pressure checks before doing any work.
        if self.sockets.get(sock).tx_inflight + bytes > self.cfg.sndbuf_bytes {
            self.sockets.get_mut(sock).tx_waiting = true;
            return SendOutcome::WouldBlock;
        }
        let q = self.choose_tx_queue(sock, core, netdev);
        let chunk_cap = self.cfg.tx_buf_bytes;
        let n_chunks = bytes.div_ceil(chunk_cap) as usize;
        if self.nic.tx_backlog(q) + n_chunks > self.nic.config().ring_entries
            || self.tx_pools[node.0].available() < n_chunks
        {
            self.sockets.get_mut(sock).tx_waiting = true;
            return SendOutcome::WouldBlock;
        }

        let mss = self.nic.config().mss;
        // All memory-system reservations use the syscall's event time `now`:
        // reserving at chained future times would push shared FIFO horizons
        // ahead of concurrent senders and destabilize the fluid model (the
        // same rule the NIC follows; see nic::device::Nic::tx_doorbell).
        let mut t = self
            .cores
            .run(core, now, costs.syscall + costs.per_msg_stack);
        let mut left = bytes;
        while left > 0 {
            let chunk = left.min(chunk_cap);
            left -= chunk;
            let kbuf = self.tx_pools[node.0].take().expect("checked above");
            // copy_from_user: issue-bound loop plus cache stalls.
            let issue = costs.memcpy_issue(chunk);
            let rt = Self::rclock(now, t);
            let r = self.mem.cpu_read(
                rt,
                node,
                src,
                chunk.min(self.cfg.user_buf_bytes),
                AccessKind::Stream,
            );
            let w = self
                .mem
                .cpu_write(rt, node, kbuf, chunk, AccessKind::Stream);
            t = self.cores.run(core, t, issue + r + w);
            // Build + post the descriptor.
            t = self.cores.run(core, t, costs.per_desc);
            let desc = TxDesc::simple(kbuf, chunk, flow_out, chunk > mss);
            let slot = self.nic.post_tx(q, desc).expect("backlog checked above");
            let dw = self.mem.cpu_write(
                Self::rclock(now, t),
                node,
                slot,
                DESC_BYTES,
                AccessKind::Pointer,
            );
            t = self.cores.run(core, t, dw);
            self.push_tx_pending(q, (Some(kbuf), sock, chunk));
        }
        {
            let s = self.sockets.get_mut(sock);
            s.tx_inflight += bytes;
            s.tx_bytes += bytes;
        }
        // Doorbell (posted MMIO).
        t = self.cores.run(core, t, costs.doorbell);
        self.ring_doorbell(t, now, node, q, out);
        SendOutcome::Sent { done_at: t }
    }

    /// `sendfile(2)`-style zero-copy transmit: the payload comes straight
    /// from page-cache pages, which may live on **either** NUMA node (the
    /// §3.3 corner case: "a single packet spans pages from different NUMA
    /// nodes ... E.g., when using sendfile()"). No copy is performed; the
    /// driver posts scatter-gather descriptors. Under the `OctoTeam` driver
    /// each fragment carries an **IOctoSG** PF hint so the device fetches it
    /// through the endpoint local to the fragment's node; the standard
    /// driver has no such hint and every fragment rides the queue's PF.
    pub fn sendfile(
        &mut self,
        now: Time,
        sock: SockId,
        pages: &[(PhysAddr, u64)],
        out: &mut OutBuf<HostOut>,
    ) -> SendOutcome {
        let costs = self.cfg.costs;
        let (node, core, flow_out, netdev) = {
            let s = self.sockets.get(sock);
            (
                self.sched.node_of(s.owner),
                self.sched.core_of(s.owner),
                s.flow.reversed(),
                s.netdev,
            )
        };
        let total: u64 = pages.iter().map(|(_, l)| l).sum();
        if self.sockets.get(sock).tx_inflight + total > self.cfg.sndbuf_bytes {
            self.sockets.get_mut(sock).tx_waiting = true;
            return SendOutcome::WouldBlock;
        }
        let q = self.choose_tx_queue(sock, core, netdev);
        // Chunk page runs into TSO-sized descriptors.
        let mut descs: Vec<Vec<TxFragment>> = Vec::new();
        let mut cur: Vec<TxFragment> = Vec::new();
        let mut cur_len = 0u64;
        for &(addr, len) in pages {
            let hint = if self.cfg.driver == DriverModel::OctoTeam {
                // IOctoSG: fetch through the PF local to the page.
                self.pf_on_node(addr.home())
            } else {
                None
            };
            cur.push(TxFragment {
                addr,
                len,
                pf_hint: hint,
            });
            cur_len += len;
            if cur_len >= self.cfg.tx_buf_bytes {
                descs.push(std::mem::take(&mut cur));
                cur_len = 0;
            }
        }
        if !cur.is_empty() {
            descs.push(cur);
        }
        if self.nic.tx_backlog(q) + descs.len() > self.nic.config().ring_entries {
            self.sockets.get_mut(sock).tx_waiting = true;
            return SendOutcome::WouldBlock;
        }
        let mss = self.nic.config().mss;
        let mut t = self
            .cores
            .run(core, now, costs.syscall + costs.per_msg_stack);
        for frags in descs {
            let len: u64 = frags.iter().map(|f| f.len).sum();
            let desc = TxDesc {
                fragments: frags.into(),
                flow: flow_out,
                len,
                tso: len > mss,
            };
            t = self.cores.run(core, t, costs.per_desc);
            let slot = self.nic.post_tx(q, desc).expect("backlog checked above");
            let dw = self.mem.cpu_write(
                Self::rclock(now, t),
                node,
                slot,
                DESC_BYTES,
                AccessKind::Pointer,
            );
            t = self.cores.run(core, t, dw);
            self.push_tx_pending(q, (None, sock, len));
        }
        {
            let s = self.sockets.get_mut(sock);
            s.tx_inflight += total;
            s.tx_bytes += total;
        }
        t = self.cores.run(core, t, costs.doorbell);
        self.ring_doorbell(t, now, node, q, out);
        SendOutcome::Sent { done_at: t }
    }

    /// Appends an in-flight Tx entry to `q`'s FIFO. An entry lives from its
    /// descriptor's post until its completion is reaped, so the first push
    /// reserves a full Tx ring (the send paths' back-pressure bound) plus a
    /// full Tx CQ, and the FIFO does not grow after that.
    fn push_tx_pending(&mut self, q: QueueId, entry: (Option<PhysAddr>, SockId, u64)) {
        let pending = &mut self.tx_pending[q.0];
        if pending.capacity() == 0 {
            let nic = self.nic.config();
            pending.reserve_exact(nic.ring_entries + nic.cq_entries());
        }
        pending.push_back(entry);
    }

    /// Rings `q`'s doorbell at `t` (posted MMIO) and appends the NIC's
    /// transmit outcome to `out` as host events. A `None` MMIO cost means
    /// the link under the PF is down: the write vanishes, the posted
    /// descriptors stay in the ring, and [`Host::watchdog`] re-rings once
    /// the link returns.
    fn ring_doorbell(
        &mut self,
        t: Time,
        now: Time,
        node: NodeId,
        q: QueueId,
        out: &mut OutBuf<HostOut>,
    ) {
        let Some(mmio) = self
            .fabric
            .mmio_write(t, node, self.queue_pf[q.0], &self.mem)
        else {
            self.robust.doorbells_lost += 1;
            return;
        };
        self.nic.tx_doorbell(
            t + mmio,
            now,
            q,
            &mut self.fabric,
            &mut self.mem,
            &mut self.tx_scratch,
        );
        for &(at, flow, b) in &self.tx_scratch.packets {
            out.push(HostOut::PacketToPeer { at, flow, bytes: b });
        }
        if let Some((at, _core)) = self.tx_scratch.irq {
            let epoch = self.nic.pf_epoch(self.queue_pf[q.0]);
            out.push(HostOut::Irq {
                at,
                queue: q,
                epoch,
            });
        }
    }

    /// The first NIC PF attached to `node`, if any.
    fn pf_on_node(&self, node: NodeId) -> Option<PfId> {
        self.queue_pf
            .iter()
            .copied()
            .find(|pf| self.fabric.node_of(*pf) == Some(node))
    }

    /// Application `recv(2)`: copies buffered segments into the user buffer,
    /// recycling kernel buffers to their queue pools and refilling rings.
    pub fn recv(&mut self, now: Time, sock: SockId, max: u64) -> RecvOutcome {
        let costs = self.cfg.costs;
        let (node, core, user_buf) = {
            let s = self.sockets.get(sock);
            (
                self.sched.node_of(s.owner),
                self.sched.core_of(s.owner),
                s.user_buf,
            )
        };
        let mut t = self
            .cores
            .run(core, now, costs.syscall + costs.per_msg_stack);
        if self.sockets.get(sock).rx_q.is_empty() {
            self.sockets.get_mut(sock).rx_waiting = true;
            return RecvOutcome::WouldBlock;
        }
        let mut got = 0u64;
        while got < max {
            let seg = match self.sockets.get_mut(sock).rx_q.pop_front() {
                Some(s) => s,
                None => break,
            };
            // copy_to_user (reservation clock bounded near the event time).
            let issue = costs.memcpy_issue(seg.bytes);
            let rt = Self::rclock(now, t);
            let r = self
                .mem
                .cpu_read(rt, node, seg.buf, seg.bytes, AccessKind::Stream);
            let w = self.mem.cpu_write(
                rt,
                node,
                user_buf,
                seg.bytes.min(self.cfg.user_buf_bytes),
                AccessKind::Stream,
            );
            t = self.cores.run(core, t, issue + r + w);
            got += seg.bytes;
            // Recycle the buffer and opportunistically refill the ring.
            self.rx_pools[seg.queue.0].put(seg.buf);
            t = self.refill_rx(now, t, core, seg.queue);
        }
        self.sockets.get_mut(sock).rx_bytes += got;
        RecvOutcome::Data {
            done_at: t,
            bytes: got,
        }
    }

    /// A packet from the peer hits the server NIC at `now` (wire
    /// serialization already accounted by the caller via
    /// [`nic::wire::Wire::send_rx`]). Follow-up events are appended to
    /// `out`.
    pub fn wire_arrival(
        &mut self,
        now: Time,
        flow: FlowTuple,
        bytes: u64,
        seq: u64,
        out: &mut OutBuf<HostOut>,
    ) {
        let Some(sock) = self.sockets.by_flow(&flow) else {
            self.rx_no_socket_drops += 1;
            return;
        };
        let mac = self.netdevs[self.sockets.get(sock).netdev.0].mac;
        match self
            .nic
            .on_wire_packet(now, mac, flow, bytes, seq, &mut self.fabric, &mut self.mem)
        {
            RxOutcome::Delivered { queue, irq, .. } => {
                if let Some((at, _core)) = irq {
                    let epoch = self.nic.pf_epoch(self.queue_pf[queue.0]);
                    out.push(HostOut::Irq { at, queue, epoch });
                }
            }
            RxOutcome::DroppedNoBuffer { .. }
            | RxOutcome::DroppedPfDead { .. }
            | RxOutcome::DroppedLinkDown { .. }
            | RxOutcome::DroppedNoQueue { .. } => {}
        }
    }

    /// [`Host::irq`] behind the epoch fence: an interrupt stamped with an
    /// epoch older than the queue PF's current one was raised by a device
    /// instance that has since been surprise-removed or re-enumerated. It
    /// is counted and discarded without polling — any live completions on
    /// the queue raise their own (current-epoch) interrupts, and the
    /// watchdog's stale-landing check backstops the rest.
    pub fn irq_stamped(
        &mut self,
        now: Time,
        queue: QueueId,
        epoch: u64,
        out: &mut OutBuf<HostOut>,
    ) {
        if epoch < self.nic.pf_epoch(self.queue_pf[queue.0]) {
            self.robust.fenced_irqs += 1;
            return;
        }
        if let Some(tr) = &mut self.tracer {
            tr.push(
                now,
                TraceKind::IrqDelivered,
                queue.0 as u64,
                self.queue_irq_core[queue.0] as u64,
                epoch,
                0,
            );
        }
        self.irq(now, queue, out);
    }

    /// NAPI: services `queue`'s completion queues on its IRQ core.
    /// Follow-up events are appended to `out`.
    pub fn irq(&mut self, now: Time, queue: QueueId, out: &mut OutBuf<HostOut>) {
        let costs = self.cfg.costs;
        let core = self.queue_irq_core[queue.0];
        let node = self.queue_node[queue.0];
        // Current device epoch of this queue's PF: completions stamped
        // below it were in flight across a removal and must be fenced.
        let cur_epoch = self.nic.pf_epoch(self.queue_pf[queue.0]);
        let mut t = self.cores.run(core, now, costs.irq_entry);

        // Rx completions. NAPI paces itself with CQE *landings*: an entry
        // the device has not yet made visible (its DMA still queued behind
        // interconnect traffic) cannot be observed — this is how congested
        // DMA paths slow the receive path (Figures 11/12).
        let mut pending_landing: Option<Time> = None;
        loop {
            match self.nic.rx_landing(queue) {
                Some(landed) if landed <= t => {}
                Some(landed) => {
                    pending_landing = Some(landed);
                    break;
                }
                None => break,
            }
            let Some((cqe_addr, comp)) = self.nic.pop_rx_completion(queue) else {
                break;
            };
            // The paper's pivotal access: reading the CQE the device just
            // DMA-wrote. Local+DDIO = LLC hit; remote = DRAM miss (§5.1.1).
            // (Memory reserved at the interrupt's event time; see send.)
            let rt = Self::rclock(now, t);
            let cq_read = self
                .mem
                .cpu_read(rt, node, cqe_addr, CQE_BYTES, AccessKind::Pointer);
            let buf = comp.buffer.expect("rx completions carry buffers");
            if comp.epoch < cur_epoch {
                // The fence: this completion crossed a surprise removal /
                // re-enumeration. The CPU still read the CQE (that cost is
                // real), but the packet is counted and its buffer recycled
                // — never delivered to a socket.
                t = self.cores.run(core, t, cq_read);
                self.robust.fenced_completions += 1;
                self.rx_pools[queue.0].put(buf.addr);
                continue;
            }
            // Protocol processing starts with a dependent load of the
            // packet headers — an LLC hit under DDIO, a DRAM miss when the
            // device wrote the buffer remotely (§2.3's invalidated line L).
            let hdr_read = self
                .mem
                .cpu_read(rt, node, buf.addr, 64, AccessKind::Pointer);
            t = self
                .cores
                .run(core, t, cq_read + hdr_read + costs.per_pkt_stack);
            match self.sockets.by_flow(&comp.flow) {
                Some(sid) => {
                    let s = self.sockets.get_mut(sid);
                    s.note_seq(comp.seq);
                    s.rx_q.push_back(RxSegment {
                        buf: buf.addr,
                        bytes: comp.bytes,
                        queue,
                    });
                    if s.rx_waiting {
                        s.rx_waiting = false;
                        let owner = s.owner;
                        out.push(HostOut::Wake {
                            at: t + costs.wake_latency,
                            thread: owner,
                        });
                    }
                }
                None => {
                    self.rx_no_socket_drops += 1;
                    self.rx_pools[queue.0].put(buf.addr);
                }
            }
            t = self.refill_rx(now, t, core, queue);
        }

        // Tx completions, paced by landings like Rx.
        loop {
            match self.nic.tx_landing(queue) {
                Some(landed) if landed <= t => {}
                Some(landed) => {
                    pending_landing = Some(match pending_landing {
                        Some(p) => p.min(landed),
                        None => landed,
                    });
                    break;
                }
                None => break,
            }
            let Some((cqe_addr, comp)) = self.nic.pop_tx_completion(queue) else {
                break;
            };
            let cq_read = self.mem.cpu_read(
                Self::rclock(now, t),
                node,
                cqe_addr,
                CQE_BYTES,
                AccessKind::Pointer,
            );
            t = self.cores.run(core, t, cq_read + costs.per_tx_completion);
            if comp.epoch < cur_epoch {
                // Fenced: the producing device instance is gone. Resources
                // are still reclaimed below (the pool audit demands it) but
                // the completion is never interpreted — neither as success
                // nor as a driver-visible error.
                self.robust.fenced_completions += 1;
            } else if comp.error {
                // The NIC aborted this descriptor (its PF failed or the link
                // dropped): the payload never reached the wire. Resources are
                // still freed and the sender woken so it can retry on a live
                // queue — only the byte accounting treats it as untransmitted.
                self.robust.tx_error_completions += 1;
            }
            if let Some((kbuf, sid, bytes)) = self.tx_pending[queue.0].pop_front() {
                debug_assert_eq!(bytes, comp.bytes);
                if let Some(kbuf) = kbuf {
                    self.tx_pools[kbuf.home().0].put(kbuf);
                }
                let s = self.sockets.get_mut(sid);
                s.tx_inflight = s.tx_inflight.saturating_sub(bytes);
                if s.tx_waiting {
                    s.tx_waiting = false;
                    let owner = s.owner;
                    out.push(HostOut::Wake {
                        at: t + costs.wake_latency,
                        thread: owner,
                    });
                }
            }
        }

        if let Some(landed) = pending_landing {
            // Un-landed completions remain: poll again when the earliest one
            // becomes visible (plus the moderation delay, which restores
            // batching). The irq stays disarmed — the continuation is the
            // waker.
            let delay = self.nic.config().irq_delay;
            out.push(HostOut::Irq {
                at: (landed + delay).max(t),
                queue,
                epoch: cur_epoch,
            });
            return;
        }
        self.nic.rearm_irq(queue);
        if self.nic.rx_cq_depth(queue) == 0 {
            // Deferred steering: safe now that the old queue is fully
            // drained ("the actual update is delayed until the original
            // queue is drained ... to avoid out-of-order receives", §2.3).
            if let Some(moves) = self.pending_steer.remove(&queue) {
                for (sock, new_q) in moves {
                    self.install_steering(t, sock, new_q);
                }
            }
        } else {
            // Completions raced in while we processed: poll again.
            out.push(HostOut::Irq {
                at: t,
                queue,
                epoch: cur_epoch,
            });
        }
    }

    /// One pktgen burst (§5.1.1 "Single-core packet throughput"): the
    /// in-kernel generator posts `burst` descriptors that all point at the
    /// same `pkt_bytes`-byte packet, rings the doorbell, then reaps the
    /// completions in polling mode (pktgen does not use sockets or copies:
    /// "repeatedly transmits the same IP packet without touching any data").
    ///
    /// Returns the time the core finished the round; wire-packet events
    /// are appended to `out`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one pktgen burst's parameters, passed through from the runner's loop"
    )]
    pub fn pktgen_round(
        &mut self,
        now: Time,
        core: usize,
        nd: NetdevId,
        flow: FlowTuple,
        pkt_buf: PhysAddr,
        pkt_bytes: u64,
        burst: usize,
        out: &mut OutBuf<HostOut>,
    ) -> Time {
        let costs = self.cfg.costs;
        let node = self.mem.topology().node_of_core(core);
        let q = self.netdevs[nd.0].queue_for_core(core);
        let mut t = now;
        for _ in 0..burst {
            let desc = TxDesc::simple(pkt_buf, pkt_bytes, flow, false);
            let Some(slot) = self.nic.post_tx(q, desc) else {
                break;
            };
            let dw = self
                .mem
                .cpu_write(now, node, slot, DESC_BYTES, AccessKind::Pointer);
            t = self.cores.run(core, t, costs.pktgen_loop + dw);
        }
        t = self.cores.run(core, t, costs.doorbell);
        match self
            .fabric
            .mmio_write(t, node, self.queue_pf[q.0], &self.mem)
        {
            Some(mmio) => {
                self.nic.tx_doorbell(
                    t + mmio,
                    now,
                    q,
                    &mut self.fabric,
                    &mut self.mem,
                    &mut self.tx_scratch,
                );
                for &(at, f, b) in &self.tx_scratch.packets {
                    out.push(HostOut::PacketToPeer {
                        at,
                        flow: f,
                        bytes: b,
                    });
                }
            }
            None => {
                self.robust.doorbells_lost += 1;
            }
        }
        // Polling-mode reaping: read each completion entry that has already
        // landed. This is the access whose locality the paper pinpoints —
        // "reading this entry from memory costs about 80 ns, which is
        // essentially the delta between the per-packet costs of ioct/local
        // and remote". Entries still in flight are left for a later round:
        // pktgen overlaps posting and reaping across bursts, so the CPU
        // never idles waiting for the NIC pipeline.
        loop {
            match self.nic.tx_landing(q) {
                Some(landed) if landed <= t => {}
                _ => break,
            }
            let Some((cqe_addr, _comp)) = self.nic.pop_tx_completion(q) else {
                break;
            };
            let r = self.mem.cpu_read(
                Self::rclock(now, t),
                node,
                cqe_addr,
                CQE_BYTES,
                AccessKind::Pointer,
            );
            t = self.cores.run(core, t, r + costs.per_tx_completion);
        }
        self.nic.rearm_irq(q);
        t
    }

    /// Per-socket out-of-order count (Figure 14 asserts zero for the
    /// octoNIC).
    pub fn ooo_count(&self, sock: SockId) -> u64 {
        self.sockets.get(sock).ooo_count
    }

    /// Robustness counters: what the driver absorbed and recovered from.
    pub fn robustness(&self) -> HostRobustness {
        self.robust
    }

    /// Runs every conservation check this host can see — its buffer pools
    /// and socket table, then the NIC's and the fabric's own audits — into
    /// `a`. Cheap enough for quiesce points; debug builds can afford it
    /// per event step.
    pub fn audit(&self, a: &mut Audit) {
        // Rx buffer conservation, per queue: every buffer the pool ever
        // owned is free in the pool, posted in the ring, parked in an
        // unreaped CQE, queued on a socket, or written off as lost to a
        // mid-DMA link drop. Anything else is a leak (or a double count).
        let n_queues = self.queue_pf.len();
        let mut sock_held = vec![0usize; n_queues];
        let mut pending_by_sock = vec![0u64; self.sockets.len()];
        for s in self.sockets.ids() {
            for seg in &self.sockets.get(s).rx_q {
                if seg.queue.0 < n_queues {
                    sock_held[seg.queue.0] += 1;
                }
            }
        }
        for pend in &self.tx_pending {
            for &(_, sid, bytes) in pend {
                pending_by_sock[sid.0] += bytes;
            }
        }
        for (qi, &held) in sock_held.iter().enumerate() {
            let q = QueueId(qi);
            let pool = &self.rx_pools[qi];
            let have = pool.available()
                + self.nic.rx_buffers_available(q)
                + self.nic.rx_cq_held_buffers(q)
                + held;
            let expect = pool
                .capacity()
                .saturating_sub(self.nic.rx_bufs_lost(q) as usize);
            a.check("kernel", "rx-pool-conservation", have == expect, || {
                format!(
                    "queue {qi}: pool {} + ring {} + cq {} + sockets {} = {have}, \
                     expected capacity {} - lost {} = {expect}",
                    pool.available(),
                    self.nic.rx_buffers_available(q),
                    self.nic.rx_cq_held_buffers(q),
                    held,
                    pool.capacity(),
                    self.nic.rx_bufs_lost(q),
                )
            });
        }
        // Tx kernel-buffer conservation, per node: a buffer is either free
        // in its pool or referenced by an in-flight descriptor entry
        // (zero-copy sendfile entries reference page-cache pages instead
        // and hold no pool buffer).
        let mut pending_bufs = vec![0usize; self.tx_pools.len()];
        for pend in &self.tx_pending {
            for (kbuf, _, _) in pend {
                if let Some(kbuf) = kbuf {
                    pending_bufs[kbuf.home().0] += 1;
                }
            }
        }
        for (n, pool) in self.tx_pools.iter().enumerate() {
            let have = pool.available() + pending_bufs[n];
            a.check(
                "kernel",
                "tx-pool-conservation",
                have == pool.capacity(),
                || {
                    format!(
                        "node {n}: pool {} + in-flight {} != capacity {}",
                        pool.available(),
                        pending_bufs[n],
                        pool.capacity()
                    )
                },
            );
        }
        // Socket accounting: bytes still queued toward the NIC for a socket
        // can never exceed what the socket believes is in flight. (The
        // reverse can legally happen: completion-queue overflow coalesces
        // CQEs, stranding `tx_inflight` high until teardown.)
        for s in self.sockets.ids() {
            let pending = pending_by_sock[s.0];
            let inflight = self.sockets.get(s).tx_inflight;
            a.check("kernel", "socket-tx-inflight", pending <= inflight, || {
                format!("socket {}: pending {pending} > tx_inflight {inflight}", s.0)
            });
        }
        self.nic.audit(a);
        self.fabric.audit(a);
    }

    /// Driver watchdog, invoked periodically by the experiment loop — the
    /// simulation analogue of `ndo_tx_timeout` plus NAPI's deferred re-poll.
    /// Two hazards are detected:
    ///
    /// * completions that became visible in host memory more than
    ///   `watchdog_timeout` ago and were never reaped — their MSI-X was
    ///   lost; the queue is polled immediately;
    /// * Tx descriptors whose doorbell MMIO vanished into a dead link (the
    ///   ring holds descriptors but no completion is in flight): the
    ///   doorbell is re-rung with bounded exponential backoff.
    pub fn watchdog(&mut self, now: Time, out: &mut OutBuf<HostOut>) {
        let timeout = self.cfg.watchdog_timeout;
        let stale = |l: Option<Time>| matches!(l, Some(l) if l + timeout <= now);
        // Steering re-install left pending by a PF recovery whose control
        // path was dead: retry with the same bounded exponential backoff
        // the doorbell path uses (shared limit/base keeps the recovery
        // policy in one knob pair).
        if self.steer_pending
            && now >= self.steer_retry.next_at
            && self.steer_retry.retries < self.cfg.tx_retry_limit
        {
            let st = self.steer_retry;
            self.steer_retry = RetryState {
                retries: st.retries + 1,
                next_at: now + self.cfg.tx_retry_backoff * (1u64 << st.retries.min(10)),
            };
            self.robust.steering_reinstall_retries += 1;
            if self.reinstall_steering(now) {
                self.steer_pending = false;
            }
        }
        for qi in 0..self.queue_pf.len() {
            let q = QueueId(qi);
            if stale(self.nic.rx_landing(q)) || stale(self.nic.tx_landing(q)) {
                self.robust.watchdog_irq_recoveries += 1;
                let epoch = self.nic.pf_epoch(self.queue_pf[qi]);
                out.push(HostOut::Irq {
                    at: now,
                    queue: q,
                    epoch,
                });
                continue;
            }
            let stuck = self.nic.tx_backlog(q) > 0
                && self.nic.tx_landing(q).is_none()
                && self.nic.pf_alive(self.queue_pf[qi]);
            if !stuck {
                self.tx_retry[qi] = RetryState::default();
                continue;
            }
            let st = self.tx_retry[qi];
            if st.retries >= self.cfg.tx_retry_limit || now < st.next_at {
                continue;
            }
            self.tx_retry[qi] = RetryState {
                retries: st.retries + 1,
                next_at: now + self.cfg.tx_retry_backoff * (1u64 << st.retries.min(10)),
            };
            self.robust.doorbell_retries += 1;
            let node = self.queue_node[qi];
            self.ring_doorbell(now, now, node, q, out);
        }
    }

    /// Applies one fault-plan event to this host's I/O complex. Link faults
    /// go to the PCIe fabric. A PF has one lifecycle whichever fault drives
    /// it: `PfFail` and `SurpriseRemove` tear it down
    /// ([`teardown_pf`](Self::teardown_pf)), `PfRecover` and `Reenumerate`
    /// bind it again ([`rebind_pf`](Self::rebind_pf)). Only the hotplug
    /// kinds advance the device epoch, and only an advanced epoch runs the
    /// quiesce/drain/rebind fence, whose drain can wake senders whose
    /// fenced buffers were reclaimed — follow-up events are appended to
    /// `out`.
    pub fn apply_fault(&mut self, now: Time, pf: PfId, kind: FaultKind, out: &mut OutBuf<HostOut>) {
        self.robust.faults_applied += 1;
        match kind {
            FaultKind::LinkDown | FaultKind::LinkDegrade { .. } => {
                self.fabric.apply_link_fault(now, pf, kind);
            }
            FaultKind::LinkRecover => {
                self.fabric.apply_link_fault(now, pf, kind);
                // Doorbells stuck behind the dead link get a fresh retry
                // budget now that MMIO reaches the device again.
                for st in &mut self.tx_retry {
                    *st = RetryState::default();
                }
            }
            FaultKind::PfFail | FaultKind::SurpriseRemove => self.teardown_pf(now, pf, kind, out),
            FaultKind::PfRecover | FaultKind::Reenumerate => self.rebind_pf(now, pf, kind, out),
            FaultKind::IrqLoss => self.nic.inject_irq_loss(pf),
            FaultKind::MediaFault { .. } => {
                // Media faults target drives; a NIC-only host absorbs them
                // (the fault still counts as applied, mirroring hardware
                // that latches an AER it has no handler for).
            }
        }
    }

    /// Takes `pf` down. Quiesce: the fabric sees the fault first (a surprise
    /// removal drops the endpoint's in-flight transactions and retires its
    /// epoch; a function failure leaves the fabric alone), then the NIC
    /// resets the function — flushing its Tx backlog as error completions
    /// stamped with the *dying* epoch and failing its flows over to the
    /// survivors — and only then does the driver mirror the fabric's epoch.
    /// If that advanced, everything stamped before this instant is fenced:
    /// the drain reaps what is already visible on `pf`'s queues, and the
    /// rebind is the failover steering already in place. One live PF left
    /// means every flow now crosses the interconnect: legacy NUDMA mode,
    /// degraded but alive.
    fn teardown_pf(&mut self, now: Time, pf: PfId, kind: FaultKind, out: &mut OutBuf<HostOut>) {
        if self.break_recovery && kind == FaultKind::PfFail {
            // Test-only sabotage (see `debug_break_recovery`): the teardown
            // path "frees" one Tx kernel buffer on the failed PF's node
            // without returning it to its pool.
            self.leak_tx_buffer(pf);
        }
        let was_alive = self.nic.pf_alive(pf);
        self.fabric.apply_link_fault(now, pf, kind);
        self.nic.fail_pf(now, pf);
        let Some(epoch) = self.sync_epoch(pf) else {
            return;
        };
        let mode = (self.live_pf_count() == 1) as u64;
        self.note_reconfig_phase(now, pf, 0, epoch, mode);
        // Entries whose DMA has not landed yet stay put; they hit the same
        // fence in `irq` as late completions.
        self.note_reconfig_phase(now, pf, 1, epoch, mode);
        self.drain_fenced(now, pf, out);
        self.note_reconfig_phase(now, pf, 2, epoch, mode);
        self.robust.reconfigs += 1;
        if was_alive && self.live_pf_count() == 1 {
            self.robust.nudma_entries += 1;
        }
    }

    /// Brings `pf` back. A re-enumeration powers the slot up, which bumps
    /// the fabric epoch again (and stalls the retrained links), so
    /// stragglers from the removed instance stay fenced and the ones that
    /// landed during the outage are drained. Then, for either kind, the
    /// function revives and steering is pulled home — restoring uniform
    /// IOctopus mode — with a watchdog retry for flows whose queue's
    /// control path is still dead.
    fn rebind_pf(&mut self, now: Time, pf: PfId, kind: FaultKind, out: &mut OutBuf<HostOut>) {
        let was_nudma = !self.nic.pf_alive(pf) && self.live_pf_count() == 1;
        self.fabric.apply_link_fault(now, pf, kind);
        let advanced = self.sync_epoch(pf);
        if let Some(epoch) = advanced {
            self.note_reconfig_phase(now, pf, 0, epoch, was_nudma as u64);
            self.note_reconfig_phase(now, pf, 1, epoch, was_nudma as u64);
            self.drain_fenced(now, pf, out);
        }
        self.nic.recover_pf(pf);
        for st in &mut self.tx_retry {
            *st = RetryState::default();
        }
        if self.reinstall_steering(now) {
            self.steer_pending = false;
        } else {
            // Some queue's control path was dead (its link is still down):
            // the affected flows stay on the failover survivor and the
            // watchdog retries with backoff.
            self.steer_pending = true;
            self.steer_retry = RetryState::default();
        }
        let Some(epoch) = advanced else {
            return;
        };
        let mode = (self.live_pf_count() == 1) as u64;
        self.note_reconfig_phase(now, pf, 2, epoch, mode);
        self.robust.reconfigs += 1;
        if was_nudma && self.live_pf_count() > 1 {
            self.robust.nudma_exits += 1;
        }
        if self.break_readd {
            // Test-only sabotage (see `debug_break_readd`): the rebind path
            // drops one free Tx kernel buffer on the re-added PF's home
            // node while re-initializing its rings.
            self.leak_tx_buffer(pf);
        }
    }

    /// Mirrors the fabric's epoch for `pf` into the NIC, returning the new
    /// epoch if it advanced. Only presence transitions (surprise removal,
    /// re-enumeration) move the fabric's epoch, so a function fault never
    /// advances it.
    fn sync_epoch(&mut self, pf: PfId) -> Option<u64> {
        let old = self.nic.pf_epoch(pf);
        if let Some(e) = self.fabric.epoch(pf) {
            self.nic.set_pf_epoch(pf, e);
        }
        let epoch = self.nic.pf_epoch(pf);
        (epoch > old).then_some(epoch)
    }

    /// Test-only sabotage shared by both hooks: takes one Tx kernel buffer
    /// from the pool of `pf`'s first queue's node and never returns it.
    fn leak_tx_buffer(&mut self, pf: PfId) {
        if let Some(qi) = self.queue_pf.iter().position(|&p| p == pf) {
            let node = self.queue_node[qi];
            let _ = self.tx_pools[node.0].take();
        }
    }

    /// Live (not failed / not removed) PFs on this host's NIC.
    fn live_pf_count(&self) -> usize {
        self.pfs.iter().filter(|&&p| self.nic.pf_alive(p)).count()
    }

    /// Phase-2 drain of an epoch fence: reaps every completion already
    /// visible on `pf`'s queues and fences it — counted, resources
    /// recycled, nothing delivered. All of them are stale by construction:
    /// the epoch advanced immediately before this runs, and no
    /// current-epoch completion can exist yet. Un-landed entries are left
    /// in place for the late-completion fence in [`Host::irq`].
    fn drain_fenced(&mut self, now: Time, pf: PfId, out: &mut OutBuf<HostOut>) {
        for qi in 0..self.queue_pf.len() {
            if self.queue_pf[qi] != pf {
                continue;
            }
            let q = QueueId(qi);
            while matches!(self.nic.rx_landing(q), Some(l) if l <= now) {
                let Some((_cqe, comp)) = self.nic.pop_rx_completion(q) else {
                    break;
                };
                self.robust.fenced_completions += 1;
                if let Some(buf) = comp.buffer {
                    self.rx_pools[qi].put(buf.addr);
                }
            }
            while matches!(self.nic.tx_landing(q), Some(l) if l <= now) {
                if self.nic.pop_tx_completion(q).is_none() {
                    break;
                }
                self.robust.fenced_completions += 1;
                self.release_tx_entry(now, qi, out);
            }
        }
    }

    /// Releases the oldest in-flight Tx entry of queue `qi`: the kernel
    /// buffer returns to its node pool, the socket's in-flight accounting
    /// shrinks, and a blocked sender is woken. Shared by the fence paths;
    /// the payload is *not* treated as transmitted.
    fn release_tx_entry(&mut self, now: Time, qi: usize, out: &mut OutBuf<HostOut>) {
        if let Some((kbuf, sid, bytes)) = self.tx_pending[qi].pop_front() {
            if let Some(kbuf) = kbuf {
                self.tx_pools[kbuf.home().0].put(kbuf);
            }
            let s = self.sockets.get_mut(sid);
            s.tx_inflight = s.tx_inflight.saturating_sub(bytes);
            if s.tx_waiting {
                s.tx_waiting = false;
                let owner = s.owner;
                out.push(HostOut::Wake {
                    at: now + self.cfg.costs.wake_latency,
                    thread: owner,
                });
            }
        }
    }

    /// Arms a test-only fault in the driver's own recovery path: the next
    /// PF failure silently leaks one Tx kernel buffer from the failed PF's
    /// node pool, modeling a teardown handler that loses track of a
    /// buffer. Exists so the audit layer's pool-conservation check can be
    /// shown to catch a real recovery bug (and the campaign shrinker to
    /// minimize the schedule that exposes it). Never set outside
    /// tests/harnesses.
    #[doc(hidden)]
    pub fn debug_break_recovery(&mut self) {
        self.break_recovery = true;
    }

    /// Arms a test-only bug in the *hotplug rebind* path: every completed
    /// re-enumeration (epoch actually advanced, i.e. a real remove→re-add
    /// cycle) leaks one Tx kernel buffer from the re-added PF's home-node
    /// pool, modeling a ring re-init that drops a free descriptor. Because
    /// the leak only fires when the epoch advanced, the minimal schedule
    /// that exposes it is exactly a `SurpriseRemove` followed by a
    /// `Reenumerate` on the same PF — which is what the campaign shrinker
    /// must converge to. Never set outside tests/harnesses.
    #[doc(hidden)]
    pub fn debug_break_readd(&mut self) {
        self.break_readd = true;
    }

    /// After a PF returns, re-install every socket's steering at its owner's
    /// current queue, pulling flows back off the failover survivor onto
    /// their home PFs (the driver half of recovery; the firmware half is the
    /// MPFS default-PF restore inside [`Nic::recover_pf`]). Each install is
    /// a control-path MMIO write to the queue's PF; a dead link eats it, in
    /// which case that flow stays on the survivor and this returns `false`
    /// so the caller schedules a retry. Idempotent, so a retry simply
    /// re-runs the whole pass.
    fn reinstall_steering(&mut self, now: Time) -> bool {
        let socks: Vec<SockId> = self.sockets.ids().collect();
        let mut all_ok = true;
        for s in socks {
            let (core, nd) = {
                let sk = self.sockets.get(s);
                (self.sched.core_of(sk.owner), sk.netdev)
            };
            let q = self.netdevs[nd.0].queue_for_core(core);
            let (pf, node) = (self.queue_pf[q.0], self.queue_node[q.0]);
            if self.fabric.mmio_write(now, node, pf, &self.mem).is_none() {
                all_ok = false;
                continue;
            }
            self.install_steering(now, s, q);
        }
        if all_ok {
            self.robust.steering_reinstalls += 1;
        }
        all_ok
    }

    /// The reservation clock for memory accesses inside a handler: tracks
    /// the core's chain time so a batch's accesses spread realistically, but
    /// stays within a bounded window of the dispatching event's time so
    /// shared FIFO horizons can never run away from simulated time.
    fn rclock(now: Time, t: Time) -> Time {
        t.min(now + simcore::Dur::from_us(100)).max(now)
    }

    /// Installs ARFS (+ IOctoRFS under the team driver) so `flow` is
    /// serviced by `q`.
    fn install_steering(&mut self, now: Time, sock: SockId, q: QueueId) {
        let flow = self.sockets.get(sock).flow;
        let pf = self.queue_pf[q.0];
        match self.cfg.driver {
            DriverModel::Standard => {
                // ARFS can move the flow between queues of the SAME PF only;
                // the PF (and thus any NUDMA) is fixed at socket creation.
                let nd = self.sockets.get(sock).netdev;
                let nd_pf = self.queue_pf[self.netdevs[nd.0].queue_by_core[0].0];
                if pf == nd_pf {
                    self.nic.arfs_install(now, pf, flow, q);
                }
            }
            DriverModel::OctoTeam => {
                // IOctoRFS: the flow follows the process to the local PF.
                self.nic.mpfs_mut().install_flow(flow, pf);
                self.nic.arfs_install(now, pf, flow, q);
            }
        }
    }

    /// XPS queue choice with the out-of-order guard: keep using the old
    /// queue until it has no outstanding packets (§4.2 "Transmit",
    /// `ooo_okay`).
    fn choose_tx_queue(&mut self, sock: SockId, core: usize, nd: NetdevId) -> QueueId {
        let mut desired = self.netdevs[nd.0].queue_for_core(core);
        if !self.nic.pf_alive(self.queue_pf[desired.0]) {
            // Tx failover: the home queue's PF is dead — pick the first live
            // queue on this netdev instead (first match keeps the choice
            // deterministic). The standard driver usually has none, since a
            // netdev's queues all ride one PF; `desired` then stays put and
            // the doorbell path errors the descriptors out.
            if let Some(&alt) = self.netdevs[nd.0]
                .queue_by_core
                .iter()
                .find(|qq| self.nic.pf_alive(self.queue_pf[qq.0]))
            {
                desired = alt;
            }
        }
        let last = self.sockets.get(sock).last_tx_queue;
        let q = match last {
            Some(old) if old != desired => {
                // The out-of-order guard never sticks to a dead PF's queue:
                // its backlog can only drain as error completions.
                if self.nic.pf_alive(self.queue_pf[old.0])
                    && (self.nic.tx_backlog(old) > 0 || !self.tx_pending[old.0].is_empty())
                {
                    old
                } else {
                    desired
                }
            }
            _ => desired,
        };
        self.sockets.get_mut(sock).last_tx_queue = Some(q);
        q
    }

    fn refill_rx(&mut self, now: Time, t: Time, core: usize, queue: QueueId) -> Time {
        let mut t = t;
        if let Some(buf) = self.rx_pools[queue.0].take() {
            let len = self.cfg.rx_buf_bytes;
            match self.nic.post_rx(queue, RxDesc { addr: buf, len }) {
                Some(slot) => {
                    let node = self.queue_node[queue.0];
                    let w = self.mem.cpu_write(
                        Self::rclock(now, t),
                        node,
                        slot,
                        DESC_BYTES,
                        AccessKind::Pointer,
                    );
                    t = self.cores.run(core, t, self.cfg.costs.per_desc + w);
                }
                None => self.rx_pools[queue.0].put(buf),
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::MemConfig;
    use nic::NicConfig;
    use pcie::{Bifurcation, FabricConfig, PcieGen};

    fn build(driver: DriverModel) -> (Host, Vec<PfId>) {
        let mem = MemSystem::new(MemConfig::dual_socket_broadwell());
        let mut fabric = PcieFabric::new(FabricConfig::default());
        let pfs = fabric.add_bifurcated(&Bifurcation::x8x8_dual_socket(PcieGen::Gen3));
        let nic_cfg = match driver {
            DriverModel::Standard => NicConfig::standard_100g(),
            DriverModel::OctoTeam => NicConfig::octonic_100g(),
        };
        let nic = Nic::new(nic_cfg, pfs.len(), pfs[0]);
        let host = Host::new(
            mem,
            fabric,
            nic,
            &pfs,
            HostConfig {
                driver,
                ..HostConfig::default()
            },
        );
        (host, pfs)
    }

    fn client_flow(port: u16) -> FlowTuple {
        FlowTuple::tcp(0x0A00_0001, port, 0x0A00_0002, 5001)
    }

    // Collect-into-Vec wrappers so assertions keep their original shape.
    fn wire(host: &mut Host, at: Time, flow: FlowTuple, bytes: u64, seq: u64) -> Vec<HostOut> {
        let mut out = OutBuf::new();
        host.wire_arrival(at, flow, bytes, seq, &mut out);
        out.drain().collect()
    }

    fn irq(host: &mut Host, at: Time, q: QueueId) -> Vec<HostOut> {
        let mut out = OutBuf::new();
        host.irq(at, q, &mut out);
        out.drain().collect()
    }

    fn watchdog(host: &mut Host, at: Time) -> Vec<HostOut> {
        let mut out = OutBuf::new();
        host.watchdog(at, &mut out);
        out.drain().collect()
    }

    fn fault(host: &mut Host, at: Time, pf: PfId, kind: FaultKind) -> Vec<HostOut> {
        let mut out = OutBuf::new();
        host.apply_fault(at, pf, kind, &mut out);
        out.drain().collect()
    }

    fn send(host: &mut Host, at: Time, sock: SockId, bytes: u64) -> (SendOutcome, Vec<HostOut>) {
        let mut out = OutBuf::new();
        let r = host.send(at, sock, bytes, &mut out);
        (r, out.drain().collect())
    }

    #[test]
    fn standard_driver_builds_netdev_per_pf() {
        let (host, pfs) = build(DriverModel::Standard);
        assert_eq!(host.netdev_count(), pfs.len());
    }

    #[test]
    fn octo_driver_builds_single_netdev() {
        let (host, _) = build(DriverModel::OctoTeam);
        assert_eq!(host.netdev_count(), 1);
    }

    #[test]
    fn octo_queues_ride_local_pfs() {
        let (host, pfs) = build(DriverModel::OctoTeam);
        let nd = &host.netdevs[0];
        // Core 0 (node 0) -> PF0; core 14 (node 1) -> PF1.
        assert_eq!(host.queue_pf[nd.queue_for_core(0).0], pfs[0]);
        assert_eq!(host.queue_pf[nd.queue_for_core(14).0], pfs[1]);
    }

    #[test]
    fn rx_path_delivers_to_blocked_reader() {
        let (mut host, _) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(1000);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        // Reader blocks first.
        assert!(matches!(
            host.recv(Time::ZERO, sock, 65536),
            RecvOutcome::WouldBlock
        ));
        // Packet arrives.
        let outs = wire(&mut host, Time::from_us(5), flow, 1448, 0);
        let got_irq = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, .. } => Some((*at, *queue)),
                _ => None,
            })
            .expect("irq scheduled");
        let outs = irq(&mut host, got_irq.0, got_irq.1);
        let wake = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Wake { at, thread } => Some((*at, *thread)),
                _ => None,
            })
            .expect("reader woken");
        assert_eq!(wake.1, th);
        // Reader resumes and gets the data.
        match host.recv(wake.0, sock, 65536) {
            RecvOutcome::Data { bytes, .. } => assert_eq!(bytes, 1448),
            other => panic!("{other:?}"),
        }
        assert_eq!(host.socket(sock).rx_bytes, 1448);
        assert_eq!(host.ooo_count(sock), 0);
    }

    #[test]
    fn tx_path_emits_wire_packets() {
        let (mut host, _) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(1001);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let (r, outs) = send(&mut host, Time::ZERO, sock, 64 * 1024);
        assert!(matches!(r, SendOutcome::Sent { .. }), "{r:?}");
        let pkts: Vec<_> = outs
            .iter()
            .filter(|o| matches!(o, HostOut::PacketToPeer { .. }))
            .collect();
        // 64 KiB TSO aggregate → ceil(65536/1460) MTU segments.
        assert!(pkts.len() > 40, "got {} packets", pkts.len());
        assert_eq!(host.socket(sock).tx_bytes, 64 * 1024);
    }

    #[test]
    fn tx_inflight_released_by_completion_irq() {
        let (mut host, _) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(1002);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let (r, outs) = send(&mut host, Time::ZERO, sock, 1000);
        assert!(matches!(r, SendOutcome::Sent { .. }), "{r:?}");
        assert_eq!(host.socket(sock).tx_inflight, 1000);
        let (at, q) = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, .. } => Some((*at, *queue)),
                _ => None,
            })
            .expect("tx completion irq");
        irq(&mut host, at, q);
        assert_eq!(host.socket(sock).tx_inflight, 0);
    }

    #[test]
    fn sndbuf_backpressure_blocks() {
        let (mut host, _) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(1003);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let mut t = Time::ZERO;
        let mut blocked = false;
        for _ in 0..200 {
            match send(&mut host, t, sock, 64 * 1024).0 {
                SendOutcome::Sent { done_at } => t = done_at,
                SendOutcome::WouldBlock => {
                    blocked = true;
                    break;
                }
            }
        }
        assert!(
            blocked,
            "4 MiB sndbuf must backpressure without completions"
        );
    }

    #[test]
    fn migration_moves_steering_under_octo() {
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(1004);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        // Initially the flow is bound to PF0 (node 0).
        let mac = host.netdev_mac(NetdevId(0));
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[0]);
        // Migrate to a node-1 core; steering is deferred until the old
        // queue drains, which happens at the next irq of the old queue.
        host.migrate_thread(Time::from_ms(1), th, 14);
        let old_q = host.netdevs[0].queue_for_core(0);
        irq(&mut host, Time::from_ms(1), old_q);
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[1], "IOctoRFS moved");
        // Packets now land on the node-1 queue and the thread still gets
        // them, in order.
        let outs = wire(&mut host, Time::from_ms(2), flow, 1448, 0);
        assert!(!outs.is_empty());
        let (at, q) = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, .. } => Some((*at, *queue)),
                _ => None,
            })
            .unwrap();
        assert_eq!(q, host.netdevs[0].queue_for_core(14));
        irq(&mut host, at, q);
        assert_eq!(host.ooo_count(sock), 0);
    }

    #[test]
    fn migration_cannot_move_pf_under_standard_driver() {
        let (mut host, pfs) = build(DriverModel::Standard);
        let th = host.spawn_thread(0);
        let flow = client_flow(1005);
        // Socket on netdev 0 (PF0).
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let mac = host.netdev_mac(NetdevId(0));
        host.migrate_thread(Time::from_ms(1), th, 14);
        let old_q = host.netdevs[0].queue_for_core(0);
        irq(&mut host, Time::from_ms(1), old_q);
        // MAC-based steering still sends everything to PF0: NUDMA persists.
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[0]);
        let _ = sock;
    }

    #[test]
    fn xps_switches_queue_after_drain_only() {
        let (mut host, _) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(1006);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let (r, outs) = send(&mut host, Time::ZERO, sock, 1000);
        assert!(matches!(r, SendOutcome::Sent { .. }), "{r:?}");
        let q0 = host.netdevs[0].queue_for_core(0);
        assert_eq!(host.socket(sock).last_tx_queue, Some(q0));
        host.migrate_thread(Time::from_us(1), th, 14);
        // Old queue still has an un-completed packet: XPS must stick.
        match send(&mut host, Time::from_us(2), sock, 1000).0 {
            SendOutcome::Sent { .. } => {}
            o => panic!("{o:?}"),
        }
        assert_eq!(host.socket(sock).last_tx_queue, Some(q0), "ooo guard");
        // Complete outstanding packets.
        for o in &outs {
            if let HostOut::Irq { at, queue, .. } = o {
                irq(&mut host, *at, *queue);
            }
        }
        // Drain the second send's completion too.
        irq(&mut host, Time::from_ms(1), q0);
        match send(&mut host, Time::from_ms(2), sock, 1000).0 {
            SendOutcome::Sent { .. } => {}
            o => panic!("{o:?}"),
        }
        let q14 = host.netdevs[0].queue_for_core(14);
        assert_eq!(host.socket(sock).last_tx_queue, Some(q14), "switched");
    }

    #[test]
    fn unknown_flow_dropped() {
        let (mut host, _) = build(DriverModel::OctoTeam);
        let outs = wire(&mut host, Time::ZERO, client_flow(9999), 100, 0);
        assert!(outs.is_empty());
        assert_eq!(host.rx_no_socket_drops(), 1);
    }

    #[test]
    fn rx_buffers_recycle_forever() {
        let (mut host, _) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(1007);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let mut t = Time::ZERO;
        // 3x the pool size worth of packets, consumed as we go.
        for seq in 0..1536u64 {
            t += Dur::from_us(2);
            let outs = wire(&mut host, t, flow, 1448, seq);
            for o in outs {
                if let HostOut::Irq { at, queue, .. } = o {
                    irq(&mut host, at, queue);
                }
            }
            match host.recv(t + Dur::from_us(1), sock, 1 << 20) {
                RecvOutcome::Data { .. } | RecvOutcome::WouldBlock => {}
            }
        }
        assert_eq!(
            host.socket(sock).rx_bytes + 1448,
            1448 * 1536 + 1448 - host.nic.rx_dropped() * 1448,
            "no unexpected loss beyond drop accounting"
        );
        assert_eq!(host.nic.rx_dropped(), 0, "recycling keeps rings stocked");
        assert_eq!(host.ooo_count(sock), 0);
    }

    #[test]
    fn pf_fail_over_and_recovery_move_steering() {
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(3000);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let mac = host.netdev_mac(NetdevId(0));
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[0]);

        // A function fault shares the hotplug teardown and rebind but never
        // advances the epoch, so none of the fence's bookkeeping runs.
        let assert_unfenced = |host: &Host| {
            assert_eq!(host.nic.pf_epoch(pfs[0]), 0);
            let r = host.robustness();
            assert_eq!(
                (r.reconfigs, r.fenced_completions, r.fenced_irqs),
                (0, 0, 0)
            );
            assert_eq!((r.nudma_entries, r.nudma_exits), (0, 0));
        };

        fault(&mut host, Time::from_ms(1), pfs[0], FaultKind::PfFail);
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[1], "failed over");
        assert_unfenced(&host);
        // Traffic keeps flowing through the survivor.
        let outs = wire(&mut host, Time::from_ms(2), flow, 1448, 0);
        let (at, q) = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, .. } => Some((*at, *queue)),
                _ => None,
            })
            .expect("delivered via surviving PF");
        assert_eq!(host.queue_pf[q.0], pfs[1]);
        irq(&mut host, at, q);
        match host.recv(at + Dur::from_us(50), sock, 1 << 20) {
            RecvOutcome::Data { bytes, .. } => assert_eq!(bytes, 1448),
            o => panic!("{o:?}"),
        }

        fault(&mut host, Time::from_ms(3), pfs[0], FaultKind::PfRecover);
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[0], "pulled home");
        assert_eq!(host.robustness().faults_applied, 2);
        assert_unfenced(&host);
    }

    #[test]
    fn lost_irq_recovered_by_watchdog() {
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(3001);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        fault(&mut host, Time::from_us(1), pfs[0], FaultKind::IrqLoss);
        let outs = wire(&mut host, Time::from_us(5), flow, 1448, 0);
        assert!(
            !outs.iter().any(|o| matches!(o, HostOut::Irq { .. })),
            "the MSI-X was swallowed"
        );
        // Nothing delivered yet; the watchdog notices the stale landing.
        let wd_at = Time::from_us(5) + host.config().watchdog_timeout + Dur::from_us(50);
        let outs = watchdog(&mut host, wd_at);
        let (at, q) = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, .. } => Some((*at, *queue)),
                _ => None,
            })
            .expect("watchdog polls the silent queue");
        irq(&mut host, at, q);
        match host.recv(at + Dur::from_us(50), sock, 1 << 20) {
            RecvOutcome::Data { bytes, .. } => assert_eq!(bytes, 1448),
            o => panic!("{o:?}"),
        }
        assert_eq!(host.robustness().watchdog_irq_recoveries, 1);
    }

    #[test]
    fn lost_doorbell_re_rung_after_link_recovers() {
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(3002);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        fault(&mut host, Time::from_us(1), pfs[0], FaultKind::LinkDown);
        let (r, outs) = send(&mut host, Time::from_us(2), sock, 2000);
        assert!(matches!(r, SendOutcome::Sent { .. }), "{r:?}");
        assert!(outs.is_empty(), "doorbell vanished into the dead link");
        assert_eq!(host.robustness().doorbells_lost, 1);
        // While the link is down the watchdog's retry also fails…
        let outs = watchdog(&mut host, Time::from_us(100));
        assert!(outs.is_empty());
        assert_eq!(host.robustness().doorbells_lost, 2);
        // …but after retraining, the re-rung doorbell transmits.
        fault(&mut host, Time::from_ms(1), pfs[0], FaultKind::LinkRecover);
        let outs = watchdog(&mut host, Time::from_ms(2));
        assert!(
            outs.iter()
                .any(|o| matches!(o, HostOut::PacketToPeer { .. })),
            "descriptors finally reach the wire"
        );
        assert!(host.robustness().doorbell_retries >= 2);
    }

    #[test]
    fn dead_pf_tx_errors_out_and_releases_sender() {
        // Standard driver on a dead PF has nowhere to fail over to: the
        // descriptors come back as error completions and the socket's
        // in-flight accounting drains instead of wedging.
        let (mut host, pfs) = build(DriverModel::Standard);
        let th = host.spawn_thread(0);
        let flow = client_flow(3003);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        fault(&mut host, Time::from_us(1), pfs[0], FaultKind::PfFail);
        let (r, outs) = send(&mut host, Time::from_us(2), sock, 2000);
        assert!(matches!(r, SendOutcome::Sent { .. }), "{r:?}");
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, HostOut::PacketToPeer { .. })),
            "nothing reaches the wire through a dead PF"
        );
        assert_eq!(host.socket(sock).tx_inflight, 2000);
        // The error completions land immediately; the watchdog polls them.
        let wd_at = Time::from_us(2) + host.config().watchdog_timeout + Dur::from_us(50);
        for o in watchdog(&mut host, wd_at) {
            if let HostOut::Irq { at, queue, .. } = o {
                irq(&mut host, at, queue);
            }
        }
        assert_eq!(host.socket(sock).tx_inflight, 0, "sender released");
        assert!(host.robustness().tx_error_completions >= 1);
    }

    #[test]
    fn remote_socket_rx_is_slower_than_local() {
        // The end-to-end NUDMA effect through the whole kernel path: same
        // workload, thread on node 0 vs node 1, standard driver, netdev 0
        // (PF0 on node 0).
        let elapsed = |core: usize| -> Dur {
            let (mut host, _) = build(DriverModel::Standard);
            let th = host.spawn_thread(core);
            let flow = client_flow(2000);
            let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
            let mut t = Time::ZERO;
            let mut app_time = Dur::ZERO;
            for seq in 0..64u64 {
                t += Dur::from_us(3);
                let outs = wire(&mut host, t, flow, 1448, seq);
                for o in outs {
                    if let HostOut::Irq { at, queue, .. } = o {
                        irq(&mut host, at, queue);
                    }
                }
                if let RecvOutcome::Data { done_at, .. } =
                    host.recv(t + Dur::from_us(1), sock, 1 << 20)
                {
                    app_time += done_at.since(t + Dur::from_us(1));
                }
            }
            app_time
        };
        let local = elapsed(0);
        let remote = elapsed(14);
        assert!(
            remote > local,
            "remote kernel path must cost more: local={local} remote={remote}"
        );
    }

    #[test]
    fn audit_stays_clean_through_traffic_and_faults() {
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(4000);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let mut t = Time::ZERO;
        for seq in 0..32u64 {
            t += Dur::from_us(3);
            if seq == 10 {
                fault(&mut host, t, pfs[0], FaultKind::PfFail);
            }
            if seq == 20 {
                fault(&mut host, t, pfs[0], FaultKind::PfRecover);
            }
            for o in wire(&mut host, t, flow, 1448, seq) {
                if let HostOut::Irq { at, queue, .. } = o {
                    irq(&mut host, at, queue);
                }
            }
            send(&mut host, t, sock, 4096);
            host.recv(t + Dur::from_us(1), sock, 1 << 20);
            let mut a = Audit::new();
            host.audit(&mut a);
            assert!(a.ok(), "step {seq}: {:?}", a.violations());
        }
        // Drain in-flight Tx so the pools settle, then audit once more.
        for qi in 0..host.queue_pf.len() {
            irq(&mut host, t + Dur::from_ms(1), QueueId(qi));
        }
        let mut a = Audit::new();
        host.audit(&mut a);
        assert!(a.ok(), "{:?}", a.violations());
        assert!(a.checks() > 0);
    }

    #[test]
    fn sabotaged_failover_trips_the_pool_audit() {
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let _sock = host.open_socket(Time::ZERO, th, client_flow(4001), NetdevId(0));
        let mut a = Audit::new();
        host.audit(&mut a);
        assert!(a.ok(), "clean before sabotage: {:?}", a.violations());
        host.debug_break_recovery();
        fault(&mut host, Time::from_ms(1), pfs[0], FaultKind::PfFail);
        let mut a = Audit::new();
        host.audit(&mut a);
        assert!(!a.ok(), "the leaked buffer must be caught");
        assert!(
            a.violations()
                .iter()
                .any(|v| v.check == "tx-pool-conservation"),
            "{:?}",
            a.violations()
        );
    }

    #[test]
    fn media_fault_is_absorbed_by_a_nic_only_host() {
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        fault(
            &mut host,
            Time::ZERO,
            pfs[0],
            FaultKind::MediaFault { errors: 3 },
        );
        assert_eq!(host.robustness().faults_applied, 1);
        let mut a = Audit::new();
        host.audit(&mut a);
        assert!(a.ok(), "{:?}", a.violations());
    }

    #[test]
    fn service_survives_total_pf_loss_then_readd() {
        // The acceptance scenario: PF0 is surprise-removed outright (total
        // loss of the function, not a transient link/PF fault). The host
        // transparently enters legacy NUDMA mode — every flow rides the
        // remote survivor — and on re-enumeration returns to uniform
        // IOctopus mode behind the same fence.
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(5000);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let mac = host.netdev_mac(NetdevId(0));
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[0]);

        fault(
            &mut host,
            Time::from_ms(1),
            pfs[0],
            FaultKind::SurpriseRemove,
        );
        assert_eq!(host.nic.pf_epoch(pfs[0]), 1, "epoch retired");
        assert!(!host.fabric.present(pfs[0]), "endpoint gone");
        assert_eq!(host.robustness().reconfigs, 1);
        assert_eq!(host.robustness().nudma_entries, 1, "legacy NUDMA mode");

        // Service stays alive through the survivor: Rx delivers end to end.
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[1]);
        let outs = wire(&mut host, Time::from_ms(2), flow, 1448, 0);
        let (at, q) = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, .. } => Some((*at, *queue)),
                _ => None,
            })
            .expect("delivered via the surviving PF");
        assert_eq!(host.queue_pf[q.0], pfs[1], "NUDMA: remote PF carries it");
        irq(&mut host, at, q);
        match host.recv(at + Dur::from_us(50), sock, 1 << 20) {
            RecvOutcome::Data { bytes, .. } => assert_eq!(bytes, 1448),
            o => panic!("{o:?}"),
        }
        // Tx keeps flowing too (XPS failover onto the survivor's queue).
        let (r, outs) = send(&mut host, Time::from_ms(3), sock, 2000);
        assert!(matches!(r, SendOutcome::Sent { .. }), "{r:?}");
        assert!(
            outs.iter()
                .any(|o| matches!(o, HostOut::PacketToPeer { .. })),
            "degraded-mode Tx reaches the wire"
        );

        // Re-add: fresh epoch, steering pulled home, uniform mode restored.
        fault(&mut host, Time::from_ms(4), pfs[0], FaultKind::Reenumerate);
        assert_eq!(host.nic.pf_epoch(pfs[0]), 2, "fresh epoch on re-add");
        assert!(host.fabric.present(pfs[0]));
        assert_eq!(host.robustness().reconfigs, 2);
        assert_eq!(host.robustness().nudma_exits, 1, "uniform mode restored");
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[0], "pulled home");
        // Past the retrain window, PF0 carries traffic again.
        let outs = wire(&mut host, Time::from_ms(6), flow, 1448, 1);
        let (at, q) = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, .. } => Some((*at, *queue)),
                _ => None,
            })
            .expect("delivered via the re-added PF");
        assert_eq!(host.queue_pf[q.0], pfs[0]);
        irq(&mut host, at, q);
        match host.recv(at + Dur::from_us(50), sock, 1 << 20) {
            RecvOutcome::Data { bytes, .. } => assert_eq!(bytes, 1448),
            o => panic!("{o:?}"),
        }
        let mut a = Audit::new();
        host.audit(&mut a);
        assert!(a.ok(), "{:?}", a.violations());
    }

    #[test]
    fn surprise_remove_drains_inflight_tx_and_wakes_sender() {
        // Descriptors stranded in the ring by a dead doorbell are flushed
        // by the removal with the dying epoch; the drain phase fences them
        // — resources reclaimed, blocked sender woken, but none counted as
        // driver-visible Tx errors.
        let (mut host, pfs) = build(DriverModel::Standard);
        let th = host.spawn_thread(0);
        let flow = client_flow(5001);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        fault(&mut host, Time::from_us(1), pfs[0], FaultKind::LinkDown);
        let mut t = Time::from_us(2);
        let mut blocked = false;
        for _ in 0..200 {
            match send(&mut host, t, sock, 64 * 1024).0 {
                SendOutcome::Sent { done_at } => t = done_at,
                SendOutcome::WouldBlock => {
                    blocked = true;
                    break;
                }
            }
        }
        assert!(blocked, "sndbuf must fill against the dead doorbell");
        assert!(host.socket(sock).tx_inflight > 0);

        let outs = fault(
            &mut host,
            t + Dur::from_us(1),
            pfs[0],
            FaultKind::SurpriseRemove,
        );
        assert_eq!(host.socket(sock).tx_inflight, 0, "drained at quiesce");
        assert!(host.robustness().fenced_completions > 0);
        assert_eq!(
            host.robustness().tx_error_completions,
            0,
            "fenced, not errored"
        );
        assert!(
            outs.iter().any(|o| matches!(o, HostOut::Wake { .. })),
            "blocked sender released by the drain"
        );
        let mut a = Audit::new();
        host.audit(&mut a);
        assert!(
            a.ok(),
            "pool accounting survives the drain: {:?}",
            a.violations()
        );
    }

    #[test]
    fn late_completion_is_fenced_not_delivered() {
        // A packet's CQE DMA is still in flight when the PF vanishes: the
        // entry lands *after* the quiesce point and must be counted and
        // discarded — its buffer recycled, nothing reaching the socket.
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(5002);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let t0 = Time::from_us(5);
        let outs = wire(&mut host, t0, flow, 1448, 0);
        let (irq_at, q, stamped) = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, epoch } => Some((*at, *queue, *epoch)),
                _ => None,
            })
            .expect("irq scheduled");
        assert_eq!(stamped, 0, "raised under the original epoch");
        // The removal lands between the DMA and its visibility: the drain
        // phase must leave the un-landed entry in place.
        fault(
            &mut host,
            t0 + Dur::from_ns(1),
            pfs[0],
            FaultKind::SurpriseRemove,
        );
        assert_eq!(host.nic.rx_cq_depth(q), 1, "late CQE still in flight");
        // The stale-stamped interrupt itself is fenced…
        let mut out = OutBuf::new();
        host.irq_stamped(irq_at, q, stamped, &mut out);
        assert_eq!(host.robustness().fenced_irqs, 1);
        assert_eq!(host.nic.rx_cq_depth(q), 1, "fenced irq never polled");
        // …and when the watchdog polls the queue, the completion is fenced
        // at the CQE level: counted, recycled, never delivered.
        let wd_at = irq_at + host.config().watchdog_timeout + Dur::from_us(50);
        for o in watchdog(&mut host, wd_at) {
            if let HostOut::Irq { at, queue, epoch } = o {
                host.irq_stamped(at, queue, epoch, &mut OutBuf::new());
            }
        }
        assert_eq!(host.nic.rx_cq_depth(q), 0, "reaped through the fence");
        assert!(host.robustness().fenced_completions >= 1);
        assert!(matches!(
            host.recv(wd_at + Dur::from_us(50), sock, 1 << 20),
            RecvOutcome::WouldBlock
        ));
        assert_eq!(host.socket(sock).rx_bytes, 0, "never delivered");
        let mut a = Audit::new();
        host.audit(&mut a);
        assert!(a.ok(), "{:?}", a.violations());
    }

    #[test]
    fn unpaired_reenumerate_is_harmless() {
        // Campaigns can fire a Reenumerate with no preceding removal: the
        // fabric treats it as idempotent, no epoch advances, and no live
        // completion may be fenced.
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(5003);
        let sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let outs = wire(&mut host, Time::from_us(5), flow, 1448, 0);
        fault(&mut host, Time::from_us(6), pfs[0], FaultKind::Reenumerate);
        assert_eq!(host.nic.pf_epoch(pfs[0]), 0, "no epoch churn");
        assert_eq!(host.robustness().reconfigs, 0);
        let (at, q) = outs
            .iter()
            .find_map(|o| match o {
                HostOut::Irq { at, queue, .. } => Some((*at, *queue)),
                _ => None,
            })
            .unwrap();
        irq(&mut host, at, q);
        match host.recv(at + Dur::from_us(50), sock, 1 << 20) {
            RecvOutcome::Data { bytes, .. } => assert_eq!(bytes, 1448),
            o => panic!("{o:?}"),
        }
        assert_eq!(host.robustness().fenced_completions, 0);
    }

    #[test]
    fn steering_reinstall_retries_until_control_path_returns() {
        let (mut host, pfs) = build(DriverModel::OctoTeam);
        let th = host.spawn_thread(0);
        let flow = client_flow(4002);
        let _sock = host.open_socket(Time::ZERO, th, flow, NetdevId(0));
        let mac = host.netdev_mac(NetdevId(0));
        // PF0 fails and its link goes down; the flow fails over to PF1.
        fault(&mut host, Time::from_us(1), pfs[0], FaultKind::LinkDown);
        fault(&mut host, Time::from_us(2), pfs[0], FaultKind::PfFail);
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[1]);
        // The PF recovers while its link is still down: the reinstall MMIO
        // vanishes, so the flow must stay on the survivor for now.
        fault(&mut host, Time::from_us(3), pfs[0], FaultKind::PfRecover);
        assert_eq!(
            host.nic.mpfs().steer(mac, &flow),
            pfs[1],
            "control path dead"
        );
        // Watchdog retry against the dead link also fails, with backoff.
        watchdog(&mut host, Time::from_us(50));
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[1]);
        assert_eq!(host.robustness().steering_reinstall_retries, 1);
        // Link retrains; the next retry past the backoff pulls the flow home.
        fault(&mut host, Time::from_ms(1), pfs[0], FaultKind::LinkRecover);
        watchdog(&mut host, Time::from_ms(2));
        assert_eq!(host.nic.mpfs().steer(mac, &flow), pfs[0], "pulled home");
        assert!(host.robustness().steering_reinstalls >= 1);
        let mut a = Audit::new();
        host.audit(&mut a);
        assert!(a.ok(), "{:?}", a.violations());
    }
}
