//! The memory-system façade: every CPU access and device DMA goes through
//! [`MemSystem`], which accounts cache state, DRAM/interconnect bandwidth,
//! and returns how long the access stalls the initiator.
//!
//! # Uncontended-stall memoization
//!
//! The stall returned for a DMA or CPU access decomposes into (a) state
//! transitions — LLC probes/inserts/invalidations, byte counters, link
//! busy-horizon advances — which always execute, and (b) arithmetic that is
//! a pure function of `(initiator node, home node, access kind, line
//! classification)` *whenever the touched links are idle*. A small
//! generation-stamped table ([`StallMemo`]) caches (b), turning the common
//! steady-state case (links drained between packets) into a single hash
//! lookup instead of several `u128` bandwidth divisions. Lookups are gated
//! on link idleness (`queue_delay == 0`), so congestion always takes the
//! exact slow path; the generation is bumped whenever DDIO/LLC configuration
//! changes. In debug builds every replayed reservation re-checks its
//! serialization time against the uncached formula (see
//! `BwLink::reserve_precomputed`), so the memo cannot silently diverge.

use simcore::{Dur, FxHashMap, Time};

use crate::alloc::PhysAllocator;
use crate::cache::{LineState, Llc, LlcConfig};
use crate::counters::Counters;
use crate::dram::{DramConfig, DramGroup};
use crate::interconnect::{Interconnect, InterconnectConfig};
use crate::topology::{NodeId, PhysAddr, Topology, LINE_BYTES};

/// How an access overlaps with other work, which controls how much of the
/// miss latency is *exposed* to the initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Dependent access (pointer chase, descriptor poll): the full miss
    /// latency stalls the initiator. The paper's ~80 ns completion-entry
    /// read (§5.1.1) is this kind.
    Pointer,
    /// Sequential bulk access (payload copy, STREAM): hardware prefetchers
    /// and DMA pipelining hide most of the latency; only bandwidth and a
    /// small latency fraction are exposed.
    Stream,
}

/// Full machine memory configuration.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// NUMA layout.
    pub topology: Topology,
    /// Per-socket LLC geometry.
    pub llc: LlcConfig,
    /// Per-node DRAM channels.
    pub dram: DramConfig,
    /// Socket interconnect.
    pub interconnect: InterconnectConfig,
    /// Simulated memory per node.
    pub bytes_per_node: u64,
    /// Whether Data Direct I/O is enabled (Figure 9's `nd` configs turn it
    /// off).
    pub ddio: bool,
    /// LLC hit latency (L3 load-to-use).
    pub llc_hit_latency: Dur,
    /// Effective streaming bandwidth out of the LLC, bytes/second.
    pub llc_bytes_per_sec: u64,
    /// Cross-socket snoop penalty for cache-to-cache transfers.
    pub snoop_latency: Dur,
    /// Fraction of miss latency exposed on [`AccessKind::Stream`] accesses.
    pub stream_overlap: f64,
    /// Maximum streaming bandwidth a single thread can extract
    /// (latency × miss-parallelism bound: ~10 line-fill buffers ÷ ~100 ns
    /// round trip ≈ 6-9 GB/s on these parts). Shared-resource congestion
    /// can push a thread below this; it can never exceed it.
    pub single_thread_stream_bps: u64,
}

impl MemConfig {
    /// The paper's networking testbed (§5): 2× 14-core Broadwell, 4 DDR4
    /// DIMMs per socket, two 9.6 GT/s QPI links.
    pub fn dual_socket_broadwell() -> Self {
        MemConfig {
            topology: Topology::new(2, 14),
            llc: LlcConfig::broadwell_14c(),
            dram: DramConfig::ddr4_broadwell(),
            interconnect: InterconnectConfig::qpi_broadwell_2links(),
            bytes_per_node: 8 << 30,
            ddio: true,
            llc_hit_latency: Dur::from_ns(18),
            llc_bytes_per_sec: 150_000_000_000,
            snoop_latency: Dur::from_ns(30),
            stream_overlap: 0.45,
            single_thread_stream_bps: 8_000_000_000,
        }
    }

    /// The paper's NVMe testbed (§5.4): 2× 24-core Skylake, 6 DDR4 channels
    /// per socket, two 10.4 GT/s UPI links.
    pub fn dual_socket_skylake() -> Self {
        MemConfig {
            topology: Topology::new(2, 24),
            llc: LlcConfig {
                capacity_bytes: 33 * 1024 * 1024,
                ways: 11,
                ddio_ways: 2,
            },
            dram: DramConfig::ddr4_skylake(),
            interconnect: InterconnectConfig::upi_skylake_2links(),
            bytes_per_node: 8 << 30,
            ddio: true,
            llc_hit_latency: Dur::from_ns(20),
            llc_bytes_per_sec: 170_000_000_000,
            snoop_latency: Dur::from_ns(32),
            stream_overlap: 0.45,
            single_thread_stream_bps: 9_000_000_000,
        }
    }
}

/// Memo-key path discriminants (which formula produced the entry).
const MEMO_DMA_WRITE_DDIO: u8 = 0;
const MEMO_DMA_WRITE_DRAM: u8 = 1;
const MEMO_DMA_READ_LOCAL: u8 = 2;
const MEMO_DMA_READ_REMOTE: u8 = 3;
const MEMO_CPU_PTR: u8 = 4;
const MEMO_CPU_STREAM: u8 = 5;

/// A memoized uncontended access: the serialization times to replay on the
/// idle links plus the exposed stall to return.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// Generation at insert time; stale entries are ignored on lookup.
    gen: u64,
    /// DRAM-link serialization time for the access's DRAM bytes.
    d_xfer: Dur,
    /// Interconnect serialization time (`ZERO` when nothing crosses).
    q_xfer: Dur,
    /// The stall returned to the initiator.
    exposed: Dur,
}

/// Small generation-stamped table of uncontended stall computations.
///
/// Keys pack `(path, node a, node b, line classification)` into a `u64`;
/// invalidation is lazy — bumping the generation orphans every existing
/// entry without touching the map.
#[derive(Debug, Default)]
struct StallMemo {
    gen: u64,
    entries: FxHashMap<u64, MemoEntry>,
    hits: u64,
    misses: u64,
}

impl StallMemo {
    /// Bound on live + orphaned entries; crossing it clears the table (the
    /// working set of distinct access shapes is far smaller).
    const MAX_ENTRIES: usize = 4096;

    fn key(path: u8, a: usize, b: usize, n: u64) -> u64 {
        debug_assert!(a < 256 && b < 256 && n < 1 << 40);
        (path as u64) << 56 | (a as u64) << 48 | (b as u64) << 40 | n
    }

    fn get(&mut self, key: u64) -> Option<MemoEntry> {
        match self.entries.get(&key) {
            Some(e) if e.gen == self.gen => {
                self.hits += 1;
                Some(*e)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, key: u64, d_xfer: Dur, q_xfer: Dur, exposed: Dur) {
        if self.entries.len() >= Self::MAX_ENTRIES {
            self.entries.clear();
        }
        self.entries.insert(
            key,
            MemoEntry {
                gen: self.gen,
                d_xfer,
                q_xfer,
                exposed,
            },
        );
    }

    fn invalidate(&mut self) {
        self.gen = self.gen.wrapping_add(1);
    }
}

/// The machine's memory system: LLCs, DRAM, interconnect, and allocator.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    llcs: Vec<Llc>,
    dram: Vec<DramGroup>,
    qpi: Interconnect,
    alloc: PhysAllocator,
    memo: StallMemo,
    /// Dirty lines a walk evicts, per home node, until
    /// [`flush_writebacks`](Self::flush_writebacks) charges them. All zero
    /// between walks, so a walk that evicts no dirty line skips the flush.
    writebacks: Vec<u64>,
}

impl MemSystem {
    /// Builds the memory system described by `cfg`.
    pub fn new(cfg: MemConfig) -> Self {
        let nodes = cfg.topology.nodes();
        let llcs = (0..nodes).map(|_| Llc::new(cfg.llc, nodes)).collect();
        let dram = (0..nodes).map(|n| DramGroup::new(n, cfg.dram)).collect();
        let qpi = Interconnect::new(nodes, cfg.interconnect);
        let alloc = PhysAllocator::new(nodes, cfg.bytes_per_node);
        MemSystem {
            cfg,
            llcs,
            dram,
            qpi,
            alloc,
            memo: StallMemo::default(),
            writebacks: vec![0; nodes],
        }
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.cfg.topology
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Enables or disables DDIO (Figure 9's `llnd` configuration).
    /// Invalidates the stall memo: cached DMA-write shapes chose their
    /// formula under the old setting.
    pub fn set_ddio(&mut self, on: bool) {
        self.cfg.ddio = on;
        self.memo.invalidate();
    }

    /// `(hits, misses)` of the uncontended-stall memo since construction
    /// (diagnostics and tests).
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo.hits, self.memo.misses)
    }

    /// Whether DDIO is active.
    pub fn ddio(&self) -> bool {
        self.cfg.ddio
    }

    /// Allocates `bytes` of node-local memory.
    pub fn alloc(&mut self, node: NodeId, bytes: u64) -> PhysAddr {
        self.alloc.alloc(node, bytes)
    }

    /// A CPU on `node` reads `len` bytes at `addr`. Returns the stall.
    pub fn cpu_read(
        &mut self,
        now: Time,
        node: NodeId,
        addr: PhysAddr,
        len: u64,
        kind: AccessKind,
    ) -> Dur {
        self.cpu_access(now, node, addr, len, kind, false)
    }

    /// A CPU on `node` writes `len` bytes at `addr`. Returns the stall.
    ///
    /// Writes allocate (read-for-ownership) and leave lines `Modified` in the
    /// local LLC; DRAM sees the traffic later, on eviction.
    pub fn cpu_write(
        &mut self,
        now: Time,
        node: NodeId,
        addr: PhysAddr,
        len: u64,
        kind: AccessKind,
    ) -> Dur {
        self.cpu_access(now, node, addr, len, kind, true)
    }

    fn cpu_access(
        &mut self,
        now: Time,
        node: NodeId,
        addr: PhysAddr,
        len: u64,
        kind: AccessKind,
        write: bool,
    ) -> Dur {
        if len == 0 {
            return Dur::ZERO;
        }
        assert!(len <= 8 << 20, "single access too large: {len}");
        let home = addr.home();
        let lines = addr.lines_spanned(len);
        let (before, rest) = self.llcs.split_at_mut(node.0);
        let (llc, after) = rest.split_first_mut().expect("the node has an LLC");
        let (hit_lines, miss_lines, c2c_lines, dirty_lines) = llc.cpu_walk(
            before,
            after,
            addr.line(),
            lines,
            write,
            &mut self.writebacks,
        );

        // Bandwidth accounting. Writebacks flush first so the memoized
        // early-return below still performs them; this is order-equivalent to
        // flushing last because writebacks touch only DRAM *write* links and
        // outbound (`node -> victim`) interconnect directions, disjoint from
        // the miss path's read link and inbound (`home -> node`) direction.
        let miss_bytes = miss_lines * LINE_BYTES;
        let c2c_bytes = c2c_lines * LINE_BYTES;
        let idle = miss_bytes == 0
            || (self.dram[home.0].read_queue_delay(now) == Dur::ZERO
                && (home == node || self.qpi.queue_delay(now, home, node) == Dur::ZERO));
        if dirty_lines > 0 {
            self.flush_writebacks(now, node);
        }
        // Given the walk's classification, the stall arithmetic is pure when
        // the links are idle — except for cache-to-cache transfers, whose
        // peer snoop loop stays on the slow path.
        let memo_key = if c2c_lines == 0 && idle {
            let path = match kind {
                AccessKind::Pointer => MEMO_CPU_PTR,
                AccessKind::Stream => MEMO_CPU_STREAM,
            };
            let key = StallMemo::key(path, node.0, home.0, hit_lines << 20 | miss_lines);
            if let Some(e) = self.memo.get(key) {
                if miss_bytes > 0 {
                    self.dram[home.0].read_precomputed(now, miss_bytes, e.d_xfer);
                    if home != node {
                        self.qpi
                            .transfer_precomputed(now, home, node, miss_bytes, e.q_xfer);
                    }
                }
                return e.exposed;
            }
            Some(key)
        } else {
            None
        };
        let mut done = now;
        let mut fixed = Dur::ZERO;
        if miss_bytes > 0 {
            // Serial DRAM-then-interconnect path. Every hop is reserved at
            // `now` and the durations are summed: reserving at each hop's
            // own (future) start time would let one congested chain push a
            // link's FIFO horizon ahead of near-term traffic and destabilize
            // the whole fluid model.
            let d_dur = self.dram[home.0].read(now, miss_bytes).since(now);
            fixed = fixed.max(self.cfg.dram.latency);
            let total = if home != node {
                let q_dur = self.qpi.transfer(now, home, node, miss_bytes).since(now);
                fixed = fixed.max(self.cfg.dram.latency + self.qpi.hop_latency());
                d_dur + q_dur
            } else {
                d_dur
            };
            done = done.max(now + total);
        }
        if c2c_bytes > 0 {
            // Dirty data is forwarded peer -> requester (directory-assisted,
            // one interconnect crossing — charged by the transfer below —
            // plus the peer's snoop response time); the implicit writeback
            // hits home DRAM.
            let snoop = self.cfg.snoop_latency;
            for peer in 0..self.llcs.len() {
                if peer != node.0 {
                    let q_dur = self
                        .qpi
                        .transfer(now, NodeId(peer), node, c2c_bytes)
                        .since(now);
                    done = done.max(now + snoop + q_dur);
                    break;
                }
            }
            fixed = fixed.max(snoop);
        }

        let hit_cost = if hit_lines > 0 {
            self.cfg.llc_hit_latency
                + Dur::for_bytes(hit_lines * LINE_BYTES, self.cfg.llc_bytes_per_sec)
        } else {
            Dur::ZERO
        };
        let raw = done.since(now);
        let exposed = match kind {
            AccessKind::Pointer => raw,
            AccessKind::Stream => {
                let hidden = fixed * (1.0 - self.cfg.stream_overlap);
                raw.saturating_sub(hidden)
            }
        };
        let result = hit_cost + exposed;
        if let Some(key) = memo_key {
            let d_xfer = Dur::for_bytes(miss_bytes, self.cfg.dram.bytes_per_sec);
            let q_xfer = if home != node {
                Dur::for_bytes(miss_bytes, self.cfg.interconnect.bytes_per_sec)
            } else {
                Dur::ZERO
            };
            self.memo.put(key, d_xfer, q_xfer, result);
        }
        result
    }

    /// Bulk non-allocating CPU access (the STREAM antagonist): consumes DRAM
    /// and interconnect bandwidth without touching the LLC model. Returns the
    /// stall, which self-limits the antagonist under congestion.
    pub fn cpu_stream_through(
        &mut self,
        now: Time,
        node: NodeId,
        target: NodeId,
        len: u64,
        write: bool,
    ) -> Dur {
        let mut done = if write {
            self.dram[target.0].write(now, len)
        } else {
            self.dram[target.0].read(now, len)
        };
        if target != node {
            let (from, to) = if write {
                (node, target)
            } else {
                (target, node)
            };
            done = done.max(self.qpi.transfer(now, from, to, len));
        }
        let raw = done.since(now);
        let hidden = self.cfg.dram.latency * (1.0 - self.cfg.stream_overlap);
        let floor = Dur::for_bytes(len, self.cfg.single_thread_stream_bps);
        raw.saturating_sub(hidden).max(floor)
    }

    /// A device whose PCIe endpoint attaches to `dev_node` DMA-reads `len`
    /// bytes at `addr` (packet transmission, NVMe write-out). Returns the
    /// memory-side stall of the DMA engine.
    ///
    /// DMA reads never allocate into the LLC. Remote reads probe the home
    /// LLC and DRAM in parallel: the data comes from the LLC when present
    /// (no invalidation), but home-DRAM bandwidth is consumed regardless —
    /// the paper's explanation for Figure 7's remote memory traffic.
    pub fn dma_read(&mut self, now: Time, dev_node: NodeId, addr: PhysAddr, len: u64) -> Dur {
        if len == 0 {
            return Dur::ZERO;
        }
        let home = addr.home();
        let local = dev_node == home;
        let lines = addr.lines_spanned(len);
        let bytes = lines * LINE_BYTES;

        if local {
            // DDIO serves local DMA reads from the LLC when the data is
            // there; only misses touch DRAM. A home LLC that holds no line
            // of its own node cannot hit, so its walk is skipped.
            let llc = &self.llcs[home.0];
            let hit_lines = if llc.holds_home(home) {
                llc.resident_of(addr.line(), lines)
            } else {
                0
            };
            let miss_lines = lines - hit_lines;
            let miss_bytes = miss_lines * LINE_BYTES;
            let idle = miss_lines == 0 || self.dram[home.0].read_queue_delay(now) == Dur::ZERO;
            // The packed key holds two 20-bit line counts; larger accesses
            // (> 64 MB) just skip the memo.
            let memoizable = idle && lines < 1 << 20;
            let key = StallMemo::key(MEMO_DMA_READ_LOCAL, home.0, 0, hit_lines << 20 | miss_lines);
            if memoizable {
                if let Some(e) = self.memo.get(key) {
                    if miss_bytes > 0 {
                        self.dram[home.0].read_precomputed(now, miss_bytes, e.d_xfer);
                    }
                    return e.exposed;
                }
            }
            let mut done = now;
            let mut fixed = Dur::ZERO;
            if miss_lines > 0 {
                done = done.max(self.dram[home.0].read(now, miss_bytes));
                fixed = fixed.max(self.cfg.dram.latency);
            }
            if hit_lines > 0 {
                fixed = fixed.max(self.cfg.llc_hit_latency);
            }
            let raw = done.since(now);
            let exposed = raw.saturating_sub(fixed * (1.0 - self.cfg.stream_overlap));
            if memoizable {
                let d_xfer = Dur::for_bytes(miss_bytes, self.cfg.dram.bytes_per_sec);
                self.memo.put(key, d_xfer, Dur::ZERO, exposed);
            }
            exposed
        } else {
            // Parallel probe: DRAM read bandwidth for the full payload, LLC
            // data used when present (no invalidation, no downgrade). The
            // data then crosses the interconnect to the device's socket.
            // Both hops reserved at `now`, durations summed (see cpu_access).
            // Because the full payload is charged whether or not the home
            // LLC holds it, the stall is independent of cache content — the
            // per-line walk is skipped entirely (`peek` is side-effect-free).
            let idle = self.dram[home.0].read_queue_delay(now) == Dur::ZERO
                && self.qpi.queue_delay(now, home, dev_node) == Dur::ZERO;
            let key = StallMemo::key(MEMO_DMA_READ_REMOTE, home.0, dev_node.0, lines);
            if idle {
                if let Some(e) = self.memo.get(key) {
                    self.dram[home.0].read_precomputed(now, bytes, e.d_xfer);
                    self.qpi
                        .transfer_precomputed(now, home, dev_node, bytes, e.q_xfer);
                    return e.exposed;
                }
            }
            let d_dur = self.dram[home.0].read(now, bytes).since(now);
            let q_dur = self.qpi.transfer(now, home, dev_node, bytes).since(now);
            let raw = d_dur + q_dur;
            let fixed = self.cfg.dram.latency + self.qpi.hop_latency();
            let exposed = raw.saturating_sub(fixed * (1.0 - self.cfg.stream_overlap));
            if idle {
                let d_xfer = Dur::for_bytes(bytes, self.cfg.dram.bytes_per_sec);
                let q_xfer = Dur::for_bytes(bytes, self.cfg.interconnect.bytes_per_sec);
                self.memo.put(key, d_xfer, q_xfer, exposed);
            }
            exposed
        }
    }

    /// A device attached to `dev_node` DMA-writes `len` bytes at `addr`
    /// (packet reception, completion entries, NVMe read returns). Returns
    /// the memory-side stall of the DMA engine.
    ///
    /// Local + DDIO: allocates into the local LLC's DDIO ways, no DRAM
    /// traffic. Otherwise: invalidates cached copies and writes the home
    /// DRAM across the interconnect (§2.3: "L will have to be invalidated
    /// before the NIC is able to DMA-write it").
    pub fn dma_write(&mut self, now: Time, dev_node: NodeId, addr: PhysAddr, len: u64) -> Dur {
        if len == 0 {
            return Dur::ZERO;
        }
        let home = addr.home();
        let local = dev_node == home;
        let lines = addr.lines_spanned(len);
        let bytes = lines * LINE_BYTES;

        if local && self.cfg.ddio {
            // Peers first: the passes touch only peers and the fill only the
            // home LLC, so the order changes no state.
            self.invalidate_copies(addr.line(), lines, home, Some(home));
            if self.llcs[home.0].ddio_fill(addr.line(), lines, &mut self.writebacks) > 0 {
                self.flush_writebacks(now, home);
            }
            // The stall is pure in `lines` (no bandwidth server on this
            // path), so the memo needs no idleness gate.
            let key = StallMemo::key(MEMO_DMA_WRITE_DDIO, home.0, 0, lines);
            if let Some(e) = self.memo.get(key) {
                return e.exposed;
            }
            let raw = Dur::for_bytes(bytes, self.cfg.llc_bytes_per_sec);
            let fixed = self.cfg.llc_hit_latency;
            let exposed = raw.saturating_sub(fixed * (1.0 - self.cfg.stream_overlap));
            self.memo.put(key, Dur::ZERO, Dur::ZERO, exposed);
            exposed
        } else {
            self.invalidate_copies(addr.line(), lines, home, None);
            let idle = self.dram[home.0].write_queue_delay(now) == Dur::ZERO
                && (local || self.qpi.queue_delay(now, dev_node, home) == Dur::ZERO);
            let key = StallMemo::key(MEMO_DMA_WRITE_DRAM, dev_node.0, home.0, lines);
            if idle {
                if let Some(e) = self.memo.get(key) {
                    if !local {
                        self.qpi
                            .transfer_precomputed(now, dev_node, home, bytes, e.q_xfer);
                    }
                    self.dram[home.0].write_precomputed(now, bytes, e.d_xfer);
                    return e.exposed;
                }
            }
            // The write crosses the interconnect first (for a remote home),
            // then drains into the home DRAM. Hops reserved at `now`,
            // durations summed (see cpu_access).
            let mut fixed = Dur::ZERO;
            let q_dur = if local {
                Dur::ZERO
            } else {
                fixed = fixed.max(self.qpi.hop_latency());
                self.qpi.transfer(now, dev_node, home, bytes).since(now)
            };
            let d_dur = self.dram[home.0].write(now, bytes).since(now);
            fixed += self.cfg.dram.latency;
            let raw = q_dur + d_dur;
            let exposed = raw.saturating_sub(fixed * (1.0 - self.cfg.stream_overlap));
            if idle {
                let q_xfer = if local {
                    Dur::ZERO
                } else {
                    Dur::for_bytes(bytes, self.cfg.interconnect.bytes_per_sec)
                };
                let d_xfer = Dur::for_bytes(bytes, self.cfg.dram.bytes_per_sec);
                self.memo.put(key, d_xfer, q_xfer, exposed);
            }
            exposed
        }
    }

    /// Extra latency a CPU-initiated MMIO (doorbell) pays when the device
    /// hangs off a different socket than the issuing core.
    pub fn mmio_extra_hops(&self, core_node: NodeId, dev_node: NodeId) -> Dur {
        if core_node == dev_node {
            Dur::ZERO
        } else {
            self.qpi.hop_latency()
        }
    }

    /// Extra latency an interrupt pays to reach a core on another socket.
    pub fn interrupt_extra_hops(&self, dev_node: NodeId, core_node: NodeId) -> Dur {
        self.mmio_extra_hops(core_node, dev_node)
    }

    /// A traffic snapshot since the last [`reset_counters`](Self::reset_counters).
    pub fn counters(&self) -> Counters {
        Counters {
            dram_reads: self.dram.iter().map(DramGroup::read_bytes).collect(),
            dram_writes: self.dram.iter().map(DramGroup::write_bytes).collect(),
            interconnect_bytes: self.qpi.total_bytes(),
            llc_hits: self.llcs.iter().map(Llc::hits).sum(),
            llc_misses: self.llcs.iter().map(Llc::misses).sum(),
        }
    }

    /// Publishes the memory system's traffic counters into a per-run
    /// metric snapshot.
    pub fn publish_metrics(&self, s: &mut telemetry::Snapshot) {
        let c = self.counters();
        s.push(
            "mem.dram_bytes",
            c.dram_reads.iter().sum::<u64>() + c.dram_writes.iter().sum::<u64>(),
        );
        s.push("mem.interconnect_bytes", c.interconnect_bytes);
        s.push("mem.llc_hits", c.llc_hits);
        s.push("mem.llc_misses", c.llc_misses);
        let (hits, misses) = self.memo_stats();
        s.push("mem.stall_memo_hits", hits);
        s.push("mem.stall_memo_misses", misses);
    }

    /// Resets traffic counters at a measurement-window boundary.
    pub fn reset_counters(&mut self) {
        for d in &mut self.dram {
            d.reset_counters();
        }
        self.qpi.reset_counters();
    }

    /// The coherence state of the line containing `addr` in `node`'s LLC,
    /// if cached (diagnostics and invariant tests).
    pub fn peek_line(&self, node: NodeId, addr: PhysAddr) -> Option<LineState> {
        self.llcs[node.0].peek(addr)
    }

    /// Drops every copy of the `lines` lines from `first`, all of home
    /// `home`, from each LLC but `keep`'s (a device write overwrites whole
    /// lines, so dirty data is simply superseded). One pass per LLC that
    /// holds a line of `home`; the others hold none of these lines and are
    /// skipped.
    fn invalidate_copies(&mut self, first: u64, lines: u64, home: NodeId, keep: Option<NodeId>) {
        for (node, llc) in self.llcs.iter_mut().enumerate() {
            if Some(NodeId(node)) != keep && llc.holds_home(home) {
                llc.invalidate_lines(first, lines);
            }
        }
    }

    /// Charges the accumulated writebacks to DRAM (and the interconnect for
    /// remote homes) and zeroes the accumulator.
    fn flush_writebacks(&mut self, now: Time, from: NodeId) {
        for node in 0..self.writebacks.len() {
            let lines = std::mem::take(&mut self.writebacks[node]);
            if lines > 0 {
                let bytes = lines * LINE_BYTES;
                self.dram[node].write(now, bytes);
                if node != from.0 {
                    self.qpi.transfer(now, from, NodeId(node), bytes);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::dual_socket_broadwell())
    }

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    #[test]
    fn local_ddio_write_avoids_dram() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        m.dma_write(Time::ZERO, N0, buf, 1500);
        let c = m.counters();
        assert_eq!(c.dram_write_bytes(N0), 0, "DDIO write must stay in LLC");
        assert_eq!(c.interconnect_bytes, 0);
    }

    #[test]
    fn remote_dma_write_hits_dram_and_qpi() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        m.dma_write(Time::ZERO, N1, buf, 1500);
        let c = m.counters();
        assert!(c.dram_write_bytes(N0) >= 1500);
        assert!(c.interconnect_bytes >= 1500);
    }

    #[test]
    fn ddio_off_local_write_goes_to_dram() {
        let mut m = mem();
        m.set_ddio(false);
        let buf = m.alloc(N0, 4096);
        m.dma_write(Time::ZERO, N0, buf, 1500);
        assert!(m.counters().dram_write_bytes(N0) >= 1500);
    }

    #[test]
    fn cpu_read_after_local_ddio_write_hits_llc() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        m.dma_write(Time::ZERO, N0, buf, 1500);
        m.reset_counters();
        let stall = m.cpu_read(Time::ZERO, N0, buf, 1500, AccessKind::Stream);
        assert_eq!(m.counters().total_dram_bytes(), 0, "all hits");
        assert!(stall < Dur::from_ns(60), "LLC-speed copy, got {stall}");
    }

    #[test]
    fn cpu_read_after_remote_dma_write_misses_to_dram() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        // Device on node 1 writes node 0's buffer: no DDIO, data in DRAM.
        m.dma_write(Time::ZERO, N1, buf, 1500);
        m.reset_counters();
        let stall = m.cpu_read(Time::ZERO, N0, buf, 1500, AccessKind::Stream);
        assert!(m.counters().dram_read_bytes(N0) >= 1500);
        assert!(stall > Dur::from_ns(30), "must stall on DRAM, got {stall}");
    }

    #[test]
    fn remote_dma_read_consumes_dram_despite_llc_hit() {
        // Figure 7's observation: remote Tx memory bandwidth equals the
        // throughput — DRAM is probed in parallel even on LLC hits.
        let mut m = mem();
        let buf = m.alloc(N0, 65536);
        // CPU writes the payload: lines are Modified in LLC0.
        m.cpu_write(Time::ZERO, N0, buf, 4096, AccessKind::Stream);
        m.reset_counters();
        m.dma_read(Time::ZERO, N1, buf, 4096);
        let c = m.counters();
        assert!(
            c.dram_read_bytes(N0) >= 4096,
            "parallel probe consumes DRAM"
        );
        // ... and the line must NOT have been invalidated.
        m.reset_counters();
        let stall = m.cpu_read(Time::ZERO, N0, buf, 4096, AccessKind::Stream);
        assert_eq!(m.counters().total_dram_bytes(), 0, "line still cached");
        assert!(stall < Dur::from_ns(100));
    }

    #[test]
    fn local_dma_read_of_cached_data_avoids_dram() {
        let mut m = mem();
        let buf = m.alloc(N0, 65536);
        m.cpu_write(Time::ZERO, N0, buf, 4096, AccessKind::Stream);
        m.reset_counters();
        m.dma_read(Time::ZERO, N0, buf, 4096);
        assert_eq!(m.counters().dram_read_bytes(N0), 0);
    }

    #[test]
    fn remote_dma_write_invalidates_cached_line() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        m.cpu_write(Time::ZERO, N0, buf, 64, AccessKind::Pointer);
        m.dma_write(Time::ZERO, N1, buf, 64);
        m.reset_counters();
        // Next CPU read must go to DRAM.
        m.cpu_read(Time::ZERO, N0, buf, 64, AccessKind::Pointer);
        assert!(m.counters().dram_read_bytes(N0) >= 64);
    }

    #[test]
    fn local_ddio_write_invalidates_remote_reader_copy() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        m.cpu_read(Time::ZERO, N1, buf, 64, AccessKind::Pointer);
        assert_eq!(m.peek_line(N1, buf), Some(LineState::Shared));
        m.dma_write(Time::ZERO, N0, buf, 64);
        assert_eq!(m.peek_line(N1, buf), None, "node 1's copy must go");
        assert_eq!(m.peek_line(N0, buf), Some(LineState::Modified));
    }

    #[test]
    fn cpu_write_hit_invalidates_peer_copy() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        m.cpu_read(Time::ZERO, N0, buf, 64, AccessKind::Pointer);
        m.cpu_read(Time::ZERO, N1, buf, 64, AccessKind::Pointer);
        assert_eq!(m.peek_line(N1, buf), Some(LineState::Shared));
        m.cpu_write(Time::ZERO, N0, buf, 64, AccessKind::Pointer);
        assert_eq!(m.peek_line(N1, buf), None, "node 1's copy must go");
        assert_eq!(m.peek_line(N0, buf), Some(LineState::Modified));
    }

    #[test]
    fn remote_home_dma_write_invalidates_device_socket_copies() {
        // Device and caching CPU on node 0, buffer on node 1: a non-DDIO
        // write to node 1's DRAM, whose copies sit in the non-home LLC.
        let mut m = mem();
        let buf = m.alloc(N1, 4096);
        m.cpu_read(Time::ZERO, N0, buf, 4096, AccessKind::Stream);
        m.dma_write(Time::ZERO, N0, buf, 4096);
        for off in (0..4096).step_by(LINE_BYTES as usize) {
            assert_eq!(m.peek_line(N0, buf.offset(off)), None, "line at +{off}");
        }
    }

    #[test]
    fn pointer_read_exposes_more_latency_than_stream() {
        let mut m = mem();
        let a = m.alloc(N0, 1 << 20);
        let b = m.alloc(N0, 1 << 20);
        let p = m.cpu_read(Time::ZERO, N0, a, 64, AccessKind::Pointer);
        let s = m.cpu_read(Time::ZERO, N0, b, 64, AccessKind::Stream);
        assert!(p > s, "pointer {p} vs stream {s}");
    }

    #[test]
    fn remote_cpu_read_crosses_qpi() {
        let mut m = mem();
        let buf = m.alloc(N1, 4096);
        let stall = m.cpu_read(Time::ZERO, N0, buf, 64, AccessKind::Pointer);
        let c = m.counters();
        assert!(c.interconnect_bytes >= 64);
        assert!(c.dram_read_bytes(N1) >= 64);
        // Remote miss must cost more than a local one.
        let local = m.alloc(N0, 4096);
        let local_stall = m.cpu_read(Time::ZERO, N0, local, 64, AccessKind::Pointer);
        assert!(stall > local_stall);
    }

    #[test]
    fn dirty_line_migrates_between_sockets() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        m.cpu_write(Time::ZERO, N0, buf, 64, AccessKind::Pointer);
        m.reset_counters();
        // Node 1 reads the dirty line: cache-to-cache, writeback to home.
        m.cpu_read(Time::ZERO, N1, buf, 64, AccessKind::Pointer);
        let c = m.counters();
        assert!(c.dram_write_bytes(N0) >= 64, "implicit writeback");
        // Both sockets now share it; a re-read on node 0 hits.
        m.reset_counters();
        m.cpu_read(Time::ZERO, N0, buf, 64, AccessKind::Pointer);
        assert_eq!(m.counters().total_dram_bytes(), 0);
    }

    #[test]
    fn stream_through_consumes_bandwidth_without_caching() {
        let mut m = mem();
        let stall = m.cpu_stream_through(Time::ZERO, N0, N1, 1 << 20, false);
        let c = m.counters();
        assert!(c.dram_read_bytes(N1) >= 1 << 20);
        assert!(c.interconnect_bytes >= 1 << 20);
        assert!(
            stall > Dur::from_us(20),
            "1 MiB over QPI takes a while: {stall}"
        );
    }

    #[test]
    fn congested_qpi_slows_remote_dma() {
        let mut m = mem();
        let buf = m.alloc(N0, 1 << 20);
        let quiet = m.dma_write(Time::ZERO, N1, buf, 1500);
        // Saturate the device->home direction (node1 -> node0) with ~1 ms of
        // writes from a STREAM-like antagonist on node 1 targeting node 0.
        m.cpu_stream_through(Time::ZERO, N1, N0, 38_400_000, true);
        let buf2 = m.alloc(N0, 1 << 20);
        let congested = m.dma_write(Time::ZERO, N1, buf2, 1500);
        assert!(
            congested > quiet * 10,
            "congestion must slow remote DMA: quiet={quiet} congested={congested}"
        );
    }

    #[test]
    fn mmio_and_interrupt_hops() {
        let m = mem();
        assert_eq!(m.mmio_extra_hops(N0, N0), Dur::ZERO);
        assert!(m.mmio_extra_hops(N0, N1) > Dur::ZERO);
        assert_eq!(m.interrupt_extra_hops(N1, N0), m.mmio_extra_hops(N0, N1));
    }

    #[test]
    fn counters_reset() {
        let mut m = mem();
        let buf = m.alloc(N0, 4096);
        m.dma_write(Time::ZERO, N1, buf, 1500);
        assert!(m.counters().total_dram_bytes() > 0);
        m.reset_counters();
        assert_eq!(m.counters().total_dram_bytes(), 0);
        assert_eq!(m.counters().interconnect_bytes, 0);
    }

    #[test]
    fn memoized_dma_write_stall_matches_fresh() {
        // A replayed access served from the memo must return bit-identical
        // stalls to a fresh system computing the same access uncached, for
        // both DDIO-local and remote (DRAM) paths, DDIO on and off.
        for ddio in [true, false] {
            for dev in [N0, N1] {
                for len in [64u64, 1448, 65536] {
                    let mut warm = mem();
                    warm.set_ddio(ddio);
                    let wb = warm.alloc(N0, 1 << 20);
                    warm.dma_write(Time::ZERO, dev, wb, len);
                    let memoized =
                        warm.dma_write(Time::from_ms(5), dev, wb.offset(256 * 1024), len);
                    let mut cold = mem();
                    cold.set_ddio(ddio);
                    let cb = cold.alloc(N0, 1 << 20);
                    let fresh = cold.dma_write(Time::from_ms(5), dev, cb.offset(256 * 1024), len);
                    assert_eq!(memoized, fresh, "ddio={ddio} dev={dev} len={len}");
                    let (hits, _) = warm.memo_stats();
                    assert!(hits >= 1, "second write must be served from the memo");
                }
            }
        }
    }

    #[test]
    fn memoized_dma_read_stall_matches_fresh() {
        for dev in [N0, N1] {
            for len in [64u64, 1448, 65536] {
                let mut warm = mem();
                let wb = warm.alloc(N0, 1 << 20);
                warm.dma_read(Time::ZERO, dev, wb, len);
                let memoized = warm.dma_read(Time::from_ms(5), dev, wb.offset(256 * 1024), len);
                let mut cold = mem();
                let cb = cold.alloc(N0, 1 << 20);
                let fresh = cold.dma_read(Time::from_ms(5), dev, cb.offset(256 * 1024), len);
                assert_eq!(memoized, fresh, "dev={dev} len={len}");
                let (hits, _) = warm.memo_stats();
                assert!(hits >= 1, "second read must be served from the memo");
            }
        }
    }

    #[test]
    fn memoized_cpu_stall_matches_fresh() {
        for kind in [AccessKind::Pointer, AccessKind::Stream] {
            for target in [N0, N1] {
                let mut warm = mem();
                let wb = warm.alloc(target, 1 << 20);
                warm.cpu_read(Time::ZERO, N0, wb, 4096, kind);
                let memoized =
                    warm.cpu_read(Time::from_ms(5), N0, wb.offset(256 * 1024), 4096, kind);
                let mut cold = mem();
                let cb = cold.alloc(target, 1 << 20);
                let fresh = cold.cpu_read(Time::from_ms(5), N0, cb.offset(256 * 1024), 4096, kind);
                assert_eq!(memoized, fresh, "kind={kind:?} target={target}");
                let (hits, _) = warm.memo_stats();
                assert!(hits >= 1, "second miss-pattern read must hit the memo");
            }
        }
    }

    #[test]
    fn memo_replay_still_consumes_bandwidth() {
        // A memo hit must perform the same byte accounting as the slow path:
        // counters and link meters advance identically.
        let mut m = mem();
        let b = m.alloc(N0, 1 << 20);
        m.dma_write(Time::ZERO, N1, b, 1448);
        let before = m.counters();
        m.dma_write(Time::from_ms(5), N1, b.offset(4096), 1448);
        let (hits, _) = m.memo_stats();
        assert!(hits >= 1);
        let after = m.counters();
        assert_eq!(
            after.dram_write_bytes(N0) - before.dram_write_bytes(N0),
            1472,
            "memo replay must bump DRAM write bytes (23 lines)"
        );
        assert_eq!(
            after.interconnect_bytes - before.interconnect_bytes,
            1472,
            "memo replay must bump interconnect bytes"
        );
    }

    #[test]
    fn memo_bypassed_under_congestion() {
        // With the home write link saturated, the idleness gate must route
        // the access down the exact queueing path, not the memo.
        let mut m = mem();
        let b = m.alloc(N0, 1 << 20);
        let quiet = m.dma_write(Time::ZERO, N1, b, 1448);
        m.cpu_stream_through(Time::from_ms(5), N1, N0, 38_400_000, true);
        let congested = m.dma_write(Time::from_ms(5), N1, b.offset(4096), 1448);
        assert!(
            congested > quiet * 10,
            "congestion must still be modeled exactly: quiet={quiet} congested={congested}"
        );
    }

    #[test]
    fn memo_generation_invalidates_entries() {
        let mut memo = StallMemo::default();
        let k = StallMemo::key(MEMO_DMA_WRITE_DRAM, 1, 0, 23);
        memo.put(k, Dur::from_ns(10), Dur::from_ns(20), Dur::from_ns(30));
        assert!(memo.get(k).is_some());
        memo.invalidate();
        assert!(memo.get(k).is_none(), "stale generation must not be served");
        memo.put(k, Dur::from_ns(1), Dur::from_ns(2), Dur::from_ns(3));
        assert_eq!(memo.get(k).expect("restamped").exposed, Dur::from_ns(3));
    }

    #[test]
    fn zero_length_accesses_free() {
        let mut m = mem();
        let buf = m.alloc(N0, 64);
        assert_eq!(
            m.cpu_read(Time::ZERO, N0, buf, 0, AccessKind::Pointer),
            Dur::ZERO
        );
        assert_eq!(m.dma_write(Time::ZERO, N0, buf, 0), Dur::ZERO);
        assert_eq!(m.dma_read(Time::ZERO, N0, buf, 0), Dur::ZERO);
    }
}
