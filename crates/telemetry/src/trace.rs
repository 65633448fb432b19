//! The span/event tracer: fixed-size sim-time-stamped records in
//! pre-sized per-domain ring buffers.
//!
//! Each emitting component *owns* its ring (`Option<TraceRing>`, `None`
//! until tracing is enabled), which keeps the hot path free of shared
//! handles and keeps the parallel sweep deterministic: a run's records
//! live with the run. At harvest time the rings are collected into a
//! [`TraceSet`] and merged by `(time, domain, seq)` — a total order that
//! does not depend on collection order or thread interleaving.
//!
//! A [`TraceRecord`] is four `u64` arguments plus a kind and timestamp;
//! the meaning of the arguments is fixed per [`TraceKind`] (documented
//! there), so recording never formats, never allocates, and the ring is
//! a flat pre-sized buffer. When the ring wraps, the oldest records are
//! overwritten and counted — a flight-recorder discipline, not a lossy
//! sample.

use simcore::Time;

/// The subsystem a ring belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Domain {
    /// The NIC device model (DMA, steering).
    Nic = 0,
    /// The kernel/driver (IRQ delivery, reconfiguration phases).
    Kernel = 1,
    /// The PCIe fabric.
    Pcie = 2,
    /// The memory system.
    Mem = 3,
    /// The event loop / experiment harness.
    Net = 4,
}

impl Domain {
    /// Stable lowercase name (used by every exporter).
    pub fn name(self) -> &'static str {
        match self {
            Domain::Nic => "nic",
            Domain::Kernel => "kernel",
            Domain::Pcie => "pcie",
            Domain::Mem => "mem",
            Domain::Net => "net",
        }
    }

    /// Parses a name produced by [`Domain::name`].
    pub fn parse(s: &str) -> Option<Domain> {
        Some(match s {
            "nic" => Domain::Nic,
            "kernel" => Domain::Kernel,
            "pcie" => Domain::Pcie,
            "mem" => Domain::Mem,
            "net" => Domain::Net,
            _ => return None,
        })
    }
}

/// What a record describes. The four `u64` arguments (`a..d`) are fixed
/// per kind:
///
/// | kind | a | b | c | d |
/// |---|---|---|---|---|
/// | `FlowSteered` | flow key | PF | queue | 1 if firmware failover |
/// | `DmaRead` | flow key | packed route | landed-at (ps) | bytes |
/// | `DmaWrite` | flow key | packed route | landed-at (ps) | bytes |
/// | `IrqDelivered` | queue | core | epoch | 0 |
/// | `ReconfigPhase` | PF | phase (0 quiesce / 1 drain / 2 rebind) | epoch | mode (0 uniform / 1 NUDMA) |
///
/// The *packed route* of a DMA record is
/// `pf | src_node << 8 | dst_node << 16 | local << 24 | ddio << 25`
/// (`ddio`: 0 miss / 1 hit / 2 not-applicable), built and unpacked by
/// [`DmaRoute`]. The record's own timestamp is the issue time; `c`
/// carries the landing time, so one record covers issued *and* landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A steering rule bound a flow to a PF/queue.
    FlowSteered = 0,
    /// A device-initiated DMA read (descriptor or payload fetch).
    DmaRead = 1,
    /// A device-initiated DMA write (payload or completion landing).
    DmaWrite = 2,
    /// An MSI-X reached its target core and was accepted (not fenced).
    IrqDelivered = 3,
    /// A hotplug reconfiguration phase transition.
    ReconfigPhase = 4,
}

impl TraceKind {
    /// Stable lowercase name (used by every exporter).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::FlowSteered => "flow_steered",
            TraceKind::DmaRead => "dma_read",
            TraceKind::DmaWrite => "dma_write",
            TraceKind::IrqDelivered => "irq_delivered",
            TraceKind::ReconfigPhase => "reconfig_phase",
        }
    }

    /// Parses a name produced by [`TraceKind::name`].
    pub fn parse(s: &str) -> Option<TraceKind> {
        Some(match s {
            "flow_steered" => TraceKind::FlowSteered,
            "dma_read" => TraceKind::DmaRead,
            "dma_write" => TraceKind::DmaWrite,
            "irq_delivered" => TraceKind::IrqDelivered,
            "reconfig_phase" => TraceKind::ReconfigPhase,
            _ => return None,
        })
    }
}

/// DDIO outcome carried in a DMA record's packed route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdioOutcome {
    /// The write allocated into the LLC (local + DDIO enabled).
    Hit,
    /// The access went to DRAM (remote, or DDIO disabled).
    Miss,
    /// Not a DDIO-eligible access (e.g. a read).
    NotApplicable,
}

/// The packed `(pf, src node, dst node, locality, DDIO)` route of a DMA
/// record (field `b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRoute {
    /// The PCIe function the transaction flowed through.
    pub pf: u8,
    /// The NUMA node the PF is attached to.
    pub src_node: u8,
    /// The home node of the target address.
    pub dst_node: u8,
    /// Whether the transaction stayed on the PF's node.
    pub local: bool,
    /// DDIO outcome of the access.
    pub ddio: DdioOutcome,
}

impl DmaRoute {
    /// Packs into a record argument.
    pub fn pack(self) -> u64 {
        let ddio = match self.ddio {
            DdioOutcome::Miss => 0u64,
            DdioOutcome::Hit => 1,
            DdioOutcome::NotApplicable => 2,
        };
        self.pf as u64
            | (self.src_node as u64) << 8
            | (self.dst_node as u64) << 16
            | (self.local as u64) << 24
            | ddio << 25
    }

    /// Unpacks a record argument.
    pub fn unpack(v: u64) -> DmaRoute {
        DmaRoute {
            pf: (v & 0xff) as u8,
            src_node: (v >> 8 & 0xff) as u8,
            dst_node: (v >> 16 & 0xff) as u8,
            local: v >> 24 & 1 == 1,
            ddio: match v >> 25 & 0b11 {
                1 => DdioOutcome::Hit,
                2 => DdioOutcome::NotApplicable,
                _ => DdioOutcome::Miss,
            },
        }
    }
}

/// One trace record: fixed size, no heap, meaning of `a..d` fixed per
/// [`TraceKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated issue time.
    pub t: Time,
    /// Per-ring monotone sequence number (assigned at push; survives
    /// ring wrap, so merged order is total and stable).
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific argument (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific argument.
    pub b: u64,
    /// Kind-specific argument.
    pub c: u64,
    /// Kind-specific argument.
    pub d: u64,
}

/// A pre-sized ring buffer of [`TraceRecord`]s owned by one component.
///
/// `push` never allocates: the backing store is reserved up front and
/// wraps in place, overwriting the oldest records (counted in
/// `overwritten`).
#[derive(Debug, Clone)]
pub struct TraceRing {
    domain: Domain,
    buf: Vec<TraceRecord>,
    cap: usize,
    head: usize,
    next_seq: u64,
    overwritten: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `cap` records (cold path: the one
    /// allocation the tracer ever performs).
    pub fn new(domain: Domain, cap: usize) -> Self {
        assert!(cap > 0, "a trace ring needs capacity");
        TraceRing {
            domain,
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            next_seq: 0,
            overwritten: 0,
        }
    }

    /// The ring's domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Records one event (hot path: branch + indexed store, no
    /// allocation — the buffer was reserved at construction).
    #[inline]
    pub fn push(&mut self, t: Time, kind: TraceKind, a: u64, b: u64, c: u64, d: u64) {
        let r = TraceRecord {
            t,
            seq: self.next_seq,
            kind,
            a,
            b,
            c,
            d,
        };
        self.next_seq += 1;
        if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[self.head] = r;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Records pushed since construction.
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Records lost to ring wrap.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The retained records in seq order (cold path; allocates).
    pub fn drain_sorted(&self) -> Vec<TraceRecord> {
        let mut v = self.buf.clone();
        v.sort_by_key(|r| r.seq);
        v
    }
}

/// A harvested collection of rings, ready for export.
#[derive(Debug, Default)]
pub struct TraceSet {
    rings: Vec<TraceRing>,
}

impl TraceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TraceSet { rings: Vec::new() }
    }

    /// Adds a component's ring.
    pub fn add(&mut self, ring: TraceRing) {
        self.rings.push(ring);
    }

    /// Total records currently retained.
    pub fn retained(&self) -> usize {
        self.rings.iter().map(|r| r.buf.len()).sum()
    }

    /// Total records lost to ring wrap across all rings.
    pub fn overwritten(&self) -> u64 {
        self.rings.iter().map(|r| r.overwritten).sum()
    }

    /// All records merged into the canonical total order:
    /// `(time, domain, seq)`. Collection order of the rings is
    /// irrelevant, so serial and parallel harvests agree bit-for-bit.
    pub fn merged(&self) -> Vec<(Domain, TraceRecord)> {
        let mut out: Vec<(Domain, TraceRecord)> = Vec::with_capacity(self.retained());
        for ring in &self.rings {
            for r in &ring.buf {
                out.push((ring.domain, *r));
            }
        }
        out.sort_by_key(|(d, r)| (r.t, *d, r.seq));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_pack_roundtrip() {
        let r = DmaRoute {
            pf: 1,
            src_node: 0,
            dst_node: 1,
            local: false,
            ddio: DdioOutcome::Hit,
        };
        assert_eq!(DmaRoute::unpack(r.pack()), r);
        let r2 = DmaRoute {
            pf: 0,
            src_node: 1,
            dst_node: 1,
            local: true,
            ddio: DdioOutcome::NotApplicable,
        };
        assert_eq!(DmaRoute::unpack(r2.pack()), r2);
    }

    #[test]
    fn ring_wraps_without_growing() {
        let mut r = TraceRing::new(Domain::Nic, 4);
        for i in 0..10u64 {
            r.push(Time::from_ns(i), TraceKind::DmaRead, i, 0, 0, 0);
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.overwritten(), 6);
        assert!(r.buf.capacity() <= 4, "never grew");
        let kept = r.drain_sorted();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].a, 6, "oldest retained is seq 6");
        assert_eq!(kept[3].a, 9);
    }

    #[test]
    fn merge_order_is_collection_order_independent() {
        let mut a = TraceRing::new(Domain::Nic, 8);
        let mut b = TraceRing::new(Domain::Kernel, 8);
        a.push(Time::from_ns(2), TraceKind::DmaRead, 1, 0, 0, 0);
        b.push(Time::from_ns(1), TraceKind::IrqDelivered, 2, 0, 0, 0);
        a.push(Time::from_ns(1), TraceKind::DmaWrite, 3, 0, 0, 0);

        let mut s1 = TraceSet::new();
        s1.add(a.clone());
        s1.add(b.clone());
        let mut s2 = TraceSet::new();
        s2.add(b);
        s2.add(a);
        assert_eq!(s1.merged(), s2.merged());
        let m = s1.merged();
        assert_eq!(m[0].1.a, 3, "t=1ns nic before kernel (domain order)");
        assert_eq!(m[1].1.a, 2);
        assert_eq!(m[2].1.a, 1);
    }
}
