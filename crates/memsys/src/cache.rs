//! A per-socket last-level cache with a DDIO way partition.
//!
//! The model is set-associative with dense, directly indexed sets (a flat
//! zero-initialized slab of 8-byte way slots, `ways` consecutive slots per
//! set, so first-touching a set never allocates), in MESI-lite: a line is
//! either `Shared` (clean, possibly in several LLCs) or
//! `Modified` (dirty, in exactly one LLC — the [`system`](crate::system)
//! façade enforces that invariant by invalidating other caches).
//!
//! Intel DDIO allocates device writes into a restricted subset of the LLC
//! ways (2 of 20 on the paper's Broadwell parts). Lines allocated on behalf
//! of a device carry the `ddio` flag and compete only for those ways, so
//! device traffic cannot sweep the whole cache — exactly the behaviour that
//! keeps NIC rings hot without destroying application working sets.
//!
//! Each cache also counts its resident lines per home node, which makes
//! it an exact snoop filter: a walk that must drop or downgrade other
//! sockets' copies of a line skips every cache that holds no line of that
//! line's home.

use crate::topology::{NodeId, PhysAddr, LINE_BYTES, NODE_SHIFT};

/// Coherence state of a cached line (MESI-lite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean; may be present in several LLCs.
    Shared,
    /// Dirty; present in exactly one LLC.
    Modified,
}

/// Per-slot metadata bits (see [`Llc::meta`]). Validity is positional —
/// a slot is resident iff it lies below its set's occupancy count — so the
/// metadata only needs state flags and the recency stamp.
const DIRTY: u32 = 1;
const DDIO: u32 = 1 << 1;
/// Bits above the flags hold the slot's 30-bit recency stamp.
const STAMP_SHIFT: u32 = 2;
/// The stamp counter restamps every set when it reaches this value.
const STAMP_END: u32 = 1 << (u32::BITS - STAMP_SHIFT);

/// Low tag bits: the line's set-ring quotient relative to its home's
/// first line. The byte above them holds the home node.
const REL_BITS: u32 = 24;
/// A line number's home node is its bits from here up.
const HOME_LINE_SHIFT: u32 = NODE_SHIFT - LINE_BYTES.trailing_zeros();

/// LLC geometry and sizing.
#[derive(Debug, Clone, Copy)]
pub struct LlcConfig {
    /// Total capacity in bytes (e.g. 35 MiB for a 14-core Broadwell).
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Ways device (DDIO) writes may allocate into.
    pub ddio_ways: usize,
}

impl LlcConfig {
    /// The paper's server CPU: 35 MiB, 20-way, 2 DDIO ways.
    pub fn broadwell_14c() -> Self {
        LlcConfig {
            capacity_bytes: 35 * 1024 * 1024,
            ways: 20,
            ddio_ways: 2,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / LINE_BYTES / self.ways as u64
    }
}

/// A single socket's last-level cache.
///
/// Storage is a flat slab of 8-byte way slots, `cfg.ways` consecutive
/// slots per set, indexed by `line % n_sets`. The DMA and copy paths walk
/// one set per 64-byte line, and the memcached working set fills every set
/// (NVMe reads fill every set's DDIO ways), so the walk is built to scan
/// each set once per line, over as few bytes as possible:
///
/// * Walks take `(tag, set)` pairs from `Llc::walk`: one division for the
///   first line of an access, then a wrap-around increment per line that
///   also moves the tag on when the set index wraps. Every LLC of a
///   machine has the same geometry, so the pair also serves the peer
///   snoops.
/// * A slot holds a 32-bit tag and a 32-bit metadata word. The tag is
///   `home << 24 | (line / n_sets − bases[home])`, where `bases[home]` is
///   the quotient of the home's first line: within a set it names the line
///   exactly, and its top byte is the line's home. A walk asserts once that
///   its last line's relative quotient fits in 24 bits, which holds for
///   any address of a 1 TiB node window at the Broadwell and Skylake
///   geometries.
/// * The metadata word is `DIRTY | DDIO | stamp << 2`. Stamps are only
///   compared within a set, so when the 30-bit counter runs out a cold
///   restamp rewrites each set's stamps as their ranks and restarts the
///   counter above every rank, and every later LRU decision is the one an
///   unbounded counter would make.
/// * The two walks that change what is resident are loops of their own,
///   `cpu_walk` and `ddio_fill`. Each copies the stamp counter, its
///   home's resident-line count and its home's dirty-victim count into
///   locals (`cpu_walk` also the way hint and its hit and miss counts)
///   and writes them back once, when it ends.
/// * Each line searches the resident tags first and looks for an LRU
///   victim only on a miss that fills — and for the DDIO partition's
///   victim only on a DDIO fill. The victim searches take the minimum
///   metadata word with selects, not a branch per comparison. A CPU line
///   first tries the way offset of the previous CPU hit (`hint`):
///   consecutive lines of a walk sit at the same offset of consecutive
///   sets.
/// * The slab is zero-initialized primitive arrays: `vec![0; n]` takes the
///   zeroed-page allocation path, so construction costs five allocator
///   calls regardless of geometry, and no slot is ever allocated lazily
///   during simulation. The arrays never change length, so they are held
///   as boxed slices.
/// * Each set keeps its resident lines packed at the front of its slot
///   range (`lens` holds the per-set count, maintained by swap-remove on
///   invalidation), so scans cover the resident prefix only.
/// * `home_lines` counts the resident lines of each home node exactly, so
///   a snoop or invalidation walk can skip a cache that holds no line of
///   the access's home without scanning a set (`holds_home`). Only
///   `fill_slot`, `invalidate_at` and [`flush_all`](Self::flush_all)
///   change which lines are resident, and they alone change the counts.
#[derive(Debug, Clone)]
pub struct Llc {
    cfg: LlcConfig,
    /// Tag of each way slot; meaningful for the first `lens[set]` slots of
    /// each set's range.
    tags: Box<[u32]>,
    /// Packed slot state: `DIRTY | DDIO | stamp << STAMP_SHIFT`.
    meta: Box<[u32]>,
    /// Resident-line count per set (dense prefix length).
    lens: Box<[u8]>,
    /// Resident-line count per home node, indexed by `NodeId.0`.
    home_lines: Box<[u32]>,
    /// Set-ring quotient of each home node's first line.
    bases: Box<[u64]>,
    n_sets: usize,
    /// The last stamp handed out.
    tick: u32,
    /// Way offset, within its set, of the last CPU probe hit.
    hint: usize,
    hits: u64,
    misses: u64,
}

/// The counters a walk holds in locals while it runs.
struct WalkCounters {
    /// Home node of every line of the walk.
    home: usize,
    /// The LLC's stamp counter.
    tick: u32,
    /// The LLC's resident-line count for `home`.
    resident: u32,
    /// Dirty lines of `home` to write back.
    dirty: u64,
}

impl Llc {
    /// Creates an empty LLC with the given geometry, for a machine of
    /// `nodes` NUMA nodes: every line it holds must have a home below that.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways, DDIO ways exceeding
    /// total ways, or zero sets), or if `nodes` exceeds the tags' 8-bit
    /// home.
    pub fn new(cfg: LlcConfig, nodes: usize) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.ways <= u8::MAX as usize, "occupancy counts are u8");
        assert!(cfg.ddio_ways <= cfg.ways, "DDIO ways cannot exceed total");
        assert!(cfg.sets() > 0, "cache must have at least one set");
        assert!(
            nodes <= 1 << (u32::BITS - REL_BITS),
            "tags hold an 8-bit home"
        );
        let n_sets = cfg.sets() as usize;
        let slots = n_sets * cfg.ways;
        assert!(slots <= u32::MAX as usize, "residency counts are u32");
        Llc {
            cfg,
            tags: vec![0; slots].into_boxed_slice(),
            meta: vec![0; slots].into_boxed_slice(),
            lens: vec![0; n_sets].into_boxed_slice(),
            home_lines: vec![0; nodes].into_boxed_slice(),
            bases: (0..nodes as u64)
                .map(|home| (home << HOME_LINE_SHIFT) / n_sets as u64)
                .collect(),
            n_sets,
            tick: 0,
            hint: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// `(tag, set)` for the `lines` consecutive lines from `first`, all of
    /// one home: one division for the first line, then a step that wraps
    /// the set index and moves the tag to the next quotient as it does.
    ///
    /// # Panics
    /// Panics if the last line's quotient, relative to its home's first
    /// line, does not fit in the tag's 24 bits.
    pub(crate) fn walk(&self, first: u64, lines: u64) -> impl Iterator<Item = (u32, usize)> {
        let n_sets = self.n_sets;
        let (mut tag, mut set) = self.locate(first);
        let end = (self.bases[Self::home_of(tag)] + (1 << REL_BITS)) * n_sets as u64;
        assert!(
            first + lines <= end,
            "walk of {lines} lines from line {first:#x} leaves the LLC's tag range"
        );
        (0..lines).map(move |_| {
            let at = (tag, set);
            set += 1;
            if set == n_sets {
                set = 0;
                tag += 1;
            }
            at
        })
    }

    /// `(tag, set)` of one line, by division.
    ///
    /// # Panics
    /// Panics if the line lies 2²⁴ × `n_sets` lines or more past its home's
    /// first line.
    fn locate(&self, line: u64) -> (u32, usize) {
        let home = line >> HOME_LINE_SHIFT;
        let n_sets = self.n_sets as u64;
        let rel = line / n_sets - self.bases[home as usize];
        assert!(
            rel < 1 << REL_BITS,
            "line {line:#x} is out of the LLC's tag range"
        );
        (
            (home as u32) << REL_BITS | rel as u32,
            (line % n_sets) as usize,
        )
    }

    /// Index into `home_lines` of the home of the line tagged `tag`.
    fn home_of(tag: u32) -> usize {
        (tag >> REL_BITS) as usize
    }

    /// Whether any resident line has home `home`. A cache for which this
    /// is false holds none of the lines a walk over `home`'s memory
    /// visits, so the walk may skip its sets.
    pub(crate) fn holds_home(&self, home: NodeId) -> bool {
        self.home_lines[home.0] != 0
    }

    /// Slot of the line tagged `tag` if it is resident in `set`.
    fn slot_of(&self, set: usize, tag: u32) -> Option<usize> {
        let start = set * self.cfg.ways;
        let resident = &self.tags[start..start + self.lens[set] as usize];
        resident.iter().position(|&t| t == tag).map(|i| start + i)
    }

    fn state_of(meta: u32) -> LineState {
        if meta & DIRTY != 0 {
            LineState::Modified
        } else {
            LineState::Shared
        }
    }

    /// Rewrites each set's stamps as their ranks in the set's recency
    /// order (0 for its LRU line) and returns the stamp counter to restart
    /// from, above every rank. Stamps are only compared within a set, so
    /// every later victim is the one an unbounded counter would pick.
    /// Stamps are unique within a set, so comparing whole metadata words
    /// ranks them.
    #[cold]
    fn restamp(&mut self) -> u32 {
        let mut ranks = [0u32; u8::MAX as usize];
        for set in 0..self.n_sets {
            let start = set * self.cfg.ways;
            let slots = start..start + self.lens[set] as usize;
            let metas = &self.meta[slots.clone()];
            for (rank, &m) in ranks.iter_mut().zip(metas) {
                *rank = metas.iter().filter(|&&other| other < m).count() as u32;
            }
            for (m, &rank) in self.meta[slots].iter_mut().zip(&ranks) {
                *m = *m & (DIRTY | DDIO) | rank << STAMP_SHIFT;
            }
        }
        self.cfg.ways as u32
    }

    /// A fresh recency stamp from a walk's copy of the stamp counter,
    /// shifted into place: above every stamp resident in any set. When the
    /// counter runs out, every set is restamped and the copy restarts.
    #[inline(always)]
    fn stamp(&mut self, tick: &mut u32) -> u32 {
        *tick += 1;
        if *tick == STAMP_END {
            *tick = self.restamp();
        }
        *tick << STAMP_SHIFT
    }

    /// Where a non-DDIO fill of a missing line goes: the first free slot of
    /// `set`, or its LRU line when the set is full. Stamps are unique
    /// within a set, so the smallest metadata word is the LRU line's,
    /// whatever the slot order.
    fn victim(&self, set: usize) -> usize {
        let start = set * self.cfg.ways;
        let len = self.lens[set] as usize;
        if len < self.cfg.ways {
            return start + len;
        }
        let metas = &self.meta[start..start + len];
        let (mut lru, mut oldest) = (0, metas[0]);
        for (i, &m) in metas.iter().enumerate().skip(1) {
            let older = m < oldest;
            oldest = if older { m } else { oldest };
            lru = if older { i } else { lru };
        }
        start + lru
    }

    /// Where a DDIO fill of a missing line goes: the LRU line of the DDIO
    /// partition once it holds `ddio_ways` lines, else where any other
    /// fill would go. One pass counts the partition and finds its LRU
    /// line: a line outside it is keyed above every metadata word, and
    /// `0xFFFF_FFFF` is one, so the keys are 64-bit.
    fn ddio_victim(&self, set: usize) -> usize {
        let start = set * self.cfg.ways;
        let metas = &self.meta[start..start + self.lens[set] as usize];
        let (mut partition, mut lru, mut oldest) = (0, 0, u64::MAX);
        for (i, &m) in metas.iter().enumerate() {
            let ddio = m & DDIO != 0;
            partition += usize::from(ddio);
            let key = u64::from(!ddio) << u32::BITS | u64::from(m);
            let older = key < oldest;
            oldest = if older { key } else { oldest };
            lru = if older { i } else { lru };
        }
        if partition >= self.cfg.ddio_ways {
            debug_assert!(partition > 0, "partition is non-empty when full");
            start + lru
        } else {
            self.victim(set)
        }
    }

    /// The counters of a walk over the lines from `first`, loaded from
    /// this LLC.
    fn begin_walk(&self, first: u64) -> WalkCounters {
        let home = (first >> HOME_LINE_SHIFT) as usize;
        WalkCounters {
            home,
            tick: self.tick,
            resident: self.home_lines[home],
            dirty: 0,
        }
    }

    /// Writes a finished walk's counters back; its dirty victims join
    /// `writebacks`.
    fn end_walk(&mut self, c: WalkCounters, writebacks: &mut [u64]) {
        self.tick = c.tick;
        self.home_lines[c.home] = c.resident;
        writebacks[c.home] += c.dirty;
    }

    /// Puts the line tagged `tag` into `slot` of `set` with metadata `meta`
    /// (flags and a fresh stamp), evicting the slot's line if it is
    /// resident. An evicted line of the walk's home is counted in `c`; one
    /// of another home updates that home's count and `writebacks` at once.
    #[inline(always)]
    fn fill_slot(
        &mut self,
        c: &mut WalkCounters,
        set: usize,
        slot: usize,
        tag: u32,
        meta: u32,
        writebacks: &mut [u64],
    ) {
        if slot < set * self.cfg.ways + self.lens[set] as usize {
            let old = Self::home_of(self.tags[slot]);
            let dirty = u64::from(self.meta[slot] & DIRTY);
            if old == c.home {
                c.resident -= 1;
                c.dirty += dirty;
            } else {
                self.home_lines[old] -= 1;
                writebacks[old] += dirty;
            }
        } else {
            self.lens[set] += 1;
        }
        c.resident += 1;
        self.tags[slot] = tag;
        self.meta[slot] = meta;
    }

    /// A CPU of this LLC's socket reads (or, with `write`, writes) the
    /// `lines` lines from `first`, all of one home; `before` and `after`
    /// are the machine's other LLCs, in node order around this one.
    /// Returns the `(hit, miss, c2c)` line counts: lines found here, lines
    /// served from home memory, and lines forwarded from a peer's dirty
    /// copy. Dirty lines to write back are added to `writebacks` by home.
    ///
    /// A hit takes a fresh stamp; a write hit takes a second one as the
    /// line becomes `Modified` and leaves the DDIO partition, and every
    /// peer that holds a line of the home drops its copy. A miss picks its
    /// victim, then snoops each such peer in node order: a write drops the
    /// peer's copy and a read downgrades it. A `Modified` copy is the only
    /// one (single-writer invariant), so it is forwarded cache to cache
    /// with an implicit writeback to home and the snoop stops there. The
    /// line then fills the victim's slot.
    pub(crate) fn cpu_walk(
        &mut self,
        before: &mut [Llc],
        after: &mut [Llc],
        first: u64,
        lines: u64,
        write: bool,
        writebacks: &mut [u64],
    ) -> (u64, u64, u64) {
        let mut c = self.begin_walk(first);
        let home = c.home;
        let mut hint = self.hint;
        let (mut hit, mut miss, mut c2c) = (0, 0, 0);
        let flags = if write { DIRTY } else { 0 };
        for (tag, set) in self.walk(first, lines) {
            let start = set * self.cfg.ways;
            // A resident slot at the hinted offset with this tag is the one
            // the scan would find, since tags are unique in a set.
            let found = if hint < self.lens[set] as usize && self.tags[start + hint] == tag {
                Some(start + hint)
            } else {
                self.slot_of(set, tag)
            };
            if let Some(slot) = found {
                hint = slot - start;
                hit += 1;
                let stamp = self.stamp(&mut c.tick);
                self.meta[slot] = self.meta[slot] & (DIRTY | DDIO) | stamp;
                if write {
                    // The touch above is stored even so: a restamp at this
                    // stamp ranks the line by it.
                    let stamp = self.stamp(&mut c.tick);
                    self.meta[slot] = DIRTY | stamp;
                    for peer in before.iter_mut().chain(after.iter_mut()) {
                        if peer.home_lines[home] != 0 {
                            peer.invalidate_at(set, tag);
                        }
                    }
                }
                continue;
            }
            let slot = self.victim(set);
            let mut forwarded = false;
            for peer in before.iter_mut().chain(after.iter_mut()) {
                if peer.home_lines[home] == 0 {
                    continue;
                }
                let prior = if write {
                    peer.invalidate_at(set, tag)
                } else {
                    peer.downgrade_at(set, tag)
                };
                if prior == Some(LineState::Modified) {
                    c.dirty += 1;
                    forwarded = true;
                    break;
                }
            }
            if forwarded {
                c2c += 1;
            } else {
                miss += 1;
            }
            let stamp = self.stamp(&mut c.tick);
            self.fill_slot(&mut c, set, slot, tag, flags | stamp, writebacks);
        }
        self.hint = hint;
        self.hits += hit;
        self.misses += miss + c2c;
        self.end_walk(c, writebacks);
        (hit, miss, c2c)
    }

    /// A device DMA-writes the `lines` lines from `first`, all of one home,
    /// into this LLC's DDIO ways: a resident line takes a fresh stamp and
    /// becomes `Modified` and DDIO; a missing one fills the partition's
    /// victim slot as such. Dirty victims are added to `writebacks` by home.
    pub(crate) fn ddio_fill(&mut self, first: u64, lines: u64, writebacks: &mut [u64]) {
        let mut c = self.begin_walk(first);
        for (tag, set) in self.walk(first, lines) {
            match self.slot_of(set, tag) {
                Some(slot) => {
                    let stamp = self.stamp(&mut c.tick);
                    self.meta[slot] = DIRTY | DDIO | stamp;
                }
                None => {
                    let slot = self.ddio_victim(set);
                    let stamp = self.stamp(&mut c.tick);
                    self.fill_slot(&mut c, set, slot, tag, DIRTY | DDIO | stamp, writebacks);
                }
            }
        }
        self.end_walk(c, writebacks);
    }

    /// State of the line tagged `tag` in `set`, without touching recency or
    /// statistics.
    pub(crate) fn peek_at(&self, set: usize, tag: u32) -> Option<LineState> {
        self.slot_of(set, tag)
            .map(|slot| Self::state_of(self.meta[slot]))
    }

    /// Removes the line tagged `tag` from `set`, returning the state it had.
    pub(crate) fn invalidate_at(&mut self, set: usize, tag: u32) -> Option<LineState> {
        let slot = self.slot_of(set, tag)?;
        let state = Self::state_of(self.meta[slot]);
        self.home_lines[Self::home_of(tag)] -= 1;
        // Swap-remove within the set to keep the resident prefix dense.
        let last = set * self.cfg.ways + self.lens[set] as usize - 1;
        self.tags[slot] = self.tags[last];
        self.meta[slot] = self.meta[last];
        self.lens[set] -= 1;
        Some(state)
    }

    /// Downgrades the line tagged `tag` in `set` to `Shared`, returning the
    /// state it had.
    fn downgrade_at(&mut self, set: usize, tag: u32) -> Option<LineState> {
        let slot = self.slot_of(set, tag)?;
        let state = Self::state_of(self.meta[slot]);
        self.meta[slot] &= !DIRTY;
        Some(state)
    }

    /// Looks up without disturbing recency or statistics (snoop from another
    /// agent).
    pub fn peek(&self, addr: PhysAddr) -> Option<LineState> {
        let (tag, set) = self.locate(addr.line());
        self.peek_at(set, tag)
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of resident lines (for tests and diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Drops every line, as after `wbinvd`. Dirty data is discarded; tests
    /// use this to construct cold-cache scenarios. Set storage is retained.
    pub fn flush_all(&mut self) {
        self.lens.fill(0);
        self.home_lines.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NODE_SHIFT;
    use simcore::SimRng;

    /// What a line-at-a-time fill evicted.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Evicted {
        /// No eviction was necessary.
        None,
        /// A clean line was dropped.
        Clean,
        /// A dirty line, named by its tag (which holds its home), must be
        /// written back.
        Dirty(u32),
    }

    /// The line-at-a-time oracle: one call per line and one stamp per
    /// call, as `MemSystem` drove the cache before the walks became loops
    /// of their own, with the victim searches of that time. The tests
    /// below check the loops against it.
    impl Llc {
        /// A fresh recency stamp, shifted into place.
        fn next_stamp(&mut self) -> u32 {
            self.tick += 1;
            if self.tick == STAMP_END {
                self.tick = self.restamp();
            }
            self.tick << STAMP_SHIFT
        }

        /// Restamps resident `slot` with `flags` at a fresh stamp. A dirty
        /// bit sticks.
        fn touch(&mut self, slot: usize, flags: u32) {
            let stamp = self.next_stamp();
            self.meta[slot] = flags | (self.meta[slot] & DIRTY) | stamp;
        }

        fn flags(state: LineState, ddio: bool) -> u32 {
            let dirty = if state == LineState::Modified {
                DIRTY
            } else {
                0
            };
            dirty | if ddio { DDIO } else { 0 }
        }

        /// The line that `tag` names in `set`.
        fn line_of(&self, tag: u32, set: usize) -> u64 {
            let rel = u64::from(tag & ((1 << REL_BITS) - 1));
            (self.bases[Self::home_of(tag)] + rel) * self.n_sets as u64 + set as u64
        }

        /// Puts the line tagged `tag` into `slot` of `set` at a fresh
        /// stamp, evicting the slot's line if it is resident.
        fn fill(
            &mut self,
            set: usize,
            slot: usize,
            tag: u32,
            state: LineState,
            ddio: bool,
        ) -> Evicted {
            let stamp = self.next_stamp();
            let evicted = if slot < set * self.cfg.ways + self.lens[set] as usize {
                let old = self.tags[slot];
                self.home_lines[Self::home_of(old)] -= 1;
                if self.meta[slot] & DIRTY != 0 {
                    Evicted::Dirty(old)
                } else {
                    Evicted::Clean
                }
            } else {
                self.lens[set] += 1;
                Evicted::None
            };
            self.home_lines[Self::home_of(tag)] += 1;
            self.tags[slot] = tag;
            self.meta[slot] = Self::flags(state, ddio) | stamp;
            evicted
        }

        /// `victim` with a branch per comparison.
        fn victim_scan(&self, set: usize) -> usize {
            let start = set * self.cfg.ways;
            let len = self.lens[set] as usize;
            if len < self.cfg.ways {
                return start + len;
            }
            let mut lru = start;
            for i in start + 1..start + len {
                if self.meta[i] < self.meta[lru] {
                    lru = i;
                }
            }
            lru
        }

        /// `ddio_victim` with a branch per slot.
        fn ddio_victim_scan(&self, set: usize) -> usize {
            let start = set * self.cfg.ways;
            let mut ddio_resident = 0;
            let mut ddio_lru: Option<usize> = None;
            for i in start..start + self.lens[set] as usize {
                if self.meta[i] & DDIO != 0 {
                    ddio_resident += 1;
                    if ddio_lru.is_none_or(|b| self.meta[i] < self.meta[b]) {
                        ddio_lru = Some(i);
                    }
                }
            }
            if ddio_resident >= self.cfg.ddio_ways {
                ddio_lru.expect("partition is non-empty when full")
            } else {
                self.victim_scan(set)
            }
        }

        /// CPU lookup, counted as a hit or a miss: `Ok(slot)` on a hit
        /// (recency updated), else `Err(slot)` where a CPU fill puts it.
        fn probe_at(&mut self, set: usize, tag: u32) -> Result<usize, usize> {
            let start = set * self.cfg.ways;
            let hinted = start + self.hint;
            let found = if self.hint < self.lens[set] as usize && self.tags[hinted] == tag {
                Some(hinted)
            } else {
                self.slot_of(set, tag)
            };
            match found {
                Some(slot) => {
                    self.hint = slot - start;
                    self.hits += 1;
                    self.touch(slot, self.meta[slot] & DDIO);
                    Ok(slot)
                }
                None => {
                    self.misses += 1;
                    Err(self.victim_scan(set))
                }
            }
        }

        /// Upgrades a CPU write hit to `Modified`, out of the DDIO
        /// partition.
        fn upgrade_cpu(&mut self, slot: usize) {
            self.touch(slot, DIRTY);
        }

        /// Inserts (or upgrades) the line tagged `tag` in `set` at a fresh
        /// stamp; `ddio` confines a fill to the DDIO partition.
        fn insert_at(&mut self, set: usize, tag: u32, state: LineState, ddio: bool) -> Evicted {
            match self.slot_of(set, tag) {
                Some(slot) => {
                    self.touch(slot, Self::flags(state, ddio));
                    Evicted::None
                }
                None => {
                    let slot = if ddio {
                        self.ddio_victim_scan(set)
                    } else {
                        self.victim_scan(set)
                    };
                    self.fill(set, slot, tag, state, ddio)
                }
            }
        }

        fn probe(&mut self, addr: PhysAddr) -> Option<LineState> {
            let (tag, set) = self.locate(addr.line());
            let slot = self.probe_at(set, tag).ok()?;
            Some(Self::state_of(self.meta[slot]))
        }

        fn insert(&mut self, addr: PhysAddr, state: LineState, ddio: bool) -> Evicted {
            let (tag, set) = self.locate(addr.line());
            self.insert_at(set, tag, state, ddio)
        }

        fn invalidate(&mut self, addr: PhysAddr) -> Option<LineState> {
            let (tag, set) = self.locate(addr.line());
            self.invalidate_at(set, tag)
        }

        fn downgrade(&mut self, addr: PhysAddr) -> bool {
            let (tag, set) = self.locate(addr.line());
            self.downgrade_at(set, tag).is_some()
        }
    }

    /// Asserts that two caches hold the same lines, stamps and counters.
    fn assert_same(a: &Llc, b: &Llc, at: &str) {
        assert_eq!(a.tags, b.tags, "{at}: tags");
        assert_eq!(a.meta, b.meta, "{at}: meta");
        assert_eq!(a.lens, b.lens, "{at}: lens");
        assert_eq!(a.home_lines, b.home_lines, "{at}: home_lines");
        assert_eq!(
            (a.tick, a.hint, a.hits, a.misses),
            (b.tick, b.hint, b.hits, b.misses),
            "{at}: tick, hint, hits, misses"
        );
    }

    /// The oracle of [`Llc::cpu_walk`]: `MemSystem::cpu_access`'s per-line
    /// loop, with `llcs[node]` the initiator's LLC and each line located on
    /// its own.
    fn cpu_lines(
        llcs: &mut [Llc],
        node: usize,
        first: u64,
        lines: u64,
        write: bool,
        writebacks: &mut [u64],
    ) -> (u64, u64, u64) {
        let home = NodeId((first >> HOME_LINE_SHIFT) as usize);
        let state = if write {
            LineState::Modified
        } else {
            LineState::Shared
        };
        let (mut hit, mut miss, mut c2c) = (0, 0, 0);
        for line in first..first + lines {
            let (tag, set) = llcs[node].locate(line);
            match llcs[node].probe_at(set, tag) {
                Ok(slot) => {
                    hit += 1;
                    if write {
                        llcs[node].upgrade_cpu(slot);
                        for (peer, llc) in llcs.iter_mut().enumerate() {
                            if peer != node && llc.holds_home(home) {
                                llc.invalidate_at(set, tag);
                            }
                        }
                    }
                }
                Err(slot) => {
                    let mut served_c2c = false;
                    for (peer, llc) in llcs.iter_mut().enumerate() {
                        if peer == node || !llc.holds_home(home) {
                            continue;
                        }
                        let prior = if write {
                            llc.invalidate_at(set, tag)
                        } else {
                            llc.downgrade_at(set, tag)
                        };
                        if prior == Some(LineState::Modified) {
                            writebacks[home.0] += 1;
                            c2c += 1;
                            served_c2c = true;
                            break;
                        }
                    }
                    if !served_c2c {
                        miss += 1;
                    }
                    if let Evicted::Dirty(victim) = llcs[node].fill(set, slot, tag, state, false) {
                        writebacks[Llc::home_of(victim)] += 1;
                    }
                }
            }
        }
        (hit, miss, c2c)
    }

    /// The oracle of [`Llc::ddio_fill`]: `MemSystem::dma_write`'s DDIO
    /// loop, each line located on its own.
    fn ddio_lines(llc: &mut Llc, first: u64, lines: u64, writebacks: &mut [u64]) {
        for line in first..first + lines {
            let (tag, set) = llc.locate(line);
            if let Evicted::Dirty(victim) = llc.insert_at(set, tag, LineState::Modified, true) {
                writebacks[Llc::home_of(victim)] += 1;
            }
        }
    }

    /// `Llc::cpu_walk` by `llcs[node]`, its peers around it.
    fn cpu_walk_from(
        llcs: &mut [Llc],
        node: usize,
        first: u64,
        lines: u64,
        write: bool,
        writebacks: &mut [u64],
    ) -> (u64, u64, u64) {
        let (before, rest) = llcs.split_at_mut(node);
        let (llc, after) = rest.split_first_mut().expect("node has an LLC");
        llc.cpu_walk(before, after, first, lines, write, writebacks)
    }

    /// A 4-set, 4-way LLC with 2 DDIO ways for a machine of `nodes` nodes.
    fn tiny_of(nodes: usize) -> Llc {
        Llc::new(
            LlcConfig {
                capacity_bytes: 1024,
                ways: 4,
                ddio_ways: 2,
            },
            nodes,
        )
    }

    fn tiny() -> Llc {
        tiny_of(2)
    }

    fn addr_for_set(set: u64, tag_round: u64) -> PhysAddr {
        // 4 sets in `tiny`; line = set + 4 * tag_round.
        PhysAddr((set + 4 * tag_round) * LINE_BYTES)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = PhysAddr(0);
        assert_eq!(c.probe(a), None);
        c.insert(a, LineState::Shared, false);
        assert_eq!(c.probe(a), Some(LineState::Shared));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_in_full_set() {
        let mut c = tiny();
        for round in 0..4 {
            assert_eq!(
                c.insert(addr_for_set(0, round), LineState::Shared, false),
                Evicted::None
            );
        }
        // Touch rounds 1..4 so round 0 is LRU.
        for round in 1..4 {
            c.probe(addr_for_set(0, round));
        }
        assert_eq!(
            c.insert(addr_for_set(0, 9), LineState::Shared, false),
            Evicted::Clean
        );
        assert_eq!(c.peek(addr_for_set(0, 0)), None, "LRU line evicted");
        assert!(c.peek(addr_for_set(0, 1)).is_some());
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = tiny();
        for round in 0..4 {
            c.insert(addr_for_set(1, round), LineState::Modified, false);
        }
        match c.insert(addr_for_set(1, 7), LineState::Shared, false) {
            Evicted::Dirty(tag) => assert_eq!(c.line_of(tag, 1), addr_for_set(1, 0).line()),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn ddio_confined_to_partition() {
        let mut c = tiny();
        // Fill the DDIO partition (2 ways) of set 2.
        c.insert(addr_for_set(2, 0), LineState::Modified, true);
        c.insert(addr_for_set(2, 1), LineState::Modified, true);
        // A third DDIO insert must evict a DDIO line even though the set
        // still has free ways.
        let ev = c.insert(addr_for_set(2, 2), LineState::Modified, true);
        assert!(matches!(ev, Evicted::Dirty(_)), "got {ev:?}");
        assert_eq!(c.resident_lines(), 2);
        // Non-DDIO fills can still use the remaining ways.
        assert_eq!(
            c.insert(addr_for_set(2, 3), LineState::Shared, false),
            Evicted::None
        );
        assert_eq!(
            c.insert(addr_for_set(2, 4), LineState::Shared, false),
            Evicted::None
        );
    }

    #[test]
    fn upgrade_sticks() {
        let mut c = tiny();
        let a = PhysAddr(0);
        c.insert(a, LineState::Shared, false);
        c.insert(a, LineState::Modified, false);
        assert_eq!(c.peek(a), Some(LineState::Modified));
        // Re-inserting as Shared must not lose the dirty bit.
        c.insert(a, LineState::Shared, false);
        assert_eq!(c.peek(a), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = tiny();
        let a = PhysAddr(128);
        c.insert(a, LineState::Modified, false);
        assert!(c.downgrade(a));
        assert_eq!(c.peek(a), Some(LineState::Shared));
        assert_eq!(c.invalidate(a), Some(LineState::Shared));
        assert_eq!(c.invalidate(a), None);
        assert!(!c.downgrade(a));
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = tiny();
        c.insert(PhysAddr(0), LineState::Shared, false);
        let h = c.hits();
        c.peek(PhysAddr(0));
        assert_eq!(c.hits(), h);
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny();
        c.insert(PhysAddr(0), LineState::Modified, false);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.peek(PhysAddr(0)), None);
    }

    #[test]
    fn broadwell_geometry() {
        let cfg = LlcConfig::broadwell_14c();
        assert_eq!(cfg.sets(), 35 * 1024 * 1024 / 64 / 20);
        let _ = Llc::new(cfg, 2);
    }

    #[test]
    #[should_panic(expected = "DDIO ways cannot exceed")]
    fn bad_ddio_ways() {
        Llc::new(
            LlcConfig {
                capacity_bytes: 1024,
                ways: 2,
                ddio_ways: 3,
            },
            2,
        );
    }

    #[test]
    fn prop_occupancy_never_exceeds_ways() {
        let mut r = SimRng::seed(0xcac4e);
        for _ in 0..16 {
            let ops = 1 + r.below(299) as usize;
            let mut c = tiny();
            for _ in 0..ops {
                let line = r.below(64);
                let ddio = r.chance(0.5);
                c.insert(PhysAddr(line * LINE_BYTES), LineState::Shared, ddio);
            }
            // No set may exceed associativity; checked via total residency per set.
            for set in 0..4u64 {
                let count = (0..64u64)
                    .filter(|l| l % 4 == set)
                    .filter(|l| c.peek(PhysAddr(l * LINE_BYTES)).is_some())
                    .count();
                assert!(count <= 4, "set {} holds {}", set, count);
            }
        }
    }

    #[test]
    fn prop_home_counts_match_resident_tags() {
        // Eight lines per set of `tiny` from each of two homes, so fills
        // evict lines of either home; walks run up to eight lines on.
        let home1 = PhysAddr(1 << NODE_SHIFT).line();
        let mut r = SimRng::seed(0x5e00f);
        let mut writebacks = [0; 2];
        for _ in 0..32 {
            let mut c = tiny();
            for _ in 0..300 {
                let line = r.below(32) + if r.chance(0.5) { home1 } else { 0 };
                let a = PhysAddr(line * LINE_BYTES);
                let write = r.chance(0.5);
                let state = if write {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                let lines = 1 + r.below(8);
                match r.below(10) {
                    0..=1 => {
                        c.insert(a, state, r.chance(0.5));
                    }
                    2..=3 => c.ddio_fill(line, lines, &mut writebacks),
                    4..=6 => {
                        c.cpu_walk(&mut [], &mut [], line, lines, write, &mut writebacks);
                    }
                    7 => {
                        c.invalidate(a);
                    }
                    8 => {
                        c.downgrade(a);
                    }
                    _ if r.below(5) == 0 => c.flush_all(),
                    _ => {}
                }
                let mut recount = [0u32; 2];
                for set in 0..c.n_sets {
                    let start = set * c.cfg.ways;
                    for &tag in &c.tags[start..start + c.lens[set] as usize] {
                        recount[Llc::home_of(tag)] += 1;
                    }
                }
                assert_eq!(*c.home_lines, recount);
            }
        }
    }

    #[test]
    fn prop_probe_after_insert_hits() {
        let mut r = SimRng::seed(0xcac4f);
        for _ in 0..8 {
            let n = 1 + r.below(49) as usize;
            let lines: Vec<u64> = (0..n).map(|_| r.below(1_000_000)).collect();
            let mut c = Llc::new(LlcConfig::broadwell_14c(), 1);
            for &l in &lines {
                c.insert(PhysAddr(l * LINE_BYTES), LineState::Shared, false);
            }
            // With a 28k-set cache and <50 distinct lines, nothing can have
            // been evicted: every line must still be resident.
            for &l in &lines {
                assert!(c.peek(PhysAddr(l * LINE_BYTES)).is_some());
            }
        }
    }

    /// The schedule of `prop_home_counts_match_resident_tags`, run on two
    /// copies of one cache. Every 50 steps `wrapped`'s stamp counter jumps
    /// to a few stamps below its limit, so it restamps about six times per
    /// schedule, often in the middle of a walk, while `plain` never does;
    /// every result must agree.
    #[test]
    fn restamp_keeps_every_lru_decision() {
        let home1 = PhysAddr(1 << NODE_SHIFT).line();
        let universe: Vec<PhysAddr> = (0..40)
            .chain(home1..home1 + 40)
            .map(|line| PhysAddr(line * LINE_BYTES))
            .collect();
        let mut r = SimRng::seed(0x5e01f);
        for schedule in 0..32 {
            let mut plain = tiny();
            let mut wrapped = tiny();
            let (mut plain_wb, mut wrapped_wb) = ([0; 2], [0; 2]);
            for step in 0..300 {
                if step % 50 == 0 {
                    assert!(wrapped.tick < STAMP_END / 2, "the last jump restamped");
                    wrapped.tick = STAMP_END - 1 - r.below(4) as u32;
                }
                let line = r.below(32) + if r.chance(0.5) { home1 } else { 0 };
                let a = PhysAddr(line * LINE_BYTES);
                let write = r.chance(0.5);
                let state = if write {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                let lines = 1 + r.below(8);
                let at = format!("schedule {schedule} step {step}");
                match r.below(10) {
                    0..=1 => {
                        let ddio = r.chance(0.5);
                        let evicted = plain.insert(a, state, ddio);
                        assert_eq!(evicted, wrapped.insert(a, state, ddio), "{at}");
                    }
                    2..=3 => {
                        plain.ddio_fill(line, lines, &mut plain_wb);
                        wrapped.ddio_fill(line, lines, &mut wrapped_wb);
                    }
                    4..=6 => {
                        let counts =
                            plain.cpu_walk(&mut [], &mut [], line, lines, write, &mut plain_wb);
                        let other =
                            wrapped.cpu_walk(&mut [], &mut [], line, lines, write, &mut wrapped_wb);
                        assert_eq!(counts, other, "{at}");
                    }
                    7 => assert_eq!(plain.invalidate(a), wrapped.invalidate(a), "{at}"),
                    8 => assert_eq!(plain.downgrade(a), wrapped.downgrade(a), "{at}"),
                    _ if r.below(5) == 0 => {
                        plain.flush_all();
                        wrapped.flush_all();
                    }
                    _ => {}
                }
                assert_eq!(plain_wb, wrapped_wb, "{at}");
                for &a in &universe {
                    assert_eq!(plain.peek(a), wrapped.peek(a), "{at}: {a}");
                }
            }
        }
    }

    /// Random schedules of multi-line walks on the LLCs of a 2- and a
    /// 4-node machine, run once through `cpu_walk` and `ddio_fill` and once,
    /// line by line, through the oracle on a copy. After every walk both
    /// copies must hold the same slots, stamps and counters, and the walk
    /// must return the same counts and writebacks. Each home's first 32
    /// lines share `tiny`'s four sets, so fills evict lines of other
    /// homes; other nodes' reads and writes leave `Shared` and `Modified`
    /// copies for the walks to snoop; and every 40 steps one LLC's stamp
    /// counter jumps to a few stamps below its limit, so restamps fire in
    /// the middle of walks.
    #[test]
    fn walks_match_the_line_at_a_time_oracle() {
        let mut r = SimRng::seed(0x1007);
        let (mut mid_walk_restamps, mut foreign_evictions, mut partition_fills) = (0, 0, 0);
        for nodes in [2, 4] {
            for schedule in 0..24 {
                let mut walked: Vec<Llc> = (0..nodes).map(|_| tiny_of(nodes)).collect();
                let mut oracle = walked.clone();
                let (mut walked_wb, mut oracle_wb) = (vec![0; nodes], vec![0; nodes]);
                for step in 0..200 {
                    let at = format!("{nodes} nodes, schedule {schedule} step {step}");
                    if step % 40 == 0 {
                        let tick = STAMP_END - 1 - r.below(4) as u32;
                        let node = r.below(nodes as u64) as usize;
                        walked[node].tick = tick;
                        oracle[node].tick = tick;
                    }
                    let home = r.below(nodes as u64);
                    let lines = 1 + r.below(12);
                    let first = (home << HOME_LINE_SHIFT) + r.below(33 - lines);
                    // A DDIO write fills the home's LLC, as a device on
                    // the home node does; a CPU walk runs on any node.
                    let ddio = r.chance(0.25);
                    let node = if ddio {
                        home as usize
                    } else {
                        r.below(nodes as u64) as usize
                    };
                    let before = oracle[node].clone();
                    if ddio {
                        // The other LLCs' copies go first, as in `dma_write`.
                        for llcs in [&mut walked, &mut oracle] {
                            for (peer, llc) in llcs.iter_mut().enumerate() {
                                if peer != node {
                                    for (tag, set) in llc.walk(first, lines) {
                                        llc.invalidate_at(set, tag);
                                    }
                                }
                            }
                        }
                        walked[node].ddio_fill(first, lines, &mut walked_wb);
                        ddio_lines(&mut oracle[node], first, lines, &mut oracle_wb);
                        partition_fills +=
                            usize::from(oracle[node].resident_lines() > before.resident_lines());
                    } else {
                        let write = r.chance(0.5);
                        let counts =
                            cpu_walk_from(&mut walked, node, first, lines, write, &mut walked_wb);
                        let want =
                            cpu_lines(&mut oracle, node, first, lines, write, &mut oracle_wb);
                        assert_eq!(counts, want, "{at}: (hit, miss, c2c)");
                    }
                    let after = &oracle[node];
                    // Stamps taken after a restamp in this walk.
                    mid_walk_restamps +=
                        usize::from(after.tick < before.tick && after.tick > after.cfg.ways as u32);
                    foreign_evictions +=
                        usize::from((0..nodes).any(|h| {
                            h != home as usize && after.home_lines[h] < before.home_lines[h]
                        }));
                    for (w, o) in walked.iter().zip(&oracle) {
                        assert_same(w, o, &at);
                    }
                    assert_eq!(walked_wb, oracle_wb, "{at}: writebacks");
                }
            }
        }
        assert!(mid_walk_restamps > 0, "no walk restamped");
        assert!(foreign_evictions > 0, "no walk evicted another home's line");
        assert!(
            partition_fills > 0,
            "no DDIO walk filled a partition with room"
        );
    }

    #[test]
    fn walk_tags_match_single_line_tags() {
        let skylake = crate::MemConfig::dual_socket_skylake().llc;
        let lines = 40;
        for cfg in [LlcConfig::broadwell_14c(), skylake, tiny().cfg] {
            let c = Llc::new(cfg, 4);
            let n_sets = c.n_sets as u64;
            for home in 0..4u64 {
                let first = home << HOME_LINE_SHIFT;
                // The home's first line, a walk that starts three sets
                // before the ring wraps, and the last lines the tags reach.
                let end = ((home + 1) << HOME_LINE_SHIFT)
                    .min((c.bases[home as usize] + (1 << REL_BITS)) * n_sets);
                let wraps = (first / n_sets + 2) * n_sets - 3;
                for start in [first, wraps, end - lines] {
                    for (line, (tag, set)) in (start..).zip(c.walk(start, lines)) {
                        assert_eq!((tag, set), c.locate(line), "line {line:#x}, {n_sets} sets");
                        assert_eq!(Llc::home_of(tag), home as usize);
                        assert_eq!(c.line_of(tag, set), line);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "leaves the LLC's tag range")]
    fn walk_past_the_tag_range_panics() {
        // 2^24 quotients of `tiny`'s 4 sets cover a home's first 2^26 lines.
        let _ = tiny().walk((1 << 26) - 2, 3);
    }

    #[test]
    fn broadwell_slab_is_eight_bytes_per_way() {
        let c = Llc::new(LlcConfig::broadwell_14c(), 2);
        let slab = std::mem::size_of_val(&*c.tags) + std::mem::size_of_val(&*c.meta);
        assert_eq!(slab, 8 * c.n_sets * c.cfg.ways);
    }
}
