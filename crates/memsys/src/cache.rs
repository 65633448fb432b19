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

/// Result of inserting a line: what, if anything, was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted<V = u64> {
    /// No eviction was necessary.
    None,
    /// A clean line was dropped.
    Clean,
    /// A dirty line was evicted and must be written back to its home. The
    /// public calls name it by line (`line * 64` is its byte address); the
    /// set-indexed calls inside the crate name it by its 32-bit tag, which
    /// holds its home.
    Dirty(V),
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
/// * Each operation searches the resident tags first and looks for an LRU
///   victim only on a miss that fills — and for the DDIO partition's
///   victim only on a DDIO fill. A CPU probe that misses returns its fill
///   slot, so the fill that follows does not scan again. A CPU probe first
///   tries the way offset of the previous CPU hit (`hint`): consecutive
///   lines of a walk sit at the same offset of consecutive sets.
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
///   `fill`, `invalidate_at` and [`flush_all`](Self::flush_all) change
///   which lines are resident, and they alone change the counts.
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

    /// The line that `tag` names in `set`.
    fn line_of(&self, tag: u32, set: usize) -> u64 {
        let rel = u64::from(tag & ((1 << REL_BITS) - 1));
        (self.bases[Self::home_of(tag)] + rel) * self.n_sets as u64 + set as u64
    }

    /// Index into `home_lines` of the home of the line tagged `tag`.
    pub(crate) fn home_of(tag: u32) -> usize {
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

    fn flags(state: LineState, ddio: bool) -> u32 {
        let dirty = if state == LineState::Modified {
            DIRTY
        } else {
            0
        };
        dirty | if ddio { DDIO } else { 0 }
    }

    /// A fresh recency stamp, shifted into place: above every stamp
    /// resident in any set.
    fn next_stamp(&mut self) -> u32 {
        self.tick += 1;
        if self.tick == STAMP_END {
            self.restamp();
        }
        self.tick << STAMP_SHIFT
    }

    /// Rewrites each set's stamps as their ranks in the set's recency
    /// order (0 for its LRU line) and restarts the counter above every
    /// rank. Stamps are only compared within a set, so every later victim
    /// is the one an unbounded counter would pick. Stamps are unique within
    /// a set, so comparing whole metadata words ranks them.
    #[cold]
    fn restamp(&mut self) {
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
        self.tick = self.cfg.ways as u32;
    }

    /// Restamps resident `slot` with `flags` at a fresh stamp. A dirty bit
    /// sticks: a Modified line never silently becomes Shared.
    fn touch(&mut self, slot: usize, flags: u32) {
        let stamp = self.next_stamp();
        self.meta[slot] = flags | (self.meta[slot] & DIRTY) | stamp;
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
        let mut lru = start;
        for i in start + 1..start + len {
            if self.meta[i] < self.meta[lru] {
                lru = i;
            }
        }
        lru
    }

    /// Where a DDIO fill of a missing line goes: the LRU line of the DDIO
    /// partition once it holds `ddio_ways` lines, else where any other
    /// fill would go.
    fn ddio_victim(&self, set: usize) -> usize {
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
            self.victim(set)
        }
    }

    /// Puts the line tagged `tag` into `slot` of `set` at a fresh stamp,
    /// evicting the slot's line if it is resident. The slot comes from
    /// [`probe_at`](Self::probe_at) for a CPU miss.
    ///
    /// Inlined into the walks: as a call of its own, the cold restamp
    /// path made every fill save and restore six registers, which shows
    /// on DDIO walks that fill on every line.
    #[inline(always)]
    pub(crate) fn fill(
        &mut self,
        set: usize,
        slot: usize,
        tag: u32,
        state: LineState,
        ddio: bool,
    ) -> Evicted<u32> {
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

    /// CPU lookup of the line tagged `tag` in `set`, counted as a hit or a
    /// miss. `Ok(slot)` on a hit (recency updated); on a miss, `Err(slot)`
    /// is where a non-DDIO [`fill`](Self::fill) puts it. The way offset of
    /// the previous hit is tried first: a resident slot there with this
    /// tag is the one the scan would find, since tags are unique in a set.
    pub(crate) fn probe_at(&mut self, set: usize, tag: u32) -> Result<usize, usize> {
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
                Err(self.victim(set))
            }
        }
    }

    /// Upgrades the line a CPU write hit at `slot` to `Modified`; it then
    /// belongs to the CPU, not to the DDIO partition.
    pub(crate) fn upgrade_cpu(&mut self, slot: usize) {
        self.touch(slot, DIRTY);
    }

    /// Inserts (or upgrades) the line tagged `tag` in `set` at a fresh
    /// stamp. `ddio` confines a fill to the DDIO way partition.
    pub(crate) fn insert_at(
        &mut self,
        set: usize,
        tag: u32,
        state: LineState,
        ddio: bool,
    ) -> Evicted<u32> {
        match self.slot_of(set, tag) {
            Some(slot) => {
                self.touch(slot, Self::flags(state, ddio));
                Evicted::None
            }
            None => {
                let slot = if ddio {
                    self.ddio_victim(set)
                } else {
                    self.victim(set)
                };
                self.fill(set, slot, tag, state, ddio)
            }
        }
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
    pub(crate) fn downgrade_at(&mut self, set: usize, tag: u32) -> Option<LineState> {
        let slot = self.slot_of(set, tag)?;
        let state = Self::state_of(self.meta[slot]);
        self.meta[slot] &= !DIRTY;
        Some(state)
    }

    /// Looks up the line containing `addr`; returns its state on hit.
    /// Updates recency and hit/miss statistics.
    pub fn probe(&mut self, addr: PhysAddr) -> Option<LineState> {
        let (tag, set) = self.locate(addr.line());
        let slot = self.probe_at(set, tag).ok()?;
        Some(Self::state_of(self.meta[slot]))
    }

    /// Looks up without disturbing recency or statistics (snoop from another
    /// agent).
    pub fn peek(&self, addr: PhysAddr) -> Option<LineState> {
        let (tag, set) = self.locate(addr.line());
        self.peek_at(set, tag)
    }

    /// Inserts (or upgrades) the line containing `addr`.
    ///
    /// `ddio` restricts replacement to the DDIO way-partition, mirroring how
    /// device writes cannot occupy the whole cache. Returns eviction
    /// information so the caller can account the writeback.
    pub fn insert(&mut self, addr: PhysAddr, state: LineState, ddio: bool) -> Evicted {
        let (tag, set) = self.locate(addr.line());
        match self.insert_at(set, tag, state, ddio) {
            Evicted::None => Evicted::None,
            Evicted::Clean => Evicted::Clean,
            Evicted::Dirty(victim) => Evicted::Dirty(self.line_of(victim, set)),
        }
    }

    /// Removes the line containing `addr` if present, returning its state.
    /// The caller decides whether a `Modified` line's contents matter (a full
    /// DMA overwrite drops them; an eviction writes them back).
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<LineState> {
        let (tag, set) = self.locate(addr.line());
        self.invalidate_at(set, tag)
    }

    /// Downgrades a `Modified` line to `Shared` (after a snoop writeback).
    /// Returns `true` if the line was present.
    pub fn downgrade(&mut self, addr: PhysAddr) -> bool {
        let (tag, set) = self.locate(addr.line());
        self.downgrade_at(set, tag).is_some()
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

    fn tiny() -> Llc {
        // 4 sets x 4 ways x 64 B = 1 KiB, 2 DDIO ways.
        Llc::new(
            LlcConfig {
                capacity_bytes: 1024,
                ways: 4,
                ddio_ways: 2,
            },
            2,
        )
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
            Evicted::Dirty(line) => assert_eq!(line, addr_for_set(1, 0).line()),
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
        // evict lines of either home.
        let home1 = PhysAddr(1 << NODE_SHIFT).line();
        let mut r = SimRng::seed(0x5e00f);
        for _ in 0..32 {
            let mut c = tiny();
            for _ in 0..300 {
                let line = r.below(32) + if r.chance(0.5) { home1 } else { 0 };
                let a = PhysAddr(line * LINE_BYTES);
                let state = if r.chance(0.5) {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                match r.below(10) {
                    0..=3 => {
                        c.insert(a, state, r.chance(0.5));
                    }
                    4..=6 => {
                        let (tag, set) = c.locate(line);
                        if let Err(slot) = c.probe_at(set, tag) {
                            c.fill(set, slot, tag, state, false);
                        }
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
    /// schedule while `plain` never does; every result must agree.
    #[test]
    fn restamp_keeps_every_lru_decision() {
        let home1 = PhysAddr(1 << NODE_SHIFT).line();
        let universe: Vec<PhysAddr> = (0..32)
            .chain(home1..home1 + 32)
            .map(|line| PhysAddr(line * LINE_BYTES))
            .collect();
        let mut r = SimRng::seed(0x5e01f);
        for schedule in 0..32 {
            let mut plain = tiny();
            let mut wrapped = tiny();
            for step in 0..300 {
                if step % 50 == 0 {
                    assert!(wrapped.tick < STAMP_END / 2, "the last jump restamped");
                    wrapped.tick = STAMP_END - 1 - r.below(4) as u32;
                }
                let line = r.below(32) + if r.chance(0.5) { home1 } else { 0 };
                let a = PhysAddr(line * LINE_BYTES);
                let state = if r.chance(0.5) {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                let at = format!("schedule {schedule} step {step}");
                match r.below(10) {
                    0..=3 => {
                        let ddio = r.chance(0.5);
                        let evicted = plain.insert(a, state, ddio);
                        assert_eq!(evicted, wrapped.insert(a, state, ddio), "{at}");
                    }
                    4..=6 => {
                        let (tag, set) = plain.locate(line);
                        let probed = plain.probe_at(set, tag);
                        assert_eq!(probed, wrapped.probe_at(set, tag), "{at}");
                        if let Err(slot) = probed {
                            let evicted = plain.fill(set, slot, tag, state, false);
                            let other = wrapped.fill(set, slot, tag, state, false);
                            assert_eq!(evicted, other, "{at}");
                        }
                    }
                    7 => assert_eq!(plain.invalidate(a), wrapped.invalidate(a), "{at}"),
                    8 => assert_eq!(plain.downgrade(a), wrapped.downgrade(a), "{at}"),
                    _ if r.below(5) == 0 => {
                        plain.flush_all();
                        wrapped.flush_all();
                    }
                    _ => {}
                }
                for &a in &universe {
                    assert_eq!(plain.peek(a), wrapped.peek(a), "{at}: {a}");
                }
            }
        }
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
