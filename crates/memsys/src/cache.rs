//! A per-socket last-level cache with a DDIO way partition.
//!
//! The model is set-associative with dense, directly indexed sets (a flat
//! zero-initialized slab of way slots, `ways` consecutive slots per set, so
//! first-touching a set never allocates), in MESI-lite: a line is either
//! `Shared` (clean, possibly in several LLCs) or
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

use crate::topology::{NodeId, PhysAddr, LINE_BYTES};

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
/// metadata only needs state flags and the recency tick.
const DIRTY: u64 = 1;
const DDIO: u64 = 1 << 1;
/// Bits above the flags hold the slot's last-use tick.
const TICK_SHIFT: u64 = 2;

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
pub enum Evicted {
    /// No eviction was necessary.
    None,
    /// A clean line was dropped.
    Clean,
    /// A dirty line was evicted and must be written back to the home of the
    /// returned line address (`line * 64` is its byte address).
    Dirty(u64),
}

/// A single socket's last-level cache.
///
/// Storage is a flat slab of way slots, `cfg.ways` consecutive slots per
/// set, indexed by `line % n_sets`. The DMA and copy paths walk one set per
/// 64-byte line, and the memcached working set fills every set (NVMe reads
/// fill every set's DDIO ways), so the walk is built to scan each set once
/// per line:
///
/// * Walks take their set indices from `Llc::walk`: one division for
///   the first line of an access, then a wrap-around increment per line.
///   Every LLC of a machine has the same geometry, so the index also
///   serves the peer snoops.
/// * Each operation searches the resident tags first and looks for an LRU
///   victim only on a miss that fills — and for the DDIO partition's
///   victim only on a DDIO fill. A CPU probe that misses returns its fill
///   slot, so the fill that follows does not scan again.
/// * The slab is zero-initialized primitive arrays: `vec![0; n]` takes the
///   zeroed-page allocation path, so construction costs four allocator
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
    /// Line tag of each way slot; meaningful for the first `lens[set]`
    /// slots of each set's range.
    tags: Box<[u64]>,
    /// Packed slot state: `DIRTY | DDIO | last_use << TICK_SHIFT`.
    meta: Box<[u64]>,
    /// Resident-line count per set (dense prefix length).
    lens: Box<[u8]>,
    /// Resident-line count per home node, indexed by `NodeId.0`.
    home_lines: Box<[u32]>,
    n_sets: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Creates an empty LLC with the given geometry, for a machine of
    /// `nodes` NUMA nodes: every line it holds must have a home below that.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways, DDIO ways exceeding
    /// total ways, or zero sets).
    pub fn new(cfg: LlcConfig, nodes: usize) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.ways <= u8::MAX as usize, "occupancy counts are u8");
        assert!(cfg.ddio_ways <= cfg.ways, "DDIO ways cannot exceed total");
        assert!(cfg.sets() > 0, "cache must have at least one set");
        let n_sets = cfg.sets() as usize;
        let slots = n_sets * cfg.ways;
        assert!(slots <= u32::MAX as usize, "residency counts are u32");
        Llc {
            cfg,
            tags: vec![0; slots].into_boxed_slice(),
            meta: vec![0; slots].into_boxed_slice(),
            lens: vec![0; n_sets].into_boxed_slice(),
            home_lines: vec![0; nodes].into_boxed_slice(),
            n_sets,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// `(line, set index)` for the `lines` consecutive lines from `first`:
    /// one division for the first set, then a step with wrap-around.
    pub(crate) fn walk(&self, first: u64, lines: u64) -> impl Iterator<Item = (u64, usize)> {
        let n_sets = self.n_sets;
        let mut set = self.set_of(first);
        (first..first + lines).map(move |line| {
            let at = set;
            set += 1;
            if set == n_sets {
                set = 0;
            }
            (line, at)
        })
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.n_sets as u64) as usize
    }

    /// Whether any resident line has home `home`. A cache for which this
    /// is false holds none of the lines a walk over `home`'s memory
    /// visits, so the walk may skip its sets.
    pub(crate) fn holds_home(&self, home: NodeId) -> bool {
        self.home_lines[home.0] != 0
    }

    /// Index into `home_lines` of the home of line tag `line`.
    fn home_of(line: u64) -> usize {
        PhysAddr(line * LINE_BYTES).home().0
    }

    /// Slot of `line` if it is resident in `set`.
    fn slot_of(&self, set: usize, line: u64) -> Option<usize> {
        let start = set * self.cfg.ways;
        let resident = &self.tags[start..start + self.lens[set] as usize];
        resident.iter().position(|&t| t == line).map(|i| start + i)
    }

    fn state_of(meta: u64) -> LineState {
        if meta & DIRTY != 0 {
            LineState::Modified
        } else {
            LineState::Shared
        }
    }

    fn flags(state: LineState, ddio: bool) -> u64 {
        let dirty = if state == LineState::Modified {
            DIRTY
        } else {
            0
        };
        dirty | if ddio { DDIO } else { 0 }
    }

    /// Restamps resident `slot` with `flags` at a fresh tick. A dirty bit
    /// sticks: a Modified line never silently becomes Shared.
    fn touch(&mut self, slot: usize, flags: u64) {
        self.tick += 1;
        self.meta[slot] = flags | (self.meta[slot] & DIRTY) | (self.tick << TICK_SHIFT);
    }

    /// Where a non-DDIO fill of a missing line goes: the first free slot of
    /// `set`, or its LRU line when the set is full. Last-use ticks are
    /// unique — every touch consumes a fresh tick — so the smallest
    /// metadata word is the LRU line's, whatever the slot order.
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

    /// Puts `line` into `slot` of `set` at a fresh tick, evicting the
    /// slot's line if it is resident. The slot comes from
    /// [`probe_at`](Self::probe_at) for a CPU miss.
    pub(crate) fn fill(
        &mut self,
        set: usize,
        slot: usize,
        line: u64,
        state: LineState,
        ddio: bool,
    ) -> Evicted {
        self.tick += 1;
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
        self.home_lines[Self::home_of(line)] += 1;
        self.tags[slot] = line;
        self.meta[slot] = Self::flags(state, ddio) | (self.tick << TICK_SHIFT);
        evicted
    }

    /// CPU lookup of `line` in `set`, counted as a hit or a miss and
    /// consuming one tick. `Ok(slot)` on a hit (recency updated); on a
    /// miss, `Err(slot)` is where a non-DDIO [`fill`](Self::fill) puts it.
    pub(crate) fn probe_at(&mut self, set: usize, line: u64) -> Result<usize, usize> {
        match self.slot_of(set, line) {
            Some(slot) => {
                self.hits += 1;
                self.touch(slot, self.meta[slot] & DDIO);
                Ok(slot)
            }
            None => {
                self.tick += 1;
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

    /// Inserts (or upgrades) `line` in `set`, consuming one tick. `ddio`
    /// confines a fill to the DDIO way partition.
    pub(crate) fn insert_at(
        &mut self,
        set: usize,
        line: u64,
        state: LineState,
        ddio: bool,
    ) -> Evicted {
        match self.slot_of(set, line) {
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
                self.fill(set, slot, line, state, ddio)
            }
        }
    }

    /// State of `line` in `set`, without touching recency or statistics.
    pub(crate) fn peek_at(&self, set: usize, line: u64) -> Option<LineState> {
        self.slot_of(set, line)
            .map(|slot| Self::state_of(self.meta[slot]))
    }

    /// Removes `line` from `set`, returning the state it had.
    pub(crate) fn invalidate_at(&mut self, set: usize, line: u64) -> Option<LineState> {
        let slot = self.slot_of(set, line)?;
        let state = Self::state_of(self.meta[slot]);
        self.home_lines[Self::home_of(line)] -= 1;
        // Swap-remove within the set to keep the resident prefix dense.
        let last = set * self.cfg.ways + self.lens[set] as usize - 1;
        self.tags[slot] = self.tags[last];
        self.meta[slot] = self.meta[last];
        self.lens[set] -= 1;
        Some(state)
    }

    /// Downgrades `line` in `set` to `Shared`, returning the state it had.
    pub(crate) fn downgrade_at(&mut self, set: usize, line: u64) -> Option<LineState> {
        let slot = self.slot_of(set, line)?;
        let state = Self::state_of(self.meta[slot]);
        self.meta[slot] &= !DIRTY;
        Some(state)
    }

    /// Looks up the line containing `addr`; returns its state on hit.
    /// Updates recency and hit/miss statistics.
    pub fn probe(&mut self, addr: PhysAddr) -> Option<LineState> {
        let slot = self.probe_at(self.set_of(addr.line()), addr.line()).ok()?;
        Some(Self::state_of(self.meta[slot]))
    }

    /// Looks up without disturbing recency or statistics (snoop from another
    /// agent).
    pub fn peek(&self, addr: PhysAddr) -> Option<LineState> {
        self.peek_at(self.set_of(addr.line()), addr.line())
    }

    /// Inserts (or upgrades) the line containing `addr`.
    ///
    /// `ddio` restricts replacement to the DDIO way-partition, mirroring how
    /// device writes cannot occupy the whole cache. Returns eviction
    /// information so the caller can account the writeback.
    pub fn insert(&mut self, addr: PhysAddr, state: LineState, ddio: bool) -> Evicted {
        self.insert_at(self.set_of(addr.line()), addr.line(), state, ddio)
    }

    /// Removes the line containing `addr` if present, returning its state.
    /// The caller decides whether a `Modified` line's contents matter (a full
    /// DMA overwrite drops them; an eviction writes them back).
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<LineState> {
        self.invalidate_at(self.set_of(addr.line()), addr.line())
    }

    /// Downgrades a `Modified` line to `Shared` (after a snoop writeback).
    /// Returns `true` if the line was present.
    pub fn downgrade(&mut self, addr: PhysAddr) -> bool {
        self.downgrade_at(self.set_of(addr.line()), addr.line())
            .is_some()
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
                        let set = c.set_of(line);
                        if let Err(slot) = c.probe_at(set, line) {
                            c.fill(set, slot, line, state, false);
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
}
