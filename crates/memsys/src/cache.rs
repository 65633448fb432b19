//! A per-socket last-level cache with a DDIO way partition.
//!
//! The model is set-associative with dense, directly indexed sets (a flat
//! zero-initialized slab of 4-byte way words, `ways` consecutive words per
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

use std::ops::Range;

use crate::topology::{NodeId, PhysAddr, LINE_BYTES, NODE_SHIFT};

/// Coherence state of a cached line (MESI-lite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean; may be present in several LLCs.
    Shared,
    /// Dirty; present in exactly one LLC.
    Modified,
}

/// Flag bits of a way word (see [`Llc::words`]). Validity and recency are
/// positional — a word is resident iff it lies below its set's occupancy
/// count, and a set's resident words run from most to least recently
/// used — so the word holds only its line's tag and these two flags.
const DIRTY: u32 = 1;
const DDIO: u32 = 1 << 1;
/// A way word is `tag << TAG_SHIFT | DIRTY | DDIO`.
const TAG_SHIFT: u32 = 2;

/// Low tag bits: the line's set-ring quotient relative to its home's
/// first line. The byte above them holds the home node.
const REL_BITS: u32 = 22;
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
/// Storage is a flat slab of 4-byte way words, `cfg.ways` consecutive
/// words per set, indexed by `line % n_sets`. The DMA and copy paths walk
/// one set per 64-byte line, and the memcached working set fills every set
/// (NVMe reads fill every set's DDIO ways), so the walk is built to scan
/// each set once per line, over as few bytes as possible:
///
/// * Every walk takes its sets from `runs`: the stretches of consecutive
///   sets between the wraps of the set ring. It divides once for the
///   first line of an access and adds 1 to the tag at each wrap, and each
///   walk is a loop over `chunks_exact_mut(ways)` of a run, zipped with
///   its `lens`. Every LLC of a machine has the same geometry, so a set
///   index also serves the peer snoops.
/// * A way word is `tag << 2 | DIRTY | DDIO`. The 30-bit tag is
///   `home << 22 | (line / n_sets − bases[home])`, where `bases[home]` is
///   the quotient of the home's first line: within a set it names the line
///   exactly, and its top byte is the line's home. A walk asserts once that
///   its last line's relative quotient fits in 22 bits, which holds for
///   any address of a 1 TiB node window at the Broadwell and Skylake
///   geometries.
/// * Each set keeps its resident words packed at the front of its range
///   (`lens` holds the per-set count), most recently used first. A hit or
///   a fill moves its word to the front, so the CPU victim of a full set
///   is its last word, and the DDIO partition's victim is its last DDIO
///   word. Invalidation closes the gap in order. No stamp, counter or
///   victim search over the set is needed, and most hits stop the tag
///   scan at the first word.
/// * Each walk is one loop with its counters in locals: the walk home's
///   resident-line and dirty-victim counts (`cpu_walk` also its miss and
///   cache-to-cache counts) are written back once, when it ends.
///   `cpu_walk` is monomorphized on whether it writes and whether any
///   peer holds a line of its home, so a walk no peer can answer carries
///   no peer state.
/// * The slab is zero-initialized primitive arrays: `vec![0; n]` takes the
///   zeroed-page allocation path, so construction costs four allocator
///   calls regardless of geometry, and no word is ever allocated lazily
///   during simulation. The arrays never change length, so they are held
///   as boxed slices.
/// * `home_lines` counts the resident lines of each home node exactly, so
///   a snoop or invalidation walk can skip a cache that holds no line of
///   the access's home without scanning a set (`holds_home`). Only the
///   fills of `cpu_walk` and `ddio_fill`, the invalidations and
///   [`flush_all`](Self::flush_all) change which lines are resident, and
///   they alone change the counts.
#[derive(Debug, Clone)]
pub struct Llc {
    cfg: LlcConfig,
    /// Way words, `tag << TAG_SHIFT | DIRTY | DDIO`; the first `lens[set]`
    /// words of each set's range are its resident lines, most recently
    /// used first.
    words: Box<[u32]>,
    /// Resident-line count per set (dense prefix length).
    lens: Box<[u8]>,
    /// Resident-line count per home node, indexed by `NodeId.0`.
    home_lines: Box<[u32]>,
    /// Set-ring quotient of each home node's first line.
    bases: Box<[u64]>,
    n_sets: usize,
    hits: u64,
    misses: u64,
}

/// Puts `word` at the front of a set's `words`, moving the `at` words
/// before position `at` back one place over the word there: the line
/// that moves, the victim, or a free way.
#[inline(always)]
fn to_front(words: &mut [u32], at: usize, word: u32) {
    let moved = &mut words[..=at];
    for i in (0..at).rev() {
        moved[i + 1] = moved[i];
    }
    moved[0] = word;
}

/// Counts out `old`, a line a walk over `home`'s lines evicts: a line of
/// `home` in the walk's `resident` and `dirty` locals, one of another home
/// in `home_lines` and `writebacks` at once, and in `spilled` if dirty.
#[inline(always)]
fn evict(
    old: u32,
    home: usize,
    resident: &mut u32,
    dirty: &mut u64,
    spilled: &mut u64,
    home_lines: &mut [u32],
    writebacks: &mut [u64],
) {
    let old_home = Llc::home_of(old >> TAG_SHIFT);
    let old_dirty = u64::from(old & DIRTY);
    if old_home == home {
        *resident -= 1;
        *dirty += old_dirty;
    } else {
        home_lines[old_home] -= 1;
        writebacks[old_home] += old_dirty;
        *spilled += old_dirty;
    }
}

impl Llc {
    /// Creates an empty LLC with the given geometry, for a machine of
    /// `nodes` NUMA nodes: every line it holds must have a home below that.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways, zero DDIO ways,
    /// DDIO ways exceeding total ways, or zero sets), or if `nodes`
    /// exceeds the tags' 8-bit home.
    pub fn new(cfg: LlcConfig, nodes: usize) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.ways <= u8::MAX as usize, "occupancy counts are u8");
        assert!(cfg.ddio_ways <= cfg.ways, "DDIO ways cannot exceed total");
        assert!(cfg.ddio_ways >= 1, "DDIO fills need at least one DDIO way");
        assert!(cfg.sets() > 0, "cache must have at least one set");
        assert!(
            nodes <= 1 << (u32::BITS - TAG_SHIFT - REL_BITS),
            "tags hold an 8-bit home"
        );
        let n_sets = cfg.sets() as usize;
        let slots = n_sets * cfg.ways;
        assert!(slots <= u32::MAX as usize, "residency counts are u32");
        Llc {
            cfg,
            words: vec![0; slots].into_boxed_slice(),
            lens: vec![0; n_sets].into_boxed_slice(),
            home_lines: vec![0; nodes].into_boxed_slice(),
            bases: (0..nodes as u64)
                .map(|home| (home << HOME_LINE_SHIFT) / n_sets as u64)
                .collect(),
            n_sets,
            hits: 0,
            misses: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// The runs of consecutive sets that the `lines` lines from `first`,
    /// all of one home, map to, each with the tag its lines carry: one
    /// division for the first line, then a run up to each wrap of the set
    /// ring, past which the tag moves to the next quotient.
    ///
    /// # Panics
    /// Panics if the last line's quotient, relative to its home's first
    /// line, does not fit in the tag's 22 bits.
    fn runs(&self, first: u64, lines: u64) -> impl Iterator<Item = (u32, Range<usize>)> {
        let n_sets = self.n_sets;
        let (mut tag, mut set) = self.locate(first);
        let end = (self.bases[Self::home_of(tag)] + (1 << REL_BITS)) * n_sets as u64;
        assert!(
            first + lines <= end,
            "walk of {lines} lines from line {first:#x} leaves the LLC's tag range"
        );
        let mut left = lines;
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let stop = (set as u64 + left).min(n_sets as u64) as usize;
            let run = (tag, set..stop);
            left -= (stop - set) as u64;
            set = 0;
            tag += 1;
            Some(run)
        })
    }

    /// `(tag, set)` of one line, by division.
    ///
    /// # Panics
    /// Panics if the line lies 2²² × `n_sets` lines or more past its home's
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

    /// Recency rank, within `set`, of the line tagged `tag` if it is
    /// resident: its position among the set's words, 0 for the most
    /// recently used.
    fn find(&self, set: usize, tag: u32) -> Option<usize> {
        let start = set * self.cfg.ways;
        self.words[start..start + self.lens[set] as usize]
            .iter()
            .position(|&w| w >> TAG_SHIFT == tag)
    }

    fn state_of(word: u32) -> LineState {
        if word & DIRTY != 0 {
            LineState::Modified
        } else {
            LineState::Shared
        }
    }

    /// A CPU of this LLC's socket reads (or, with `write`, writes) the
    /// `lines` lines from `first`, all of one home; `before` and `after`
    /// are the machine's other LLCs, in node order around this one.
    /// Returns the `(hit, miss, c2c, dirty)` line counts: lines found here,
    /// lines served from home memory, lines forwarded from a peer's dirty
    /// copy, and dirty lines to write back, which are also added to
    /// `writebacks` by home.
    ///
    /// A hit moves to the front of its set; a write hit becomes `Modified`
    /// and leaves the DDIO partition, and every peer that holds a line of
    /// the home drops its copy. A miss snoops each such peer in node
    /// order: a write drops the peer's copy and a read downgrades it. A
    /// `Modified` copy is the only one (single-writer invariant), so it is
    /// forwarded cache to cache with an implicit writeback to home and the
    /// snoop stops there. The line then fills the front of its set, over a
    /// free way or the set's LRU line.
    ///
    /// The walk snoops only if some peer holds a line of the home when it
    /// starts. That is exact: a walk only removes lines from its peers, so
    /// a peer that holds none of the home's lines then holds none until
    /// the walk ends.
    pub(crate) fn cpu_walk(
        &mut self,
        before: &mut [Llc],
        after: &mut [Llc],
        first: u64,
        lines: u64,
        write: bool,
        writebacks: &mut [u64],
    ) -> (u64, u64, u64, u64) {
        let home = (first >> HOME_LINE_SHIFT) as usize;
        let snoop = before
            .iter()
            .chain(after.iter())
            .any(|peer| peer.home_lines[home] != 0);
        match (write, snoop) {
            (false, false) => {
                self.cpu_walk_as::<false, false>(before, after, first, lines, writebacks)
            }
            (false, true) => {
                self.cpu_walk_as::<false, true>(before, after, first, lines, writebacks)
            }
            (true, false) => {
                self.cpu_walk_as::<true, false>(before, after, first, lines, writebacks)
            }
            (true, true) => self.cpu_walk_as::<true, true>(before, after, first, lines, writebacks),
        }
    }

    /// [`cpu_walk`](Self::cpu_walk) for a write (`WRITE`) or a read, with
    /// or without (`SNOOP`) the peers. Each set's step is a move-to-front
    /// search: every word the tag scan passes moves back one place over the
    /// next, the new front word in its place. A hit at rank `k` so leaves
    /// the order `to_front` would; a miss leaves the former last word in
    /// hand, the victim of a full set or else the set's new tail.
    #[inline(always)]
    fn cpu_walk_as<const WRITE: bool, const SNOOP: bool>(
        &mut self,
        before: &mut [Llc],
        after: &mut [Llc],
        first: u64,
        lines: u64,
        writebacks: &mut [u64],
    ) -> (u64, u64, u64, u64) {
        let home = (first >> HOME_LINE_SHIFT) as usize;
        let ways = self.cfg.ways;
        let flags = if WRITE { DIRTY } else { 0 };
        let (mut miss, mut c2c) = (0, 0);
        let mut resident = self.home_lines[home];
        let (mut dirty, mut spilled) = (0, 0);
        for (tag, sets) in self.runs(first, lines) {
            let word = tag << TAG_SHIFT | flags;
            let mut set = sets.start;
            let run = &mut self.words[sets.start * ways..sets.end * ways];
            for (words, len) in run.chunks_exact_mut(ways).zip(&mut self.lens[sets]) {
                let n = usize::from(*len);
                let mut held = word;
                let mut found = false;
                for w in &mut words[..n] {
                    held = std::mem::replace(w, held);
                    if held >> TAG_SHIFT == tag {
                        found = true;
                        break;
                    }
                }
                if found {
                    // A write hit's front word is already `word`.
                    if !WRITE {
                        words[0] = held;
                    }
                    if WRITE && SNOOP {
                        for peer in before.iter_mut().chain(after.iter_mut()) {
                            if peer.home_lines[home] != 0 {
                                peer.invalidate_at(set, tag);
                            }
                        }
                    }
                } else {
                    let mut forwarded = false;
                    if SNOOP {
                        for peer in before.iter_mut().chain(after.iter_mut()) {
                            if peer.home_lines[home] == 0 {
                                continue;
                            }
                            let prior = if WRITE {
                                peer.invalidate_at(set, tag)
                            } else {
                                peer.downgrade_at(set, tag)
                            };
                            if prior == Some(LineState::Modified) {
                                dirty += 1;
                                forwarded = true;
                                break;
                            }
                        }
                    }
                    if forwarded {
                        c2c += 1;
                    } else {
                        miss += 1;
                    }
                    resident += 1;
                    if n == ways {
                        let (old, home_lines) = (held, &mut self.home_lines);
                        evict(
                            old,
                            home,
                            &mut resident,
                            &mut dirty,
                            &mut spilled,
                            home_lines,
                            writebacks,
                        );
                    } else {
                        words[n] = held;
                        *len += 1;
                    }
                }
                if SNOOP {
                    set += 1;
                }
            }
        }
        // Every line is a hit, a miss or a cache-to-cache transfer.
        let hit = lines - miss - c2c;
        self.hits += hit;
        self.misses += miss + c2c;
        self.home_lines[home] = resident;
        writebacks[home] += dirty;
        (hit, miss, c2c, dirty + spilled)
    }

    /// A device DMA-writes the `lines` lines from `first`, all of one home,
    /// into this LLC's DDIO ways: a resident line moves to the front of its
    /// set and becomes `Modified` and DDIO; a missing one fills the front
    /// as such, over the partition's victim. Dirty victims are added to
    /// `writebacks` by home; returns how many there were.
    ///
    /// One forward pass per set finds the line, or else the partition's
    /// victim: its LRU line, the set's last DDIO word, once it holds
    /// `ddio_ways` lines, and otherwise where a CPU fill would go, a free
    /// way or the set's last word.
    pub(crate) fn ddio_fill(&mut self, first: u64, lines: u64, writebacks: &mut [u64]) -> u64 {
        let home = (first >> HOME_LINE_SHIFT) as usize;
        let (ways, ddio_ways) = (self.cfg.ways, self.cfg.ddio_ways);
        let mut resident = self.home_lines[home];
        let (mut dirty, mut spilled) = (0, 0);
        for (tag, sets) in self.runs(first, lines) {
            let word = tag << TAG_SHIFT | DIRTY | DDIO;
            let run = &mut self.words[sets.start * ways..sets.end * ways];
            for (words, len) in run.chunks_exact_mut(ways).zip(&mut self.lens[sets]) {
                let n = usize::from(*len);
                let (mut found, mut ddio, mut last_ddio) = (None, 0, 0);
                for (i, &w) in words[..n].iter().enumerate() {
                    if w >> TAG_SHIFT == tag {
                        found = Some(i);
                        break;
                    }
                    if w & DDIO != 0 {
                        ddio += 1;
                        last_ddio = i;
                    }
                }
                let at = match found {
                    Some(at) => at,
                    None => {
                        let at = if ddio >= ddio_ways {
                            last_ddio
                        } else {
                            n.min(ways - 1)
                        };
                        resident += 1;
                        if at < n {
                            let (old, home_lines) = (words[at], &mut self.home_lines);
                            evict(
                                old,
                                home,
                                &mut resident,
                                &mut dirty,
                                &mut spilled,
                                home_lines,
                                writebacks,
                            );
                        } else {
                            *len += 1;
                        }
                        at
                    }
                };
                to_front(words, at, word);
            }
        }
        self.home_lines[home] = resident;
        writebacks[home] += dirty;
        dirty + spilled
    }

    /// Drops this LLC's copies of the `lines` lines from `first`, all of
    /// one home. The words behind each dropped one move up one place, so
    /// its set stays in recency order.
    pub(crate) fn invalidate_lines(&mut self, first: u64, lines: u64) {
        let home = (first >> HOME_LINE_SHIFT) as usize;
        let ways = self.cfg.ways;
        let mut resident = self.home_lines[home];
        for (tag, sets) in self.runs(first, lines) {
            let run = &mut self.words[sets.start * ways..sets.end * ways];
            for (words, len) in run.chunks_exact_mut(ways).zip(&mut self.lens[sets]) {
                let words = &mut words[..usize::from(*len)];
                if let Some(at) = words.iter().position(|&w| w >> TAG_SHIFT == tag) {
                    words.copy_within(at + 1.., at);
                    *len -= 1;
                    resident -= 1;
                }
            }
        }
        self.home_lines[home] = resident;
    }

    /// How many of the `lines` lines from `first`, all of one home, this
    /// LLC holds, without touching recency or statistics.
    pub(crate) fn resident_of(&self, first: u64, lines: u64) -> u64 {
        let ways = self.cfg.ways;
        let mut resident = 0;
        for (tag, sets) in self.runs(first, lines) {
            let run = &self.words[sets.start * ways..sets.end * ways];
            for (words, &len) in run.chunks_exact(ways).zip(&self.lens[sets]) {
                let words = &words[..usize::from(len)];
                resident += u64::from(words.iter().any(|&w| w >> TAG_SHIFT == tag));
            }
        }
        resident
    }

    /// Removes the line tagged `tag` from `set`, returning the state it had.
    /// The words behind it move up one place, so the set stays in recency
    /// order.
    fn invalidate_at(&mut self, set: usize, tag: u32) -> Option<LineState> {
        let at = self.find(set, tag)?;
        let start = set * self.cfg.ways;
        let words = &mut self.words[start..start + self.lens[set] as usize];
        let state = Self::state_of(words[at]);
        words.copy_within(at + 1.., at);
        self.lens[set] -= 1;
        self.home_lines[Self::home_of(tag)] -= 1;
        Some(state)
    }

    /// Downgrades the line tagged `tag` in `set` to `Shared`, returning the
    /// state it had.
    fn downgrade_at(&mut self, set: usize, tag: u32) -> Option<LineState> {
        let at = self.find(set, tag)?;
        let word = &mut self.words[set * self.cfg.ways + at];
        let state = Self::state_of(*word);
        *word &= !DIRTY;
        Some(state)
    }

    /// Looks up without disturbing recency or statistics (snoop from another
    /// agent).
    pub fn peek(&self, addr: PhysAddr) -> Option<LineState> {
        let (tag, set) = self.locate(addr.line());
        self.find(set, tag)
            .map(|at| Self::state_of(self.words[set * self.cfg.ways + at]))
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

    impl Llc {
        /// The line that `tag` names in `set`.
        fn line_of(&self, tag: u32, set: usize) -> u64 {
            let rel = u64::from(tag & ((1 << REL_BITS) - 1));
            (self.bases[Self::home_of(tag)] + rel) * self.n_sets as u64 + set as u64
        }

        /// The resident lines of `set`, most recently used first.
        fn set_lines(&self, set: usize) -> Vec<u64> {
            let start = set * self.cfg.ways;
            self.words[start..start + self.lens[set] as usize]
                .iter()
                .map(|&w| self.line_of(w >> TAG_SHIFT, set))
                .collect()
        }
    }

    /// A CPU of `c`'s socket reads or writes the line at `addr`; there
    /// are no peers.
    fn cpu(c: &mut Llc, addr: PhysAddr, write: bool, wb: &mut [u64]) -> (u64, u64, u64, u64) {
        c.cpu_walk(&mut [], &mut [], addr.line(), 1, write, wb)
    }

    /// A local device writes the line at `addr` into `c`'s DDIO ways.
    fn dma(c: &mut Llc, addr: PhysAddr, wb: &mut [u64]) {
        c.ddio_fill(addr.line(), 1, wb);
    }

    fn invalidate(c: &mut Llc, addr: PhysAddr) -> Option<LineState> {
        let (tag, set) = c.locate(addr.line());
        c.invalidate_at(set, tag)
    }

    fn downgrade(c: &mut Llc, addr: PhysAddr) -> Option<LineState> {
        let (tag, set) = c.locate(addr.line());
        c.downgrade_at(set, tag)
    }

    /// `Llc::cpu_walk` by `llcs[node]`, its peers around it.
    fn cpu_walk_from(
        llcs: &mut [Llc],
        node: usize,
        first: u64,
        lines: u64,
        write: bool,
        writebacks: &mut [u64],
    ) -> (u64, u64, u64, u64) {
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
        let mut wb = [0; 2];
        let a = PhysAddr(0);
        assert_eq!(c.peek(a), None);
        assert_eq!(cpu(&mut c, a, false, &mut wb), (0, 1, 0, 0));
        assert_eq!(cpu(&mut c, a, false, &mut wb), (1, 0, 0, 0));
        assert_eq!(c.peek(a), Some(LineState::Shared));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_in_full_set() {
        let mut c = tiny();
        let mut wb = [0; 2];
        for round in 0..4 {
            cpu(&mut c, addr_for_set(0, round), false, &mut wb);
        }
        // Touch rounds 1..4 so round 0 is LRU.
        for round in 1..4 {
            cpu(&mut c, addr_for_set(0, round), false, &mut wb);
        }
        let round = |r| addr_for_set(0, r).line();
        assert_eq!(c.set_lines(0), [3, 2, 1, 0].map(round));
        cpu(&mut c, addr_for_set(0, 9), false, &mut wb);
        assert_eq!(c.set_lines(0), [9, 3, 2, 1].map(round), "LRU line evicted");
        assert_eq!(wb, [0, 0], "clean victim");
    }

    #[test]
    fn dirty_eviction_is_written_back() {
        let mut c = tiny();
        let mut wb = [0; 2];
        for round in 0..4 {
            cpu(&mut c, addr_for_set(1, round), true, &mut wb);
        }
        cpu(&mut c, addr_for_set(1, 7), false, &mut wb);
        assert_eq!(wb, [1, 0]);
        assert_eq!(c.peek(addr_for_set(1, 0)), None);
    }

    #[test]
    fn ddio_confined_to_partition() {
        let mut c = tiny();
        let mut wb = [0; 2];
        // A CPU line, then the DDIO partition (2 ways) of set 2.
        cpu(&mut c, addr_for_set(2, 5), false, &mut wb);
        dma(&mut c, addr_for_set(2, 0), &mut wb);
        dma(&mut c, addr_for_set(2, 1), &mut wb);
        // A third DDIO write must evict the partition's LRU line even
        // though the set still has a free way, and the CPU line behind it.
        dma(&mut c, addr_for_set(2, 2), &mut wb);
        assert_eq!(wb, [1, 0]);
        let round = |r| addr_for_set(2, r).line();
        assert_eq!(c.set_lines(2), [2, 1, 5].map(round));
        // Non-DDIO fills can still use the remaining way.
        cpu(&mut c, addr_for_set(2, 3), false, &mut wb);
        assert_eq!(c.set_lines(2), [3, 2, 1, 5].map(round));
        assert_eq!(wb, [1, 0]);
    }

    #[test]
    fn upgrade_sticks() {
        let mut c = tiny();
        let mut wb = [0; 2];
        let a = PhysAddr(0);
        cpu(&mut c, a, false, &mut wb);
        cpu(&mut c, a, true, &mut wb);
        assert_eq!(c.peek(a), Some(LineState::Modified));
        // A later read must not lose the dirty bit.
        cpu(&mut c, a, false, &mut wb);
        assert_eq!(c.peek(a), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = tiny();
        let mut wb = [0; 2];
        let a = PhysAddr(128);
        cpu(&mut c, a, true, &mut wb);
        assert_eq!(downgrade(&mut c, a), Some(LineState::Modified));
        assert_eq!(c.peek(a), Some(LineState::Shared));
        assert_eq!(invalidate(&mut c, a), Some(LineState::Shared));
        assert_eq!(invalidate(&mut c, a), None);
        assert_eq!(downgrade(&mut c, a), None);
    }

    #[test]
    fn invalidation_keeps_recency_order() {
        let mut c = tiny();
        let mut wb = [0; 2];
        for round in 0..4 {
            cpu(&mut c, addr_for_set(3, round), false, &mut wb);
        }
        invalidate(&mut c, addr_for_set(3, 2));
        let round = |r| addr_for_set(3, r).line();
        assert_eq!(c.set_lines(3), [3, 1, 0].map(round));
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = tiny();
        cpu(&mut c, PhysAddr(0), false, &mut [0; 2]);
        let h = c.hits();
        c.peek(PhysAddr(0));
        assert_eq!(c.hits(), h);
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny();
        cpu(&mut c, PhysAddr(0), true, &mut [0; 2]);
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
    #[should_panic(expected = "at least one DDIO way")]
    fn zero_ddio_ways() {
        Llc::new(
            LlcConfig {
                capacity_bytes: 1024,
                ways: 2,
                ddio_ways: 0,
            },
            2,
        );
    }

    #[test]
    fn prop_occupancy_never_exceeds_ways() {
        let mut r = SimRng::seed(0xcac4e);
        let mut wb = [0; 2];
        for _ in 0..16 {
            let ops = 1 + r.below(299) as usize;
            let mut c = tiny();
            for _ in 0..ops {
                let a = PhysAddr(r.below(64) * LINE_BYTES);
                if r.chance(0.5) {
                    dma(&mut c, a, &mut wb);
                } else {
                    cpu(&mut c, a, false, &mut wb);
                }
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
                let lines = 1 + r.below(8);
                match r.below(10) {
                    0..=3 => {
                        c.ddio_fill(line, lines, &mut writebacks);
                    }
                    4..=6 => {
                        c.cpu_walk(&mut [], &mut [], line, lines, write, &mut writebacks);
                    }
                    7 => {
                        invalidate(&mut c, a);
                    }
                    8 => {
                        downgrade(&mut c, a);
                    }
                    _ if r.below(5) == 0 => c.flush_all(),
                    _ => {}
                }
                let mut recount = [0u32; 2];
                for set in 0..c.n_sets {
                    let start = set * c.cfg.ways;
                    for &w in &c.words[start..start + c.lens[set] as usize] {
                        recount[Llc::home_of(w >> TAG_SHIFT)] += 1;
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
                cpu(&mut c, PhysAddr(l * LINE_BYTES), false, &mut [0]);
            }
            // With a 28k-set cache and <50 distinct lines, nothing can have
            // been evicted: every line must still be resident.
            for &l in &lines {
                assert!(c.peek(PhysAddr(l * LINE_BYTES)).is_some());
            }
        }
    }

    /// One resident line of the stamp oracle.
    #[derive(Debug, Clone, Copy)]
    struct Line {
        line: u64,
        flags: u32,
        stamp: u64,
    }

    /// How often an oracle's lines took the shapes that stress the
    /// recency order.
    #[derive(Debug, Default, Clone, Copy)]
    struct Shapes {
        /// CPU fills that evicted a full set's LRU line.
        full_set_evictions: usize,
        /// Fills that evicted a line of another home than the filled
        /// line's, which `Llc::fill` counts outside the walk's locals.
        foreign_evictions: usize,
        /// DDIO fills whose victim had older lines behind it.
        deep_ddio_victims: usize,
        /// DDIO misses whose partition had room, so they filled where a
        /// CPU miss would.
        roomy_ddio_fills: usize,
        /// CPU walks that began while a peer held a line of their home,
        /// so `cpu_walk` ran its snooping instance.
        snooping_walks: usize,
        /// CPU walks that began while no peer held a line of their home.
        private_walks: usize,
    }

    /// The stamp oracle: an LLC whose sets are lists of lines with
    /// unbounded `u64` recency stamps from one counter. Every hit and fill
    /// takes a fresh stamp, the victims are found by scans with a branch
    /// per comparison, and it is driven one line at a time, so it shares
    /// no logic with `Llc`'s walks.
    #[derive(Debug, Clone)]
    struct StampLlc {
        cfg: LlcConfig,
        sets: Vec<Vec<Line>>,
        home_lines: Vec<u32>,
        tick: u64,
        hits: u64,
        misses: u64,
        shapes: Shapes,
    }

    impl StampLlc {
        fn new(cfg: LlcConfig, nodes: usize) -> Self {
            StampLlc {
                cfg,
                sets: vec![Vec::new(); cfg.sets() as usize],
                home_lines: vec![0; nodes],
                tick: 0,
                hits: 0,
                misses: 0,
                shapes: Shapes::default(),
            }
        }

        fn set_of(&self, line: u64) -> usize {
            (line % self.sets.len() as u64) as usize
        }

        fn find(&self, line: u64) -> Option<usize> {
            self.sets[self.set_of(line)]
                .iter()
                .position(|l| l.line == line)
        }

        /// Lines of `set` newer than its `i`-th: its word's position in
        /// `Llc`'s order.
        fn rank(&self, set: usize, i: usize) -> usize {
            let stamp = self.sets[set][i].stamp;
            self.sets[set].iter().filter(|l| l.stamp > stamp).count()
        }

        /// Gives the `i`-th line of `set` a fresh stamp and `flags`.
        fn touch(&mut self, set: usize, i: usize, flags: u32) {
            self.tick += 1;
            self.sets[set][i] = Line {
                flags,
                stamp: self.tick,
                ..self.sets[set][i]
            };
        }

        /// Where a non-DDIO fill goes: a free way (`None`) or the set's
        /// LRU line.
        fn victim_scan(&self, set: usize) -> Option<usize> {
            let lines = &self.sets[set];
            if lines.len() < self.cfg.ways {
                return None;
            }
            let mut lru = 0;
            for i in 1..lines.len() {
                if lines[i].stamp < lines[lru].stamp {
                    lru = i;
                }
            }
            Some(lru)
        }

        /// Where a DDIO fill goes: the partition's LRU line once it holds
        /// `ddio_ways` lines, else where `victim_scan` says.
        fn ddio_victim_scan(&self, set: usize) -> Option<usize> {
            let lines = &self.sets[set];
            let mut ddio_resident = 0;
            let mut ddio_lru: Option<usize> = None;
            for (i, l) in lines.iter().enumerate() {
                if l.flags & DDIO != 0 {
                    ddio_resident += 1;
                    if ddio_lru.is_none_or(|b| l.stamp < lines[b].stamp) {
                        ddio_lru = Some(i);
                    }
                }
            }
            if ddio_resident >= self.cfg.ddio_ways {
                ddio_lru
            } else {
                self.victim_scan(set)
            }
        }

        /// Puts `line` in its set at a fresh stamp, evicting `victim` (a
        /// free way when `None`); a dirty victim joins `writebacks`.
        fn fill(&mut self, line: u64, flags: u32, victim: Option<usize>, writebacks: &mut [u64]) {
            let set = self.set_of(line);
            if let Some(i) = victim {
                let old = self.sets[set].swap_remove(i);
                let home = (old.line >> HOME_LINE_SHIFT) as usize;
                self.shapes.foreign_evictions +=
                    usize::from(home != (line >> HOME_LINE_SHIFT) as usize);
                self.home_lines[home] -= 1;
                writebacks[home] += u64::from(old.flags & DIRTY);
            }
            self.tick += 1;
            self.home_lines[(line >> HOME_LINE_SHIFT) as usize] += 1;
            self.sets[set].push(Line {
                line,
                flags,
                stamp: self.tick,
            });
        }

        fn invalidate(&mut self, line: u64) -> Option<LineState> {
            let i = self.find(line)?;
            let set = self.set_of(line);
            let old = self.sets[set].swap_remove(i);
            self.home_lines[(line >> HOME_LINE_SHIFT) as usize] -= 1;
            Some(Llc::state_of(old.flags))
        }

        fn downgrade(&mut self, line: u64) -> Option<LineState> {
            let i = self.find(line)?;
            let set = self.set_of(line);
            let state = Llc::state_of(self.sets[set][i].flags);
            self.sets[set][i].flags &= !DIRTY;
            Some(state)
        }

        /// A device writes `line` into the DDIO ways.
        fn ddio_line(&mut self, line: u64, writebacks: &mut [u64]) {
            let set = self.set_of(line);
            match self.find(line) {
                Some(i) => self.touch(set, i, DIRTY | DDIO),
                None => {
                    let ddio_resident = self.sets[set]
                        .iter()
                        .filter(|l| l.flags & DDIO != 0)
                        .count();
                    self.shapes.roomy_ddio_fills += usize::from(ddio_resident < self.cfg.ddio_ways);
                    let victim = self.ddio_victim_scan(set);
                    self.shapes.deep_ddio_victims += usize::from(
                        victim.is_some_and(|i| self.rank(set, i) + 1 < self.sets[set].len()),
                    );
                    self.fill(line, DIRTY | DDIO, victim, writebacks);
                }
            }
        }

        /// The resident lines of `set`, newest first, as `llc`'s way words.
        fn words(&self, set: usize, llc: &Llc) -> Vec<u32> {
            let mut lines = self.sets[set].clone();
            lines.sort_by_key(|l| std::cmp::Reverse(l.stamp));
            lines
                .iter()
                .map(|l| llc.locate(l.line).0 << TAG_SHIFT | l.flags)
                .collect()
        }
    }

    /// A CPU of `llcs[node]`'s socket reads or writes `line`: a hit takes
    /// a fresh stamp (a write hit becomes `Modified`, out of the DDIO
    /// partition, and drops every peer copy); a miss snoops the peers in
    /// node order and fills. Returns the `(hit, miss, c2c)` counts of the
    /// line.
    fn cpu_line(
        llcs: &mut [StampLlc],
        node: usize,
        line: u64,
        write: bool,
        writebacks: &mut [u64],
    ) -> (u64, u64, u64) {
        let llc = &mut llcs[node];
        let set = llc.set_of(line);
        if let Some(i) = llc.find(line) {
            llc.hits += 1;
            let flags = if write { DIRTY } else { llc.sets[set][i].flags };
            llc.touch(set, i, flags);
            if write {
                for (peer, llc) in llcs.iter_mut().enumerate() {
                    if peer != node {
                        llc.invalidate(line);
                    }
                }
            }
            return (1, 0, 0);
        }
        llc.misses += 1;
        let victim = llc.victim_scan(set);
        llc.shapes.full_set_evictions += usize::from(victim.is_some());
        let mut counts = (0, 1, 0);
        for (peer, llc) in llcs.iter_mut().enumerate() {
            if peer == node {
                continue;
            }
            let prior = if write {
                llc.invalidate(line)
            } else {
                llc.downgrade(line)
            };
            if prior == Some(LineState::Modified) {
                writebacks[(line >> HOME_LINE_SHIFT) as usize] += 1;
                counts = (0, 0, 1);
                break;
            }
        }
        let flags = if write { DIRTY } else { 0 };
        llcs[node].fill(line, flags, victim, writebacks);
        counts
    }

    /// Asserts that `llc` holds the oracle's lines, newest first, with
    /// the same flags, and the same counters.
    fn assert_same(llc: &Llc, oracle: &StampLlc, at: &str) {
        for set in 0..llc.n_sets {
            let start = set * llc.cfg.ways;
            let words = &llc.words[start..start + llc.lens[set] as usize];
            assert_eq!(words, oracle.words(set, llc), "{at}: set {set}");
        }
        assert_eq!(*llc.home_lines, *oracle.home_lines, "{at}: home_lines");
        assert_eq!(
            (llc.hits, llc.misses),
            (oracle.hits, oracle.misses),
            "{at}: hits, misses"
        );
    }

    /// Random schedules of multi-line walks on the LLCs of a 2- and a
    /// 4-node machine of geometry `cfg`, run once through `cpu_walk` and
    /// `ddio_fill` and once, line by line, through the stamp oracle. After
    /// every walk each set's resident words must be the oracle's lines
    /// sorted newest first, and the residency counts, hits, misses,
    /// writebacks and returned counts must agree; the dirty-line count a
    /// walk returns must be the lines it added to the writebacks. Walks
    /// cover up to `max_lines` of each home's first `universe` lines, which
    /// share the cache's sets, so fills evict lines of other homes; other
    /// nodes' reads and writes leave `Shared` and `Modified` copies for the
    /// walks to snoop and invalidate, through `invalidate_lines` before a
    /// DDIO write. After every walk each LLC's `resident_of` over the walk's
    /// lines must count the oracle's resident ones. Full-set CPU
    /// evictions, evictions of another home's line, deep DDIO victims,
    /// DDIO fills into a partition with room, and CPU walks with and
    /// without a peer that holds their home must each have occurred.
    fn check_against_stamp_oracle(cfg: LlcConfig, universe: u64, max_lines: u64, seed: u64) {
        let mut r = SimRng::seed(seed);
        let mut seen = Shapes::default();
        for nodes in [2, 4] {
            for schedule in 0..24 {
                let mut walked: Vec<Llc> = (0..nodes).map(|_| Llc::new(cfg, nodes)).collect();
                let mut oracle: Vec<StampLlc> =
                    (0..nodes).map(|_| StampLlc::new(cfg, nodes)).collect();
                let (mut walked_wb, mut oracle_wb) = (vec![0; nodes], vec![0; nodes]);
                for step in 0..200 {
                    let at = format!("{nodes} nodes, schedule {schedule} step {step}");
                    let home = r.below(nodes as u64);
                    let lines = 1 + r.below(max_lines);
                    let first = (home << HOME_LINE_SHIFT) + r.below(universe + 1 - lines);
                    let span = first..first + lines;
                    let owed: u64 = oracle_wb.iter().sum();
                    // A DDIO write fills the home's LLC, as a device on
                    // the home node does; a CPU walk runs on any node.
                    let dirty = if r.chance(0.25) {
                        let node = home as usize;
                        // The other LLCs' copies go first, as in `dma_write`.
                        for (peer, llc) in walked.iter_mut().enumerate() {
                            if peer != node {
                                llc.invalidate_lines(first, lines);
                            }
                        }
                        let dirty = walked[node].ddio_fill(first, lines, &mut walked_wb);
                        for line in span.clone() {
                            for (peer, llc) in oracle.iter_mut().enumerate() {
                                if peer != node {
                                    llc.invalidate(line);
                                }
                            }
                            oracle[node].ddio_line(line, &mut oracle_wb);
                        }
                        dirty
                    } else {
                        let node = r.below(nodes as u64) as usize;
                        let write = r.chance(0.5);
                        let peers_hold = (0..nodes).any(|peer| {
                            peer != node && walked[peer].home_lines[home as usize] != 0
                        });
                        if peers_hold {
                            seen.snooping_walks += 1;
                        } else {
                            seen.private_walks += 1;
                        }
                        let (hit, miss, c2c, dirty) =
                            cpu_walk_from(&mut walked, node, first, lines, write, &mut walked_wb);
                        let mut want = (0, 0, 0);
                        for line in span.clone() {
                            let (h, m, c) =
                                cpu_line(&mut oracle, node, line, write, &mut oracle_wb);
                            want = (want.0 + h, want.1 + m, want.2 + c);
                        }
                        assert_eq!((hit, miss, c2c), want, "{at}: (hit, miss, c2c)");
                        dirty
                    };
                    let added = oracle_wb.iter().sum::<u64>() - owed;
                    assert_eq!(dirty, added, "{at}: returned dirty lines");
                    for (w, o) in walked.iter().zip(&oracle) {
                        assert_same(w, o, &at);
                        let held = span.clone().filter(|&line| o.find(line).is_some());
                        assert_eq!(
                            w.resident_of(first, lines),
                            held.count() as u64,
                            "{at}: resident_of"
                        );
                    }
                    assert_eq!(walked_wb, oracle_wb, "{at}: writebacks");
                }
                for o in &oracle {
                    seen.full_set_evictions += o.shapes.full_set_evictions;
                    seen.foreign_evictions += o.shapes.foreign_evictions;
                    seen.deep_ddio_victims += o.shapes.deep_ddio_victims;
                    seen.roomy_ddio_fills += o.shapes.roomy_ddio_fills;
                }
            }
        }
        assert!(seen.full_set_evictions > 0, "no CPU fill evicted: {seen:?}");
        assert!(seen.foreign_evictions > 0, "no other-home victim: {seen:?}");
        assert!(seen.deep_ddio_victims > 0, "no deep DDIO victim: {seen:?}");
        assert!(seen.roomy_ddio_fills > 0, "no roomy DDIO fill: {seen:?}");
        assert!(seen.snooping_walks > 0, "no snooping CPU walk: {seen:?}");
        assert!(seen.private_walks > 0, "no private CPU walk: {seen:?}");
    }

    /// `tiny`'s geometry: 4 ways, 2 of them DDIO ways.
    #[test]
    fn recency_order_matches_the_stamp_oracle_at_4_ways() {
        check_against_stamp_oracle(tiny().cfg, 32, 12, 0x1007);
    }

    /// Broadwell's 20 ways and 2 DDIO ways over 4 sets: moves run up to
    /// 19 words, and a DDIO victim can have up to 18 older lines behind it.
    #[test]
    fn recency_order_matches_the_stamp_oracle_at_20_ways() {
        let cfg = LlcConfig {
            capacity_bytes: 4 * 20 * LINE_BYTES,
            ..LlcConfig::broadwell_14c()
        };
        check_against_stamp_oracle(cfg, 160, 40, 0x1008);
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
                    let mut line = start;
                    for (tag, sets) in c.runs(start, lines) {
                        assert!(
                            sets.start == 0 || line == start,
                            "a later run starts at set 0"
                        );
                        assert!(sets.end == c.n_sets || line + sets.len() as u64 == start + lines);
                        for set in sets {
                            assert_eq!((tag, set), c.locate(line), "line {line:#x}, {n_sets} sets");
                            assert_eq!(Llc::home_of(tag), home as usize);
                            assert_eq!(c.line_of(tag, set), line);
                            line += 1;
                        }
                    }
                    assert_eq!(line, start + lines, "the runs cover every line once");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "leaves the LLC's tag range")]
    fn walk_past_the_tag_range_panics() {
        // 2^22 quotients of `tiny`'s 4 sets cover a home's first 2^24 lines.
        let _ = tiny().runs((1 << 24) - 2, 3);
    }

    #[test]
    fn broadwell_slab_is_four_bytes_per_way() {
        let c = Llc::new(LlcConfig::broadwell_14c(), 2);
        assert_eq!(std::mem::size_of_val(&*c.words), 4 * c.n_sets * c.cfg.ways);
    }
}
