//! Descriptor rings: "a cyclic array (known as a 'ring buffer' or simply a
//! 'ring') in DRAM, which the OS accesses through load/store operations,
//! and the device accesses using DMA" (§2.3).
//!
//! The ring stores the simulated descriptor *contents* in a `VecDeque` while
//! tracking the *addresses* of its slots so both sides can charge the memory
//! system for their accesses: the OS `cpu_write`s a slot before ringing the
//! doorbell; the device `dma_read`s it before processing.
//!
//! Entries occupy consecutive slots from `head`, so no entry stores its
//! slot. The deque takes host memory only at the first post or fill, and
//! then the ring's whole capacity at once: the driver builds rings for
//! every core on every PF and most of them never carry an entry, while a
//! ring that does never grows again.

use std::collections::VecDeque;

use memsys::PhysAddr;

/// A cyclic descriptor ring in host memory.
#[derive(Debug)]
pub struct DescRing<T> {
    base: PhysAddr,
    entry_bytes: u64,
    capacity: usize,
    /// The oldest outstanding entry's slot; the next post takes the slot
    /// `entries.len()` after it.
    head: usize,
    entries: VecDeque<T>,
}

impl<T> DescRing<T> {
    /// Creates a ring of `capacity` slots of `entry_bytes` each, backed by
    /// host memory at `base`. Allocates nothing until the first post.
    ///
    /// # Panics
    /// Panics if `capacity` or `entry_bytes` is zero.
    pub fn new(base: PhysAddr, entry_bytes: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "ring needs capacity");
        assert!(entry_bytes > 0, "ring entries need a size");
        DescRing {
            base,
            entry_bytes,
            capacity,
            head: 0,
            entries: VecDeque::new(),
        }
    }

    /// The slot `n` places after `slot`, for `slot, n < capacity`.
    fn wrap(&self, slot: usize, n: usize) -> usize {
        let next = slot + n;
        if next >= self.capacity {
            next - self.capacity
        } else {
            next
        }
    }

    /// The host address of slot `slot`.
    fn slot_addr(&self, slot: usize) -> PhysAddr {
        self.base.offset(slot as u64 * self.entry_bytes)
    }

    /// The slot address the *next* post will occupy (for charging the DMA
    /// before committing the entry), or `None` if the ring is full.
    pub fn next_slot_addr(&self) -> Option<PhysAddr> {
        let len = self.entries.len();
        if len >= self.capacity {
            return None;
        }
        Some(self.slot_addr(self.wrap(self.head, len)))
    }

    /// Posts an entry at the producer position; returns the slot address the
    /// producer wrote (so it can charge the memory system), or `None` if the
    /// ring is full.
    pub fn post(&mut self, entry: T) -> Option<PhysAddr> {
        let addr = self.next_slot_addr()?;
        self.take_storage();
        self.entries.push_back(entry);
        Some(addr)
    }

    /// Posts every entry of `entries` in one step, in order: the same
    /// entries and slots as posting them one at a time.
    ///
    /// # Panics
    /// Panics if `entries` does not fit the ring's free slots.
    pub fn fill(&mut self, entries: impl ExactSizeIterator<Item = T>) {
        let n = entries.len();
        assert!(
            n <= self.capacity - self.entries.len(),
            "{n} entries overflow a ring with {} free slots",
            self.capacity - self.entries.len()
        );
        if n > 0 {
            self.take_storage();
            self.entries.extend(entries);
        }
    }

    /// Reserves the whole ring's storage if the ring holds none yet.
    fn take_storage(&mut self) {
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(self.capacity);
        }
    }

    /// Consumes the oldest entry; returns it with its slot address, or
    /// `None` if empty.
    pub fn consume(&mut self) -> Option<(PhysAddr, T)> {
        let entry = self.entries.pop_front()?;
        let addr = self.slot_addr(self.head);
        self.head = self.wrap(self.head, 1);
        Some((addr, entry))
    }

    /// Peeks at the oldest entry without consuming it.
    pub fn peek(&self) -> Option<&T> {
        self.entries.front()
    }

    /// Outstanding (posted but unconsumed) entries, oldest first. Audit
    /// code walks completion queues with this to count resources (e.g. Rx
    /// buffers) parked in CQEs the host has not reaped yet.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Outstanding (posted but unconsumed) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the ring has no free slots.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    fn ring(cap: usize) -> DescRing<u32> {
        DescRing::new(PhysAddr(0x1000), 64, cap)
    }

    #[test]
    fn fifo_order() {
        let mut r = ring(4);
        r.post(1).unwrap();
        r.post(2).unwrap();
        assert_eq!(r.consume().unwrap().1, 1);
        assert_eq!(r.consume().unwrap().1, 2);
        assert!(r.consume().is_none());
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = ring(2);
        assert!(r.post(1).is_some());
        assert!(r.post(2).is_some());
        assert!(r.post(3).is_none());
        assert!(r.is_full());
        r.consume();
        assert!(r.post(3).is_some());
    }

    #[test]
    fn slot_addresses_wrap() {
        let mut r = ring(2);
        let a0 = r.post(1).unwrap();
        let a1 = r.post(2).unwrap();
        assert_eq!(a0, PhysAddr(0x1000));
        assert_eq!(a1, PhysAddr(0x1040));
        r.consume();
        let a2 = r.post(3).unwrap();
        assert_eq!(a2, a0, "wraps back to slot 0");
    }

    #[test]
    fn consume_returns_matching_slot() {
        let mut r = ring(3);
        let posted = r.post(7).unwrap();
        let (addr, v) = r.consume().unwrap();
        assert_eq!(addr, posted);
        assert_eq!(v, 7);
    }

    #[test]
    fn peek_is_nondestructive() {
        let mut r = ring(2);
        r.post(9);
        assert_eq!(r.peek(), Some(&9));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn unposted_ring_holds_no_storage() {
        let mut r = ring(1024);
        assert_eq!(r.entries.capacity(), 0);
        assert!(r.consume().is_none());
        assert!(r.next_slot_addr().is_some());
        assert_eq!(r.entries.capacity(), 0, "only a post takes storage");
    }

    #[test]
    fn first_post_reserves_the_whole_ring() {
        let cap = 5;
        let mut r = ring(cap);
        r.post(0).unwrap();
        let reserved = r.entries.capacity();
        assert!(reserved >= cap, "first post reserved {reserved} of {cap}");
        // Fill, then cycle through several wraps at every fill level.
        // `next` is the next entry, and so the number of posts so far.
        let mut next = 1;
        while r.post(next).is_some() {
            next += 1;
        }
        for round in 0..4 * cap {
            for _ in 0..=round % cap {
                r.consume().unwrap();
            }
            while r.post(next).is_some() {
                next += 1;
            }
            assert!(r.is_full());
            assert_eq!(r.entries.capacity(), reserved, "round {round} grew");
        }
        assert!(next as usize > 3 * cap, "must wrap several times");
    }

    #[test]
    fn empty_fill_holds_no_storage() {
        let mut r = ring(8);
        r.fill(std::iter::empty());
        assert!(r.is_empty());
        assert_eq!(r.entries.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn fill_past_the_free_slots_panics() {
        let mut r = ring(4);
        r.post(0);
        r.fill(1..5);
    }

    #[test]
    fn prop_fill_matches_one_post_at_a_time() {
        let mut rng = SimRng::seed(0xf111);
        for case in 0..64 {
            let cap = 1 + rng.below(9) as usize;
            let base = PhysAddr(0x4000 * (1 + rng.below(64)));
            let mut filled = DescRing::new(base, 64, cap);
            let mut posted = DescRing::new(base, 64, cap);
            // The same head and entries on both before the fill.
            for i in 0..rng.below(2 * cap as u64) as u32 {
                filled.post(i).unwrap();
                posted.post(i).unwrap();
                filled.consume().unwrap();
                posted.consume().unwrap();
            }
            for i in 0..rng.below(cap as u64) as u32 {
                filled.post(50 + i).unwrap();
                posted.post(50 + i).unwrap();
            }
            let n = rng.below((cap - posted.len()) as u64 + 1) as u32;
            filled.fill(100..100 + n);
            for e in 100..100 + n {
                posted.post(e).unwrap();
            }
            let at = format!("case {case} (cap {cap}, fill {n})");
            assert!(filled.iter().eq(posted.iter()), "{at}: entries");
            assert_eq!(filled.entries.capacity(), posted.entries.capacity(), "{at}");
            // Then the same schedule on both, through several wraps.
            for step in 0..8 * cap as u32 {
                if rng.chance(0.5) {
                    assert_eq!(filled.post(step), posted.post(step), "{at} step {step}");
                } else {
                    assert_eq!(filled.consume(), posted.consume(), "{at} step {step}");
                }
                assert_eq!(filled.next_slot_addr(), posted.next_slot_addr(), "{at}");
                assert_eq!(filled.len(), posted.len(), "{at}");
            }
        }
    }

    /// The ring as it was when every entry stored its slot index and slots
    /// wrapped with `%`: the reference for the slot-free ring.
    struct SlotRing {
        base: PhysAddr,
        entry_bytes: u64,
        capacity: usize,
        head: usize,
        entries: VecDeque<(usize, u32)>,
    }

    impl SlotRing {
        fn slot_addr(&self, idx: usize) -> PhysAddr {
            self.base
                .offset((idx % self.capacity) as u64 * self.entry_bytes)
        }

        fn next_slot_addr(&self) -> Option<PhysAddr> {
            if self.entries.len() >= self.capacity {
                return None;
            }
            Some(self.slot_addr((self.head + self.entries.len()) % self.capacity))
        }

        fn post(&mut self, entry: u32) -> Option<PhysAddr> {
            if self.entries.len() >= self.capacity {
                return None;
            }
            let slot = (self.head + self.entries.len()) % self.capacity;
            self.entries.push_back((slot, entry));
            Some(self.slot_addr(slot))
        }

        fn consume(&mut self) -> Option<(PhysAddr, u32)> {
            let (slot, entry) = self.entries.pop_front()?;
            self.head = (slot + 1) % self.capacity;
            Some((self.slot_addr(slot), entry))
        }
    }

    #[test]
    fn prop_matches_the_slot_storing_ring() {
        let mut rng = SimRng::seed(0x5107);
        for case in 0..64 {
            let cap = 1 + rng.below(9) as usize;
            let entry_bytes = [16, 64, 88][rng.below(3) as usize];
            let base = PhysAddr(0x4000 * (1 + rng.below(64)));
            let mut r = DescRing::new(base, entry_bytes, cap);
            let mut oracle = SlotRing {
                base,
                entry_bytes,
                capacity: cap,
                head: 0,
                entries: VecDeque::new(),
            };
            // Each case drifts towards posting or consuming, so schedules
            // dwell both at full and at empty rings.
            let p_post = 0.2 + 0.6 * rng.unit();
            for step in 0..400u32 {
                let at = format!("case {case} (cap {cap}) step {step}");
                if rng.chance(p_post) {
                    assert_eq!(r.post(step), oracle.post(step), "{at}: post");
                } else {
                    assert_eq!(r.consume(), oracle.consume(), "{at}: consume");
                }
                assert_eq!(r.next_slot_addr(), oracle.next_slot_addr(), "{at}");
                assert_eq!(r.peek(), oracle.entries.front().map(|(_, e)| e), "{at}");
                assert_eq!(r.len(), oracle.entries.len(), "{at}: len");
            }
        }
    }

    #[test]
    fn prop_never_exceeds_capacity() {
        let mut rng = SimRng::seed(0x4149);
        for _ in 0..16 {
            let ops = 1 + rng.below(499) as usize;
            let mut r = ring(8);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut next = 0u32;
            for _ in 0..ops {
                if rng.chance(0.5) {
                    let ok = r.post(next).is_some();
                    if model.len() < 8 {
                        assert!(ok);
                        model.push_back(next);
                    } else {
                        assert!(!ok);
                    }
                    next += 1;
                } else {
                    let got = r.consume().map(|(_, v)| v);
                    assert_eq!(got, model.pop_front());
                }
                assert!(r.len() <= 8);
                assert_eq!(r.len(), model.len());
            }
        }
    }
}
