//! NUMA-local buffer pools.
//!
//! Receive buffers are allocated per-queue on the queue's node (§2.3: "the
//! associated ring buffers and packet buffers are allocated locally");
//! transmit kernel buffers per node. Buffers recycle through free lists —
//! the recycling is what keeps them *cache-hot*, which is exactly where
//! DDIO pays off.
//!
//! A pool takes one address reservation for all its buffers, so building
//! one costs O(1) whatever its size. Buffer `i` sits at `base + i × stride`,
//! which is where one line-aligned allocation per buffer would put it.
//! The free list holds only buffers that came back, and takes host memory
//! at the first return: most queues never carry a packet.

use memsys::topology::LINE_BYTES;
use memsys::{MemSystem, NodeId, PhysAddr};

/// A free list of equal-sized buffers on one node.
#[derive(Debug)]
pub struct BufPool {
    base: PhysAddr,
    /// `buf_bytes` rounded up to a whole line.
    stride: u64,
    total: usize,
    /// Buffers never handed out: `base + i × stride` for `i < fresh`.
    fresh: usize,
    /// Returned buffers, the next to hand out last.
    free: Vec<PhysAddr>,
}

impl BufPool {
    /// Reserves `count` buffers of `buf_bytes` each on `node`.
    ///
    /// # Panics
    /// Panics if `buf_bytes` is zero or the pool does not fit the address
    /// space.
    pub fn new(mem: &mut MemSystem, node: NodeId, buf_bytes: u64, count: usize) -> Self {
        assert!(buf_bytes > 0, "pool buffers need a size");
        let stride = buf_bytes.div_ceil(LINE_BYTES) * LINE_BYTES;
        // The last buffer ends at its own size, not at a full stride, so the
        // node's allocator ends where `count` per-buffer calls left it.
        // An empty pool reserves nothing and no buffer ever lies in it.
        let base = match count.checked_sub(1) {
            None => PhysAddr(0),
            Some(last) => {
                let bytes = (last as u64)
                    .checked_mul(stride)
                    .and_then(|b| b.checked_add(buf_bytes))
                    .expect("pool size overflow");
                mem.alloc(node, bytes)
            }
        };
        BufPool {
            base,
            stride,
            total: count,
            fresh: count,
            free: Vec::new(),
        }
    }

    /// Takes a buffer, if any remain: the last one returned, or else the
    /// highest-addressed one never handed out.
    pub fn take(&mut self) -> Option<PhysAddr> {
        if let Some(buf) = self.free.pop() {
            return Some(buf);
        }
        self.fresh = self.fresh.checked_sub(1)?;
        Some(self.base.offset(self.fresh as u64 * self.stride))
    }

    /// Returns a buffer to the pool.
    ///
    /// # Panics
    /// Panics if the pool would exceed its original size (double free), or
    /// if `buf` is not one of this pool's buffers.
    pub fn put(&mut self, buf: PhysAddr) {
        assert!(
            self.available() < self.total,
            "pool over-filled: double free?"
        );
        let off = buf.0.wrapping_sub(self.base.0);
        assert!(
            off < self.total as u64 * self.stride && off.is_multiple_of(self.stride),
            "buffer returned to wrong pool"
        );
        if self.free.capacity() == 0 {
            self.free.reserve_exact(self.total);
        }
        self.free.push(buf);
    }

    /// Free buffers currently available.
    pub fn available(&self) -> usize {
        self.free.len() + self.fresh
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::MemConfig;
    use simcore::SimRng;

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::dual_socket_broadwell())
    }

    #[test]
    fn take_put_cycle() {
        let mut m = mem();
        let mut p = BufPool::new(&mut m, NodeId(0), 2048, 4);
        assert_eq!(p.available(), 4);
        let b = p.take().unwrap();
        assert_eq!(b.home(), NodeId(0));
        assert_eq!(p.available(), 3);
        p.put(b);
        assert_eq!(p.available(), 4);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut m = mem();
        let mut p = BufPool::new(&mut m, NodeId(1), 2048, 1);
        let b = p.take().unwrap();
        assert!(p.take().is_none());
        p.put(b);
        assert!(p.take().is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn overfill_detected() {
        let mut m = mem();
        let extra = m.alloc(NodeId(0), 2048);
        let mut p = BufPool::new(&mut m, NodeId(0), 2048, 1);
        p.put(extra);
    }

    #[test]
    #[should_panic(expected = "wrong pool")]
    fn foreign_buffer_from_the_same_node_detected() {
        let mut m = mem();
        let mut p = BufPool::new(&mut m, NodeId(0), 2048, 2);
        let mut other = BufPool::new(&mut m, NodeId(0), 2048, 2);
        p.take().unwrap();
        // `other`'s lowest buffer, which starts where `p`'s last one ends.
        other.take().unwrap();
        p.put(other.take().unwrap());
    }

    #[test]
    fn buffers_are_distinct() {
        let mut m = mem();
        let mut p = BufPool::new(&mut m, NodeId(0), 2048, 16);
        let mut seen = simcore::FxHashSet::default();
        while let Some(b) = p.take() {
            assert!(seen.insert(b.0), "duplicate buffer");
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn unused_pool_holds_no_storage() {
        let mut m = mem();
        let mut p = BufPool::new(&mut m, NodeId(0), 2048, 4096);
        assert_eq!(p.free.capacity(), 0);
        while p.take().is_some() {}
        assert_eq!(p.free.capacity(), 0, "only a return takes storage");
    }

    /// The pool as it was when `new` made one allocation per buffer and the
    /// free list held every buffer: the reference for the one-reservation
    /// pool.
    struct PerBufferPool {
        free: Vec<PhysAddr>,
        total: usize,
    }

    impl PerBufferPool {
        fn new(mem: &mut MemSystem, node: NodeId, buf_bytes: u64, count: usize) -> Self {
            let free = (0..count).map(|_| mem.alloc(node, buf_bytes)).collect();
            PerBufferPool { free, total: count }
        }

        fn take(&mut self) -> Option<PhysAddr> {
            self.free.pop()
        }

        fn put(&mut self, buf: PhysAddr) {
            assert!(self.free.len() < self.total);
            self.free.push(buf);
        }
    }

    /// A machine whose allocator already holds an odd-sized block on each
    /// node, so a pool's base is not where a fresh node starts. Two calls
    /// build two machines in the same state.
    fn used_mem() -> MemSystem {
        let mut m = mem();
        m.alloc(NodeId(0), 100);
        m.alloc(NodeId(1), 4097);
        m
    }

    #[test]
    fn prop_matches_the_per_buffer_pool() {
        let mut rng = SimRng::seed(0xb0f1);
        for buf_bytes in [2048, 1500] {
            for count in [0, 1, 16] {
                for case in 0..16 {
                    let node = NodeId(case % 2);
                    let at = format!("{buf_bytes} B × {count}, case {case}");
                    let (mut m, mut oracle_m) = (used_mem(), used_mem());
                    let mut p = BufPool::new(&mut m, node, buf_bytes, count);
                    let mut oracle = PerBufferPool::new(&mut oracle_m, node, buf_bytes, count);
                    // Buffers out of the pool, returned in random order.
                    let mut out = Vec::new();
                    let p_take = 0.2 + 0.6 * rng.unit();
                    for step in 0..200 {
                        if rng.chance(p_take) {
                            let got = p.take();
                            assert_eq!(got, oracle.take(), "{at} step {step}: take");
                            out.extend(got);
                        } else if !out.is_empty() {
                            let buf = out.swap_remove(rng.below(out.len() as u64) as usize);
                            p.put(buf);
                            oracle.put(buf);
                        }
                        assert_eq!(p.available(), oracle.free.len(), "{at} step {step}");
                    }
                    assert_eq!(p.capacity(), count, "{at}");
                    for n in [NodeId(0), NodeId(1)] {
                        assert_eq!(m.alloc(n, 1), oracle_m.alloc(n, 1), "{at}: next alloc");
                    }
                }
            }
        }
    }
}
