//! Allocation gate for the per-line LLC walks.
//!
//! `cpu_access` and the DDIO arm of `dma_write` account dirty evictions in
//! a writeback accumulator that `MemSystem` owns; a walk that evicts dirty
//! lines must not allocate. The test installs a counting global allocator,
//! warms the stall memo with the exact access shapes it then measures, and
//! asserts zero allocations across walks that evict on every line.
//!
//! Single test in this binary on purpose: the allocator counter is
//! process-wide.

use memsys::{AccessKind, LlcConfig, MemConfig, MemSystem, NodeId};
use simcore::alloc_count::{allocation_count, CountingAlloc};
use simcore::Time;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// 16 sets x 4 ways: 64 lines, 4 KiB.
const CACHE_BYTES: u64 = 16 * 4 * 64;

/// One round on fresh buffers: fill the LLC with Modified lines, then run
/// a DDIO write, a CPU write and a CPU read of a cache's worth of new lines
/// each. Every line of those three walks misses and evicts a dirty line:
/// the DDIO write evicts the fill's lines and then its own, the CPU write
/// evicts what those two left, and the read evicts the CPU write's lines.
fn round(m: &mut MemSystem, ms: &mut u64) {
    let n0 = NodeId(0);
    for walk in 0..4 {
        let buf = m.alloc(n0, CACHE_BYTES);
        // A millisecond apart: every link is idle again, so each walk
        // takes the memo path the warm-up round primed.
        *ms += 1;
        let t = Time::from_ms(*ms);
        match walk {
            0 | 2 => {
                m.cpu_write(t, n0, buf, CACHE_BYTES, AccessKind::Stream);
            }
            1 => {
                m.dma_write(t, n0, buf, CACHE_BYTES);
            }
            _ => {
                m.cpu_read(t, n0, buf, CACHE_BYTES, AccessKind::Stream);
            }
        }
    }
}

#[test]
fn dirty_eviction_walks_allocate_nothing() {
    let mut m = MemSystem::new(MemConfig {
        llc: LlcConfig {
            capacity_bytes: CACHE_BYTES,
            ways: 4,
            ddio_ways: 2,
        },
        ..MemConfig::dual_socket_broadwell()
    });
    // Start the buffers at set 5, so every walk wraps the set index.
    m.alloc(NodeId(0), 5 * 64);
    let mut ms = 0;
    // Warm the stall memo: the measured round repeats these shapes.
    round(&mut m, &mut ms);
    let wb_before = m.counters().dram_write_bytes(NodeId(0));

    let before = allocation_count();
    round(&mut m, &mut ms);
    let allocs = allocation_count() - before;

    let written_back = m.counters().dram_write_bytes(NodeId(0)) - wb_before;
    assert!(
        written_back >= 3 * CACHE_BYTES,
        "each measured walk must evict a cache's worth of dirty lines, got {written_back} B"
    );
    assert_eq!(allocs, 0, "LLC walks allocated {allocs} times");
}
