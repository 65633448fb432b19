//! Allocation gate for the per-line LLC walks.
//!
//! `cpu_access` and the DDIO arm of `dma_write` account dirty evictions in
//! a writeback accumulator that `MemSystem` owns; a walk that evicts dirty
//! lines must not allocate. The test installs a counting global allocator,
//! warms the stall memo with the exact access shapes it then measures, and
//! asserts zero allocations across walks that evict on every line, both
//! when no peer LLC holds lines of the walked home (the snoops are
//! skipped) and when one does (they run). The invalidation walks run in
//! the DDIO and node-1 device writes, and the resident-count walk in a
//! local device read of a buffer the home LLC holds.
//!
//! Single test in this binary on purpose: the allocator counter is
//! process-wide.

use memsys::{AccessKind, LlcConfig, MemConfig, MemSystem, NodeId, PhysAddr};
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
///
/// A node-0 device then reads the last buffer, which the node-0 LLC holds,
/// so the local `dma_read` counts its resident lines. With `peer_reads`, a
/// node-1 CPU reads each buffer before node 0 walks it, so node 0's walks
/// must snoop node 1's copies, and a node-1 device then writes the last
/// buffer, which both LLCs hold: a non-DDIO write with two invalidation
/// passes.
fn round(m: &mut MemSystem, ms: &mut u64, peer_reads: bool) {
    let (n0, n1) = (NodeId(0), NodeId(1));
    let mut buf = PhysAddr(0);
    for walk in 0..4 {
        buf = m.alloc(n0, CACHE_BYTES);
        // A millisecond apart: every link is idle again, so each walk
        // takes the memo path the warm-up round primed.
        if peer_reads {
            *ms += 1;
            m.cpu_read(Time::from_ms(*ms), n1, buf, CACHE_BYTES, AccessKind::Stream);
            assert!(m.peek_line(n1, buf).is_some(), "node 1 holds the buffer");
        }
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
    assert!(m.peek_line(n0, buf).is_some(), "node 0 holds the buffer");
    *ms += 1;
    m.dma_read(Time::from_ms(*ms), n0, buf, CACHE_BYTES);
    if peer_reads {
        assert!(m.peek_line(n1, buf).is_some(), "node 1 holds the buffer");
        *ms += 1;
        m.dma_write(Time::from_ms(*ms), n1, buf, CACHE_BYTES);
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
    // Warm the stall memo: the measured rounds repeat these shapes.
    round(&mut m, &mut ms, false);
    round(&mut m, &mut ms, true);
    let wb_before = m.counters().dram_write_bytes(NodeId(0));

    let before = allocation_count();
    round(&mut m, &mut ms, false);
    round(&mut m, &mut ms, true);
    let allocs = allocation_count() - before;

    // Six evicting walks, plus the node-1 device's write to home DRAM.
    let written_back = m.counters().dram_write_bytes(NodeId(0)) - wb_before;
    assert!(
        written_back >= 7 * CACHE_BYTES,
        "each measured walk must evict a cache's worth of dirty lines, got {written_back} B"
    );
    assert_eq!(allocs, 0, "LLC walks allocated {allocs} times");
}
