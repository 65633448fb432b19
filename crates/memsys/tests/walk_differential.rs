//! Differential test of the multi-line LLC walks.
//!
//! `cpu_read`, `cpu_write`, `dma_read` and `dma_write` walk their lines in
//! runs of consecutive sets: one division for the first line's set, then a
//! new run at each wrap of the set ring, shared by every socket's LLC.
//! Issuing the same lines one call per line locates each set from scratch,
//! so the two must agree on every byte counter and on the cached state of
//! every line. The cache has 16 sets and calls span up to 80 lines, so most
//! multi-line calls wrap the set index, several times over for the longest.
//! Each wrap also moves the walk's 32-bit tag to the next set-ring
//! quotient; the second test runs those increments from a node-1 buffer
//! that starts mid-ring.

use memsys::cache::LineState;
use memsys::{AccessKind, Counters, LlcConfig, MemConfig, MemSystem, NodeId, PhysAddr};
use simcore::{SimRng, Time};

/// Lines per node's buffer: four times the cache, so sets conflict.
const BUF_LINES: u64 = 256;
const MAX_LINES: u64 = 80;

#[derive(Debug, Clone, Copy)]
enum Kind {
    CpuRead,
    CpuWrite,
    DmaRead,
    DmaWrite,
}

fn mem(ddio: bool) -> (MemSystem, [PhysAddr; 2]) {
    let mut m = MemSystem::new(MemConfig {
        llc: LlcConfig {
            capacity_bytes: 16 * 4 * 64,
            ways: 4,
            ddio_ways: 2,
        },
        ddio,
        ..MemConfig::dual_socket_broadwell()
    });
    let bufs = [0, 1].map(|n| m.alloc(NodeId(n), BUF_LINES * 64));
    (m, bufs)
}

fn access(m: &mut MemSystem, t: Time, kind: Kind, node: NodeId, addr: PhysAddr, len: u64) {
    match kind {
        Kind::CpuRead => {
            m.cpu_read(t, node, addr, len, AccessKind::Stream);
        }
        Kind::CpuWrite => {
            m.cpu_write(t, node, addr, len, AccessKind::Pointer);
        }
        Kind::DmaRead => {
            m.dma_read(t, node, addr, len);
        }
        Kind::DmaWrite => {
            m.dma_write(t, node, addr, len);
        }
    }
}

/// Every line's state in both LLCs, plus the traffic counters.
fn snapshot(m: &MemSystem, bufs: &[PhysAddr; 2]) -> (Counters, Vec<Option<LineState>>) {
    let states = bufs
        .iter()
        .flat_map(|b| (0..BUF_LINES).map(move |l| b.offset(l * 64)))
        .flat_map(|a| [0, 1].map(|n| m.peek_line(NodeId(n), a)))
        .collect();
    (m.counters(), states)
}

#[test]
fn multi_line_walks_match_line_at_a_time() {
    let mut r = SimRng::seed(0x5e7c);
    for schedule in 0..48 {
        let ddio = schedule % 4 != 3;
        let (mut walked, bufs) = mem(ddio);
        let (mut single, _) = mem(ddio);
        let calls = 1 + r.below(60);
        for call in 0..calls {
            let kind = *r.pick(&[Kind::CpuRead, Kind::CpuWrite, Kind::DmaRead, Kind::DmaWrite]);
            let node = NodeId(r.below(2) as usize);
            let home = r.below(2) as usize;
            let lines = 1 + r.below(MAX_LINES);
            let start = bufs[home].offset(r.below(BUF_LINES - lines + 1) * 64);
            let t = Time::from_us(call);
            access(&mut walked, t, kind, node, start, lines * 64);
            for l in 0..lines {
                access(&mut single, t, kind, node, start.offset(l * 64), 64);
            }
            assert_eq!(
                snapshot(&walked, &bufs),
                snapshot(&single, &bufs),
                "schedule {schedule} call {call}: {kind:?} by {node} of {lines} lines at {start}"
            );
        }
    }
}

/// A node-1 buffer on a 12-set cache. 12 does not divide node 1's first
/// line, so the buffer starts mid-ring (at set 4) and the tags' base
/// quotient for node 1 is rounded down. The buffer is five times the set
/// count and calls span up to four times it, so most multi-line walks
/// cross one or more tag increments.
#[test]
fn node1_walks_across_tag_increments_match_line_at_a_time() {
    const SETS: u64 = 12;
    const LINES: u64 = 5 * SETS;
    let build = || {
        let mut m = MemSystem::new(MemConfig {
            llc: LlcConfig {
                capacity_bytes: SETS * 4 * 64,
                ways: 4,
                ddio_ways: 2,
            },
            ..MemConfig::dual_socket_broadwell()
        });
        let buf = m.alloc(NodeId(1), LINES * 64);
        (m, buf)
    };
    let (_, buf) = build();
    let snapshot = |m: &MemSystem| {
        let states: Vec<_> = (0..LINES)
            .flat_map(|l| [0, 1].map(|n| m.peek_line(NodeId(n), buf.offset(l * 64))))
            .collect();
        (m.counters(), states)
    };
    let mut r = SimRng::seed(0x5e7d);
    for schedule in 0..24 {
        let (mut walked, _) = build();
        let (mut single, _) = build();
        for call in 0..1 + r.below(40) {
            let kind = *r.pick(&[Kind::CpuRead, Kind::CpuWrite, Kind::DmaRead, Kind::DmaWrite]);
            let node = NodeId(r.below(2) as usize);
            let lines = 1 + r.below(4 * SETS);
            let start = buf.offset(r.below(LINES - lines + 1) * 64);
            let t = Time::from_us(call);
            access(&mut walked, t, kind, node, start, lines * 64);
            for l in 0..lines {
                access(&mut single, t, kind, node, start.offset(l * 64), 64);
            }
            assert_eq!(
                snapshot(&walked),
                snapshot(&single),
                "schedule {schedule} call {call}: {kind:?} by {node} of {lines} lines at {start}"
            );
        }
    }
}
