//! A fixed host-speed reference, timed between simulation rounds.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by a
//! third over minutes, on every simulated point at once. One round of this
//! reference uses the host the way the simulator does: random
//! read-modify-writes over a 64 MiB table with binary-heap churn, a 1 MiB
//! copy, a branchy integer loop over an L1-resident table, and probes of a
//! 64k-entry hash map. `sim_speed` and `setup_s` scale the run's CPU
//! times by nominal ÷ its mean reference round, so they read as if every
//! run had the same host. The reference is benchmark code: a change to the
//! simulator cannot move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

/// Nominal CPU seconds of one round: `sim_speed` and `setup_s` read as if
/// every round had taken this long (rounds took 12.6–15.5 ms on the busy
/// 2-vCPU Intel Xeon virtual machine the README's figures come from).
pub const NOMINAL_ROUND_S: f64 = 0.010;

const TABLE_WORDS: usize = 8 << 20;
const UPDATES_PER_ROUND: usize = 30_000;
const SMALL_WORDS: usize = 4096;
const BRANCH_STEPS_PER_ROUND: usize = 200_000;
const MAP_KEYS: u64 = 65_536;
const PROBES_PER_ROUND: usize = 30_000;

/// The reference's working set and the CPU time its rounds took.
#[derive(Debug)]
pub struct Reference {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    small: Vec<u32>,
    map: HashMap<u64, u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    x: u64,
    rounds: u64,
    cpu_s: f64,
}

impl Reference {
    /// Allocates and fills the working set.
    pub fn new() -> Self {
        let mut heap = BinaryHeap::with_capacity(4096);
        for i in 0..4096u64 {
            heap.push(Reverse(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20));
        }
        Reference {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            heap,
            small: (0..SMALL_WORDS as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect(),
            map: (0..MAP_KEYS)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
                .collect(),
            src: vec![1; 1 << 20],
            dst: vec![0; 1 << 20],
            x: 0x2545_F491_4F6C_DD1D,
            rounds: 0,
            cpu_s: 0.0,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Runs one round of fixed work; returns its thread CPU seconds.
    pub fn round(&mut self) -> f64 {
        let c0 = crate::thread_cpu_s();
        let mut acc = 0u64;
        for _ in 0..UPDATES_PER_ROUND {
            let r = self.next();
            let i = r as usize % TABLE_WORDS;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
            let Reverse(t) = self.heap.pop().expect("the heap never empties");
            self.heap.push(Reverse(t + (r & 0xffff)));
        }
        self.src[0] = acc as u8;
        self.dst.copy_from_slice(&self.src);
        for _ in 0..BRANCH_STEPS_PER_ROUND {
            let r = self.next();
            let v = self.small[r as usize % SMALL_WORDS];
            acc = match v & 3 {
                0 | 2 => acc.wrapping_mul(31).wrapping_add(v as u64),
                1 => acc ^ ((v as u64) << 7),
                _ => acc.rotate_left(5).wrapping_sub(r),
            };
            self.small[acc as usize % SMALL_WORDS] = v.wrapping_add(1);
        }
        for _ in 0..PROBES_PER_ROUND {
            let k = (self.next() % MAP_KEYS).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let v = self
                .map
                .get_mut(&k)
                .expect("every probed key is in the map");
            *v = v.wrapping_add(acc);
            acc = acc.wrapping_add(*v);
        }
        black_box((&self.dst, acc));
        let cpu_s = crate::thread_cpu_s() - c0;
        self.cpu_s += cpu_s;
        self.rounds += 1;
        cpu_s
    }

    /// Mean CPU seconds per round so far (the nominal value before any).
    pub fn round_s(&self) -> f64 {
        if self.rounds == 0 {
            NOMINAL_ROUND_S
        } else {
            self.cpu_s / self.rounds as f64
        }
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}
