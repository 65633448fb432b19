//! The PageRank victim of Figure 13.
//!
//! "We use a 16-thread parallel PageRank (PR) benchmark, with 8 threads
//! pinned to each CPU." PR over a partitioned graph alternates compute with
//! memory sweeps; a fraction of each sweep touches the other socket's
//! partition, so PR both *consumes* QPI bandwidth and *suffers* when
//! co-located I/O loads it.

use memsys::{MemSystem, NodeId};
use simcore::{Dur, Time};

use kernel::Cores;

/// One PageRank worker thread.
#[derive(Debug, Clone, Copy)]
pub struct PrThread {
    /// Core this worker is pinned to.
    pub core: usize,
    chunks_done: u64,
}

/// The parallel PageRank job.
#[derive(Debug)]
pub struct PageRank {
    threads: Vec<PrThread>,
    /// Bytes each worker sweeps per iteration chunk.
    pub chunk_bytes: u64,
    /// Fraction of sweep traffic that hits the remote socket's partition.
    pub remote_fraction: f64,
    /// Pure compute per chunk (rank updates).
    pub compute_per_chunk: Dur,
    /// Total chunks each worker must finish.
    pub chunks_per_thread: u64,
}

impl PageRank {
    /// Builds the Figure 13 configuration: `threads_per_node` workers pinned
    /// to the first cores of each socket.
    pub fn new(mem: &MemSystem, threads_per_node: usize, chunks_per_thread: u64) -> Self {
        let topo = mem.topology();
        let mut threads = Vec::new();
        for n in topo.node_ids() {
            for c in topo.cores_of(n).take(threads_per_node) {
                threads.push(PrThread {
                    core: c,
                    chunks_done: 0,
                });
            }
        }
        PageRank {
            threads,
            chunk_bytes: 256 * 1024,
            // Partitioned graph: ~15% of each sweep touches the other
            // socket; rank updates dominate compute.
            remote_fraction: 0.08,
            compute_per_chunk: Dur::from_us(20),
            chunks_per_thread,
        }
    }

    /// Number of worker threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Advances worker `i` by one chunk starting at `now`; returns the chunk
    /// completion time, or `None` if the worker already finished.
    pub fn step(
        &mut self,
        i: usize,
        now: Time,
        mem: &mut MemSystem,
        cores: &mut Cores,
    ) -> Option<Time> {
        let chunk = self.chunk_bytes;
        let remote_frac = self.remote_fraction;
        let compute = self.compute_per_chunk;
        let th = &mut self.threads[i];
        if th.chunks_done >= self.chunks_per_thread {
            return None;
        }
        let node = mem.topology().node_of_core(th.core);
        let remote = NodeId((node.0 + 1) % mem.topology().nodes());
        let local_bytes = (chunk as f64 * (1.0 - remote_frac)) as u64;
        let remote_bytes = chunk - local_bytes;
        let s1 = mem.cpu_stream_through(now, node, node, local_bytes, false);
        let s2 = mem.cpu_stream_through(now, node, remote, remote_bytes, false);
        let done = cores.run(th.core, now, compute + s1 + s2);
        th.chunks_done += 1;
        Some(done)
    }

    /// Whether every worker has finished.
    pub fn finished(&self) -> bool {
        self.threads
            .iter()
            .all(|t| t.chunks_done >= self.chunks_per_thread)
    }

    /// Total chunks completed across workers.
    pub fn progress(&self) -> u64 {
        self.threads.iter().map(|t| t.chunks_done).sum()
    }

    /// Runs the whole job to completion starting at `now`; returns the
    /// finish time (workers run concurrently on their own cores).
    pub fn run_to_completion(&mut self, now: Time, mem: &mut MemSystem, cores: &mut Cores) -> Time {
        let n = self.thread_count();
        let mut clocks = vec![now; n];
        let mut done = false;
        while !done {
            done = true;
            #[expect(
                clippy::needless_range_loop,
                reason = "`i` names the worker for step()"
            )]
            for i in 0..n {
                if let Some(t) = self.step(i, clocks[i], mem, cores) {
                    clocks[i] = t;
                    done = false;
                }
            }
        }
        clocks.into_iter().max().unwrap_or(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::MemConfig;

    #[test]
    fn builds_paper_thread_layout() {
        let mem = MemSystem::new(MemConfig::dual_socket_broadwell());
        let pr = PageRank::new(&mem, 8, 10);
        assert_eq!(pr.thread_count(), 16);
    }

    #[test]
    fn runs_to_completion() {
        let mut mem = MemSystem::new(MemConfig::dual_socket_broadwell());
        let mut cores = Cores::new(28);
        let mut pr = PageRank::new(&mem, 2, 20);
        let end = pr.run_to_completion(Time::ZERO, &mut mem, &mut cores);
        assert!(pr.finished());
        assert_eq!(pr.progress(), 4 * 20);
        assert!(end > Time::ZERO);
    }

    #[test]
    fn qpi_congestion_slows_pagerank() {
        // The Figure 13 effect: PR runs slower when the interconnect is
        // loaded by someone else.
        let quiet = {
            let mut mem = MemSystem::new(MemConfig::dual_socket_broadwell());
            let mut cores = Cores::new(28);
            PageRank::new(&mem, 4, 50).run_to_completion(Time::ZERO, &mut mem, &mut cores)
        };
        let loaded = {
            let mut mem = MemSystem::new(MemConfig::dual_socket_broadwell());
            let mut cores = Cores::new(28);
            // Pre-load both QPI directions with ~3 ms of traffic.
            mem.cpu_stream_through(Time::ZERO, NodeId(0), NodeId(1), 120_000_000, true);
            mem.cpu_stream_through(Time::ZERO, NodeId(1), NodeId(0), 120_000_000, true);
            PageRank::new(&mem, 4, 50).run_to_completion(Time::ZERO, &mut mem, &mut cores)
        };
        assert!(
            loaded > quiet,
            "loaded {loaded} should exceed quiet {quiet}"
        );
    }
}
