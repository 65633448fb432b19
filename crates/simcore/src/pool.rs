//! A minimal scoped thread pool for embarrassingly parallel simulation
//! sweeps.
//!
//! Every figure of the evaluation is a sweep over independent points
//! (message sizes × placements × flow counts), and each point is a fully
//! deterministic, self-contained simulation: it shares no mutable state
//! with any other point. That makes fan-out trivially safe — workers take
//! the next `(index, point)` pair from one shared iterator, run it, and
//! hand their `(index, result)` pairs back through their join handles, so
//! the returned `Vec` is always in **input order** regardless of which
//! worker finished first or how the OS scheduled them.
//!
//! The workspace is std-only by design; this is `std::thread::scope` plus
//! a `Mutex`-guarded iterator — no channels, no atomics, no dependency.
//!
//! # Example
//! ```
//! use simcore::pool;
//!
//! let squares = pool::scoped_map(vec![1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::Mutex;

/// Environment variable overriding the worker count (useful for pinning
/// benchmarks, and for forcing serial execution with `IOCTOPUS_THREADS=1`).
pub const THREADS_ENV: &str = "IOCTOPUS_THREADS";

/// Number of workers a sweep of `jobs` independent points should use:
/// `IOCTOPUS_THREADS` if set, otherwise the machine's available
/// parallelism, never more than `jobs` and never less than 1.
#[expect(
    clippy::disallowed_methods,
    reason = "the operator override and host parallelism pick the worker count, never the \
              results; serial-vs-parallel bit-identity is gated by tests/parallel_sweep.rs"
)]
pub fn worker_count(jobs: usize) -> usize {
    let configured = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    configured.unwrap_or(hw).min(jobs.max(1))
}

/// Applies `f` to every item on a scoped worker pool, returning results in
/// input order.
///
/// Falls back to a plain serial map when only one worker is warranted, so
/// `IOCTOPUS_THREADS=1 <bench>` is *exactly* the serial run. Workers pull
/// the next unclaimed point from a shared iterator, so long and short points
/// load-balance naturally.
///
/// # Panics
/// Re-raises a worker's panic, with its original payload, after every
/// worker has finished.
pub fn scoped_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let (queue, f) = (&queue, &f);
    let mut done: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // A statement of its own, so the guard is released
                        // before `f` runs.
                        let next = queue.lock().expect("queue lock never poisoned").next();
                        let Some((i, item)) = next else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test delays early items to prove the join restores input order"
    )]
    fn results_in_input_order() {
        // Make later items finish first by sleeping on the early ones.
        let out = scoped_map((0..32u64).collect(), |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(10 - 2 * i));
            }
            i * 100
        });
        assert_eq!(out, (0..32u64).map(|i| i * 100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(scoped_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(scoped_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1) == 1);
        assert!(worker_count(1000) >= 1);
    }

    #[test]
    fn matches_serial_map() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9e37)).collect();
        let parallel = scoped_map(items, |x| x.wrapping_mul(0x9e37));
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "point 5 failed")]
    fn worker_panic_propagates() {
        scoped_map((0..16u32).collect(), |i| {
            assert!(i != 5, "point {i} failed");
            i
        });
    }
}
