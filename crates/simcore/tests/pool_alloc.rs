//! Allocation gate for `simcore::pool::scoped_map`: how many allocations
//! a sweep makes must not depend on how the host schedules its workers.
//! Each worker collects its `(index, result)` pairs in a vector of its
//! own, so a vector that grew with the items its worker happened to claim
//! would make the count follow the split between workers (`perf_baseline`
//! reports that count for every figure sweep).
//!
//! Single test in this binary on purpose: the allocator counter is
//! process-wide, and the test pins the worker count through the
//! environment.

use simcore::alloc_count::{allocation_count, CountingAlloc};
use simcore::pool::{scoped_map, THREADS_ENV};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Items per sweep.
const ITEMS: u8 = 16;

/// Allocations made by a sweep of `ITEMS` points of 1,600 B each. When
/// `skewed`, item 0 sleeps while the other workers claim the rest; else
/// every item sleeps a little, so the workers take turns.
#[expect(
    clippy::disallowed_methods,
    reason = "the test delays items to force two different splits of the same sweep"
)]
fn sweep_allocations(skewed: bool) -> u64 {
    let before = allocation_count();
    let points = scoped_map((0..ITEMS).collect(), |i| {
        let ms = match (skewed, i) {
            (true, 0) => 30,
            (true, _) => 0,
            (false, _) => 2,
        };
        std::thread::sleep(std::time::Duration::from_millis(ms));
        [i; 1600]
    });
    let allocs = allocation_count() - before;
    for (i, point) in (0..ITEMS).zip(&points) {
        assert_eq!(point[0], i, "results in input order");
    }
    allocs
}

#[test]
fn allocation_count_is_independent_of_the_split() {
    // No other thread reads the environment while it is set: this binary
    // runs one test, and the sweep reads it before it spawns a worker.
    std::env::set_var(THREADS_ENV, "2");
    let even = sweep_allocations(false);
    let skewed = sweep_allocations(true);
    assert_eq!(even, skewed, "an even and a skewed split allocate alike");
}
