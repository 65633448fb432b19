//! Allocation-regression gate for the event hot path.
//!
//! The dispatch loop recycles its out-buffer, batch vector, and TX scratch;
//! the queue, rings, and socket buffers reach a steady footprint during
//! warmup. After that, running more simulated time must perform **zero**
//! heap allocations — this test installs a counting global allocator and
//! holds the line on three windows: a Figure 6 Rx stream and the Figure 10
//! key-value machine on the octoNIC and on the remote NIC. If it starts
//! failing, something on the hot path regained a per-event `Vec`/`Box` or
//! a container that keeps growing.
//!
//! Single test in this binary on purpose: the allocator counter is
//! process-wide, and a lone test keeps the measurement windows quiet.

use ioctopus::config::{BuildOpts, Placement};
use ioctopus::experiments::memcached::{CLIENTS, KEYS, SERVER_CORES};
use ioctopus::netloop::{make_kv, make_rx_stream, App, NetLoop};
use ioctopus::system::build_duplex;
use simcore::alloc_count::{allocation_count, CountingAlloc};
use simcore::Time;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `nl` to `until` and returns `(allocations, events)` over the span.
/// On failure: re-run with `trap_allocations(true, N)` armed here to get
/// stderr backtraces for the first N offending call sites.
fn window(nl: &mut NetLoop, until: Time) -> (u64, u64) {
    let events = nl.events_processed();
    let before = allocation_count();
    nl.run(until);
    (allocation_count() - before, nl.events_processed() - events)
}

fn assert_no_allocations(what: &str, allocs: u64, events: u64) {
    assert_eq!(
        allocs,
        0,
        "{what}: steady-state dispatch must not allocate: {allocs} allocations over {events} \
         events ({:.4} allocs/event)",
        allocs as f64 / events as f64
    );
}

#[test]
fn steady_state_rx_stream_allocates_nothing() {
    rx_stream_window();
    key_value_window(Placement::Octopus, 100_000);
    key_value_window(Placement::Remote, 80_000);
}

/// A Figure 6 receive stream at 16 KiB messages, 8 ms warmup, 8→14 ms.
fn rx_stream_window() {
    let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
    let app = make_rx_stream(
        &mut duplex,
        0,
        0,
        kernel::NetdevId(0),
        16384,
        512 * 1024,
        4242,
    );
    let mut nl = NetLoop::new(duplex);
    let i = nl.add_app(App::Rx(app));
    nl.start_apps(Time::ZERO);

    // Warm every recycled capacity: out-buffers, batch, queue heap,
    // ring scratch, socket buffers.
    nl.run(Time::from_ms(8));
    let warm_events = nl.events_processed();
    let warm_consumed = nl.app(i).progress();
    assert!(warm_events > 1000, "warmup must exercise the hot path");

    let (allocs, events) = window(&mut nl, Time::from_ms(14));
    let consumed = nl.app(i).progress();
    assert!(
        consumed > warm_consumed,
        "measurement window must stream data"
    );
    assert!(events > 5_000, "measurement window too small: {events}");
    assert_no_allocations("rx stream", allocs, events);
}

/// The Figure 10 machine, built as `memcached::run` builds it: 14
/// key-value connections on NIC placement `p` at 50% SET, warmed to 30 ms,
/// measured over 30→60 ms, which must dispatch more than `min_events`
/// events (181,891 on the octoNIC, 91,246 remote). Fourteen connections
/// keep many requests in flight at once, so this window also holds the
/// event queue's footprint to a steady state.
fn key_value_window(p: Placement, min_events: u64) {
    let mut duplex = build_duplex(p, BuildOpts::default());
    let apps: Vec<_> = (0..CLIENTS)
        .map(|c| {
            make_kv(
                &mut duplex,
                p.app_core() + (c % SERVER_CORES),
                c,
                kernel::NetdevId(0),
                0.5,
                KEYS,
                5000 + c as u16,
                0xC0FFEE + c as u64,
            )
        })
        .collect();
    let mut nl = NetLoop::new(duplex);
    let idxs: Vec<usize> = apps.into_iter().map(|a| nl.add_app(App::Kv(a))).collect();
    let done = |nl: &NetLoop| -> u64 { idxs.iter().map(|&i| nl.app(i).progress()).sum() };
    nl.start_apps(Time::ZERO);
    nl.run(Time::from_ms(30));
    let warm_done = done(&nl);

    let (allocs, events) = window(&mut nl, Time::from_ms(60));
    assert!(
        done(&nl) > warm_done,
        "measurement window must serve requests"
    );
    assert!(
        events > min_events,
        "measurement window too small: {events}"
    );
    assert_no_allocations(&format!("key-value {p:?}"), allocs, events);
}
