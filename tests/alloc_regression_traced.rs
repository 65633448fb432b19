//! Allocation-regression gate for the event hot path **with telemetry
//! enabled**.
//!
//! The tracer rings are pre-sized at enable time and overwrite in place
//! once full; the flight recorder reserves its row table up front and
//! aggregates overflow into a fixed bucket; the run counters are
//! statics. So steady-state dispatch must stay at **zero** heap
//! allocations even while every record path is live — this is the
//! property that keeps tracing safe to turn on against perf runs.
//!
//! Single test in this binary on purpose: the allocator counter is
//! process-wide, and a lone test keeps the measurement window quiet.

use ioctopus::config::{BuildOpts, Placement};
use ioctopus::netloop::{make_rx_stream, App, NetLoop};
use ioctopus::system::build_duplex;
use simcore::alloc_count::{allocation_count, CountingAlloc};
use simcore::Time;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn traced_steady_state_rx_stream_allocates_nothing() {
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
    // Telemetry fully on: small rings so the overwrite path (the one that
    // runs in any long trace) is what gets measured, plus the ledger.
    nl.enable_tracing(1 << 12);
    nl.enable_flight_recorder(32);
    let i = nl.add_app(App::Rx(app));
    nl.start_apps(Time::ZERO);

    // Warm every recycled capacity and fill the rings past wraparound.
    nl.run(Time::from_ms(8));
    let warm_events = nl.events_processed();
    assert!(warm_events > 1000, "warmup must exercise the hot path");

    let before = allocation_count();
    nl.run(Time::from_ms(14));
    let allocs = allocation_count() - before;

    let events = nl.events_processed() - warm_events;
    let consumed = nl.app(i).progress();
    assert!(consumed > 0, "measurement window must stream data");
    assert!(events > 5_000, "measurement window too small: {events}");
    assert_eq!(
        allocs,
        0,
        "traced steady-state dispatch must not allocate: {allocs} allocations over \
         {events} events ({:.4} allocs/event)",
        allocs as f64 / events as f64
    );

    // The run actually recorded: rings wrapped and the ledger filled
    // (otherwise this binary measures nothing).
    let table = nl.flight_table().expect("flight recorder enabled");
    assert!(table.local_bytes() > 0);
    let set = nl.take_trace();
    assert!(set.retained() > 0);
    assert!(set.overwritten() > 0, "rings sized to wrap during the run");
}
