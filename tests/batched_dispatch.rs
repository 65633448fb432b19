//! Differential test: NAPI-style batched dispatch (`NetLoop::run`) must be
//! bit-for-bit identical to the one-event-at-a-time oracle
//! (`NetLoop::run_unbatched`). Draining a same-timestamp batch up front and
//! grouping consecutive same-destination wire arrivals under one host
//! borrow amortizes per-event loop overhead and router lookups — but it
//! must never reorder dispatch, because per-flow wire sequence numbers are
//! assigned in dispatch order. Any divergence here is a correctness bug,
//! not noise.

use ioctopus::config::{BuildOpts, Placement};
use ioctopus::netloop::{make_rr, make_rx_stream, App, NetLoop};
use ioctopus::system::build_duplex;
use simcore::campaign::{plan_for, CampaignConfig};
use simcore::{Dur, Time};

/// Everything observable about a finished run, compared exactly.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    now: Time,
    samples: Vec<(Time, Vec<(u64, u64)>)>,
    pf_bytes: Vec<(u64, u64)>,
    apps: Vec<AppState>,
}

#[derive(Debug, PartialEq)]
enum AppState {
    Rx {
        consumed: u64,
    },
    Rr {
        done: usize,
        rtt_mean: Option<Dur>,
        rtt_min: Option<Dur>,
        rtt_max: Option<Dur>,
    },
}

fn fingerprint(nl: &NetLoop, apps: &[usize]) -> Fingerprint {
    Fingerprint {
        events: nl.events_processed(),
        now: nl.now(),
        samples: nl.samples.clone(),
        pf_bytes: nl
            .duplex
            .server_pfs
            .iter()
            .map(|&pf| {
                (
                    nl.duplex.server.nic.rx_bytes(pf),
                    nl.duplex.server.nic.tx_bytes(pf),
                )
            })
            .collect(),
        apps: apps
            .iter()
            .map(|&i| match nl.app(i) {
                App::Rx(a) => AppState::Rx {
                    consumed: a.consumed,
                },
                App::Rr(a) => AppState::Rr {
                    done: a.done,
                    rtt_mean: a.rtt.mean(),
                    rtt_min: a.rtt.min(),
                    rtt_max: a.rtt.max(),
                },
                other => panic!("unexpected app variant {other:?}"),
            })
            .collect(),
    }
}

/// Runs the same scenario twice — batched and unbatched — and returns both
/// fingerprints. `build` must be deterministic (it is called twice).
fn differential(
    build: impl Fn() -> (NetLoop, Vec<usize>),
    until: Time,
) -> (Fingerprint, Fingerprint) {
    let (mut batched, apps_b) = build();
    batched.start_apps(Time::ZERO);
    batched.run(until);
    let (mut oracle, apps_o) = build();
    oracle.start_apps(Time::ZERO);
    oracle.run_unbatched(until);
    (
        fingerprint(&batched, &apps_b),
        fingerprint(&oracle, &apps_o),
    )
}

#[test]
fn rx_stream_batched_matches_unbatched() {
    // Figure 6-shaped runs: bulk receive is where same-timestamp wire
    // arrival bursts (TSO segment trains) actually batch.
    for placement in [Placement::Octopus, Placement::Remote] {
        for msg in [1448u64, 65536] {
            let build = || {
                let mut duplex = build_duplex(placement, BuildOpts::default());
                let app = make_rx_stream(
                    &mut duplex,
                    0,
                    0,
                    kernel::NetdevId(0),
                    msg,
                    512 * 1024,
                    4242,
                );
                let mut nl = NetLoop::new(duplex);
                nl.enable_sampling(Dur::from_us(500));
                let i = nl.add_app(App::Rx(app));
                (nl, vec![i])
            };
            let (batched, oracle) = differential(build, Time::from_ms(3));
            assert_eq!(batched, oracle, "rx {placement:?} msg={msg} diverged");
        }
    }
}

#[test]
fn rr_batched_matches_unbatched() {
    // Figure 9-shaped runs: ping-pong latency, where each transaction's RTT
    // would expose any event reordering directly in the histogram.
    for msg in [64u64, 4096] {
        let build = || {
            let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
            let app = make_rr(&mut duplex, 0, 0, kernel::NetdevId(0), msg, 50, 4242, false);
            let mut nl = NetLoop::new(duplex);
            let i = nl.add_app(App::Rr(app));
            (nl, vec![i])
        };
        let (batched, oracle) = differential(build, Time::from_ms(20));
        assert_eq!(batched, oracle, "rr msg={msg} diverged");
    }
}

#[test]
fn chaos_schedule_batched_matches_unbatched() {
    // Fault-heavy runs: generated fault schedules inject link flaps and
    // recovery timers — retries landing at or nanoseconds after `now`, the
    // worst case for any batching that peeks at the head timestamp.
    for case in 0..3u64 {
        let build = || {
            let mut cfg = CampaignConfig::new(0xC0FFEE ^ case, 3);
            cfg.media_faults = true;
            let plan = plan_for(&cfg, case);
            let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
            let app = make_rx_stream(
                &mut duplex,
                0,
                0,
                kernel::NetdevId(0),
                4096,
                512 * 1024,
                4242,
            );
            let mut nl = NetLoop::new(duplex);
            nl.install_fault_plan(&plan, Dur::from_us(100));
            let i = nl.add_app(App::Rx(app));
            (nl, vec![i])
        };
        let (batched, oracle) = differential(build, Time::from_ms(3));
        assert_eq!(batched, oracle, "chaos case={case} diverged");
    }
}

#[test]
fn periodic_audit_runs_clean_under_batching() {
    // The interval audit flows through the batch path as an ordinary event;
    // it must still observe a consistent system.
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
    nl.enable_audit(Dur::from_us(250));
    let i = nl.add_app(App::Rx(app));
    nl.start_apps(Time::ZERO);
    nl.run(Time::from_ms(2));
    nl.run_audit();
    assert!(
        nl.audit.violations().is_empty(),
        "batched dispatch broke an invariant: {:?}",
        nl.audit.violations()
    );
    assert!(nl.app(i).progress() > 0, "run must make progress");
}
