//! Figure 14: per-PF throughput across a thread migration.
//!
//! "We run the TCP Rx netperf workload (64 KB buffers) and migrate the
//! process to the other socket after approximately 4.5 seconds using the
//! sched_setaffinity system call. Throughout the experiment, we sample the
//! throughput of the NIC's two PFs every 50 msec … When the NIC acts as an
//! octoNIC … traffic smoothly moves to the PF local to the process. (We
//! observe no lost or out-of-order packets during the test.) In contrast,
//! with the NIC's standard firmware and driver, the process keeps using the
//! same PF after migrating, resulting in a throughput drop from
//! ioct/local-level to remote-level." (§5.3)
//!
//! Simulated time is scaled 1000×: the paper's 10 s / 4.5 s / 50 ms become
//! 10 ms / 4.5 ms / 50 µs — rates are stationary, so only the axis scale
//! changes.

use kernel::NetdevId;
use simcore::{Dur, Time};

use crate::config::{BuildOpts, Placement};
use crate::experiments::{pf_rates, window_mean};
use crate::netloop::{make_rx_stream, App, NetLoop};
use crate::results::MigrationResult;
use crate::system::build_duplex;

/// Total simulated duration (paper: 10 s).
pub const TOTAL: Dur = Dur::from_ms(10);
/// Migration instant (paper: ~4.5 s).
pub const MIGRATE_AT: Dur = Dur::from_us(4_500);
/// Sampling interval (paper: 50 ms).
pub const SAMPLE_EVERY: Dur = Dur::from_us(50);

/// Runs the migration experiment. `octo = false` uses the standard
/// firmware/driver (the "ethNIC" panel).
pub fn run(octo: bool) -> MigrationResult {
    // The workload starts local to PF0 (core 0) and migrates to core 14.
    let p = if octo {
        Placement::Octopus
    } else {
        Placement::Local
    };
    let mut duplex = build_duplex(p, BuildOpts::default());
    let app = make_rx_stream(&mut duplex, 0, 0, NetdevId(0), 65536, 512 * 1024, 4242);
    let thread = app.server_thread;
    let sock = app.server_sock;
    let mut nl = NetLoop::new(duplex);
    let _ = nl.add_app(App::Rx(app));
    nl.enable_sampling(SAMPLE_EVERY);
    nl.schedule_migration(Time::ZERO + MIGRATE_AT, thread, 14);
    nl.start_apps(Time::ZERO);
    nl.run(Time::ZERO + TOTAL);
    crate::perf::note_events(nl.events_processed());

    MigrationResult {
        config: if octo { "octoNIC" } else { "ethNIC" }.to_string(),
        // Present cumulative samples as per-interval rates on the paper's
        // 0-10 s axis.
        samples: pf_rates(&nl.samples),
        ooo_packets: nl.duplex.server.ooo_count(sock),
        dropped: nl.duplex.server.nic.rx_dropped(),
    }
}

/// Mean PF throughputs `(pf0, pf1)` over samples with `t` in `[a_ms, b_ms)`.
pub fn mean_rates(r: &MigrationResult, a_ms: f64, b_ms: f64) -> (f64, f64) {
    (
        window_mean(&r.samples, a_ms, b_ms, |s| s.pf0_gbps),
        window_mean(&r.samples, a_ms, b_ms, |s| s.pf1_gbps),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14a_octonic_traffic_follows_the_thread() {
        let r = run(true);
        let (pf0_before, pf1_before) = mean_rates(&r, 1.0, 4.0);
        let (pf0_after, pf1_after) = mean_rates(&r, 6.0, 9.5);
        assert!(
            pf0_before > 5.0,
            "PF0 carries traffic before: {pf0_before:.1}"
        );
        assert!(pf1_before < 1.0, "PF1 idle before: {pf1_before:.1}");
        assert!(pf1_after > 5.0, "PF1 carries traffic after: {pf1_after:.1}");
        assert!(pf0_after < 1.0, "PF0 idle after: {pf0_after:.1}");
        // Throughput level preserved (ioct/local on both sides of the move).
        assert!(
            (pf1_after / pf0_before) > 0.85,
            "no throughput loss: {pf0_before:.1} -> {pf1_after:.1}"
        );
    }

    #[test]
    fn fig14a_no_loss_or_reordering() {
        let r = run(true);
        assert_eq!(r.ooo_packets, 0, "no out-of-order packets");
        assert_eq!(r.dropped, 0, "no lost packets");
    }

    #[test]
    fn fig14b_ethnic_sticks_to_pf0_and_drops_to_remote_level() {
        let r = run(false);
        let (pf0_before, _) = mean_rates(&r, 1.0, 4.0);
        let (pf0_after, pf1_after) = mean_rates(&r, 6.0, 9.5);
        assert!(pf1_after < 1.0, "standard firmware cannot move the flow");
        assert!(pf0_after > 1.0, "traffic still flows via PF0");
        let drop = pf0_after / pf0_before;
        assert!(
            (0.5..0.95).contains(&drop),
            "throughput drops to remote level: {pf0_before:.1} -> {pf0_after:.1} ({drop:.2})"
        );
    }
}
