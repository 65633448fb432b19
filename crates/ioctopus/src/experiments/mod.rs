//! One runner per figure of the paper's evaluation (§5).
//!
//! | Module | Paper figure |
//! |---|---|
//! | [`tcp_stream`] | Fig. 6 (Rx), Fig. 7 (Tx) |
//! | [`pktgen`] | Fig. 8, plus the §2.4 remote-ring ablation |
//! | [`tcp_rr`] | Fig. 9 |
//! | [`memcached`] | Fig. 10 |
//! | [`multicore`] | §5.1.1 multi-core throughput (described, not plotted) |
//! | [`congestion`] | Fig. 11 (throughput), Fig. 12 (latency) |
//! | [`colocation`] | Fig. 13 |
//! | [`migration`] | Fig. 14 |
//! | [`nvme_fio`] | Fig. 15, plus the OctoSSD extension |
//! | [`trends`] | Fig. 2 (motivation) |
//! | [`failover`] | robustness companion to Fig. 14 (fault injection) |
//! | [`chaos`] | generated fault-schedule campaigns + invariant audit |
//! | [`reconfig`] | hotplug churn: epoch-fenced IOctopus ⇄ legacy NUDMA |
//!
//! Every runner is deterministic for a given configuration and returns a
//! typed result; the `bench` crate's harnesses print them in the paper's
//! row/series format.

pub mod chaos;
pub mod colocation;
pub mod congestion;
pub mod failover;
pub mod memcached;
pub mod migration;
pub mod multicore;
pub mod nvme_fio;
pub mod pktgen;
pub mod reconfig;
pub mod tcp_rr;
pub mod tcp_stream;
pub mod trends;

use crate::netloop::{NetLoop, Rr};
use crate::results::{LatencyResult, PfSample, ThroughputResult};
use simcore::Time;

/// A measurement window: metrics are captured between `warmup` and `end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Counters reset here.
    pub warmup: Time,
    /// Measurement stops here.
    pub end: Time,
}

impl Window {
    /// A window covering the last 3/4 of `total_ms` milliseconds.
    pub fn of_ms(total_ms: u64) -> Self {
        Window {
            warmup: Time::from_ms(total_ms / 4),
            end: Time::from_ms(total_ms),
        }
    }

    /// Window length in seconds.
    pub fn secs(&self) -> f64 {
        self.end.since(self.warmup).as_secs()
    }
}

/// Converts a byte count over the window to Gb/s.
pub fn gbps(bytes: u64, w: Window) -> f64 {
    bytes as f64 * 8.0 / 1e9 / w.secs()
}

/// Runs `nl` through the measurement window `w`: to the warm-up point,
/// where the server's memory counters and core meters reset, then to the
/// end, noting the loop's events. Returns the summed
/// [`progress`](crate::netloop::App::progress) of the apps `idxs` over the
/// window, and the payload bytes their server sockets received plus sent
/// over it.
pub(crate) fn run_window(nl: &mut NetLoop, idxs: &[usize], w: Window) -> (u64, u64) {
    let tally = |nl: &NetLoop| {
        idxs.iter().fold((0, 0), |(done, bytes), &i| {
            let app = nl.app(i);
            let s = nl.duplex.server.socket(app.server_sock());
            (done + app.progress(), bytes + s.rx_bytes + s.tx_bytes)
        })
    };
    nl.run(w.warmup);
    nl.duplex.server.mem.reset_counters();
    nl.duplex.server.cores.reset_meters();
    let (done0, bytes0) = tally(nl);
    nl.run(w.end);
    crate::perf::note_events(nl.events_processed());
    let (done1, bytes1) = tally(nl);
    (done1 - done0, bytes1 - bytes0)
}

/// The throughput result of a window [`run_window`] measured: `bytes` of
/// payload and `ops` operations over `w`, with the server's DRAM bandwidth
/// and CPU use over it.
pub(crate) fn throughput(
    nl: &NetLoop,
    w: Window,
    config: &str,
    x: f64,
    bytes: u64,
    ops: f64,
) -> ThroughputResult {
    let server = &nl.duplex.server;
    let cores = server.mem.topology().total_cores();
    ThroughputResult {
        config: config.to_string(),
        x,
        throughput_gbps: gbps(bytes, w),
        membw_gbps: gbps(server.mem.counters().total_dram_bytes(), w),
        cpu_cores: server.cores.utilization_of(0..cores, w.warmup, w.end),
        rate_per_sec: ops / w.secs(),
    }
}

/// The latency result of a ping-pong app's round trips.
pub(crate) fn latency(config: &str, x: f64, a: &Rr) -> LatencyResult {
    let mut h = a.rtt.clone();
    LatencyResult {
        config: config.to_string(),
        x,
        mean_us: h.mean().map(|d| d.as_us()).unwrap_or(f64::NAN),
        p90_us: h.percentile(90.0).map(|d| d.as_us()).unwrap_or(f64::NAN),
        p99_us: h.percentile(99.0).map(|d| d.as_us()).unwrap_or(f64::NAN),
        transactions: a.done,
    }
}

/// Converts a cumulative per-PF `(time, [(rx, tx); 2])` sample trace (as
/// collected by `NetLoop::enable_sampling`) into per-interval throughput
/// rates on the presentation axis (sample time in milliseconds).
pub fn pf_rates(samples: &[(Time, Vec<(u64, u64)>)]) -> Vec<PfSample> {
    let mut out = Vec::new();
    let mut prev: Option<&(Time, Vec<(u64, u64)>)> = None;
    for cur in samples {
        if let Some(p) = prev {
            let dt = cur.0.since(p.0).as_secs();
            if dt > 0.0 {
                let rate = |i: usize| {
                    let c = cur.1[i].0 + cur.1[i].1;
                    let o = p.1[i].0 + p.1[i].1;
                    (c - o) as f64 * 8.0 / 1e9 / dt
                };
                out.push(PfSample {
                    t_secs: cur.0.as_ms(),
                    pf0_gbps: rate(0),
                    pf1_gbps: rate(1),
                });
            }
        }
        prev = Some(cur);
    }
    out
}

/// Mean of `f` over the samples with `t` in `[a_ms, b_ms)`; 0 if there
/// are none.
pub(crate) fn window_mean(
    samples: &[PfSample],
    a_ms: f64,
    b_ms: f64,
    f: impl Fn(&PfSample) -> f64,
) -> f64 {
    let sel: Vec<f64> = samples
        .iter()
        .filter(|s| s.t_secs >= a_ms && s.t_secs < b_ms)
        .map(f)
        .collect();
    if sel.is_empty() {
        return 0.0;
    }
    sel.iter().sum::<f64>() / sel.len() as f64
}
