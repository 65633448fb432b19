//! Figure 9: netperf TCP_RR latency.
//!
//! "This benchmark measures the latency of sending a TCP message of a
//! certain size from the server machine to the client machine and receiving
//! a response of the same size … To minimize latency, we disable adaptive
//! interrupt coalescing. We compare configurations in which both server and
//! client utilize the NIC local or remote, respectively, to their CPUs
//! (ll / rr). An nd suffix indicates DDIO is disabled." (§5.1.2)

use kernel::NetdevId;
use simcore::Time;

use crate::config::{BuildOpts, DdioMode, Placement};
use crate::netloop::{make_rr, App, NetLoop};
use crate::results::LatencyResult;
use crate::system::build_duplex;

use super::latency;

/// Figure 9's configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrConfig {
    /// Both server and client local to their NICs.
    Ll,
    /// Both remote (the NUDMA configuration).
    Rr,
    /// Both local, DDIO disabled in hardware on both sides.
    Llnd,
    /// Server NIC as octoNIC (the paper: identical to `ll`).
    Octo,
}

impl RrConfig {
    /// The label used in the figure.
    pub fn label(self) -> &'static str {
        match self {
            RrConfig::Ll => "ll",
            RrConfig::Rr => "rr",
            RrConfig::Llnd => "llnd",
            RrConfig::Octo => "octo",
        }
    }

    fn placement(self) -> Placement {
        match self {
            RrConfig::Ll | RrConfig::Llnd => Placement::Local,
            RrConfig::Rr => Placement::Remote,
            RrConfig::Octo => Placement::Octopus,
        }
    }

    /// Core the client app pins to: local (node 0, where its NIC lives) or
    /// remote (node 1).
    fn client_core(self) -> usize {
        match self {
            RrConfig::Rr => 14,
            _ => 0,
        }
    }

    fn ddio(self) -> DdioMode {
        match self {
            RrConfig::Llnd => DdioMode::Off,
            _ => DdioMode::On,
        }
    }
}

/// Runs TCP_RR at `msg`-byte messages for `transactions` round trips.
pub fn run(cfg: RrConfig, msg: u64, transactions: usize) -> LatencyResult {
    let p = cfg.placement();
    let mut duplex = build_duplex(
        p,
        BuildOpts {
            ddio: cfg.ddio(),
            coalescing_off: true,
            ..BuildOpts::default()
        },
    );
    let app = make_rr(
        &mut duplex,
        p.app_core(),
        cfg.client_core(),
        NetdevId(0),
        msg,
        transactions + 16,
        4242,
        false,
    );
    let mut nl = NetLoop::new(duplex);
    let i = nl.add_app(App::Rr(app));
    nl.start_apps(Time::ZERO);
    // Generous deadline; RR self-terminates at the transaction target.
    nl.run(Time::from_ms(400));
    crate::perf::note_events(nl.events_processed());
    let App::Rr(a) = nl.app(i) else {
        unreachable!("app {i} is the ping-pong pair")
    };
    latency(cfg.label(), msg as f64, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_rr_slower_than_ll() {
        let ll = run(RrConfig::Ll, 1024, 60);
        let rr = run(RrConfig::Rr, 1024, 60);
        assert!(ll.transactions >= 60, "ll completed {}", ll.transactions);
        assert!(rr.transactions >= 60, "rr completed {}", rr.transactions);
        let ratio = rr.mean_us / ll.mean_us;
        assert!(
            (1.02..1.45).contains(&ratio),
            "rr/ll = {ratio:.3} (paper 1.10-1.25)"
        );
    }

    #[test]
    fn fig9_llnd_between_ll_and_rr() {
        // "even if DDIO worked for remote NICs, IOctopus would still
        // eliminate substantial QPI latency overhead": llnd > ll, and rr is
        // at least as bad as the DDIO loss alone.
        let ll = run(RrConfig::Ll, 4096, 60);
        let llnd = run(RrConfig::Llnd, 4096, 60);
        let rr = run(RrConfig::Rr, 4096, 60);
        assert!(
            llnd.mean_us > ll.mean_us,
            "llnd {} vs ll {}",
            llnd.mean_us,
            ll.mean_us
        );
        assert!(
            rr.mean_us > llnd.mean_us * 0.95,
            "rr {} vs llnd {}",
            rr.mean_us,
            llnd.mean_us
        );
    }

    #[test]
    fn fig9_octo_matches_ll() {
        let ll = run(RrConfig::Ll, 1024, 60);
        let octo = run(RrConfig::Octo, 1024, 60);
        let ratio = octo.mean_us / ll.mean_us;
        assert!((0.9..1.1).contains(&ratio), "octo/ll = {ratio:.3}");
    }

    #[test]
    fn rtt_grows_with_message_size() {
        let small = run(RrConfig::Ll, 64, 40);
        let big = run(RrConfig::Ll, 65536, 40);
        assert!(big.mean_us > small.mean_us * 1.5);
    }
}
