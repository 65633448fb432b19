//! Chaos campaigns: generated fault schedules vs. the whole stack.
//!
//! The hand-written robustness experiment ([`super::failover`]) checks the
//! failure interleavings someone thought of; this harness checks the ones
//! nobody did. A campaign seed expands —
//! via [`simcore::campaign::plan_for`] — into an unbounded family of
//! deterministic fault schedules (bursts, overlaps, zero-gap flaps, orphan
//! recoveries, media errors), each of which is thrown at one of several
//! *experiment families*:
//!
//! * [`Family::RxStream`] — the netperf receive stream of Figure 7, the
//!   workload the failover experiment uses;
//! * [`Family::RequestResponse`] — the ping-pong latency workload, which
//!   keeps exactly one message in flight and so exercises the
//!   timeout/retry path rather than the windowed steady state;
//! * [`Family::KeyValue`] — the memcached connection, mixing GETs and
//!   SETs across both directions;
//! * [`Family::NvmeMedia`] — a dual-port drive fed synchronous reads
//!   while links flap and [`FaultKind::MediaFault`]s arm correctable and
//!   uncorrectable media errors.
//!
//! "Survived" means more than "did not panic": every run carries the
//! system-wide invariant audit (buffer-pool and descriptor-ring
//! conservation, socket accounting, PCIe transaction tallies, event-time
//! monotonicity — see [`simcore::audit`]) on a periodic tick plus a final
//! quiesce-point pass, and the campaign fails on any recorded violation.
//! When a schedule *does* trip the audit, the harness minimizes it with
//! delta debugging ([`simcore::campaign::shrink`]) to a locally minimal
//! reproducer; the campaign seed plus the shrunk plan is the bug report.
//! [`sabotaged_run_trips_audit`] wires a deliberately broken driver (one
//! that leaks a Tx kernel buffer on PF teardown or on hotplug rebind) to
//! prove the audit actually catches realistic recovery bugs, and
//! [`shrink_failing`] shows that the shrinker isolates them.

use kernel::NetdevId;
use memsys::{MemConfig, MemSystem, NodeId};
use nvme::{MediaConfig, PortPolicy, Ssd, SsdConfig};
use pcie::{FabricConfig, PcieFabric, PcieGen};
use simcore::campaign::{plan_for, shrink};
use simcore::{Audit, CampaignConfig, Dur, FaultKind, FaultPlan, Time};

use crate::config::{BuildOpts, Placement};
use crate::netloop::{make_kv, make_rr, make_rx_stream, App, NetLoop};
use crate::sweep;
use crate::system::build_duplex;

/// Simulated duration of one schedule run (covers the default 8 ms fault
/// horizon plus settling time).
pub const TOTAL: Dur = Dur::from_ms(10);
/// Periodic invariant-audit cadence during a run.
pub const AUDIT_EVERY: Dur = Dur::from_us(100);
/// Driver-watchdog cadence (same as the failover experiment).
pub const WATCHDOG_EVERY: Dur = Dur::from_us(50);
/// Read size used by the NVMe family.
const NVME_READ_BYTES: u64 = 128 * 1024;

/// The experiment families a campaign rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Windowed netperf receive stream (the failover workload).
    RxStream,
    /// TCP_RR ping-pong: one message in flight, retries dominate.
    RequestResponse,
    /// memcached GET/SET mix.
    KeyValue,
    /// Dual-port NVMe drive under link flaps and media errors.
    NvmeMedia,
}

/// Round-robin order of families across schedule indices.
pub const FAMILIES: [Family; 4] = [
    Family::RxStream,
    Family::RequestResponse,
    Family::KeyValue,
    Family::NvmeMedia,
];

/// The family schedule `index` of any campaign runs against.
pub fn family_of(index: u64) -> Family {
    FAMILIES[(index % FAMILIES.len() as u64) as usize]
}

/// The campaign shape used by the bench harness and CI: two target PFs
/// (the octoNIC's endpoints / the drive's ports), media faults enabled so
/// the NVMe family sees them.
pub fn base_config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(seed, 2);
    cfg.media_faults = true;
    cfg
}

/// Outcome of one schedule run.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Which experiment family ran.
    pub family: Family,
    /// Schedule index within the campaign.
    pub index: u64,
    /// Fault events in the schedule.
    pub faults: usize,
    /// Simulation events dispatched (work units for the NVMe family).
    pub events: u64,
    /// Invariant checks evaluated.
    pub checks: u64,
    /// Recovery actions taken (watchdog IRQ recoveries, doorbell and
    /// steering-reinstall retries, NVMe command retries and IRQ-loss
    /// watchdog rescues).
    pub recoveries: u64,
    /// Stale-epoch completions and interrupts fenced — counted and
    /// discarded, never delivered (hotplug campaigns only).
    pub fenced: u64,
    /// Completed quiesce/drain/rebind reconfiguration sequences.
    pub reconfigs: u64,
    /// Rendered invariant violations; empty means the run survived.
    pub violations: Vec<String>,
}

/// Aggregate outcome of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign seed.
    pub seed: u64,
    /// Schedules run.
    pub schedules: u64,
    /// Total fault events injected.
    pub faults: u64,
    /// Total simulation events dispatched.
    pub events: u64,
    /// Total invariant checks evaluated.
    pub checks: u64,
    /// Total recovery actions observed.
    pub recoveries: u64,
    /// Total stale-epoch completions/interrupts fenced.
    pub fenced: u64,
    /// Total quiesce/drain/rebind reconfigurations completed.
    pub reconfigs: u64,
    /// Violations across all schedules, prefixed `family[index]:`.
    pub violations: Vec<String>,
}

impl CampaignReport {
    /// Whether every schedule survived every invariant check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs schedule `index` of the campaign: derives the plan, picks the
/// family by round-robin, runs it under audit.
pub fn run_schedule(cfg: &CampaignConfig, index: u64) -> ScheduleReport {
    let plan = plan_for(cfg, index);
    run_plan(family_of(index), index, &plan)
}

/// Runs one fault plan against one family under the invariant audit.
pub fn run_plan(family: Family, index: u64, plan: &FaultPlan) -> ScheduleReport {
    match family {
        Family::NvmeMedia => run_nvme(index, plan),
        _ => run_netloop(family, index, plan),
    }
}

/// Runs a whole campaign — `count` schedules fanned out over the worker
/// pool — returning every per-schedule report. Deterministic in `seed` and
/// `count`.
pub fn run_reports(seed: u64, count: u64) -> Vec<ScheduleReport> {
    run_reports_with(&base_config(seed), count)
}

/// [`run_reports`] for an arbitrary campaign shape.
pub fn run_reports_with(cfg: &CampaignConfig, count: u64) -> Vec<ScheduleReport> {
    sweep::sweep((0..count).collect(), |i| run_schedule(cfg, i))
}

/// The topology-churn campaign shape: [`base_config`] plus the hotplug
/// kinds, so schedules mix surprise removals and re-enumerations (often
/// paired) into the existing fault alphabet. The epoch fence, the drain,
/// and the legacy-NUDMA degraded mode all run under the same invariant
/// audit as every other campaign.
pub fn hotplug_config(seed: u64) -> CampaignConfig {
    let mut cfg = base_config(seed);
    cfg.hotplug = true;
    cfg
}

/// Folds per-schedule reports into a campaign summary.
pub fn aggregate(seed: u64, reports: &[ScheduleReport]) -> CampaignReport {
    let mut out = CampaignReport {
        seed,
        schedules: reports.len() as u64,
        faults: 0,
        events: 0,
        checks: 0,
        recoveries: 0,
        fenced: 0,
        reconfigs: 0,
        violations: Vec::new(),
    };
    for r in reports {
        out.faults += r.faults as u64;
        out.events += r.events;
        out.checks += r.checks;
        out.recoveries += r.recoveries;
        out.fenced += r.fenced;
        out.reconfigs += r.reconfigs;
        for v in &r.violations {
            out.violations
                .push(format!("{:?}[{}]: {v}", r.family, r.index));
        }
    }
    out
}

/// The three NetLoop-based families share one runner.
fn run_netloop(family: Family, index: u64, plan: &FaultPlan) -> ScheduleReport {
    let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
    let app = match family {
        // Core 0 is node 0, local to PF0 — the PF campaigns kill most.
        Family::RxStream => App::Rx(make_rx_stream(
            &mut duplex,
            0,
            0,
            NetdevId(0),
            65536,
            512 * 1024,
            4777,
        )),
        // Server on node 1 so requests cross the socket boundary whenever
        // PF1 is the one that dies.
        Family::RequestResponse => App::Rr(make_rr(
            &mut duplex,
            14,
            2,
            NetdevId(0),
            1024,
            usize::MAX,
            7001,
            false,
        )),
        Family::KeyValue => App::Kv(make_kv(
            &mut duplex,
            0,
            2,
            NetdevId(0),
            0.1,
            4096,
            6379,
            0x5eed ^ index,
        )),
        Family::NvmeMedia => unreachable!("dispatched to run_nvme"),
    };
    let mut nl = NetLoop::new(duplex);
    nl.add_app(app);
    nl.enable_audit(AUDIT_EVERY);
    nl.install_fault_plan(plan, WATCHDOG_EVERY);
    nl.start_apps(Time::ZERO);
    nl.run(Time::ZERO + TOTAL);
    nl.run_audit(); // quiesce-point pass even if the periodic tick lapsed
    let robust = nl.duplex.server.robustness();
    let events = nl.events_processed();
    crate::perf::note_events(events);
    ScheduleReport {
        family,
        index,
        faults: plan.len(),
        events,
        checks: nl.audit.checks(),
        recoveries: robust.watchdog_irq_recoveries
            + robust.doorbell_retries
            + robust.steering_reinstalls
            + robust.steering_reinstall_retries,
        fenced: robust.fenced_completions + robust.fenced_irqs,
        reconfigs: robust.reconfigs,
        violations: render(&nl.audit),
    }
}

/// Completion-watchdog timeout of the NVMe harness's host model: a
/// completion whose interrupt was lost is noticed this much later by the
/// polling watchdog (mirrors [`kernel::HostConfig::watchdog_timeout`]).
const NVME_WATCHDOG_TIMEOUT: Dur = Dur::from_us(100);

/// NVMe family: a dual-port drive on the Skylake testbed serving a
/// synchronous read loop while the plan flaps its links and arms media
/// errors. `PfFail`/`PfRecover` — NIC notions — are mapped to the
/// equivalent port-link faults. `IrqLoss` arms the same one-shot
/// lost-interrupt model the NIC uses: the next completion's MSI-X is
/// swallowed, the host notices it only when the completion watchdog polls,
/// and the rescue is counted — so campaigns exercise the watchdog path on
/// this family too instead of silently dropping the fault. Hotplug kinds
/// fall through to the fabric, which drops in-flight transactions on
/// removal and charges retrain latency on re-enumeration.
fn run_nvme(index: u64, plan: &FaultPlan) -> ScheduleReport {
    let mut mem = MemSystem::new(MemConfig::dual_socket_skylake());
    let mut fabric = PcieFabric::new(FabricConfig::default());
    let p0 = fabric.add_endpoint(NodeId(0), PcieGen::Gen3, 4);
    let p1 = fabric.add_endpoint(NodeId(1), PcieGen::Gen3, 4);
    let ports = [p0, p1];
    let mut ssd = Ssd::new(
        0,
        SsdConfig::new(MediaConfig::pm1725a(), PortPolicy::LocalToBuffer),
        vec![p0, p1],
        &mut mem,
        NodeId(1),
    );
    let buf = mem.alloc(NodeId(1), NVME_READ_BYTES);

    let end = Time::ZERO + TOTAL;
    let evs = plan.events();
    let mut next_ev = 0usize;
    let mut now = Time::ZERO;
    let (mut issued, mut ok, mut errored) = (0u64, 0u64, 0u64);
    // One-shot lost-interrupt state (the NIC's `inject_irq_loss` analogue):
    // arming while already armed stays one pending loss.
    let mut irq_loss_pending = false;
    let (mut irq_losses_armed, mut watchdog_rescues) = (0u64, 0u64);
    while now < end {
        while next_ev < evs.len() && evs[next_ev].at <= now {
            let e = &evs[next_ev];
            match e.kind {
                FaultKind::MediaFault { errors } => ssd.inject_media_fault(errors),
                FaultKind::PfFail => {
                    fabric.apply_link_fault(e.at, ports[e.pf % 2], FaultKind::LinkDown);
                }
                FaultKind::PfRecover => {
                    fabric.apply_link_fault(e.at, ports[e.pf % 2], FaultKind::LinkRecover);
                }
                FaultKind::IrqLoss => {
                    irq_losses_armed += 1;
                    irq_loss_pending = true;
                }
                k => {
                    fabric.apply_link_fault(e.at, ports[e.pf % 2], k);
                }
            }
            next_ev += 1;
        }
        let r = ssd.read(now, buf, NVME_READ_BYTES, &mut fabric, &mut mem);
        issued += 1;
        if r.error {
            errored += 1;
        } else {
            ok += 1;
        }
        let mut done_at = r.done_at;
        if irq_loss_pending {
            // The completion landed but its interrupt was swallowed: the
            // host observes it one watchdog period late, and the rescue is
            // charged as a recovery action.
            irq_loss_pending = false;
            watchdog_rescues += 1;
            done_at += NVME_WATCHDOG_TIMEOUT;
        }
        // A failed command's completion carries only its accumulated retry
        // delays; keep a floor so a hard-down link cannot stall the clock.
        now = done_at.max(now + Dur::from_us(5));
    }

    let mut audit = Audit::new();
    fabric.audit(&mut audit);
    let rb = ssd.robustness();
    // Command conservation, counted at independent sites: the harness
    // tallies issue-loop outcomes; the drive tallies its failure paths.
    audit.check(
        "nvme",
        "command-conservation",
        issued == ok + errored,
        || format!("issued {issued} != ok {ok} + errored {errored}"),
    );
    audit.check(
        "nvme",
        "failed-command-accounting",
        errored == rb.failed_commands,
        || {
            format!(
                "harness saw {errored} error completions, drive counted {}",
                rb.failed_commands
            )
        },
    );
    audit.check(
        "nvme",
        "retry-budget",
        rb.retries >= rb.failed_commands,
        || {
            format!(
                "{} commands failed but only {} retries were attempted",
                rb.failed_commands, rb.retries
            )
        },
    );
    audit.check(
        "nvme",
        "irq-rescue-accounting",
        watchdog_rescues <= irq_losses_armed,
        || {
            format!(
                "{watchdog_rescues} watchdog rescues but only \
                 {irq_losses_armed} interrupt losses were armed"
            )
        },
    );
    crate::perf::note_events(issued);
    ScheduleReport {
        family: Family::NvmeMedia,
        index,
        faults: plan.len(),
        events: issued,
        checks: audit.checks(),
        recoveries: rb.retries + watchdog_rescues,
        fenced: 0,
        reconfigs: 0,
        violations: render(&audit),
    }
}

fn render(a: &Audit) -> Vec<String> {
    a.violations().iter().map(ToString::to_string).collect()
}

// ---- Sabotage self-test: prove the audit catches a real recovery bug ----

/// Schedule shape for sabotage hunts: short horizon so the shrinker's
/// repeated re-runs stay cheap.
pub fn sabotage_config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(seed, 2);
    cfg.horizon = Dur::from_ms(2);
    cfg.faults_min = 4;
    cfg.faults_max = 10;
    cfg
}

/// Runs `plan` on a server whose driver `arm` deliberately breaks and
/// reports whether the invariant audit caught it. `arm` is
/// [`kernel::Host::debug_break_recovery`] (PF teardown leaks one Tx kernel
/// buffer per `PfFail`) or [`kernel::Host::debug_break_readd`] (hotplug
/// rebind leaks one per completed re-enumeration). This is the end-to-end
/// proof that the audit layer detects recovery bugs rather than merely
/// counting checks — and the predicate [`shrink_failing`] minimizes
/// against.
pub fn sabotaged_run_trips_audit(plan: &FaultPlan, arm: fn(&mut kernel::Host)) -> bool {
    // A light stream keeps the data path warm without making the ddmin
    // re-runs expensive; the leak is caught at the quiesce-point audit.
    let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
    arm(&mut duplex.server);
    let app = App::Rx(make_rx_stream(
        &mut duplex,
        0,
        0,
        NetdevId(0),
        16384,
        32 * 1024,
        4777,
    ));
    let mut nl = NetLoop::new(duplex);
    nl.add_app(app);
    nl.install_fault_plan(plan, WATCHDOG_EVERY);
    nl.start_apps(Time::ZERO);
    nl.run(Time::ZERO + Dur::from_ms(3));
    nl.run_audit();
    crate::perf::note_events(nl.events_processed());
    !nl.audit.ok()
}

/// Minimizes a schedule that trips [`sabotaged_run_trips_audit`] under the
/// same `arm` down to a locally minimal reproducer (delta debugging;
/// re-runs the simulation per probe). The teardown leak fires on `PfFail`,
/// so its minimized plan is that single fault; the rebind leak needs the
/// epoch to advance, so its fixed point is a `SurpriseRemove` and the
/// `Reenumerate` whose rebind leaks.
pub fn shrink_failing(plan: &FaultPlan, arm: fn(&mut kernel::Host)) -> FaultPlan {
    shrink(plan, |p| sabotaged_run_trips_audit(p, arm))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a topology-churn campaign: `count` schedules of [`hotplug_config`].
    fn run_hotplug_campaign(seed: u64, count: u64) -> CampaignReport {
        aggregate(seed, &run_reports_with(&hotplug_config(seed), count))
    }

    /// Schedule shape for hotplug sabotage hunts: [`sabotage_config`] plus the
    /// hotplug kinds with pairing forced on, so generated schedules reliably
    /// contain complete remove→re-add cycles for the broken rebind path to
    /// leak on.
    fn hotplug_sabotage_config(seed: u64) -> CampaignConfig {
        let mut cfg = sabotage_config(seed);
        cfg.hotplug = true;
        cfg.pair_chance = 1.0;
        cfg
    }

    #[test]
    fn families_rotate_round_robin() {
        assert_eq!(family_of(0), Family::RxStream);
        assert_eq!(family_of(1), Family::RequestResponse);
        assert_eq!(family_of(2), Family::KeyValue);
        assert_eq!(family_of(3), Family::NvmeMedia);
        assert_eq!(family_of(4), Family::RxStream);
    }

    #[test]
    fn rx_schedule_survives_with_audits_running() {
        let cfg = base_config(0xc4a0);
        let r = run_schedule(&cfg, 0); // index 0 → RxStream
        assert_eq!(r.family, Family::RxStream);
        assert!(r.checks > 0, "audit must actually run");
        assert!(r.events > 1_000, "stream must actually flow: {}", r.events);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    }

    #[test]
    fn nvme_schedule_survives_media_and_link_faults() {
        let mut cfg = base_config(0xd15c);
        cfg.faults_min = 6; // dense enough to guarantee drive-visible faults
        cfg.faults_max = 12;
        let r = run_schedule(&cfg, 3); // index 3 → NvmeMedia
        assert_eq!(r.family, Family::NvmeMedia);
        // Under a dense fault plan each timed-out command eats ~1.5 ms of
        // retry backoff, so tens of reads in 10 ms is the expected shape.
        assert!(r.events >= 20, "reads issued: {}", r.events);
        assert!(r.checks > 0);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    }

    #[test]
    fn nvme_family_pays_for_injected_media_errors() {
        // A plan that is nothing but media faults must surface as retries.
        let plan = FaultPlan::new()
            .with(Time::from_ms(1), 0, FaultKind::MediaFault { errors: 2 })
            .with(Time::from_ms(2), 1, FaultKind::MediaFault { errors: 1 });
        let r = run_plan(Family::NvmeMedia, 0, &plan);
        assert!(r.recoveries >= 3, "3 injected errors: {}", r.recoveries);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    }

    #[test]
    fn hotplug_campaign_survives_with_churn_actually_exercised() {
        let sum = run_hotplug_campaign(0x407_0106, 8);
        assert!(sum.ok(), "violations: {:?}", sum.violations);
        assert_eq!(sum.schedules, 8);
        assert!(sum.checks > 0, "audit must actually run");
        assert!(
            sum.reconfigs >= 1,
            "campaign must contain at least one epoch-advancing hotplug \
             transition, got {} reconfigs across {} faults",
            sum.reconfigs,
            sum.faults
        );
    }

    #[test]
    fn sabotaged_readd_is_caught_and_shrinks_to_the_remove_readd_pair() {
        // Find a generated schedule containing a complete remove→re-add
        // cycle early enough to land inside the 3 ms sabotage-run window
        // (the broken rebind path leaks one Tx buffer per completed
        // re-enumeration).
        let cfg = hotplug_sabotage_config(0x05ee_d407);
        let plan = (0..64)
            .map(|i| plan_for(&cfg, i))
            .find(|p| {
                let evs = p.events();
                evs.iter().enumerate().any(|(j, e)| {
                    e.kind == FaultKind::SurpriseRemove
                        && evs[j + 1..].iter().any(|r| {
                            r.kind == FaultKind::Reenumerate
                                && r.pf == e.pf
                                && r.at < Time::ZERO + Dur::from_ms(3)
                        })
                })
            })
            .expect("campaign generates paired hotplug schedules");
        let arm = kernel::Host::debug_break_readd;
        assert!(
            sabotaged_run_trips_audit(&plan, arm),
            "the audit must catch the rebind leak"
        );
        let min = shrink_failing(&plan, arm);
        // The leak needs the epoch to advance, which takes the full pair:
        // a lone Reenumerate is a no-op and a lone SurpriseRemove never
        // reaches the broken rebind path. ddmin's 1-minimality therefore
        // pins the reproducer to exactly two events.
        assert_eq!(
            min.len(),
            2,
            "minimal reproducer is the remove/re-add pair, got {:?}",
            min.events()
        );
        assert!(
            min.events()
                .iter()
                .any(|e| e.kind == FaultKind::SurpriseRemove),
            "{:?}",
            min.events()
        );
        assert!(
            min.events()
                .iter()
                .any(|e| e.kind == FaultKind::Reenumerate),
            "{:?}",
            min.events()
        );
        assert!(
            sabotaged_run_trips_audit(&min, arm),
            "reproducer still fails"
        );
    }

    #[test]
    fn sabotaged_recovery_is_caught_and_shrinks_to_one_event() {
        // Find a generated schedule containing a PfFail (the sabotaged
        // path leaks one Tx buffer per PF failure).
        let cfg = sabotage_config(0xbad5eed);
        let (plan, _) = (0..32)
            .map(|i| (plan_for(&cfg, i), i))
            .find(|(p, _)| {
                p.events()
                    .iter()
                    .any(|e| e.kind == FaultKind::PfFail && e.at < Time::ZERO + Dur::from_ms(3))
            })
            .expect("campaign generates PfFail schedules");
        let arm = kernel::Host::debug_break_recovery;
        assert!(
            sabotaged_run_trips_audit(&plan, arm),
            "the audit must catch the leak"
        );
        let min = shrink_failing(&plan, arm);
        assert!(
            min.len() <= 3,
            "minimized to ≤3 events, got {}: {:?}",
            min.len(),
            min.events()
        );
        assert!(
            min.events().iter().any(|e| e.kind == FaultKind::PfFail),
            "the culprit PfFail survives shrinking: {:?}",
            min.events()
        );
        assert!(
            sabotaged_run_trips_audit(&min, arm),
            "reproducer still fails"
        );
    }
}
