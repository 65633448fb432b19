//! Differential proof of clean reconfiguration: a degrade→restore hotplug
//! cycle that quiesces before restoring must leave the system in a state
//! *bit-identical* to one that never faulted.
//!
//! Two loops run the same finite ping-pong workload, which completes and
//! quiesces well before the fault window. Loop B then loses PF0 to a
//! surprise removal (dropping it to legacy NUDMA mode) and gets it back via
//! re-enumeration; loop A idles through the same window under the same
//! watchdog and audit ticks. Both streams are checksummed (see
//! `NetLoop::checksum`); the prefix windows differ — B's contains the fault
//! events and the reconfiguration — but after resuming an identical second
//! workload from the same quiesce point, the post-restore windows must
//! produce the same rolling checksum, the same round-trip counts, and clean
//! audits. Device epochs differ across the two loops by construction
//! (B re-added PF0 at epoch 2), which is exactly why the checksum excludes
//! the interrupt epoch stamp: a fenced-and-restored machine is
//! *observationally* identical, not epoch-identical.

use ioctopus::config::{BuildOpts, Placement};
use ioctopus::netloop::{make_rr, App, NetLoop};
use ioctopus::system::build_duplex;
use simcore::{Dur, FaultKind, FaultPlan, Time};

const WATCHDOG_EVERY: Dur = Dur::from_us(50);
const AUDIT_EVERY: Dur = Dur::from_us(100);
/// The finite workload finishes within ~1 ms; the fault window opens at
/// 3 ms, so the remove/re-add cycle runs against a quiesced machine.
const REMOVE_AT: Time = Time::from_ms(3);
const READD_AT: Time = Time::from_ms(4);
/// Quiesce point the second workload resumes from (past the re-add and its
/// 20 µs retrain window).
const RESUME_AT: Time = Time::from_ms(5);
const END_AT: Time = Time::from_ms(9);

/// Builds one loop with the finite phase-1 workload and the given fault
/// plan (possibly empty — the empty plan still arms the watchdog so both
/// loops tick identically).
fn build_loop(plan: &FaultPlan) -> NetLoop {
    let mut duplex = build_duplex(Placement::Octopus, BuildOpts::default());
    let app = App::Rr(make_rr(
        &mut duplex,
        0,
        0,
        kernel::NetdevId(0),
        1024,
        64,
        7001,
        false,
    ));
    let mut nl = NetLoop::new(duplex);
    nl.add_app(app);
    nl.enable_audit(AUDIT_EVERY);
    nl.install_fault_plan(plan, WATCHDOG_EVERY);
    nl.start_apps(Time::ZERO);
    nl
}

/// Runs the loop to the quiesce point, discards the (possibly divergent)
/// prefix checksum, resumes an identical second workload, and returns the
/// post-restore window checksum plus its round-trip count.
fn resume_and_finish(nl: &mut NetLoop) -> (u64, u64, u64) {
    nl.run(RESUME_AT);
    let prefix = nl.take_checksum();
    let app = App::Rr(make_rr(
        &mut nl.duplex,
        0,
        0,
        kernel::NetdevId(0),
        1024,
        64,
        7003,
        false,
    ));
    let idx = nl.add_app(app);
    nl.start_apps(RESUME_AT);
    nl.run(END_AT);
    nl.run_audit();
    let done = nl.app(idx).progress();
    (prefix, nl.take_checksum(), done)
}

#[test]
fn quiesced_degrade_restore_cycle_is_invisible_downstream() {
    let mut clean = build_loop(&FaultPlan::new());

    let mut plan = FaultPlan::new();
    plan.push(REMOVE_AT, 0, FaultKind::SurpriseRemove);
    plan.push(READD_AT, 0, FaultKind::Reenumerate);
    let mut churned = build_loop(&plan);

    let (clean_prefix, clean_tail, clean_done) = resume_and_finish(&mut clean);
    let (churn_prefix, churn_tail, churn_done) = resume_and_finish(&mut churned);

    // The cycle really happened: epoch 2, one NUDMA round trip, and the
    // prefix windows are observably different streams.
    let pf0 = churned.duplex.server_pfs[0];
    assert_eq!(churned.duplex.server.nic.pf_epoch(pf0), 2);
    let rb = churned.duplex.server.robustness();
    assert_eq!(rb.reconfigs, 2, "remove and re-add each completed a fence");
    assert_eq!(rb.nudma_entries, 1, "single-PF loss degraded to NUDMA");
    assert_eq!(rb.nudma_exits, 1, "re-add restored uniform IOctopus mode");
    assert_ne!(clean_prefix, churn_prefix, "prefixes contain the faults");

    // Quiesced before the remove, so the fence had nothing to discard...
    assert_eq!(rb.fenced_completions, 0, "no in-flight work to fence");
    assert_eq!(rb.fenced_irqs, 0);

    // ...and downstream of the restore the machine is bit-identical to one
    // that never faulted: same event stream, same work completed.
    assert_eq!(clean_done, 64, "second workload ran to completion");
    assert_eq!(churn_done, 64);
    assert_eq!(
        clean_tail, churn_tail,
        "post-restore event streams must be bit-identical"
    );
    assert!(clean.audit.ok(), "{:?}", clean.audit.violations());
    assert!(churned.audit.ok(), "{:?}", churned.audit.violations());
}

#[test]
fn unquiesced_cycle_is_visibly_different() {
    // Sensitivity control: the checksum must actually distinguish streams
    // that differ. A removal landing mid-workload (20 µs in, ping-pong
    // still in flight) produces a window whose events — the faults, the
    // failover path, any fenced work — diverge from the clean run's, and
    // the sums must diverge with them. Without this, the tail equality
    // above could be an artifact of a blind hash.
    let mut plan = FaultPlan::new();
    plan.push(Time::from_us(20), 0, FaultKind::SurpriseRemove);
    plan.push(READD_AT, 0, FaultKind::Reenumerate);
    let mut churned = build_loop(&plan);
    let mut clean = build_loop(&FaultPlan::new());
    clean.run(RESUME_AT);
    churned.run(RESUME_AT);
    assert_ne!(
        clean.checksum(),
        churned.checksum(),
        "an unquiesced cycle perturbs the stream"
    );
    // Even torn mid-flight, the invariants hold at the quiesce point.
    churned.run_audit();
    assert!(churned.audit.ok(), "{:?}", churned.audit.violations());
}
