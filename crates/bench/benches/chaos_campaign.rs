//! Chaos campaign: generated fault schedules vs. the whole stack, every
//! run under the system-wide invariant audit.
//!
//! The full run expands one fixed campaign seed into 1000 deterministic
//! fault schedules and rotates them across the experiment families
//! (netperf Rx, TCP_RR, memcached, NVMe media); `--smoke` runs a 48-schedule
//! slice of the same campaign so CI finishes in seconds. Either way the
//! harness:
//!
//! * fails (non-zero exit) if any schedule records an invariant violation,
//!   after delta-debugging the offending schedule down to a minimal
//!   reproducer and writing it to `CHAOS_MIN_PLAN.json`;
//! * always runs the *sabotage self-test* — a driver whose PF-failure
//!   recovery deliberately leaks one Tx kernel buffer — to prove the audit
//!   catches real recovery bugs, and shrinks that failure to its minimal
//!   plan (expected: the single `PfFail`), recorded in the same artifact;
//! * writes the machine-readable `BENCH_6.json` at the workspace root
//!   (campaign totals, per-family breakdown, self-test verdict).

use std::time::Instant;

use bench::{json_strings, plan_json, repo_root, write_min_plan};
use ioctopus::experiments::chaos;
use simcore::campaign::plan_for;
use simcore::FaultPlan;

/// Fixed campaign seed: CI reruns are bit-identical, and any violation is
/// reproducible from `(SEED, index)` alone.
const SEED: u64 = 0x10c7_0b05;

struct SelfTest {
    index: u64,
    original_events: usize,
    min_events: usize,
    min_plan: FaultPlan,
}

/// Hunts a sabotage schedule containing a PF failure, proves the audit
/// trips on it, and shrinks it to a minimal reproducer.
fn sabotage_self_test() -> SelfTest {
    let cfg = chaos::sabotage_config(SEED);
    let arm = kernel::Host::debug_break_recovery;
    let (plan, index) = (0..64)
        .map(|i| (plan_for(&cfg, i), i))
        .find(|(p, _)| chaos::sabotaged_run_trips_audit(p, arm))
        .expect("no generated schedule tripped the sabotaged audit");
    let min = chaos::shrink_failing(&plan, arm);
    assert!(
        chaos::sabotaged_run_trips_audit(&min, arm),
        "minimized plan no longer reproduces"
    );
    assert!(
        min.len() <= 3,
        "sabotage reproducer should be tiny, got {} events",
        min.len()
    );
    SelfTest {
        index,
        original_events: plan.len(),
        min_events: min.len(),
        min_plan: min,
    }
}

fn write_json(
    smoke: bool,
    sum: &chaos::CampaignReport,
    per_family: &[(chaos::Family, u64, u64, u64)],
    st: &SelfTest,
    wall_s: f64,
) {
    let path = repo_root().join("BENCH_6.json");
    let fams: Vec<String> = per_family
        .iter()
        .map(|(f, n, events, recoveries)| {
            format!(
                "    {{\"family\": \"{f:?}\", \"schedules\": {n}, \"events\": {events}, \
                 \"recoveries\": {recoveries}}}"
            )
        })
        .collect();
    let j = format!(
        "{{\n  \"smoke\": {smoke},\n  \"seed\": {},\n  \"schedules\": {},\n  \"faults\": {},\n  \
         \"events\": {},\n  \"checks\": {},\n  \"recoveries\": {},\n  \"wall_s\": {:.3},\n  \
         \"violations\": {},\n  \"families\": [\n{}\n  ],\n  \"sabotage_self_test\": \
         {{\"caught\": true, \"schedule_index\": {}, \"original_events\": {}, \
         \"min_events\": {}, \"min_plan\": {}}}\n}}\n",
        sum.seed,
        sum.schedules,
        sum.faults,
        sum.events,
        sum.checks,
        sum.recoveries,
        wall_s,
        json_strings(&sum.violations),
        fams.join(",\n"),
        st.index,
        st.original_events,
        st.min_events,
        plan_json(&st.min_plan),
    );
    if std::fs::write(&path, j).is_ok() {
        println!("[json] {}", path.display());
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let count: u64 = if smoke { 48 } else { 1000 };
    let t0 = Instant::now();
    bench::header(
        "chaos_campaign",
        &format!("{count} generated fault schedules under the invariant audit (seed {SEED:#x})"),
    );

    let reports = chaos::run_reports(SEED, count);
    let sum = chaos::aggregate(SEED, &reports);

    println!(
        "{:>16} | {:>9} | {:>7} | {:>12} | {:>10} | {:>10}",
        "family", "schedules", "faults", "events", "checks", "recoveries"
    );
    let mut per_family = Vec::new();
    for fam in chaos::FAMILIES {
        let rs: Vec<_> = reports.iter().filter(|r| r.family == fam).collect();
        let (n, faults, events, checks, recoveries) =
            rs.iter()
                .fold((0u64, 0u64, 0u64, 0u64, 0u64), |(n, f, e, c, r), x| {
                    (
                        n + 1,
                        f + x.faults as u64,
                        e + x.events,
                        c + x.checks,
                        r + x.recoveries,
                    )
                });
        println!(
            "{:>16} | {n:>9} | {faults:>7} | {events:>12} | {checks:>10} | {recoveries:>10}",
            format!("{fam:?}")
        );
        per_family.push((fam, n, events, recoveries));
    }
    println!(
        "\ncampaign: {} schedules, {} faults, {} checks, {} violation(s)",
        sum.schedules,
        sum.faults,
        sum.checks,
        sum.violations.len()
    );

    // A real violation: minimize the first offending schedule before
    // failing, so CI uploads an actionable reproducer.
    bench::minimize_first_violation("violation", &chaos::base_config(SEED), &reports, &sum);

    // Always prove the audit catches a genuinely broken recovery path and
    // that the shrinker isolates it.
    let st = sabotage_self_test();
    println!(
        "\nsabotage self-test: leak caught at schedule {} and shrunk {} -> {} event(s)",
        st.index, st.original_events, st.min_events
    );
    if sum.ok() {
        write_min_plan("sabotage-self-test", SEED, st.index, &st.min_plan, &[]);
    }

    write_json(smoke, &sum, &per_family, &st, t0.elapsed().as_secs_f64());
    bench::footer(t0);
    assert!(
        sum.ok(),
        "{} invariant violation(s) — see CHAOS_MIN_PLAN.json",
        sum.violations.len()
    );
}
