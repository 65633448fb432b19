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

use ioctopus::experiments::chaos;
use ioctopus::perf;
use simcore::campaign::{plan_for, shrink};
use simcore::FaultPlan;

/// Fixed campaign seed: CI reruns are bit-identical, and any violation is
/// reproducible from `(SEED, index)` alone.
const SEED: u64 = 0x10c7_0b05;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn plan_json(plan: &FaultPlan) -> String {
    let evs: Vec<String> = plan
        .events()
        .iter()
        .map(|e| {
            format!(
                "{{\"at_ps\": {}, \"pf\": {}, \"kind\": \"{}\"}}",
                e.at.as_ps(),
                e.pf,
                json_escape(&format!("{:?}", e.kind))
            )
        })
        .collect();
    format!("[{}]", evs.join(", "))
}

fn repo_root() -> std::path::PathBuf {
    let mut root = std::env::current_dir().unwrap_or_default();
    while !root.join("Cargo.lock").exists() {
        if !root.pop() {
            return std::env::current_dir().unwrap_or_default();
        }
    }
    root
}

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
    let (plan, index) = (0..64)
        .map(|i| (plan_for(&cfg, i), i))
        .find(|(p, _)| chaos::sabotaged_run_trips_audit(p))
        .expect("no generated schedule tripped the sabotaged audit");
    let min = chaos::shrink_failing(&plan);
    assert!(
        chaos::sabotaged_run_trips_audit(&min),
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

fn write_min_plan(kind: &str, seed: u64, index: u64, plan: &FaultPlan, violations: &[String]) {
    let path = repo_root().join("CHAOS_MIN_PLAN.json");
    let viol: Vec<String> = violations
        .iter()
        .map(|v| format!("\"{}\"", json_escape(v)))
        .collect();
    let j = format!(
        "{{\n  \"kind\": \"{kind}\",\n  \"seed\": {seed},\n  \"schedule_index\": {index},\n  \
         \"events\": {},\n  \"plan\": {},\n  \"violations\": [{}]\n}}\n",
        plan.len(),
        plan_json(plan),
        viol.join(", ")
    );
    if std::fs::write(&path, j).is_ok() {
        println!("[json] {}", path.display());
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
    let viol: Vec<String> = sum
        .violations
        .iter()
        .map(|v| format!("\"{}\"", json_escape(v)))
        .collect();
    let j = format!(
        "{{\n  \"smoke\": {smoke},\n  \"seed\": {},\n  \"schedules\": {},\n  \"faults\": {},\n  \
         \"events\": {},\n  \"checks\": {},\n  \"recoveries\": {},\n  \"wall_s\": {:.3},\n  \
         \"violations\": [{}],\n  \"families\": [\n{}\n  ],\n  \"sabotage_self_test\": \
         {{\"caught\": true, \"schedule_index\": {}, \"original_events\": {}, \
         \"min_events\": {}, \"min_plan\": {}}}\n}}\n",
        sum.seed,
        sum.schedules,
        sum.faults,
        sum.events,
        sum.checks,
        sum.recoveries,
        wall_s,
        viol.join(", "),
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
    if let Some(bad) = reports.iter().find(|r| !r.violations.is_empty()) {
        println!(
            "\nVIOLATIONS (first schedule = {:?}[{}]):",
            bad.family, bad.index
        );
        for v in &sum.violations {
            println!("  {v}");
        }
        let cfg = chaos::base_config(SEED);
        let plan = plan_for(&cfg, bad.index);
        let min = shrink(&plan, |p| {
            !chaos::run_plan(bad.family, bad.index, p)
                .violations
                .is_empty()
        });
        let min_report = chaos::run_plan(bad.family, bad.index, &min);
        println!(
            "minimized {} -> {} events; reproduce with seed {SEED:#x}, index {}",
            plan.len(),
            min.len(),
            bad.index
        );
        write_min_plan("violation", SEED, bad.index, &min, &min_report.violations);
    }

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
    let _ = perf::events(); // footer drains the counters
    bench::footer(t0);
    assert!(
        sum.ok(),
        "{} invariant violation(s) — see CHAOS_MIN_PLAN.json",
        sum.violations.len()
    );
}
