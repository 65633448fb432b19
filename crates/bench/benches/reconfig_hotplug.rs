//! Hotplug churn: epoch-fenced reconfiguration between uniform IOctopus
//! mode and legacy NUDMA mode, measured and then stress-tested.
//!
//! Two halves, one artifact (`BENCH_9.json` at the workspace root):
//!
//! * **measure** — the `reconfig` experiment runs one full surprise-remove
//!   → NUDMA → re-enumerate cycle against the Figure 7 receive stream and
//!   reports the transition latencies, the degraded-mode throughput ratio,
//!   and how much stale work the epoch fence discarded (counted, never
//!   delivered);
//! * **stress** — a topology-churn chaos campaign (the `chaos` harness's
//!   fault alphabet plus `SurpriseRemove`/`Reenumerate`, often paired)
//!   expands one fixed seed into 1000 deterministic schedules (`--smoke`:
//!   48) across the four experiment families, every run under the
//!   system-wide invariant audit. Any violation fails the harness after
//!   delta-debugging the offending schedule to a minimal reproducer in
//!   `CHAOS_MIN_PLAN.json`.

use std::time::Instant;

use bench::{json_strings, repo_root};
use ioctopus::experiments::{chaos, reconfig};

/// Fixed campaign seed: CI reruns are bit-identical, and any violation is
/// reproducible from `(SEED, index)` alone. Distinct from the `chaos`
/// harness's seed so the two campaigns explore different schedules.
const SEED: u64 = 0x10c7_0b09;

fn write_json(
    smoke: bool,
    r: &ioctopus::results::ReconfigResult,
    sum: &chaos::CampaignReport,
    wall_s: f64,
) {
    let path = repo_root().join("BENCH_9.json");
    let j = format!(
        "{{\n  \"smoke\": {smoke},\n  \"reconfig\": {{\n    \
         \"remove_to_survivor_us\": {:.1},\n    \"readd_to_home_us\": {:.1},\n    \
         \"degraded_ratio\": {:.4},\n    \"recovered_ratio\": {:.4},\n    \
         \"fenced_completions\": {},\n    \"fenced_irqs\": {},\n    \
         \"reconfigs\": {},\n    \"nudma_entries\": {},\n    \"nudma_exits\": {},\n    \
         \"dropped_pf_dead\": {},\n    \"resteered_flows\": {}\n  }},\n  \
         \"campaign\": {{\n    \"seed\": {},\n    \"schedules\": {},\n    \
         \"faults\": {},\n    \"events\": {},\n    \"checks\": {},\n    \
         \"recoveries\": {},\n    \"fenced\": {},\n    \"reconfigs\": {},\n    \
         \"violations\": {}\n  }},\n  \"wall_s\": {:.3}\n}}\n",
        r.remove_to_survivor_us,
        r.readd_to_home_us,
        r.degraded_ratio,
        r.recovered_ratio,
        r.fenced_completions,
        r.fenced_irqs,
        r.reconfigs,
        r.nudma_entries,
        r.nudma_exits,
        r.dropped_pf_dead,
        r.resteered_flows,
        sum.seed,
        sum.schedules,
        sum.faults,
        sum.events,
        sum.checks,
        sum.recoveries,
        sum.fenced,
        sum.reconfigs,
        json_strings(&sum.violations),
        wall_s,
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
        "reconfig_hotplug",
        &format!("epoch-fenced hotplug cycle + {count} topology-churn schedules (seed {SEED:#x})"),
    );

    // ---- measure: one clean remove → NUDMA → re-add cycle ----
    let r = reconfig::run();
    println!(
        "{:>24} | {:>12} | {:>12}",
        "transition", "latency (µs)", "tput ratio"
    );
    println!(
        "{:>24} | {:>12.1} | {:>12.3}",
        "remove -> NUDMA", r.remove_to_survivor_us, r.degraded_ratio
    );
    println!(
        "{:>24} | {:>12.1} | {:>12.3}",
        "re-add -> uniform", r.readd_to_home_us, r.recovered_ratio
    );
    println!(
        "fence: {} completions + {} irqs discarded; {} reconfigs, \
         NUDMA in/out {}/{}, {} drops  {}",
        r.fenced_completions,
        r.fenced_irqs,
        r.reconfigs,
        r.nudma_entries,
        r.nudma_exits,
        r.dropped_pf_dead,
        bench::shape(
            r.reconfigs == 2
                && r.nudma_entries == 1
                && r.nudma_exits == 1
                && r.degraded_ratio > 0.05
                && (r.recovered_ratio - 1.0).abs() < 0.05
        ),
    );

    // ---- stress: the topology-churn campaign under the invariant audit ----
    let cfg = chaos::hotplug_config(SEED);
    let reports = chaos::run_reports_with(&cfg, count);
    let sum = chaos::aggregate(SEED, &reports);
    println!(
        "\ncampaign: {} schedules, {} faults, {} checks, {} reconfigs, \
         {} fenced, {} violation(s)",
        sum.schedules,
        sum.faults,
        sum.checks,
        sum.reconfigs,
        sum.fenced,
        sum.violations.len()
    );

    bench::minimize_first_violation("hotplug-violation", &cfg, &reports, &sum);

    write_json(smoke, &r, &sum, t0.elapsed().as_secs_f64());
    bench::footer(t0);
    assert!(
        sum.ok(),
        "{} invariant violation(s) — see CHAOS_MIN_PLAN.json",
        sum.violations.len()
    );
    assert!(
        sum.reconfigs >= count / 4,
        "topology churn must actually exercise the fence: {} reconfigs \
         across {} schedules",
        sum.reconfigs,
        sum.schedules
    );
}
