//! Shared helpers for the figure-regeneration bench harnesses.
//!
//! Each `benches/figNN_*.rs` target is a `harness = false` binary run by
//! `cargo bench`: it re-runs the corresponding experiment from
//! [`ioctopus::experiments`] and prints the paper's rows/series next to the
//! paper's reference values, so `cargo bench --workspace` regenerates the
//! entire evaluation.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

use ioctopus::experiments::chaos;
use ioctopus::results::CsvRow;
use simcore::campaign::{plan_for, shrink};
use simcore::{CampaignConfig, FaultPlan};

/// Prints the standard figure header.
pub fn header(fig: &str, caption: &str) {
    println!("==================================================================");
    println!("{fig}: {caption}");
    println!("==================================================================");
}

/// Prints the closing footer with the wall-clock milliseconds, the exact
/// event count and the event throughput since the header. Drains the
/// event counter the experiment runners credit through `ioctopus::perf`.
pub fn footer(started: Instant) {
    let secs = started.elapsed().as_secs_f64();
    let ms = secs * 1e3;
    let events = ioctopus::perf::take_events();
    if events > 0 && secs > 0.0 {
        println!(
            "--------------------- [{ms:.1} ms wall-clock | {events} events | {:.2}M events/s | {} workers]\n",
            events as f64 / 1e6 / secs,
            simcore::pool::worker_count(usize::MAX),
        );
    } else {
        println!("------------------------------------------------ [{ms:.1} ms wall-clock]\n");
    }
}

/// Escapes `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders `items` as a JSON array of strings.
pub fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|v| format!("\"{}\"", json_escape(v)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// The workspace root — the nearest ancestor of the working directory that
/// holds `Cargo.lock` — where the harnesses write their JSON, CSV and trace
/// artifacts.
/// Falls back to the working directory.
pub fn repo_root() -> PathBuf {
    let mut root = std::env::current_dir().unwrap_or_default();
    while !root.join("Cargo.lock").exists() {
        if !root.pop() {
            return std::env::current_dir().unwrap_or_default();
        }
    }
    root
}

/// Writes `rows` to `<repo root>/target/figures/<name>.csv`; best-effort
/// (figure regeneration must not fail on a read-only filesystem). Returns
/// the path written, if any.
pub fn write_csv<T: CsvRow>(name: &str, rows: &[T]) -> Option<PathBuf> {
    let dir = repo_root().join("target").join("figures");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::from(T::csv_header());
    out.push('\n');
    for r in rows {
        out.push_str(&r.csv_row());
        out.push('\n');
    }
    std::fs::write(&path, out).ok()?;
    Some(path)
}

/// Renders a fault plan as a JSON array of `{at_ps, pf, kind}` objects.
pub fn plan_json(plan: &FaultPlan) -> String {
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

/// Writes `CHAOS_MIN_PLAN.json` at the workspace root: a minimized fault
/// plan of campaign `seed`'s schedule `index`, labelled `kind`, with the
/// violations it reproduces.
pub fn write_min_plan(kind: &str, seed: u64, index: u64, plan: &FaultPlan, violations: &[String]) {
    let path = repo_root().join("CHAOS_MIN_PLAN.json");
    let j = format!(
        "{{\n  \"kind\": \"{kind}\",\n  \"seed\": {seed},\n  \"schedule_index\": {index},\n  \
         \"events\": {},\n  \"plan\": {},\n  \"violations\": {}\n}}\n",
        plan.len(),
        plan_json(plan),
        json_strings(violations)
    );
    if std::fs::write(&path, j).is_ok() {
        println!("[json] {}", path.display());
    }
}

/// If any schedule of a campaign run with `cfg` recorded an invariant
/// violation, prints every violation, delta-debugs the first offending
/// schedule to a minimal reproducer and writes it to `CHAOS_MIN_PLAN.json`
/// labelled `kind`, so CI uploads an actionable artifact before failing.
pub fn minimize_first_violation(
    kind: &str,
    cfg: &CampaignConfig,
    reports: &[chaos::ScheduleReport],
    sum: &chaos::CampaignReport,
) {
    let Some(bad) = reports.iter().find(|r| !r.violations.is_empty()) else {
        return;
    };
    println!(
        "\nVIOLATIONS (first schedule = {:?}[{}]):",
        bad.family, bad.index
    );
    for v in &sum.violations {
        println!("  {v}");
    }
    let plan = plan_for(cfg, bad.index);
    let min = shrink(&plan, |p| {
        !chaos::run_plan(bad.family, bad.index, p)
            .violations
            .is_empty()
    });
    let min_report = chaos::run_plan(bad.family, bad.index, &min);
    println!(
        "minimized {} -> {} events; reproduce with seed {:#x}, index {}",
        plan.len(),
        min.len(),
        cfg.seed,
        bad.index
    );
    write_min_plan(kind, cfg.seed, bad.index, &min, &min_report.violations);
}

/// Formats a ratio as the paper's `N.NNx` annotations.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".into()
    } else {
        format!("{:.2}x", a / b)
    }
}

/// Quick pass/attention marker for shape checks printed by the harnesses.
pub fn shape(ok: bool) -> &'static str {
    if ok {
        "[shape OK]"
    } else {
        "[shape DEVIATES — see EXPERIMENTS.md]"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(2.0, 1.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }

    #[test]
    fn json_helpers_escape_and_quote() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        let items = ["x".to_string(), "y\"z".to_string()];
        assert_eq!(json_strings(&items), r#"["x", "y\"z"]"#);
        assert_eq!(json_strings(&[]), "[]");
    }

    #[test]
    fn shape_marker() {
        assert_eq!(shape(true), "[shape OK]");
        assert!(shape(false).contains("DEVIATES"));
    }
}
