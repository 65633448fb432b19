//! Figure 14: per-PF throughput across a thread migration.

use bench::write_csv;
use ioctopus::experiments::migration;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "Figure 14",
        "Per-PF throughput while netperf migrates CPU0 -> CPU1 at t=4.5 (time scaled 1000x)",
    );
    let points = ioctopus::sweep::sweep(vec![true, false], migration::run);
    for (octo, r) in [true, false].into_iter().zip(points) {
        println!("--- {} ---", r.config);
        println!("{:>9} {:>10} {:>10}", "t[s]", "PF0[Gb/s]", "PF1[Gb/s]");
        for s in r.samples.iter().step_by(10) {
            println!(
                "{:>9.2} {:>10.2} {:>10.2}",
                s.t_secs / 1000.0 * 1000.0,
                s.pf0_gbps,
                s.pf1_gbps
            );
        }
        if let Some(p) = write_csv(&format!("fig14_{}", r.config), &r.samples) {
            println!("[csv] {}", p.display());
        }
        let (b0, _) = migration::mean_rates(&r, 1.0, 4.0);
        let (a0, a1) = migration::mean_rates(&r, 6.0, 9.5);
        println!(
            "mean before: PF0={b0:.2} Gb/s; after: PF0={a0:.2} PF1={a1:.2}; ooo={} dropped={}",
            r.ooo_packets, r.dropped
        );
        if octo {
            println!(
                "{}",
                bench::shape(a1 > 5.0 && a0 < 1.0 && r.ooo_packets == 0 && r.dropped == 0)
            );
        } else {
            println!("{}", bench::shape(a1 < 1.0 && a0 < b0 * 0.95));
        }
        println!();
    }
    println!("paper: octoNIC moves traffic smoothly to PF1 (no loss/reorder); ethNIC stays on PF0 at remote-level throughput");
    bench::footer(t0);
}
