//! Figure 11: TCP Rx throughput co-located with STREAM pairs.

use bench::write_csv;
use ioctopus::config::Placement;
use ioctopus::experiments::congestion;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "Figure 11",
        "Single-core TCP Rx throughput while STREAM pairs congest the QPI",
    );
    println!(
        "{:>7} | {:>10} {:>10} {:>7} | {:>10} {:>10}",
        "pairs", "ioct[Gb/s]", "rem[Gb/s]", "ratio", "ioct-mem", "rem-mem"
    );
    let mut best = 0.0f64;
    let mut rows = Vec::new();
    let points = ioctopus::sweep::sweep((1..=6).collect::<Vec<_>>(), |pairs| {
        let l = congestion::run_fig11(Placement::Octopus, pairs, 10);
        let r = congestion::run_fig11(Placement::Remote, pairs, 10);
        (pairs, l, r)
    });
    for (pairs, l, r) in points {
        let ratio = l.throughput_gbps / r.throughput_gbps;
        best = best.max(ratio);
        rows.push(l.clone());
        rows.push(r.clone());
        println!(
            "{:>7} | {:>10.2} {:>10.2} {:>6.2}x | {:>10.1} {:>10.1}",
            pairs, l.throughput_gbps, r.throughput_gbps, ratio, l.membw_gbps, r.membw_gbps
        );
    }
    if let Some(p) = write_csv("fig11_congestion", &rows) {
        println!("[csv] {}", p.display());
    }
    println!("\npaper: ioct/local obtains 1.82x-2.67x the remote throughput");
    println!("{}", bench::shape(best > 1.5));
    bench::footer(t0);
}
