//! Figure 12: 64-byte UDP latency co-located with STREAM pairs.

use bench::write_csv;
use ioctopus::config::Placement;
use ioctopus::experiments::congestion;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "Figure 12",
        "sockperf 64B UDP latency while STREAM pairs congest the QPI",
    );
    println!(
        "{:>7} | {:>10} {:>10} | {:>10}",
        "pairs", "ioct[us]", "rem[us]", "ioct/rem"
    );
    let mut improvements = Vec::new();
    let mut rows = Vec::new();
    let points = ioctopus::sweep::sweep((1..=6).collect::<Vec<_>>(), |pairs| {
        let l = congestion::run_fig12(Placement::Octopus, pairs, 60);
        let r = congestion::run_fig12(Placement::Remote, pairs, 60);
        (pairs, l, r)
    });
    for (pairs, l, r) in points {
        improvements.push(l.mean_us / r.mean_us);
        rows.push(l.clone());
        rows.push(r.clone());
        println!(
            "{:>7} | {:>10.2} {:>10.2} | {:>10.2}",
            pairs,
            l.mean_us,
            r.mean_us,
            l.mean_us / r.mean_us
        );
    }
    if let Some(p) = write_csv("fig12_congestion_lat", &rows) {
        println!("[csv] {}", p.display());
    }
    let best = improvements.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\npaper: ioct/local 10%-22% lower latency (0.90-0.78 of remote), remote grows with pairs"
    );
    println!("{}", bench::shape(best < 0.95));
    bench::footer(t0);
}
