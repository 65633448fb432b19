//! Figure 10: memcached throughput and memory bandwidth vs SET ratio.

use bench::write_csv;
use ioctopus::config::Placement;
use ioctopus::experiments::memcached;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "Figure 10",
        "memcached transactions and server memory bandwidth as SET ratio grows",
    );
    println!(
        "{:>6} | {:>10} {:>10} {:>7} | {:>10} {:>10} {:>7}",
        "SET%", "ioct[KT/s]", "rem[KT/s]", "ratio", "ioct[GB/s]", "rem[GB/s]", "memx"
    );
    let mut gains = Vec::new();
    let mut rows = Vec::new();
    let points = ioctopus::sweep::sweep(vec![0, 25, 50, 75, 100], |set_pct| {
        let ratio = set_pct as f64 / 100.0;
        let l = memcached::run(Placement::Octopus, ratio, 12);
        let r = memcached::run(Placement::Remote, ratio, 12);
        (set_pct, l, r)
    });
    for (set_pct, l, r) in points {
        let gain = l.rate_per_sec / r.rate_per_sec;
        gains.push(gain);
        rows.push(l.clone());
        rows.push(r.clone());
        println!(
            "{:>6} | {:>10.2} {:>10.2} {:>6.2}x | {:>10.2} {:>10.2} {:>6.2}x",
            set_pct,
            l.rate_per_sec / 1e3,
            r.rate_per_sec / 1e3,
            gain,
            l.membw_gbps / 8.0,
            r.membw_gbps / 8.0,
            if r.membw_gbps > 0.0 {
                l.membw_gbps / r.membw_gbps
            } else {
                0.0
            },
        );
    }
    if let Some(p) = write_csv("fig10_memcached", &rows) {
        println!("[csv] {}", p.display());
    }
    let grows = gains.last().unwrap() > gains.first().unwrap();
    println!("\npaper: ioct/local advantage grows with SET%: 1.10 -> 1.16; ioct membw 0.57-0.75x of remote");
    println!("{}", bench::shape(grows && *gains.last().unwrap() > 1.03));
    bench::footer(t0);
}
