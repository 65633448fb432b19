//! Figure 8: single-core pktgen packet throughput.

use bench::write_csv;
use ioctopus::config::Placement;
use ioctopus::experiments::pktgen;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "Figure 8",
        "pktgen transmit throughput and memory bandwidth vs packet size",
    );
    println!(
        "{:>8} | {:>10} {:>10} {:>7} | {:>9} {:>9} | {:>10} {:>10}",
        "pkt", "ioct[Gb/s]", "rem[Gb/s]", "ratio", "ioctMpps", "remMpps", "ioct-mem", "rem-mem"
    );
    let mut delta_ns = 0.0;
    let mut rows = Vec::new();
    let points = ioctopus::sweep::sweep(vec![64u64, 128, 256, 512, 1024, 1500], |pkt| {
        let l = pktgen::run(Placement::Octopus, pkt, 6, false);
        let r = pktgen::run(Placement::Remote, pkt, 6, false);
        (pkt, l, r)
    });
    for (pkt, l, r) in points {
        rows.push(l.clone());
        rows.push(r.clone());
        if pkt == 64 {
            delta_ns = 1e9 / r.rate_per_sec - 1e9 / l.rate_per_sec;
        }
        println!(
            "{:>8} | {:>10.2} {:>10.2} {:>6.2}x | {:>9.2} {:>9.2} | {:>10.2} {:>10.2}",
            pkt,
            l.throughput_gbps,
            r.throughput_gbps,
            l.throughput_gbps / r.throughput_gbps,
            l.rate_per_sec / 1e6,
            r.rate_per_sec / 1e6,
            l.membw_gbps,
            r.membw_gbps,
        );
    }
    if let Some(p) = write_csv("fig08_pktgen", &rows) {
        println!("[csv] {}", p.display());
    }
    println!("\nper-packet delta @64B = {delta_ns:.0} ns (paper: ~80 ns, one completion-entry DRAM read)");
    println!("paper: ioct/local 1.30-1.39x remote; local membw ~0");
    println!("{}", bench::shape((40.0..160.0).contains(&delta_ns)));
    bench::footer(t0);
}
