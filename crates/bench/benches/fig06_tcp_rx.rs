//! Figure 6: single-core TCP STREAM receive.

use bench::write_csv;
use ioctopus::config::Placement;
use ioctopus::experiments::tcp_stream;
use workloads::StreamConfig;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "Figure 6",
        "Single-core TCP stream receive (throughput / memory bandwidth / CPU)",
    );
    println!(
        "{:>8} | {:>10} {:>10} {:>7} | {:>10} {:>10} {:>7} | {:>7}",
        "msg", "ioct[Gb/s]", "rem[Gb/s]", "ratio", "ioct-mem", "rem-mem", "memx", "cpu"
    );
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    let points = ioctopus::sweep::sweep(StreamConfig::paper_msg_sizes(), |msg| {
        let l = tcp_stream::run_rx(Placement::Octopus, msg, 8);
        let r = tcp_stream::run_rx(Placement::Remote, msg, 8);
        (msg, l, r)
    });
    for (msg, l, r) in points {
        let ratio = l.throughput_gbps / r.throughput_gbps;
        ratios.push((msg, ratio));
        rows.push(l.clone());
        rows.push(r.clone());
        println!(
            "{:>8} | {:>10.2} {:>10.2} {:>6.2}x | {:>10.2} {:>10.2} {:>6.2}x | {:>6.2}",
            msg,
            l.throughput_gbps,
            r.throughput_gbps,
            ratio,
            l.membw_gbps,
            r.membw_gbps,
            if r.throughput_gbps > 0.0 {
                r.membw_gbps / r.throughput_gbps
            } else {
                0.0
            },
            l.cpu_cores,
        );
    }
    if let Some(p) = write_csv("fig06_tcp_rx", &rows) {
        println!("[csv] {}", p.display());
    }
    let at_64k = ratios.last().map(|(_, r)| *r).unwrap_or(0.0);
    println!("\npaper: ratio 1.08 @256B rising to ~1.24-1.26 @>=4K; remote membw ~3x tput; both CPU-bound");
    println!("{}", bench::shape(at_64k > 1.1 && at_64k < 1.6));
    bench::footer(t0);
}
