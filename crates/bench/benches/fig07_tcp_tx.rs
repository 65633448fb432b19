//! Figure 7: single-core TCP STREAM transmit (TSO enabled).

use bench::write_csv;
use ioctopus::config::Placement;
use ioctopus::experiments::tcp_stream;
use workloads::StreamConfig;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "Figure 7",
        "Single-core TCP stream transmit with TSO (throughput / memory bandwidth / CPU)",
    );
    println!(
        "{:>8} | {:>10} {:>10} {:>7} | {:>10} {:>10} {:>7}",
        "msg", "ioct[Gb/s]", "rem[Gb/s]", "ratio", "ioct-mem", "rem-mem", "rem-memx"
    );
    let mut last = None;
    let mut rows = Vec::new();
    let points = ioctopus::sweep::sweep(StreamConfig::paper_msg_sizes(), |msg| {
        let l = tcp_stream::run_tx(Placement::Octopus, msg, 8);
        let r = tcp_stream::run_tx(Placement::Remote, msg, 8);
        (msg, l, r)
    });
    for (msg, l, r) in points {
        println!(
            "{:>8} | {:>10.2} {:>10.2} {:>6.2}x | {:>10.2} {:>10.2} {:>6.2}x",
            msg,
            l.throughput_gbps,
            r.throughput_gbps,
            l.throughput_gbps / r.throughput_gbps,
            l.membw_gbps,
            r.membw_gbps,
            if r.throughput_gbps > 0.0 {
                r.membw_gbps / r.throughput_gbps
            } else {
                0.0
            },
        );
        rows.push(l.clone());
        rows.push(r.clone());
        last = Some((l, r));
    }
    if let Some(p) = write_csv("fig07_tcp_tx", &rows) {
        println!("[csv] {}", p.display());
    }
    if let Some((l, r)) = last {
        let comparable = (l.throughput_gbps / r.throughput_gbps - 1.0).abs() < 0.15;
        let memx = r.membw_gbps / r.throughput_gbps;
        println!("\npaper: throughputs comparable; remote membw ~= 1.0x its throughput; local ~0");
        println!("{}", bench::shape(comparable && (0.6..1.6).contains(&memx)));
    }
    bench::footer(t0);
}
