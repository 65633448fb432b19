//! Figure 15: fio vs STREAM instances on the NVMe testbed.

use bench::write_csv;
use ioctopus::experiments::nvme_fio;

fn main() {
    let t0 = std::time::Instant::now();
    bench::header(
        "Figure 15",
        "Normalized fio / STREAM throughput as STREAM instances grow (4 remote dual-port SSDs)",
    );
    println!(
        "{:>9} | {:>9} {:>9} | {:>12} | {:>14}",
        "#STREAMs", "fio-norm", "strm-norm", "fio[GB/s]", "OctoSSD fio-norm"
    );
    let mut min_norm = 1.0f64;
    let mut rows = Vec::new();
    let points = ioctopus::sweep::sweep((1..=10).collect::<Vec<_>>(), |streams| {
        let r = nvme_fio::run(streams, false, 8);
        let o = nvme_fio::run(streams, true, 8);
        (streams, r, o)
    });
    for (streams, r, o) in points {
        min_norm = min_norm.min(r.fio_normalized);
        rows.push(r.clone());
        println!(
            "{:>9} | {:>9.2} {:>9.2} | {:>12.2} | {:>14.2}",
            streams, r.fio_normalized, r.stream_normalized, r.fio_gbs, o.fio_normalized
        );
    }
    if let Some(p) = write_csv("fig15_nvme", &rows) {
        println!("[csv] {}", p.display());
    }
    println!("\npaper: fio degrades up to 24% (norm ~0.76) by 5 STREAMs then flattens; STREAM degrades too");
    println!("extension: OctoSSD (LocalToBuffer port policy) stays ~flat");
    println!("{}", bench::shape(min_norm < 0.95 && min_norm > 0.5));
    bench::footer(t0);
}
