//! Typed results the experiment runners return and the bench harnesses
//! print.

/// One throughput-style measurement (Figures 6, 7, 8, 10, 11, 13).
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Configuration label ("ioct", "local", "remote", …).
    pub config: String,
    /// Independent variable (message size, packet size, SET %, pairs…).
    pub x: f64,
    /// Network throughput in Gb/s.
    pub throughput_gbps: f64,
    /// Server memory bandwidth (DRAM read+write) in Gb/s.
    pub membw_gbps: f64,
    /// Server CPU utilization in cores.
    pub cpu_cores: f64,
    /// Packets (or transactions) per second, where meaningful.
    pub rate_per_sec: f64,
}

/// One latency measurement (Figures 9, 12).
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Configuration label ("ll", "rr", "llnd", …).
    pub config: String,
    /// Independent variable (message size or STREAM pairs).
    pub x: f64,
    /// Mean round-trip in microseconds.
    pub mean_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Transactions completed.
    pub transactions: usize,
}

/// One Figure 14 sample point.
#[derive(Debug, Clone)]
pub struct PfSample {
    /// Sample time, seconds.
    pub t_secs: f64,
    /// Throughput through PF0 in Gb/s over the sample interval.
    pub pf0_gbps: f64,
    /// Throughput through PF1 in Gb/s over the sample interval.
    pub pf1_gbps: f64,
}

/// Figure 14's full timeline.
#[derive(Debug, Clone)]
pub struct MigrationResult {
    /// Configuration label ("octoNIC" / "ethNIC").
    pub config: String,
    /// Timeline samples.
    pub samples: Vec<PfSample>,
    /// Out-of-order packets observed by the socket (must be 0).
    pub ooo_packets: u64,
    /// Packets dropped at the NIC.
    pub dropped: u64,
}

/// Fault-injection timeline: throughput through a PF outage, plus the
/// recovery counters that show *how* the stack survived (or didn't).
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// Configuration label ("octoNIC" / "ethNIC").
    pub config: String,
    /// Per-PF throughput timeline.
    pub samples: Vec<PfSample>,
    /// Flow rules the firmware moved off the dead PF.
    pub resteered_flows: u64,
    /// Descriptors completed with error status by the NIC.
    pub error_completions: u64,
    /// Packets dropped because their PF was dead and no failover existed.
    pub dropped_pf_dead: u64,
    /// Queues the driver watchdog polled after a lost interrupt.
    pub watchdog_recoveries: u64,
    /// Bytes the server application consumed over the run.
    pub consumed: u64,
}

/// Hotplug-reconfiguration timeline: a surprise removal drops the system
/// to legacy NUDMA mode, a re-enumeration restores uniform IOctopus mode,
/// and every transition runs behind the device-epoch fence.
#[derive(Debug, Clone)]
pub struct ReconfigResult {
    /// Configuration label ("octoNIC").
    pub config: String,
    /// Per-PF throughput timeline.
    pub samples: Vec<PfSample>,
    /// Down-transition latency: removal instant → survivor PF observed
    /// carrying the stream, in sampled microseconds (sampling quantizes
    /// this to the 50 µs tick).
    pub remove_to_survivor_us: f64,
    /// Up-transition latency: re-enumeration instant → home PF observed
    /// carrying the stream again, in sampled microseconds.
    pub readd_to_home_us: f64,
    /// Degraded-mode throughput as a fraction of the healthy baseline
    /// (legacy NUDMA: every byte crosses the interconnect).
    pub degraded_ratio: f64,
    /// Post-restore throughput as a fraction of the healthy baseline.
    pub recovered_ratio: f64,
    /// Stale-epoch completions fenced across both transitions.
    pub fenced_completions: u64,
    /// Stale-epoch interrupts fenced.
    pub fenced_irqs: u64,
    /// Quiesce/drain/rebind sequences completed (2 for one full cycle).
    pub reconfigs: u64,
    /// Transitions into legacy NUDMA mode.
    pub nudma_entries: u64,
    /// Transitions back to uniform IOctopus mode.
    pub nudma_exits: u64,
    /// Packets dropped because their PF was dead with no failover path.
    pub dropped_pf_dead: u64,
    /// Flow rules the firmware moved off the removed PF.
    pub resteered_flows: u64,
    /// Bytes the server application consumed over the run.
    pub consumed: u64,
    /// Flight-recorder reading over the healthy window (before the
    /// removal): uniform IOctopus mode — the home PF carries everything
    /// node-locally.
    pub locality_healthy: LocalityWindow,
    /// Reading over the outage window: legacy NUDMA mode. The survivor
    /// PF's DMA stays local to *its* socket (failover lands the flow in
    /// the survivor's own rings), so the nonuniformity shows up as the
    /// per-PF shift in the ledger plus the CPU-side interconnect bytes the
    /// node-0 application pays to reach node-1 buffers.
    pub locality_nudma: LocalityWindow,
    /// Reading after the re-enumeration: back to uniform IOctopus mode.
    pub locality_recovered: LocalityWindow,
    /// The full-run per-flow/per-PF locality table (shows the flow's rows
    /// on both PFs as it moved away and back).
    pub locality: telemetry::LocalityTable,
}

/// One phase window of the reconfiguration timeline as the flight
/// recorder (plus the memory system's interconnect meter) saw it.
#[derive(Debug, Clone, Copy)]
pub struct LocalityWindow {
    /// DMA locality cells over the window, all PFs.
    pub dma: telemetry::LedgerCells,
    /// The home PF's (PF0) share of the window.
    pub home_pf: telemetry::LedgerCells,
    /// The survivor PF's (PF1) share of the window.
    pub survivor_pf: telemetry::LedgerCells,
    /// Socket-interconnect bytes (CPU- and DMA-side) over the window.
    pub interconnect_bytes: u64,
}

/// Figure 13's co-location measurement.
#[derive(Debug, Clone)]
pub struct ColocationResult {
    /// Configuration label.
    pub config: String,
    /// PageRank completion time, milliseconds (simulated).
    pub pr_time_ms: f64,
    /// Aggregate I/O throughput: Gb/s for netperf, K transactions/s for
    /// memcached.
    pub io_metric: f64,
}

/// Figure 15's normalized-throughput point.
#[derive(Debug, Clone)]
pub struct NvmeResult {
    /// Number of STREAM antagonist instances.
    pub streams: usize,
    /// fio throughput normalized to the antagonist-free run.
    pub fio_normalized: f64,
    /// STREAM aggregate bandwidth normalized to a solo instance × count.
    pub stream_normalized: f64,
    /// Absolute fio throughput, GB/s.
    pub fio_gbs: f64,
}

/// A row that can be emitted to the CSV files the bench harnesses write
/// next to their textual tables (for replotting the figures).
pub trait CsvRow {
    /// The CSV header line (no trailing newline).
    fn csv_header() -> &'static str;
    /// One CSV data line (no trailing newline).
    fn csv_row(&self) -> String;
}

impl CsvRow for ThroughputResult {
    fn csv_header() -> &'static str {
        "config,x,throughput_gbps,membw_gbps,cpu_cores,rate_per_sec"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{}",
            self.config,
            self.x,
            self.throughput_gbps,
            self.membw_gbps,
            self.cpu_cores,
            self.rate_per_sec
        )
    }
}

impl CsvRow for LatencyResult {
    fn csv_header() -> &'static str {
        "config,x,mean_us,p90_us,p99_us,transactions"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{}",
            self.config, self.x, self.mean_us, self.p90_us, self.p99_us, self.transactions
        )
    }
}

impl CsvRow for PfSample {
    fn csv_header() -> &'static str {
        "t_secs,pf0_gbps,pf1_gbps"
    }
    fn csv_row(&self) -> String {
        format!("{},{},{}", self.t_secs, self.pf0_gbps, self.pf1_gbps)
    }
}

impl CsvRow for NvmeResult {
    fn csv_header() -> &'static str {
        "streams,fio_normalized,stream_normalized,fio_gbs"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{},{},{}",
            self.streams, self.fio_normalized, self.stream_normalized, self.fio_gbs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rows_are_well_formed() {
        let t = ThroughputResult {
            config: "ioct".into(),
            x: 64.0,
            throughput_gbps: 1.5,
            membw_gbps: 0.5,
            cpu_cores: 1.0,
            rate_per_sec: 2.0,
        };
        assert_eq!(
            ThroughputResult::csv_header().split(',').count(),
            t.csv_row().split(',').count()
        );
        let s = PfSample {
            t_secs: 1.0,
            pf0_gbps: 2.0,
            pf1_gbps: 3.0,
        };
        assert_eq!(s.csv_row(), "1,2,3");
    }

    #[test]
    fn results_construct() {
        let t = ThroughputResult {
            config: "ioct".into(),
            x: 64.0,
            throughput_gbps: 1.0,
            membw_gbps: 0.0,
            cpu_cores: 1.0,
            rate_per_sec: 1e6,
        };
        assert_eq!(t.config, "ioct");
        let l = LatencyResult {
            config: "ll".into(),
            x: 64.0,
            mean_us: 20.0,
            p90_us: 25.0,
            p99_us: 30.0,
            transactions: 100,
        };
        assert!(l.mean_us <= l.p90_us);
    }
}
