//! Command line of the simulator benchmark:
//!
//! ```text
//! perfbench --workload <rx_stream|kv_mix|qpi_congestion|nvme_fio>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced, sized for `--seconds` host
//! seconds, and prints the end-to-end metrics. `--trace 1` runs the same
//! scenario twice, sized for half of `--seconds` each, untraced and then
//! traced, and prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object; a human table precedes it, and
//! failed checks go to standard error.

use std::process::ExitCode;

use perfbench::report::{self, Report};
use perfbench::spans::Spans;
use perfbench::{alloc, run_traced, run_workload, Inputs, WORKLOADS};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn run(a: &Args) -> Report {
    let inputs = Inputs {
        seed: a.seed,
        budget_s: a.seconds as f64,
    };
    if !a.trace {
        let run = run_workload(&a.workload, &inputs, &mut Spans::off()).expect("known workload");
        return report::end_to_end(&run);
    }
    let half = Inputs {
        budget_s: inputs.budget_s / 2.0,
        ..inputs
    };
    let untraced = run_workload(&a.workload, &half, &mut Spans::off()).expect("known workload");
    let wait0 = report::sched_wait_s();
    let (mut traced, spans) = run_traced(&a.workload, &half).expect("known workload");
    let wait = report::sched_wait_s() - wait0;
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", a.workload));
    if let Err(e) = spans.write_tsv(&out) {
        eprintln!("could not write {}: {e}", out.display());
    }
    report::per_layer(&untraced, &mut traced, &spans, wait)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let r = run(&args);
    for f in &r.failures {
        eprintln!("check failed: {f}");
    }
    print!("{}", r.table());
    println!("{}", r.json());
    ExitCode::SUCCESS
}
