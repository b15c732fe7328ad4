//! The repository's benchmark: three workloads, end-to-end metrics
//! from untraced runs, per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-static|batch-large|churn-tcp --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Human-readable lines (context, op
//! counts, percentiles with their sample counts, closure and overhead
//! lines) come first; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Traced runs write their spans to
//! `perfbench/out/trace-<workload>-seed<seed>.jsonl`.

mod batch_large;
mod check;
mod churn_tcp;
mod common;
mod context;
mod loadgen;
mod report;
mod schedule;
mod serve_static;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time for duration-bound phases.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Where bundles and traces go.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload serve-static|batch-large|churn-tcp --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: context::repo_root().join("perfbench").join("out"),
    })
}

/// Workload parameters, for the context line.
fn params(workload: &str) -> Option<String> {
    use common::{CLIENTS, DEGREE, DIM, K};
    let shared = format!("\"dim\": {DIM}, \"degree\": {DEGREE}, \"k\": {K}, \"metric\": \"squared_l2\", \"family\": \"gaussian\"");
    Some(match workload {
        "serve-static" => format!(
            "{shared}, \"n\": {}, \"query_pool\": {}, \"search_params\": \"default (itopk 64)\", \"clients\": {CLIENTS}, \
             \"setups\": {}, \"min_searches\": {}",
            serve_static::N,
            serve_static::POOL,
            serve_static::SETUPS,
            stats::min_samples(990)
        ),
        "batch-large" => format!(
            "{shared}, \"n\": {}, \"queries\": {}, \"itopk\": {}, \"mode\": \"single-cta\", \"search_threads\": {}, \"setups\": {}, \"min_calls\": {}",
            batch_large::N,
            batch_large::QUERIES,
            batch_large::ITOPK,
            batch_large::SEARCH_THREADS,
            batch_large::SETUPS,
            batch_large::MIN_CALLS
        ),
        "churn-tcp" => format!(
            "{shared}, \"n\": {}, \"query_pool\": {}, \"ops\": {}, \"op_mix\": {{\"search\": {}, \"insert\": {}, \
             \"delete\": {}}}, \"clients\": {CLIENTS}, \"max_delta\": {}, \"auto_compact\": true, \"setups\": {}",
            churn_tcp::N,
            churn_tcp::POOL,
            churn_tcp::OPS,
            churn_tcp::MIX.search,
            churn_tcp::MIX.insert,
            churn_tcp::MIX.delete,
            churn_tcp::MAX_DELTA,
            churn_tcp::SETUPS
        ),
        _ => return None,
    })
}

/// Per-layer metrics a workload's path does not run (reported as 0).
fn not_exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve-static" => &["mutation_*", "cagra.dynamic.*"],
        "batch-large" => {
            &["serve.*", "mutation_*", "cagra.index_io.*", "cagra.dynamic.*", "closure.round_trip"]
        }
        _ => &["cagra.index_io.*"],
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let Some(params) = params(&args.workload) else {
        return Err(format!("unknown workload {:?}\n{USAGE}", args.workload));
    };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let lines: Vec<String> =
        context::line_counts().iter().map(|(c, n)| format!("{}: {n}", context::quote(c))).collect();
    println!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"params\": {{{params}}}, \
         \"host\": {{{}}}, \"nonblank_lines\": {{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        context::host_fields(),
        lines.join(", ")
    );
    let tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "serve-static" => serve_static::run(args, &tracer)?,
        "batch-large" => batch_large::run(args, &tracer)?,
        _ => churn_tcp::run(args, &tracer)?,
    };
    report.set("peak_rss_mb", context::peak_rss_mb().ok_or("VmHWM unavailable")?);
    if args.trace {
        let path = args.out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", tracer.spans().len(), path.display());
        println!(
            "not exercised on this workload (reported as 0): {}",
            not_exercised(&args.workload).join(", ")
        );
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let catalog = if args.trace { PER_LAYER } else { END_TO_END };
            let missing = report.missing(END_TO_END);
            if !missing.is_empty() {
                eprintln!("end-to-end metrics not produced: {missing:?}");
                return ExitCode::FAILURE;
            }
            report.print_metrics(catalog);
            println!("{}", report.json_line(catalog));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
