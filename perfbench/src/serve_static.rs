//! `serve-static`: a 20 000-row index built, written as a bundle, and
//! loaded back, then served over loopback TCP to closed-loop clients
//! with default `SearchParams`. Exercises the whole online path (tcp →
//! proto → batcher → planner → search → distance).

use crate::check::check_result;
use crate::common::{self, ServeLayers, CLIENTS, K};
use crate::loadgen::{self, Outcome, Phase, PhaseRun};
use crate::report::{OpCounts, Report};
use crate::schedule::Op;
use crate::stats::{self, median, Summary};
use crate::trace::Tracer;
use crate::Args;
use cagra::index_io::{read_index, write_index};
use cagra::search::planner;
use cagra::{CagraIndex, SearchParams};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use serve::{ServeConfig, Service, TcpServer};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base rows.
pub const N: usize = 20_000;
/// Query pool the clients cycle through.
pub const POOL: usize = 1_000;
/// Set-ups per run (build + bundle write + read); the median is reported.
pub const SETUPS: usize = 2;
/// Untimed searches per client before the phase.
const WARMUP: usize = 4;

/// Run the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    let (base, pool) = common::synth(N, POOL, args.seed);
    let truth = knn::brute::ground_truth(&base, Metric::SquaredL2, &pool, K);
    let bundle =
        args.out_dir.join(format!("serve-static-{}-{}.cgix", args.seed, std::process::id()));

    let (mut setup_s, mut write_s, mut read_s, mut builds) = (vec![], vec![], vec![], vec![]);
    let mut index = None;
    for _ in 0..SETUPS {
        let rows = base.clone();
        let mut spans = tracer.buf();
        let t0 = Instant::now();
        let (built, build) = common::build(rows);
        let t1 = Instant::now();
        write_bundle(&bundle, &built)?;
        let t2 = Instant::now();
        let loaded = read_bundle(&bundle)?;
        let t3 = Instant::now();
        let root = spans.record("setup", 0, 0, t0, t3, vec![]);
        spans.record("cagra.build", root, 0, t0, t1, vec![]);
        spans.record("cagra.index_io.write", root, 0, t1, t2, vec![]);
        spans.record("cagra.index_io.read", root, 0, t2, t3, vec![]);
        spans.flush();
        setup_s.push((t3 - t0).as_secs_f64());
        write_s.push((t2 - t1).as_secs_f64());
        read_s.push((t3 - t2).as_secs_f64());
        builds.push(build);
        index = Some(loaded);
    }
    let _ = std::fs::remove_file(&bundle);
    let index = index.expect("at least one set-up");

    let params = SearchParams::for_k(K);
    let service =
        Arc::new(Service::start(index, ServeConfig::new(params)).map_err(|e| e.to_string())?);
    let mut server =
        TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let phase = Phase {
        addr: server.local_addr(),
        clients: CLIENTS,
        k: K,
        queries: &pool,
        inserts: None,
        warmup: WARMUP,
        think: common::THINK,
        seed: args.seed,
    };
    let seconds = Duration::from_secs(args.seconds);

    let untraced = run_phase(&phase, &Tracer::off(), seconds)?;
    let untraced_eval = evaluate(&untraced, &pool, &base, &truth);
    let mut report = Report { correct: untraced_eval.errors.is_empty(), ..Report::default() };
    report.count(&untraced_eval.counts);
    untraced_eval.print("untraced");

    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    println!(
        "setup: {} set-ups, median {:.4} s (each: {setup_s:?})",
        setup_s.len(),
        median(&setup_s).unwrap_or(0.0)
    );
    untraced_eval.set_e2e(&mut report);

    if tracer.enabled() {
        let traced = run_phase(&phase, tracer, seconds)?;
        let traced_eval = evaluate(&traced, &pool, &base, &truth);
        traced_eval.print("traced");
        report.correct &= traced_eval.errors.is_empty();
        report.count(&traced_eval.counts);
        report
            .set("trace.overhead_qps", common::overhead("qps", untraced_eval.qps, traced_eval.qps));
        let p50 = |e: &Eval| e.rtt.get(500).unwrap_or(0.0);
        report.set(
            "trace.overhead_search_p50",
            common::overhead("search_p50_ms", p50(&untraced_eval), p50(&traced_eval)),
        );

        let index = service.backend();
        let plan = planner::plan(1, params.itopk, params.num_cta, index.thresholds);
        let mut planned = params;
        planned.num_cta = plan.num_cta;
        println!(
            "layer cagra.search: mode {:?}, num_cta {} (the plan for a batch of 1 or 2)",
            plan.mode, plan.num_cta
        );
        let counts = common::search_counts(index, &pool, &planned, plan.mode, false, tracer)?;
        common::set_search_layers(&mut report, &counts);
        ServeLayers::from_trace(tracer).set(&mut report, p50(&traced_eval), counts.us_per_query);
        report.set("distance.ns_per_row", common::distance_ns_per_row(index, &pool, tracer));
        common::set_build_layers(&mut report, &builds);
        report.set("cagra.index_io.write_s", median(&write_s).unwrap_or(0.0));
        report.set("cagra.index_io.read_s", median(&read_s).unwrap_or(0.0));
    }
    server.shutdown();
    Ok(report)
}

fn write_bundle(path: &Path, index: &CagraIndex<Dataset>) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    write_index(&mut w, index).and_then(|()| w.flush()).map_err(|e| format!("write bundle: {e}"))
}

fn read_bundle(path: &Path) -> Result<CagraIndex<Dataset>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_index(BufReader::new(file)).map_err(|e| format!("read bundle: {e}"))
}

/// One measured phase: at least `seconds`, and at least enough
/// searches for p99 to qualify.
fn run_phase(phase: &Phase<'_>, tracer: &Tracer, seconds: Duration) -> Result<PhaseRun, String> {
    let min_ops = stats::min_samples(990);
    let sent = AtomicUsize::new(0);
    let pool = phase.queries.len();
    let next = move |start: Instant| {
        let i = sent.fetch_add(1, Ordering::Relaxed);
        (i < min_ops || start.elapsed() < seconds).then_some(Op::Search((i % pool) as u32))
    };
    loadgen::run(phase, tracer, &next)
}

/// Checked outcome of a phase.
pub struct Eval {
    /// Searches by outcome.
    pub counts: OpCounts,
    /// Check or transport failures, described.
    pub errors: Vec<String>,
    /// Successful searches per second.
    pub qps: f64,
    /// Client round trips of successful searches, ms.
    pub rtt: Summary,
    /// Recall@10 over every served search.
    pub recall: f64,
}

fn evaluate(run: &PhaseRun, pool: &Dataset, base: &Dataset, truth: &[Vec<u32>]) -> Eval {
    let (mut counts, mut errors) = (OpCounts::default(), Vec::new());
    let mut rtt = Vec::new();
    let mut pairs = Vec::new();
    for r in &run.records {
        match &r.outcome {
            Outcome::Searched { query, neighbors, .. } => {
                let q = pool.row(*query as usize);
                match check_result(neighbors, K, q, |id| {
                    (id < base.len() as u32).then(|| base.row(id as usize))
                }) {
                    Ok(()) => {
                        counts.ok += 1;
                        rtt.push(r.rtt_ms());
                        pairs.push((neighbors.iter().map(|n| n.id).collect::<Vec<_>>(), *query));
                    }
                    Err(e) => errors.push(format!("search {query}: {e}")),
                }
            }
            Outcome::Refused => counts.refused += 1,
            Outcome::Failed(e) => errors.push(e.clone()),
            other => errors.push(format!("unexpected answer {other:?}")),
        }
    }
    counts.failed = errors.len() as u64;
    let recall = common::recall(
        pairs.iter().map(|(found, q)| (found.as_slice(), truth[*q as usize].as_slice())),
        K,
    );
    Eval {
        counts,
        errors,
        qps: counts.ok as f64 / run.elapsed.as_secs_f64().max(1e-9),
        rtt: Summary::new(rtt),
        recall,
    }
}

impl Eval {
    /// Print counts, latency distribution, and any check failures.
    pub fn print(&self, label: &str) {
        println!(
            "{label} search: {}; {:.2} qps; round trip {}; recall@10 {:.4}",
            self.counts.describe(),
            self.qps,
            self.rtt.describe("ms"),
            self.recall
        );
        for e in self.errors.iter().take(5) {
            println!("CHECK FAILED: {e}");
        }
    }

    /// Record the search end-to-end metrics of this phase.
    pub fn set_e2e(&self, report: &mut Report) {
        report.set("qps", self.qps);
        report.set_pct("search_p50_ms", &self.rtt, 500);
        report.set_pct("search_p99_ms", &self.rtt, 990);
        report.set("recall_at_10", self.recall);
        report.set("success_rate", self.counts.success_rate());
    }
}
