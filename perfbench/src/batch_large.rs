//! `batch-large`: the paper's large-batch headline. The same 20 000-row
//! base as `serve-static`, searched with 10 000 queries per
//! `CagraIndex::search_batch` call (single-CTA) on one worker thread.
//! Bypasses `serve` entirely.
//!
//! The batch runs on [`SEARCH_THREADS`] worker, not one per core. The
//! batch splits statically over its workers, so a call waits for the
//! slowest one: with a worker on each of a 2-core host's cores, a
//! neighbour taking one core slows every call by a third or more, while
//! a single worker moves to the free core and keeps its speed.
//!
//! A query in a batch is answered when its call returns, so each query's
//! latency is its call's latency: the latency percentiles count every
//! query of every call once. (Per-query gaps inside a call are no
//! steadier a measure: with two workers on statically split halves, the
//! median lands on the seam between the two workers' speeds.)

use crate::check::check_result;
use crate::common::{self, K};
use crate::report::{OpCounts, Report};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Args;
use cagra::search::planner::{self, Mode};
use cagra::{CagraIndex, SearchParams};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use knn::topk::Neighbor;
use std::time::{Duration, Instant};

/// Base rows.
pub const N: usize = 20_000;
/// Queries in the batch.
pub const QUERIES: usize = 10_000;
/// Internal top-M, fixed so recall@10 stays >= 0.95.
pub const ITOPK: usize = 256;
/// Leading queries whose recall is scored against exact ground truth
/// (every query's result is checked).
pub const RECALL_QUERIES: usize = 1_000;
/// Fewest batch calls a pass makes; a pass averages several calls
/// instead of trusting one.
pub const MIN_CALLS: usize = 3;
/// Worker threads the batch calls run on (set-up builds use the
/// default). Passed to the library as `CAGRA_THREADS`.
pub const SEARCH_THREADS: usize = 1;
/// Set-ups (builds) per run; the median is reported.
pub const SETUPS: usize = 2;
/// Queries in the untimed warm-up batch (large enough to run
/// single-CTA too).
const WARMUP: usize = 256;

/// The workload's inputs and exact answers.
struct Inputs {
    base: Dataset,
    queries: Dataset,
    /// Exact top-k of the first [`RECALL_QUERIES`] queries.
    truth: Vec<Vec<u32>>,
}

/// One timed pass: batch calls until `seconds` have passed and at
/// least [`MIN_CALLS`] were made, each call's results checked after it
/// is timed.
struct Pass {
    calls: usize,
    elapsed: Duration,
    /// Queries per second of each call.
    call_qps: Vec<f64>,
    /// Each query's latency (its call's), ms.
    latency_ms: Summary,
    counts: OpCounts,
    errors: Vec<String>,
    /// Recall@10 of the last call (every call returns the same results).
    recall: f64,
}

impl Pass {
    /// Queries per second over all calls.
    fn qps(&self) -> f64 {
        (self.calls * QUERIES) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn print(&self, label: &str) {
        println!(
            "{label} batch: {} call(s) of {QUERIES} queries in {:.4} s; {:.2} qps (each call {:?}); \
             query latency {}; {}; recall@10 {:.4} (first {RECALL_QUERIES} queries)",
            self.calls,
            self.elapsed.as_secs_f64(),
            self.qps(),
            self.call_qps,
            self.latency_ms.describe("ms"),
            self.counts.describe(),
            self.recall
        );
        for e in self.errors.iter().take(5) {
            println!("CHECK FAILED: {e}");
        }
    }
}

fn run_pass(
    index: &CagraIndex<Dataset>,
    inputs: &Inputs,
    params: &SearchParams,
    seconds: Duration,
    tracer: &Tracer,
) -> Pass {
    let queries = &inputs.queries;
    let mut pass = Pass {
        calls: 0,
        elapsed: Duration::ZERO,
        call_qps: Vec::new(),
        latency_ms: Summary::new(Vec::new()),
        counts: OpCounts::default(),
        errors: Vec::new(),
        recall: 0.0,
    };
    let mut latency = Vec::new();
    let mut spans = tracer.buf();
    while pass.calls < MIN_CALLS || pass.elapsed < seconds {
        let t0 = Instant::now();
        let results = index.search_batch(queries, K, params);
        let t1 = Instant::now();
        spans.record("cagra.search_batch", 0, 0, t0, t1, vec![("queries", queries.len() as u64)]);
        pass.elapsed += t1 - t0;
        pass.calls += 1;
        pass.call_qps.push(queries.len() as f64 / (t1 - t0).as_secs_f64());
        latency.extend(std::iter::repeat_n((t1 - t0).as_secs_f64() * 1e3, queries.len()));
        pass.recall = check_call(&results, inputs, &mut pass.counts, &mut pass.errors);
    }
    spans.flush();
    pass.latency_ms = Summary::new(latency);
    pass
}

/// Check every result of one call into `counts`/`errors`; returns the
/// call's recall@10.
fn check_call(
    results: &[Vec<Neighbor>],
    inputs: &Inputs,
    counts: &mut OpCounts,
    errors: &mut Vec<String>,
) -> f64 {
    let (base, queries) = (&inputs.base, &inputs.queries);
    if results.len() != queries.len() {
        errors.push(format!("{} results for {} queries", results.len(), queries.len()));
        counts.failed += queries.len().saturating_sub(results.len()) as u64;
    }
    for (qi, res) in results.iter().enumerate() {
        match check_result(res, K, queries.row(qi), |id| {
            (id < base.len() as u32).then(|| base.row(id as usize))
        }) {
            Ok(()) => counts.ok += 1,
            Err(e) => {
                counts.failed += 1;
                errors.push(format!("query {qi}: {e}"));
            }
        }
    }
    let ids: Vec<Vec<u32>> = results.iter().map(|r| r.iter().map(|n| n.id).collect()).collect();
    common::recall(ids.iter().zip(&inputs.truth).map(|(f, t)| (f.as_slice(), t.as_slice())), K)
}

/// Run the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    let (base, queries) = common::synth(N, QUERIES, args.seed);
    let recall_queries = common::slice_rows(&queries, 0, RECALL_QUERIES);
    let truth = knn::brute::ground_truth(&base, Metric::SquaredL2, &recall_queries, K);
    let inputs = Inputs { base, queries, truth };
    let (mut setup_s, mut builds, mut index) = (vec![], vec![], None);
    for _ in 0..SETUPS {
        let rows = inputs.base.clone();
        let mut spans = tracer.buf();
        let t0 = Instant::now();
        let (built, build) = common::build(rows);
        let t1 = Instant::now();
        spans.record("cagra.build", 0, 0, t0, t1, vec![]);
        spans.flush();
        setup_s.push((t1 - t0).as_secs_f64());
        builds.push(build);
        index = Some(built);
    }
    let index = index.expect("at least one set-up");
    // Safe to change here: no other thread of this process is running.
    std::env::set_var("CAGRA_THREADS", SEARCH_THREADS.to_string());
    let params = SearchParams { itopk: ITOPK, ..SearchParams::for_k(K) };
    let mode = planner::choose(QUERIES, ITOPK, index.thresholds);
    if mode != Mode::SingleCta {
        return Err(format!(
            "a batch of {QUERIES} at itopk {ITOPK} plans {mode:?}, expected single-CTA"
        ));
    }
    index.search_batch(&common::slice_rows(&inputs.queries, 0, WARMUP), K, &params);

    let seconds = Duration::from_secs(args.seconds);
    let untraced = run_pass(&index, &inputs, &params, seconds, &Tracer::off());
    untraced.print("untraced");
    let mut report = Report { correct: untraced.errors.is_empty(), ..Report::default() };
    report.count(&untraced.counts);
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    println!(
        "setup: {} builds, median {:.4} s (each: {setup_s:?})",
        setup_s.len(),
        median(&setup_s).unwrap_or(0.0)
    );
    report.set("qps", untraced.qps());
    report.set_pct("search_p50_ms", &untraced.latency_ms, 500);
    report.set_pct("search_p99_ms", &untraced.latency_ms, 990);
    report.set("recall_at_10", untraced.recall);
    report.set("success_rate", untraced.counts.success_rate());

    if tracer.enabled() {
        let traced = run_pass(&index, &inputs, &params, seconds, tracer);
        traced.print("traced");
        report.correct &= traced.errors.is_empty();
        report.count(&traced.counts);
        report.set("trace.overhead_qps", common::overhead("qps", untraced.qps(), traced.qps()));
        let p50 = |p: &Pass| p.latency_ms.get(500).unwrap_or(0.0);
        report.set(
            "trace.overhead_search_p50",
            common::overhead("search_p50_ms", p50(&untraced), p50(&traced)),
        );
        println!(
            "layer cagra.search: mode {mode:?}, itopk {ITOPK}, per-query seeds as in the batch"
        );
        let counts = common::search_counts(&index, &inputs.queries, &params, mode, true, tracer)?;
        common::set_search_layers(&mut report, &counts);
        report.set(
            "distance.ns_per_row",
            common::distance_ns_per_row(&index, &inputs.queries, tracer),
        );
        common::set_build_layers(&mut report, &builds);
        // Each worker searches its share of the batch one query at a
        // time, so isolated per-query search time x queries / workers
        // should explain the call.
        let searched_ms = counts.us_per_query / 1e3 * QUERIES as f64 / SEARCH_THREADS as f64;
        let label = "cagra.search per query x queries / workers / batch call";
        let call_ms = traced.elapsed.as_secs_f64() * 1e3 / traced.calls as f64;
        report.set("closure.search_in_exec", common::closure(label, searched_ms, call_ms));
    }
    Ok(report)
}
