//! Pieces every workload shares: inputs, builds, recall, and the
//! per-layer probes that call one layer's public functions directly.

use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::{Span, Tracer};
use cagra::search::planner::Mode;
use cagra::{BuildReport, CagraIndex, GraphConfig, SearchParams};
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, VectorStore};
use distance::{DistanceOracle, Metric};
use std::time::Instant;

/// Neighbors per search.
pub const K: usize = 10;
/// Vector dimension (DEEP-like).
pub const DIM: usize = 96;
/// Graph degree.
pub const DEGREE: usize = 32;
/// Closed-loop clients (and connections) on the TCP workloads.
pub const CLIENTS: usize = 2;
/// Upper bound of the uniform think time TCP clients pause before each
/// op. A closed loop with no pause locks every request to the same
/// phase of the kernel's delayed-ACK timer, so whole runs land in one
/// latency mode or another; the pause spreads requests over the timer.
pub const THINK: std::time::Duration = std::time::Duration::from_millis(5);
/// Queries the `cagra.search.*` count probe runs.
const COUNT_PROBE_QUERIES: usize = 200;
/// `to_rows` calls the distance probe makes.
const DISTANCE_PROBE_CALLS: usize = 20_000;

/// Base rows plus held-out rows (queries, then any insert vectors),
/// Gaussian, from the workload seed.
pub fn synth(n: usize, held_out: usize, seed: u64) -> (Dataset, Dataset) {
    SynthSpec { dim: DIM, n, queries: held_out, family: Family::Gaussian, seed }.generate()
}

/// Rows `from..to` of `d` as their own dataset.
pub fn slice_rows(d: &Dataset, from: usize, to: usize) -> Dataset {
    Dataset::from_flat(d.as_flat()[from * d.dim()..to * d.dim()].to_vec(), d.dim())
}

/// Build a CAGRA index at the benchmark's degree.
pub fn build(base: Dataset) -> (CagraIndex<Dataset>, BuildReport) {
    CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(DEGREE))
}

/// Mean recall@k of `found` id lists against exact `truth` lists.
pub fn recall<'a>(pairs: impl Iterator<Item = (&'a [u32], &'a [u32])>, k: usize) -> f64 {
    let (mut hits, mut total) = (0usize, 0usize);
    for (found, truth) in pairs {
        let truth = &truth[..k.min(truth.len())];
        hits += found.iter().filter(|id| truth.contains(id)).count();
        total += truth.len();
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Record `knn.*` and `cagra.optimize.*` from the builds a run made
/// (medians over the set-ups).
pub fn set_build_layers(report: &mut Report, builds: &[BuildReport]) {
    let med = |f: &dyn Fn(&BuildReport) -> f64| {
        median(&builds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.set("knn.nn_descent_s", med(&|b| b.knn_time.as_secs_f64()));
    report.set("knn.iterations", med(&|b| f64::from(b.stats.nn_iterations)));
    report.set("knn.distances", med(&|b| b.nn_distance_computations as f64));
    report.set("cagra.optimize.reorder_s", med(&|b| b.stats.reorder.as_secs_f64()));
    report.set("cagra.optimize.reverse_s", med(&|b| b.stats.reverse.as_secs_f64()));
    report.set("cagra.optimize.merge_s", med(&|b| b.stats.merge.as_secs_f64()));
}

/// Exact per-query work counts from `SearchTrace`, plus the time per
/// query, for `queries` searched one at a time with `search_mode`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchCounts {
    /// Wall time per query, us.
    pub us_per_query: f64,
    /// Distances computed per query.
    pub distances: f64,
    /// Iterations per query.
    pub iterations: f64,
    /// Visited-hash probes per query.
    pub hash_probes: f64,
}

/// Run the count probe twice over the first queries of `queries` in
/// `mode` (with the batch per-query seed when `per_query_seed`), and
/// fail unless both passes count exactly the same work.
pub fn search_counts(
    index: &CagraIndex<Dataset>,
    queries: &Dataset,
    params: &SearchParams,
    mode: Mode,
    per_query_seed: bool,
    tracer: &Tracer,
) -> Result<SearchCounts, String> {
    let n = COUNT_PROBE_QUERIES.min(queries.len());
    let mut spans = tracer.buf();
    let mut pass = || {
        let (mut dist, mut iters, mut probes) = (0u64, 0u64, 0u64);
        let t = Instant::now();
        for qi in 0..n {
            let mut p = *params;
            if per_query_seed {
                p.seed = params.seed_for_query(qi);
            }
            let (_, trace) = spans
                .time("cagra.search", 0, 0, || index.search_mode(queries.row(qi), K, &p, mode));
            dist += trace.total_distances();
            iters += trace.iteration_count() as u64;
            probes += trace.total_hash_probes();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
        let per = |x: u64| x as f64 / n as f64;
        SearchCounts {
            us_per_query: us,
            distances: per(dist),
            iterations: per(iters),
            hash_probes: per(probes),
        }
    };
    let first = pass();
    let second = pass();
    spans.flush();
    let counts = |c: &SearchCounts| (c.distances, c.iterations, c.hash_probes);
    if counts(&first) != counts(&second) {
        return Err(format!("search counts differ between passes: {first:?} vs {second:?}"));
    }
    Ok(first)
}

/// Record the `cagra.search.*` metrics.
pub fn set_search_layers(report: &mut Report, c: &SearchCounts) {
    report.set("cagra.search.us_per_query", c.us_per_query);
    report.set("cagra.search.distances_per_query", c.distances);
    report.set("cagra.search.iterations_per_query", c.iterations);
    report.set("cagra.search.hash_probes_per_query", c.hash_probes);
}

/// `distance.ns_per_row`: gang `to_rows` calls scoring graph adjacency
/// rows (the rows a search expansion scores) against the workload's
/// queries.
pub fn distance_ns_per_row(index: &CagraIndex<Dataset>, queries: &Dataset, tracer: &Tracer) -> f64 {
    let oracle = DistanceOracle::new(index.store(), Metric::SquaredL2);
    let graph = index.graph();
    let n = graph.len();
    let mut out = vec![0.0f32; graph.degree()];
    let mut sink = 0.0f32;
    let mut spans = tracer.buf();
    let t = Instant::now();
    spans.time("distance.to_rows", 0, 0, || {
        for call in 0..DISTANCE_PROBE_CALLS {
            let prepared = oracle.prepare(queries.row(call % queries.len()));
            let ids = graph.neighbors(call.wrapping_mul(7919) % n);
            oracle.to_rows(&prepared, ids, &mut out);
            sink += out[0];
        }
    });
    let ns = t.elapsed().as_nanos() as f64;
    spans.flush();
    std::hint::black_box(sink);
    ns / (DISTANCE_PROBE_CALLS * graph.degree()) as f64
}

/// Serve-layer metrics from the traced round trips: transport is the
/// client round trip minus the server's admission-to-response time.
pub struct ServeLayers {
    /// Round trip minus `e2e_ns`, ms.
    transport_ms: Summary,
    /// `queue_ns`, ms.
    queue_ms: Summary,
    /// `e2e_ns - queue_ns`, ms.
    exec_ms: Summary,
    /// Mean realized batch size.
    batch_mean: f64,
    /// Mean client round trip, ms.
    rtt_mean_ms: f64,
    /// Per-request encode time, us.
    encode_us: Summary,
    /// Per-request decode time, us.
    decode_us: Summary,
}

impl ServeLayers {
    /// Collect from the tracer's spans.
    pub fn from_trace(tracer: &Tracer) -> Self {
        let spans = tracer.spans();
        let trips: Vec<_> = spans.iter().filter(|s| s.name == "serve.tcp.roundtrip").collect();
        let ms = |ns: u64| ns as f64 / 1e6;
        let e2e = |s: &Span| s.arg("e2e_ns").unwrap_or(0);
        let queue = |s: &Span| s.arg("queue_ns").unwrap_or(0);
        let batch: Vec<f64> =
            trips.iter().map(|s| s.arg("batch_size").unwrap_or(0) as f64).collect();
        let us_of = |name: &str| {
            Summary::new(
                spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect(),
            )
        };
        ServeLayers {
            transport_ms: Summary::new(
                trips.iter().map(|s| ms(s.dur_ns().saturating_sub(e2e(s)))).collect(),
            ),
            queue_ms: Summary::new(trips.iter().map(|s| ms(queue(s))).collect()),
            exec_ms: Summary::new(
                trips.iter().map(|s| ms(e2e(s).saturating_sub(queue(s)))).collect(),
            ),
            batch_mean: batch.iter().sum::<f64>() / batch.len().max(1) as f64,
            rtt_mean_ms: Summary::new(trips.iter().map(|s| ms(s.dur_ns())).collect()).mean(),
            encode_us: us_of("serve.proto.encode"),
            decode_us: us_of("serve.proto.decode"),
        }
    }

    /// Record the `serve.*` and `closure.*` metrics and print the
    /// distributions. `search_us` is the isolated per-query search time
    /// the closure of the service's exec time is measured against.
    pub fn set(&self, report: &mut Report, search_p50_ms: f64, search_us: f64) {
        let p50 = |s: &Summary| s.get(500).unwrap_or(0.0);
        report.set_pct("serve.tcp.transport_ms_p50", &self.transport_ms, 500);
        report.set("serve.tcp.transport_share_of_p50", p50(&self.transport_ms) / search_p50_ms);
        report.set_pct("serve.proto.encode_us", &self.encode_us, 500);
        report.set_pct("serve.proto.decode_us", &self.decode_us, 500);
        report.set_pct("serve.service.queue_ms_p50", &self.queue_ms, 500);
        report.set_pct("serve.service.exec_ms_p50", &self.exec_ms, 500);
        report.set("serve.service.batch_mean", self.batch_mean);
        println!("layer serve.tcp transport: {}", self.transport_ms.describe("ms"));
        println!("layer serve.service queue: {}", self.queue_ms.describe("ms"));
        println!("layer serve.service exec: {}", self.exec_ms.describe("ms"));
        println!("layer serve.proto encode: {}", self.encode_us.describe("us"));
        println!("layer serve.proto decode: {}", self.decode_us.describe("us"));
        let parts = p50(&self.transport_ms) + p50(&self.queue_ms) + p50(&self.exec_ms);
        let label = "transport+queue+exec p50s / mean round trip";
        report.set("closure.round_trip", closure(label, parts, self.rtt_mean_ms));
        let label = "cagra.search per query / serve.service.exec p50";
        report.set("closure.search_in_exec", closure(label, search_us / 1e3, p50(&self.exec_ms)));
    }
}

/// Print how much of a whole a sum of parts explains, flagged below
/// 0.9, and return the ratio.
pub fn closure(label: &str, parts: f64, whole: f64) -> f64 {
    let ratio = if whole > 0.0 { parts / whole } else { 0.0 };
    let flag = if ratio < 0.9 { "  [FLAG: below 0.9]" } else { "" };
    println!("closure {label}: {parts:.4} of {whole:.4} = {ratio:.3}{flag}");
    ratio
}

/// Print the tracing overhead of one metric (traced vs untraced pass)
/// and return it as a share of the untraced value.
pub fn overhead(label: &str, untraced: f64, traced: f64) -> f64 {
    let share = if untraced != 0.0 { (traced - untraced) / untraced } else { 0.0 };
    println!(
        "tracing overhead {label}: untraced {untraced:.4}, traced {traced:.4} ({:+.2}%)",
        share * 100.0
    );
    share
}
