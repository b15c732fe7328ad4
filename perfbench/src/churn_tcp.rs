//! `churn-tcp`: a `DynamicIndex` over a 5 000-row base behind
//! `TcpServer`, driven by closed-loop clients with a fixed, seeded
//! schedule of about 80% searches, 10% inserts, and 10% deletes.
//! Auto-compaction runs with a small `max_delta`, so a run completes
//! several compactions while reads and writes share the serve path.

use crate::check::{check_insert_ids, check_no_stale_ids, check_result, SentSearch};
use crate::common::{self, ServeLayers, CLIENTS, DEGREE, K};
use crate::loadgen::{self, Outcome, Phase, PhaseRun};
use crate::report::{OpCounts, Report};
use crate::schedule::{churn_schedule, Mix, Op};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Args;
use cagra::search::planner::Mode;
use cagra::{BuildReport, DynamicIndex, DynamicParams, SearchParams};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use serve::{ServeConfig, Service, TcpServer};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base rows.
pub const N: usize = 5_000;
/// Query pool for searches.
pub const POOL: usize = 500;
/// Ops per phase (fixed, so both commits do the same work).
pub const OPS: usize = 1_300;
/// Op mix.
pub const MIX: Mix = Mix { search: 80, insert: 10, delete: 10 };
/// Delta size that triggers a compaction.
pub const MAX_DELTA: usize = 32;
/// Set-ups (build + `from_index`) per run; the median is reported.
pub const SETUPS: usize = 3;
/// Untimed searches per client before the phase.
const WARMUP: usize = 4;
/// Longest wait for background compaction to go idle.
const QUIESCE_LIMIT: Duration = Duration::from_secs(60);

/// Inserts in the schedule.
pub fn inserts() -> usize {
    OPS * MIX.insert as usize / 100
}

fn dyn_params() -> DynamicParams {
    DynamicParams { max_delta: MAX_DELTA, ..DynamicParams::new(DEGREE) }
}

/// Build the base and wrap it; returns the index, its build report,
/// and the set-up time (build + `from_index`).
fn fresh(base: &Dataset, tracer: &Tracer) -> (DynamicIndex, BuildReport, f64) {
    let rows = base.clone();
    let mut spans = tracer.buf();
    let t0 = Instant::now();
    let (index, build) = common::build(rows);
    let t1 = Instant::now();
    let dynamic = DynamicIndex::from_index(index, dyn_params());
    let t2 = Instant::now();
    let root = spans.record("setup", 0, 0, t0, t2, vec![]);
    spans.record("cagra.build", root, 0, t0, t1, vec![]);
    spans.record("cagra.dynamic.from_index", root, 0, t1, t2, vec![]);
    spans.flush();
    (dynamic, build, (t2 - t0).as_secs_f64())
}

/// Peaks the stats poller saw during a phase.
#[derive(Default)]
struct Polled {
    delta_max: usize,
    tombstones_max: usize,
}

/// Poll `stats()` every millisecond until `stop` (a call made while a
/// compaction runs returns once it has swapped).
fn poll(index: &DynamicIndex, stop: &AtomicBool) -> Polled {
    let mut p = Polled::default();
    while !stop.load(Ordering::Acquire) {
        let s = index.stats();
        p.delta_max = p.delta_max.max(s.delta);
        p.tombstones_max = p.tombstones_max.max(s.tombstones);
        std::thread::sleep(Duration::from_millis(1));
    }
    p
}

/// Wait until no compaction runs or is about to.
fn quiesce(index: &DynamicIndex) -> Result<(), String> {
    let t = Instant::now();
    let mut last = index.stats().compactions;
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if t.elapsed() > QUIESCE_LIMIT {
            return Err("background compaction did not go idle".into());
        }
        if index.is_compacting() {
            continue;
        }
        let now = index.stats().compactions;
        if now == last {
            return Ok(());
        }
        last = now;
    }
}

/// Inputs shared by every phase.
struct Inputs {
    seed: u64,
    base: Dataset,
    pool: Dataset,
    insert_rows: Dataset,
    schedule: Vec<Op>,
}

/// A served phase and what was checked after it.
struct TcpPass {
    run: PhaseRun,
    polled: Polled,
    compactions: u64,
    eval: Eval,
}

fn tcp_pass(index: DynamicIndex, inputs: &Inputs, tracer: &Tracer) -> Result<TcpPass, String> {
    let service = Arc::new(
        Service::start(index, ServeConfig::new(SearchParams::for_k(K)))
            .map_err(|e| e.to_string())?,
    );
    let mut server =
        TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let phase = Phase {
        addr: server.local_addr(),
        clients: CLIENTS,
        k: K,
        queries: &inputs.pool,
        inserts: Some(&inputs.insert_rows),
        warmup: WARMUP,
        think: common::THINK,
        seed: inputs.seed,
    };
    let cursor = AtomicUsize::new(0);
    let next = |_: Instant| inputs.schedule.get(cursor.fetch_add(1, Ordering::Relaxed)).copied();
    let stop = AtomicBool::new(false);
    let (run, polled) = std::thread::scope(|s| {
        let poller = s.spawn(|| poll(service.backend(), &stop));
        let run = loadgen::run(&phase, tracer, &next);
        stop.store(true, Ordering::Release);
        (run, poller.join().unwrap_or_default())
    });
    let run = run?;
    server.shutdown();
    let index = service.backend();
    quiesce(index)?;
    let compactions = index.stats().compactions;
    let eval = evaluate(&run, inputs, index);
    Ok(TcpPass { run, polled, compactions, eval })
}

/// Checked outcome of a churn phase.
struct Eval {
    /// Ops by kind (`search`, `insert`, `delete`) and outcome.
    counts: BTreeMap<&'static str, OpCounts>,
    errors: Vec<String>,
    search_ms: Summary,
    mutation_ms: Summary,
    recall: f64,
}

fn kind(op: Op) -> &'static str {
    match op {
        Op::Search(_) => "search",
        Op::Insert(_) => "insert",
        Op::Delete(_) => "delete",
    }
}

fn evaluate(run: &PhaseRun, inputs: &Inputs, index: &DynamicIndex) -> Eval {
    let n = inputs.base.len() as u32;
    let mut counts: BTreeMap<&'static str, OpCounts> = BTreeMap::new();
    let mut errors = Vec::new();
    let (mut search_ms, mut mutation_ms) = (Vec::new(), Vec::new());
    let mut inserted: HashMap<u32, u32> = HashMap::new();
    let mut insert_ids = Vec::new();
    let mut deleted: HashMap<u32, u64> = HashMap::new();
    for r in &run.records {
        match &r.outcome {
            Outcome::Inserted { vector, id } => {
                inserted.insert(*id, *vector);
                insert_ids.push(*id);
            }
            Outcome::Deleted { id, removed: true } => {
                deleted.insert(*id, r.done_ns);
            }
            _ => {}
        }
    }
    let row_of = |id: u32| {
        if id < n {
            Some(inputs.base.row(id as usize))
        } else {
            inserted.get(&id).map(|&v| inputs.insert_rows.row(v as usize))
        }
    };
    let mut sent = Vec::new();
    let mut found: Vec<Vec<u32>> = Vec::new();
    for r in &run.records {
        let c = counts.entry(kind(r.op)).or_default();
        let failure = match &r.outcome {
            Outcome::Searched { query, neighbors, .. } => {
                found.push(neighbors.iter().map(|nb| nb.id).collect());
                sent.push(r.sent_ns);
                check_result(neighbors, K, inputs.pool.row(*query as usize), row_of)
                    .map(|()| search_ms.push(r.rtt_ms()))
                    .err()
                    .map(|e| format!("search {query}: {e}"))
            }
            Outcome::Inserted { .. } | Outcome::Deleted { removed: true, .. } => {
                mutation_ms.push(r.rtt_ms());
                None
            }
            Outcome::Deleted { id, removed: false } => {
                Some(format!("delete of live id {id} found it gone"))
            }
            Outcome::Refused => {
                c.refused += 1;
                continue;
            }
            Outcome::Failed(e) => Some(format!("{}: {e}", kind(r.op))),
        };
        match failure {
            None => c.ok += 1,
            Some(e) => {
                c.failed += 1;
                errors.push(e);
            }
        }
    }
    let searches: Vec<SentSearch<'_>> =
        sent.iter().zip(&found).map(|(&sent_ns, ids)| SentSearch { sent_ns, ids }).collect();
    if let Err(e) = check_no_stale_ids(&searches, &deleted) {
        errors.push(e);
    }
    if let Err(e) = check_insert_ids(&insert_ids, n) {
        errors.push(e);
    }
    let recall = match live_recall(inputs, index, &inserted, &deleted) {
        Ok(r) => r,
        Err(e) => {
            errors.push(e);
            0.0
        }
    };
    Eval {
        counts,
        errors,
        search_ms: Summary::new(search_ms),
        mutation_ms: Summary::new(mutation_ms),
        recall,
    }
}

/// Recall@10 over the live set after the run: the benchmark's own
/// record of which rows are live, searched exactly and through the
/// served index.
fn live_recall(
    inputs: &Inputs,
    index: &DynamicIndex,
    inserted: &HashMap<u32, u32>,
    deleted: &HashMap<u32, u64>,
) -> Result<f64, String> {
    let mut ids: Vec<u32> =
        (0..inputs.base.len() as u32).filter(|id| !deleted.contains_key(id)).collect();
    let mut extra: Vec<u32> =
        inserted.keys().copied().filter(|id| !deleted.contains_key(id)).collect();
    extra.sort_unstable();
    ids.extend(extra);
    if index.live() != ids.len() {
        return Err(format!(
            "index reports {} live rows, the benchmark tracked {}",
            index.live(),
            ids.len()
        ));
    }
    let row = |id: u32| {
        if (id as usize) < inputs.base.len() {
            inputs.base.row(id as usize)
        } else {
            inputs.insert_rows.row(inserted[&id] as usize)
        }
    };
    let mut flat = Vec::with_capacity(ids.len() * inputs.base.dim());
    for &id in &ids {
        flat.extend_from_slice(row(id));
    }
    let live = Dataset::from_flat(flat, inputs.base.dim());
    let queries = &inputs.pool;
    let truth: Vec<Vec<u32>> = knn::brute::ground_truth(&live, Metric::SquaredL2, queries, K)
        .into_iter()
        .map(|t| t.into_iter().map(|i| ids[i as usize]).collect())
        .collect();
    let mut found = Vec::with_capacity(queries.len());
    for qi in 0..queries.len() {
        let res = index.search(queries.row(qi), K);
        let live_row = |id: u32| ids.binary_search(&id).ok().map(|_| row(id));
        check_result(&res, K, queries.row(qi), live_row)
            .map_err(|e| format!("post-run search {qi}: {e}"))?;
        found.push(res.iter().map(|nb| nb.id).collect::<Vec<u32>>());
    }
    Ok(common::recall(found.iter().zip(&truth).map(|(f, t)| (f.as_slice(), t.as_slice())), K))
}

impl Eval {
    fn total(&self) -> OpCounts {
        let mut all = OpCounts::default();
        for c in self.counts.values() {
            all += *c;
        }
        all
    }

    fn print(&self, label: &str, p: &TcpPass) {
        for (kind, c) in &self.counts {
            println!("{label} {kind}: {}", c.describe());
        }
        println!(
            "{label} ops: {} in {:.4} s = {:.2} ops/s; search round trip {}; mutation ack {}; \
             live-set recall@10 {:.4}",
            self.total().describe(),
            p.run.elapsed.as_secs_f64(),
            self.qps(p),
            self.search_ms.describe("ms"),
            self.mutation_ms.describe("ms"),
            self.recall
        );
        println!(
            "{label} dynamic: {} compactions, delta max {}, tombstones max {}",
            p.compactions, p.polled.delta_max, p.polled.tombstones_max
        );
        for e in self.errors.iter().take(5) {
            println!("CHECK FAILED: {e}");
        }
    }

    fn qps(&self, p: &TcpPass) -> f64 {
        self.total().ok as f64 / p.run.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Run the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    let (base, held_out) = common::synth(N, POOL + inserts(), args.seed);
    let inputs = Inputs {
        seed: args.seed,
        pool: common::slice_rows(&held_out, 0, POOL),
        insert_rows: common::slice_rows(&held_out, POOL, POOL + inserts()),
        schedule: churn_schedule(args.seed, OPS, MIX, POOL as u32, N as u32),
        base,
    };
    let (mut setup_s, mut builds, mut index) = (vec![], vec![], None);
    for _ in 0..SETUPS {
        drop(index.take());
        let (dynamic, build, secs) = fresh(&inputs.base, tracer);
        setup_s.push(secs);
        builds.push(build);
        index = Some(dynamic);
    }
    let index = index.expect("at least one set-up");
    println!(
        "setup: {} set-ups, median {:.4} s (each: {setup_s:?})",
        setup_s.len(),
        median(&setup_s).unwrap_or(0.0)
    );

    let untraced = tcp_pass(index, &inputs, &Tracer::off())?;
    untraced.eval.print("untraced", &untraced);
    let e = &untraced.eval;
    let mut report = Report { correct: e.errors.is_empty(), ..Report::default() };
    report.count(&e.total());
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    report.set("qps", e.qps(&untraced));
    report.set_pct("search_p50_ms", &e.search_ms, 500);
    report.set_pct("search_p99_ms", &e.search_ms, 990);
    report.set("recall_at_10", e.recall);
    report.set("success_rate", e.total().success_rate());

    if tracer.enabled() {
        let (index, _, _) = fresh(&inputs.base, &Tracer::off());
        let traced = tcp_pass(index, &inputs, tracer)?;
        let t = &traced.eval;
        t.print("traced", &traced);
        report.correct &= t.errors.is_empty();
        report.count(&t.total());
        report.set("trace.overhead_qps", common::overhead("qps", e.qps(&untraced), t.qps(&traced)));
        let p50 = |s: &Summary| s.get(500).unwrap_or(0.0);
        report.set(
            "trace.overhead_search_p50",
            common::overhead("search_p50_ms", p50(&e.search_ms), p50(&t.search_ms)),
        );
        report.set_pct("mutation_p50_ms", &t.mutation_ms, 500);
        report.set_pct("mutation_p90_ms", &t.mutation_ms, 900);

        report.set("cagra.dynamic.delta_max", traced.polled.delta_max as f64);
        report.set("cagra.dynamic.tombstones_max", traced.polled.tombstones_max as f64);
        report.set("cagra.dynamic.compactions", traced.compactions as f64);

        let replay = replay_direct(&inputs, tracer)?;
        println!("layer cagra.dynamic insert: {}", replay.insert_us.describe("us"));
        println!("layer cagra.dynamic delete: {}", replay.delete_us.describe("us"));
        println!("layer cagra.dynamic search: {}", replay.search_us.describe("us"));
        report.set_pct("cagra.dynamic.insert_us_p50", &replay.insert_us, 500);
        report.set_pct("cagra.dynamic.delete_us_p50", &replay.delete_us, 500);
        report.set_pct("cagra.dynamic.search_us_p50", &replay.search_us, 500);
        println!(
            "layer cagra.dynamic compaction: {:.4} s (compact_now after the replay quiesced)",
            replay.compaction_s
        );
        report.set("cagra.dynamic.compaction_s", replay.compaction_s);

        // The main segment's traversal, as the dynamic backend runs it
        // before any tombstone raises its itopk.
        let (main, _) = common::build(inputs.base.clone());
        let params = dyn_params().search;
        println!(
            "layer cagra.search: mode SingleCta, itopk {} (the dynamic main-segment search)",
            params.itopk
        );
        let counts =
            common::search_counts(&main, &inputs.pool, &params, Mode::SingleCta, false, tracer)?;
        common::set_search_layers(&mut report, &counts);
        ServeLayers::from_trace(tracer).set(&mut report, p50(&t.search_ms), counts.us_per_query);
        report.set("distance.ns_per_row", common::distance_ns_per_row(&main, &inputs.pool, tracer));
        common::set_build_layers(&mut report, &builds);
    }
    Ok(report)
}

/// Per-op costs of the schedule replayed on one thread straight
/// against a fresh `DynamicIndex` (no TCP, no service), and the time
/// of one synchronous compaction of the state it leaves.
struct Replay {
    insert_us: Summary,
    delete_us: Summary,
    search_us: Summary,
    compaction_s: f64,
}

fn replay_direct(inputs: &Inputs, tracer: &Tracer) -> Result<Replay, String> {
    let (index, _, _) = fresh(&inputs.base, &Tracer::off());
    let mut spans = tracer.buf();
    let (mut ins, mut del, mut srch) = (vec![], vec![], vec![]);
    for op in &inputs.schedule {
        let t0 = Instant::now();
        let name = match *op {
            Op::Search(q) => {
                std::hint::black_box(index.search(inputs.pool.row(q as usize), K));
                "cagra.dynamic.search"
            }
            Op::Insert(v) => {
                std::hint::black_box(index.insert(inputs.insert_rows.row(v as usize)).ok());
                "cagra.dynamic.insert"
            }
            Op::Delete(id) => {
                std::hint::black_box(index.delete(id));
                "cagra.dynamic.delete"
            }
        };
        let t1 = Instant::now();
        spans.record(name, 0, 0, t0, t1, vec![]);
        let us = (t1 - t0).as_secs_f64() * 1e6;
        match op {
            Op::Search(_) => srch.push(us),
            Op::Insert(_) => ins.push(us),
            Op::Delete(_) => del.push(us),
        }
    }
    quiesce(&index)?;
    let t0 = Instant::now();
    index.compact_now();
    let t1 = Instant::now();
    spans.record("cagra.dynamic.compact_now", 0, 0, t0, t1, vec![]);
    spans.flush();
    Ok(Replay {
        insert_us: Summary::new(ins),
        delete_us: Summary::new(del),
        search_us: Summary::new(srch),
        compaction_s: (t1 - t0).as_secs_f64(),
    })
}
