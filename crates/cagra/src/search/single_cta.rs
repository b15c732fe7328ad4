//! Single-CTA search: one worker per query (Sec. IV-C1).
//!
//! The GPU maps each query to one thread block and keeps the visited
//! hash in shared memory (forgettable management); batches of queries
//! run as concurrent blocks. Functionally the search is the iterative
//! loop of Fig. 6, implemented here once and reused by the multi-CTA
//! mapping.

use super::buffer::BufEntry;
use super::hash::VisitedSet;
use super::parent::node_id;
use super::scratch::SearchScratch;
use super::trace::{IterAccess, IterationTrace, SearchTrace};
use crate::params::{HashPolicy, SearchParams};
use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use graph::relabel::IdMap;
use graph::FixedDegreeGraph;
use knn::topk::Neighbor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Search the graph for the `k` nearest neighbors of `query`.
///
/// Returns the results in ascending distance order together with the
/// operation trace `gpu-sim` consumes. One-shot convenience wrapper
/// over [`search_single_cta_with`]; batch callers should hold a
/// [`SearchScratch`] per worker thread and call the `_with` variant
/// directly to avoid per-query allocations.
///
/// # Panics
/// Panics on invalid parameters (see [`SearchParams::validate`]) or a
/// query dimension mismatch.
pub fn search_single_cta<S: VectorStore + ?Sized>(
    graph: &FixedDegreeGraph,
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    params: &SearchParams,
) -> (Vec<Neighbor>, SearchTrace) {
    let mut scratch = SearchScratch::new();
    search_single_cta_with(graph, store, metric, query, k, params, &mut scratch);
    scratch.into_output()
}

/// [`search_single_cta`] running entirely on caller-provided scratch.
///
/// Results land in [`SearchScratch::results`] (ascending distance) and
/// the trace in [`SearchScratch::trace`]. Reusing one scratch across
/// queries of identical shape performs zero heap allocations per query
/// in steady state — the CPU analogue of the GPU kernel's fixed
/// shared-memory working set.
///
/// # Panics
/// Panics on invalid parameters or a query dimension mismatch.
pub fn search_single_cta_with<S: VectorStore + ?Sized>(
    graph: &FixedDegreeGraph,
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    params: &SearchParams,
    scratch: &mut SearchScratch,
) {
    search_single_cta_mapped(graph, store, metric, query, k, params, scratch, None)
}

/// [`search_single_cta_with`] over a *relabeled* graph/store pair.
///
/// With an [`IdMap`], the random initialization draws ids in the
/// original numbering (so the traversal visits the same vectors as the
/// unpermuted index, bit for bit) and results are translated back to
/// original ids once at the end — the hot loop runs entirely on
/// internal ids with zero per-hop overhead. `None` is the identity.
///
/// # Panics
/// Panics on invalid parameters, a query dimension mismatch, or an
/// id map whose size differs from the graph.
#[allow(clippy::too_many_arguments)]
pub fn search_single_cta_mapped<S: VectorStore + ?Sized>(
    graph: &FixedDegreeGraph,
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    params: &SearchParams,
    scratch: &mut SearchScratch,
    id_map: Option<&IdMap>,
) {
    // ALLOW(panic): documented contract of the panicking entry; the
    // `try_search*` path validates and returns typed errors instead.
    params.validate(k).unwrap_or_else(|e| panic!("{e}"));
    if let Some(m) = id_map {
        // ALLOW(panic): documented precondition (see `# Panics`).
        assert_eq!(m.len(), graph.len(), "id map and graph sizes differ");
    }
    // ALLOW(panic): documented precondition (see `# Panics`).
    assert_eq!(query.len(), store.dim(), "query dimension mismatch");
    // ALLOW(panic): documented precondition (see `# Panics`).
    assert_eq!(graph.len(), store.len(), "graph and dataset sizes differ");
    let n = graph.len();
    let d = graph.degree();
    let width = params.search_width * d;
    let max_iters = params.effective_max_iterations(d);

    let (bits, reset_interval, hash_in_shared) = match params.hash {
        HashPolicy::Standard => (VisitedSet::standard_bits(max_iters, width), 0usize, false),
        HashPolicy::Forgettable { bits, reset_interval } => (bits, reset_interval as usize, true),
    };

    scratch.begin(bits, 1, params.itopk, width);
    let SearchScratch {
        visited,
        buffers,
        parents,
        results,
        trace,
        record_trace,
        gang_ids,
        gang_pos,
        gang_dists,
        ..
    } = scratch;
    // ALLOW(panic): `begin` unconditionally installed the set above.
    let hash = visited.as_mut().expect("begin installs the visited set");
    // ALLOW(panic): `begin(.., 1, ..)` sized `buffers` to exactly one.
    let buffer = &mut buffers[0];
    trace.itopk = params.itopk;
    trace.search_width = params.search_width;
    trace.degree = d;
    trace.num_workers = 1;
    trace.hash_slots = hash.capacity();
    trace.hash_in_shared = hash_in_shared;

    let oracle = DistanceOracle::new(store, metric);
    let prepared = oracle.prepare(query);

    // Initialization: p*d uniformly random nodes (Fig. 6, step 0),
    // deduplicated through the hash and scored in one gang call. Draws
    // happen in the *original* numbering and map through the id map
    // (a bijection, so the dedup pattern — and therefore the whole
    // traversal — is identical to the unpermuted index).
    let mut rng = StdRng::seed_from_u64(params.seed);
    buffer.clear_candidates();
    gang_ids.clear();
    for _ in 0..width {
        let drawn = rng.gen_range(0..n) as u32;
        let id = match id_map {
            Some(m) => m.internal_of_original(drawn),
            None => drawn,
        };
        if hash.insert(id) {
            gang_ids.push(id);
        }
    }
    gang_dists.clear();
    gang_dists.resize(gang_ids.len(), 0.0);
    oracle.to_rows(&prepared, gang_ids, gang_dists);
    for (&id, &dist) in gang_ids.iter().zip(gang_dists.iter()) {
        buffer.push_candidate(BufEntry::new(id, dist));
        trace.init_distances += 1;
    }
    if let Some(log) = trace.accesses.as_mut() {
        log.init_scored.extend_from_slice(gang_ids);
    }

    let mut it = 0usize;
    let mut total_computed = trace.init_distances;
    loop {
        // Step 1: top-M update.
        buffer.update_topm();

        // Step 2: pick up to p nodes that have not been parents.
        parents.clear();
        buffer.pick_parents(params.search_width, parents);
        if parents.is_empty() || it >= max_iters {
            break;
        }
        if let Some(log) = trace.accesses.as_mut() {
            // ALLOW(alloc): runs only with access-trace recording on
            // (analysis mode); the log stores an owned parent list.
            log.iterations.push(IterAccess { parents: parents.clone(), scored: Vec::new() });
        }

        // Forgettable management: periodic reset keeping only the
        // current top-M (Sec. IV-B3). Only *live* entries (computed
        // distance) are re-registered: hash-suppressed MAX-distance
        // placeholders survive the top-M boundary id-dependently, and
        // re-seeding them would make forgettable runs diverge under a
        // locality relabel. Skipping them keeps the reset positional —
        // the re-seeded set is exactly the id-mapped image of the
        // unpermuted one, so relabel parity holds bit-for-bit (a
        // forgotten placeholder is merely recomputed if re-encountered).
        let mut did_reset = false;
        if reset_interval > 0 && it > 0 && it.is_multiple_of(reset_interval) {
            hash.reset(buffer.topm_live_ids());
            did_reset = true;
        }

        // Steps 2+3: expand parents, computing distances only for
        // first-time nodes. Every neighbor enters the candidate
        // segment in adjacency order (hash-suppressed ones stay at
        // dist = MAX); the first-visit rows of each parent are then
        // scored by one batched to_rows gang call and patched in.
        let probes_before = hash.probes();
        let mut computed = 0u64;
        buffer.clear_candidates();
        for &p in parents.iter() {
            gang_ids.clear();
            gang_pos.clear();
            for &nb in graph.neighbors(p as usize) {
                if hash.insert(nb) {
                    gang_ids.push(nb);
                    gang_pos.push(buffer.candidates().len() as u32);
                }
                buffer.push_candidate(BufEntry { dist: f32::MAX, packed: nb });
            }
            gang_dists.clear();
            gang_dists.resize(gang_ids.len(), 0.0);
            oracle.to_rows(&prepared, gang_ids, gang_dists);
            let cands = buffer.candidates_mut();
            for (&pos, &dist) in gang_pos.iter().zip(gang_dists.iter()) {
                // ALLOW(panic): every `pos` was recorded as
                // `candidates().len()` just before a push above.
                cands[pos as usize].dist = dist;
            }
            computed += gang_ids.len() as u64;
            if let Some(log) = trace.accesses.as_mut() {
                if let Some(iter) = log.iterations.last_mut() {
                    iter.scored.extend_from_slice(gang_ids);
                }
            }
        }
        let iter_probes = hash.probes() - probes_before;
        let m = obs::metrics();
        m.search_probe_len.record(iter_probes);
        m.search_sort_len.record(buffer.candidates().len() as u64);
        total_computed += computed;
        if *record_trace {
            trace.iterations.push(IterationTrace {
                candidates: buffer.candidates().len() as u64,
                distances_computed: computed,
                hash_probes: iter_probes,
                sort_len: buffer.candidates().len() as u64,
                hash_reset: did_reset,
            });
        }
        it += 1;
        // The loop head merges these candidates and re-checks the
        // termination conditions (no unparented entries / I_max).
    }

    let m = obs::metrics();
    m.search_iterations.record(it as u64);
    m.search_distances.record(total_computed);
    if hash.capacity() > 0 {
        m.search_hash_occupancy_permille
            .record((hash.len() as u64 * 1000) / hash.capacity() as u64);
    }

    results.extend(
        buffer
            .topm()
            .iter()
            .filter(|e| e.packed != super::parent::INVALID && e.dist < f32::MAX)
            .take(k)
            .map(|e| {
                let id = node_id(e.packed);
                let id = match id_map {
                    Some(m) => m.original_of_internal(id),
                    None => id,
                };
                Neighbor::new(id, e.dist)
            }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, GraphConfig};
    use dataset::synth::{Family, SynthSpec};
    use knn::brute::exact_search;

    fn setup(n: usize) -> (dataset::Dataset, FixedDegreeGraph) {
        let spec = SynthSpec { dim: 8, n, queries: 0, family: Family::Gaussian, seed: 3 };
        let (base, _) = spec.generate();
        let (g, _) = build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
        (base, g)
    }

    #[test]
    fn finds_high_recall_results() {
        let (base, g) = setup(2000);
        let spec = SynthSpec { dim: 8, n: 0, queries: 20, family: Family::Gaussian, seed: 3 };
        let (_, queries) = spec.generate();
        let params = SearchParams::for_k(10);
        let mut hits = 0usize;
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let (got, _) = search_single_cta(&g, &base, Metric::SquaredL2, q, 10, &params);
            let want = exact_search(&base, Metric::SquaredL2, q, 10);
            let want_ids: std::collections::HashSet<u32> = want.iter().map(|n| n.id).collect();
            hits += got.iter().filter(|n| want_ids.contains(&n.id)).count();
        }
        let recall = hits as f64 / (queries.len() * 10) as f64;
        assert!(recall > 0.9, "recall@10 = {recall}");
    }

    #[test]
    fn results_sorted_and_unique() {
        let (base, g) = setup(500);
        let q = base.row(0).to_vec();
        let (got, _) =
            search_single_cta(&g, &base, Metric::SquaredL2, &q, 10, &SearchParams::for_k(10));
        assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
        let mut ids: Vec<u32> = got.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), got.len());
        // Query is a dataset point: its own id must be the best hit.
        assert_eq!(got[0].id, 0);
        assert_eq!(got[0].dist, 0.0);
    }

    #[test]
    fn trace_accounts_for_work() {
        let (base, g) = setup(500);
        let (_, trace) = search_single_cta(
            &g,
            &base,
            Metric::SquaredL2,
            base.row(1),
            5,
            &SearchParams::for_k(5),
        );
        assert!(trace.iteration_count() > 0);
        assert!(trace.total_distances() > 0);
        assert!(trace.init_distances <= g.degree() as u64);
        for it in &trace.iterations {
            assert!(it.distances_computed <= it.candidates);
            assert_eq!(it.sort_len, it.candidates);
        }
    }

    #[test]
    fn forgettable_hash_recall_not_catastrophic() {
        // Paper: periodic reset may recompute distances but must not
        // collapse recall.
        let (base, g) = setup(2000);
        let spec = SynthSpec { dim: 8, n: 0, queries: 20, family: Family::Gaussian, seed: 7 };
        let (_, queries) = spec.generate();
        let mut p = SearchParams::for_k(10);
        p.hash = HashPolicy::Forgettable { bits: 8, reset_interval: 1 };
        let mut hits = 0usize;
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let (got, trace) = search_single_cta(&g, &base, Metric::SquaredL2, q, 10, &p);
            assert!(trace.iterations.iter().any(|i| i.hash_reset));
            let want = exact_search(&base, Metric::SquaredL2, q, 10);
            let want_ids: std::collections::HashSet<u32> = want.iter().map(|n| n.id).collect();
            hits += got.iter().filter(|n| want_ids.contains(&n.id)).count();
        }
        let recall = hits as f64 / (queries.len() * 10) as f64;
        assert!(recall > 0.8, "forgettable recall@10 = {recall}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (base, g) = setup(500);
        let q = base.row(3);
        let params = SearchParams::for_k(5);
        let (a, _) = search_single_cta(&g, &base, Metric::SquaredL2, q, 5, &params);
        let (b, _) = search_single_cta(&g, &base, Metric::SquaredL2, q, 5, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn respects_max_iterations() {
        let (base, g) = setup(500);
        let mut p = SearchParams::for_k(5);
        p.max_iterations = 3;
        let (_, trace) = search_single_cta(&g, &base, Metric::SquaredL2, base.row(2), 5, &p);
        assert!(trace.iteration_count() <= 3);
    }

    #[test]
    fn wider_search_width_expands_more_per_iteration() {
        // The paper's p: each iteration expands p parents and fills a
        // p*d candidate list.
        let (base, g) = setup(1500);
        let d = g.degree();
        for p in [1usize, 2, 4] {
            let mut params = SearchParams::for_k(5);
            params.search_width = p;
            params.max_iterations = 6;
            let (_, trace) =
                search_single_cta(&g, &base, Metric::SquaredL2, base.row(7), 5, &params);
            for (i, it) in trace.iterations.iter().enumerate() {
                assert!(it.candidates <= (p * d) as u64, "iter {i}: {} > {}", it.candidates, p * d);
            }
            // The first iteration always has p full parents available.
            assert_eq!(trace.iterations[0].candidates, (p * d) as u64, "p = {p}");
        }
    }

    #[test]
    fn search_width_two_reaches_at_least_width_one_recall() {
        let (base, g) = setup(2000);
        let spec = SynthSpec { dim: 8, n: 0, queries: 20, family: Family::Gaussian, seed: 31 };
        let (_, queries) = spec.generate();
        let recall_for = |width: usize| {
            let mut params = SearchParams::for_k(10);
            params.search_width = width;
            params.max_iterations = 24; // fixed iteration budget
            let mut hits = 0usize;
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                let (got, _) = search_single_cta(&g, &base, Metric::SquaredL2, q, 10, &params);
                let want = exact_search(&base, Metric::SquaredL2, q, 10);
                let ids: std::collections::HashSet<u32> = want.iter().map(|n| n.id).collect();
                hits += got.iter().filter(|n| ids.contains(&n.id)).count();
            }
            hits as f64 / (queries.len() * 10) as f64
        };
        let r1 = recall_for(1);
        let r2 = recall_for(2);
        // At a fixed iteration budget, wider search explores more
        // nodes, so recall must not drop (Sec. IV-A).
        assert!(r2 >= r1 - 0.02, "p=2 recall {r2} vs p=1 {r1}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_bad_query_dim() {
        let (base, g) = setup(200);
        search_single_cta(&g, &base, Metric::SquaredL2, &[0.0; 3], 5, &SearchParams::for_k(5));
    }
}
