//! Multi-CTA search: several workers cooperate on one query
//! (Sec. IV-C2).
//!
//! Each simulated CTA runs the standard search loop with `p = 1` over
//! its own top-M list and candidate list, while all CTAs of a query
//! share one standard visited hash table (device memory on the GPU).
//! Because the shared table admits each node exactly once, the workers
//! partition the explored region; per iteration the query examines up
//! to `num_cta * d` nodes versus `p * d` for single-CTA, which is why
//! this mapping reaches higher recall for the same iteration count and
//! keeps the GPU busy at batch sizes as small as 1.

use super::buffer::BufEntry;
use super::hash::VisitedSet;
use super::parent::{node_id, INVALID};
use super::scratch::SearchScratch;
use super::trace::{IterAccess, IterationTrace, SearchTrace};
use crate::params::SearchParams;
use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use graph::relabel::IdMap;
use graph::FixedDegreeGraph;
use knn::topk::{cmp_neighbor, Neighbor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-CTA top-M length: the paper splits the search across CTAs with
/// small per-CTA lists; 32 matches the cuVS implementation's floor.
fn per_cta_itopk(itopk: usize, num_cta: usize) -> usize {
    (itopk.div_ceil(num_cta)).max(32)
}

/// Search with `params.num_cta` cooperating workers.
///
/// Returns ascending-distance results and a trace whose
/// `num_workers` field reflects the CTA count (each iteration entry
/// aggregates one *round* of all active workers). One-shot wrapper
/// over [`search_multi_cta_with`]; batch callers should reuse a
/// [`SearchScratch`] per worker thread instead.
pub fn search_multi_cta<S: VectorStore + ?Sized>(
    graph: &FixedDegreeGraph,
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    params: &SearchParams,
) -> (Vec<Neighbor>, SearchTrace) {
    let mut scratch = SearchScratch::new();
    search_multi_cta_with(graph, store, metric, query, k, params, &mut scratch);
    scratch.into_output()
}

/// [`search_multi_cta`] running entirely on caller-provided scratch
/// (one visited table plus `num_cta` buffers, all recycled between
/// queries). Results land in [`SearchScratch::results`], the trace in
/// [`SearchScratch::trace`].
///
/// # Panics
/// Panics on invalid parameters or a query dimension mismatch.
pub fn search_multi_cta_with<S: VectorStore + ?Sized>(
    graph: &FixedDegreeGraph,
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    params: &SearchParams,
    scratch: &mut SearchScratch,
) {
    search_multi_cta_mapped(graph, store, metric, query, k, params, scratch, None)
}

/// [`search_multi_cta_with`] over a *relabeled* graph/store pair.
///
/// With an [`IdMap`], each worker's random start set is drawn in the
/// original numbering (so the traversal visits the same vectors as the
/// unpermuted index, bit for bit) and the merged results are
/// translated back to original ids once at the end — the round loop
/// runs entirely on internal ids with zero per-hop overhead. `None`
/// is the identity.
///
/// # Panics
/// Panics on invalid parameters, a query dimension mismatch, or an
/// id map whose size differs from the graph.
#[allow(clippy::too_many_arguments)]
pub fn search_multi_cta_mapped<S: VectorStore + ?Sized>(
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
    let num_cta = params.num_cta;
    let m = per_cta_itopk(params.itopk, num_cta);
    let max_iters = params.effective_max_iterations(d).max(m);

    // Shared standard hash table sized for all workers (Table II: the
    // multi-CTA table lives in device memory and is never reset).
    scratch.begin(VisitedSet::standard_bits(max_iters, num_cta * d), num_cta, m, d);
    let SearchScratch {
        visited,
        buffers,
        active,
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
    trace.itopk = params.itopk;
    trace.search_width = 1;
    trace.degree = d;
    trace.num_workers = num_cta;
    trace.hash_slots = hash.capacity();
    trace.hash_in_shared = false;

    let oracle = DistanceOracle::new(store, metric);
    let prepared = oracle.prepare(query);

    // Per-worker state; each worker draws its own random start set,
    // scored with one batched gang call per worker.
    let mut rng = StdRng::seed_from_u64(params.seed);
    for buf in buffers.iter_mut() {
        buf.clear_candidates();
        gang_ids.clear();
        for _ in 0..d {
            // Draws happen in the original numbering and map through
            // the id map (a bijection, so the dedup pattern matches
            // the unpermuted index exactly).
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
            buf.push_candidate(BufEntry::new(id, dist));
            trace.init_distances += 1;
        }
        if let Some(log) = trace.accesses.as_mut() {
            log.init_scored.extend_from_slice(gang_ids);
        }
    }

    let mut rounds = 0u64;
    let mut total_computed = trace.init_distances;
    for _round in 0..max_iters {
        let probes_before = hash.probes();
        let mut round_candidates = 0u64;
        let mut round_computed = 0u64;
        let mut any_active = false;
        if let Some(log) = trace.accesses.as_mut() {
            log.iterations.push(IterAccess::default());
        }
        for (buf, act) in buffers.iter_mut().zip(active.iter_mut()) {
            if !*act {
                continue;
            }
            buf.update_topm();
            // p = 1: expand the single best unparented entry.
            parents.clear();
            buf.pick_parents(1, parents);
            let Some(&p) = parents.first() else {
                *act = false;
                continue;
            };
            any_active = true;
            if let Some(log) = trace.accesses.as_mut() {
                if let Some(iter) = log.iterations.last_mut() {
                    iter.parents.push(p);
                }
            }
            // All d neighbors enter in adjacency order; the first-visit
            // ones are scored by one batched gang call and patched in.
            buf.clear_candidates();
            gang_ids.clear();
            gang_pos.clear();
            for &nb in graph.neighbors(p as usize) {
                if hash.insert(nb) {
                    gang_ids.push(nb);
                    gang_pos.push(buf.candidates().len() as u32);
                }
                buf.push_candidate(BufEntry { dist: f32::MAX, packed: nb });
            }
            gang_dists.clear();
            gang_dists.resize(gang_ids.len(), 0.0);
            oracle.to_rows(&prepared, gang_ids, gang_dists);
            let cands = buf.candidates_mut();
            for (&pos, &dist) in gang_pos.iter().zip(gang_dists.iter()) {
                // ALLOW(panic): every `pos` was recorded as
                // `candidates().len()` just before a push above.
                cands[pos as usize].dist = dist;
            }
            round_computed += gang_ids.len() as u64;
            round_candidates += buf.candidates().len() as u64;
            if let Some(log) = trace.accesses.as_mut() {
                if let Some(iter) = log.iterations.last_mut() {
                    iter.scored.extend_from_slice(gang_ids);
                }
            }
        }
        if !any_active {
            if let Some(log) = trace.accesses.as_mut() {
                log.iterations.pop(); // empty round: no gathers happened
            }
            break;
        }
        let iter_probes = hash.probes() - probes_before;
        let om = obs::metrics();
        om.search_probe_len.record(iter_probes);
        om.search_sort_len.record(d as u64);
        rounds += 1;
        total_computed += round_computed;
        if *record_trace {
            trace.iterations.push(IterationTrace {
                candidates: round_candidates,
                distances_computed: round_computed,
                hash_probes: iter_probes,
                sort_len: d as u64, // each worker sorts its own d-slot segment
                hash_reset: false,
            });
        }
    }

    {
        let om = obs::metrics();
        om.search_iterations.record(rounds);
        om.search_distances.record(total_computed);
        if hash.capacity() > 0 {
            om.search_hash_occupancy_permille
                .record((hash.len() as u64 * 1000) / hash.capacity() as u64);
        }
    }

    // Merge the workers' lists; the shared hash guarantees a node
    // appears in at most one list.
    for buf in buffers.iter_mut() {
        buf.update_topm(); // fold in any trailing candidates
        results.extend(buf.topm().iter().filter(|e| e.packed != INVALID && e.dist < f32::MAX).map(
            |e| {
                let id = node_id(e.packed);
                let id = match id_map {
                    Some(m) => m.original_of_internal(id),
                    None => id,
                };
                Neighbor::new(id, e.dist)
            },
        ));
    }
    results.sort_unstable_by(cmp_neighbor);
    results.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, GraphConfig};
    use crate::params::SearchParams;
    use dataset::synth::{Family, SynthSpec};
    use knn::brute::exact_search;

    fn setup(n: usize) -> (dataset::Dataset, FixedDegreeGraph) {
        let spec = SynthSpec { dim: 8, n, queries: 0, family: Family::Gaussian, seed: 3 };
        let (base, _) = spec.generate();
        let (g, _) = build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
        (base, g)
    }

    fn recall_of(
        base: &dataset::Dataset,
        g: &FixedDegreeGraph,
        params: &SearchParams,
        queries_seed: u64,
    ) -> f64 {
        let spec =
            SynthSpec { dim: 8, n: 0, queries: 20, family: Family::Gaussian, seed: queries_seed };
        let (_, queries) = spec.generate();
        let mut hits = 0usize;
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let (got, _) = search_multi_cta(g, base, Metric::SquaredL2, q, 10, params);
            let want = exact_search(base, Metric::SquaredL2, q, 10);
            let want_ids: std::collections::HashSet<u32> = want.iter().map(|n| n.id).collect();
            hits += got.iter().filter(|n| want_ids.contains(&n.id)).count();
        }
        hits as f64 / (queries.len() * 10) as f64
    }

    #[test]
    fn finds_high_recall_results() {
        let (base, g) = setup(2000);
        let recall = recall_of(&base, &g, &SearchParams::for_k(10), 5);
        assert!(recall > 0.9, "multi-CTA recall@10 = {recall}");
    }

    #[test]
    fn workers_partition_visited_nodes() {
        let (base, g) = setup(800);
        let (got, trace) = search_multi_cta(
            &g,
            &base,
            Metric::SquaredL2,
            base.row(0),
            10,
            &SearchParams::for_k(10),
        );
        assert_eq!(trace.num_workers, SearchParams::for_k(10).num_cta);
        // No duplicate result ids — the shared hash partitions work.
        let mut ids: Vec<u32> = got.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), got.len());
        assert_eq!(got[0].id, 0);
    }

    #[test]
    fn more_ctas_explore_more_nodes_per_round() {
        let (base, g) = setup(3000);
        let mut p = SearchParams::for_k(10);
        p.max_iterations = 8;
        p.num_cta = 1;
        let (_, t1) = search_multi_cta(&g, &base, Metric::SquaredL2, base.row(5), 10, &p);
        p.num_cta = 8;
        let (_, t8) = search_multi_cta(&g, &base, Metric::SquaredL2, base.row(5), 10, &p);
        let per_round_1 = t1.iterations.first().map(|i| i.candidates).unwrap_or(0);
        let per_round_8 = t8.iterations.first().map(|i| i.candidates).unwrap_or(0);
        assert!(per_round_8 > per_round_1, "{per_round_8} vs {per_round_1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (base, g) = setup(500);
        let p = SearchParams::for_k(5);
        let (a, _) = search_multi_cta(&g, &base, Metric::SquaredL2, base.row(3), 5, &p);
        let (b, _) = search_multi_cta(&g, &base, Metric::SquaredL2, base.row(3), 5, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn per_cta_itopk_floor() {
        assert_eq!(per_cta_itopk(64, 4), 32);
        assert_eq!(per_cta_itopk(512, 4), 128);
        assert_eq!(per_cta_itopk(64, 64), 32);
    }
}
