//! Steady-state allocation counts of the search paths, measured by a
//! counting global allocator.
//!
//! A search on a reused [`SearchScratch`] of unchanged shape must not
//! touch the heap: the visited table, the top-M and candidate buffers,
//! the parent list and the gang staging vectors are all recycled. The
//! textual alloc lint only sees allocation tokens in the listed hot
//! functions; this test also sees what their callees allocate.
//!
//! The counter is per thread, so tests running side by side (and the
//! harness itself) do not disturb each other's counts.

use cagra::search::multi_cta::search_multi_cta_with;
use cagra::search::planner::Mode;
use cagra::search::single_cta::search_single_cta_with;
use cagra::{CagraIndex, DynamicIndex, DynamicParams, GraphConfig, SearchParams, SearchScratch};
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread requests.
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// Bytes this thread has requested so far.
fn allocated() -> u64 {
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    /// # Safety
    /// Same contract as [`GlobalAlloc::alloc`].
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    /// # Safety
    /// Same contract as [`GlobalAlloc::dealloc`].
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc` above, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const K: usize = 10;

fn setup() -> (CagraIndex<Dataset>, Dataset) {
    let spec = SynthSpec { dim: 16, n: 1500, queries: 24, family: Family::Gaussian, seed: 5 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    (index, queries)
}

/// Bytes allocated by each of `queries[1..]` after `queries[0]` warmed
/// the state up.
fn per_query_bytes(queries: &Dataset, mut search: impl FnMut(&[f32])) -> Vec<u64> {
    search(queries.row(0));
    (1..queries.len())
        .map(|qi| {
            let before = allocated();
            search(queries.row(qi));
            allocated() - before
        })
        .collect()
}

#[test]
fn single_cta_search_on_reused_scratch_allocates_nothing() {
    let (index, queries) = setup();
    let mut params = SearchParams::for_k(K);
    params.search_width = 2;
    let mut scratch = SearchScratch::new();
    scratch.set_record_trace(false);
    let bytes = per_query_bytes(&queries, |q| {
        search_single_cta_with(
            index.graph(),
            index.store(),
            Metric::SquaredL2,
            q,
            K,
            &params,
            &mut scratch,
        );
        assert_eq!(scratch.results().len(), K);
    });
    assert_eq!(bytes, vec![0; bytes.len()], "single-CTA bytes per query");
}

/// With tracing on, the per-iteration log grows to the longest search
/// seen so far; a fixed iteration count keeps every query within the
/// warm-up's log.
#[test]
fn single_cta_traced_search_allocates_nothing_once_the_log_is_sized() {
    let (index, queries) = setup();
    let mut params = SearchParams::for_k(K);
    params.max_iterations = 12;
    let mut scratch = SearchScratch::new();
    let bytes = per_query_bytes(&queries, |q| {
        search_single_cta_with(
            index.graph(),
            index.store(),
            Metric::SquaredL2,
            q,
            K,
            &params,
            &mut scratch,
        );
        assert_eq!(scratch.trace().iteration_count(), 12);
    });
    assert_eq!(bytes, vec![0; bytes.len()], "traced single-CTA bytes per query");
}

#[test]
fn multi_cta_search_on_reused_scratch_allocates_nothing() {
    let (index, queries) = setup();
    let params = SearchParams::for_k(K);
    let mut scratch = SearchScratch::new();
    scratch.set_record_trace(false);
    let bytes = per_query_bytes(&queries, |q| {
        search_multi_cta_with(
            index.graph(),
            index.store(),
            Metric::SquaredL2,
            q,
            K,
            &params,
            &mut scratch,
        );
        assert_eq!(scratch.results().len(), K);
    });
    assert_eq!(bytes, vec![0; bytes.len()], "multi-CTA bytes per query");
}

/// A dynamic query returns fresh result vectors, but must not rebuild
/// the main segment's search state: its bytes stay below the visited
/// table alone.
#[test]
fn dynamic_search_reuses_the_main_segment_scratch() {
    let (index, queries) = setup();
    let mut params = DynamicParams::new(16);
    params.auto_compact = false;

    let mut probe = SearchScratch::new();
    index.search_mode_with(queries.row(0), K, &params.search, Mode::SingleCta, &mut probe);
    let table_bytes = (probe.trace().hash_slots * std::mem::size_of::<u32>()) as u64;
    assert!(table_bytes > 0);

    let extra = SynthSpec { dim: 16, n: 4, queries: 0, family: Family::Gaussian, seed: 9 };
    let (extra, _) = extra.generate();
    let ix = DynamicIndex::from_index(index, params);
    for i in 0..extra.len() {
        ix.insert(extra.row(i)).expect("insert");
    }
    assert!(ix.delete(3) && ix.delete(700));

    let bytes = per_query_bytes(&queries, |q| {
        assert_eq!(ix.search(q, K).len(), K);
    });
    let worst = bytes.iter().copied().max().unwrap_or(0);
    assert!(
        worst < table_bytes,
        "dynamic query allocated {worst} B, visited table {table_bytes} B"
    );
}
