//! The CAGRA search buffer: internal top-M list + candidate list, and
//! the top-M update (step 1, Sec. IV-B2).
//!
//! Entries are `(distance, packed index)` pairs; the packed index
//! carries the parent flag in its MSB (see [`super::parent`]). The GPU
//! kernel sorts the whole candidate segment with a **bitonic network**
//! in registers and merges it with the already-sorted top-M list;
//! [`bitonic_sort`] is that network, kept as the GPU model and the
//! reference the tests check the CPU update against. The CPU update
//! ([`SearchBuffer::update_topm`]) produces the identical list while
//! touching only the candidates that can enter it. Dummy entries carry
//! `FLT_MAX` distance and the `INVALID` index, so they sort last,
//! exactly as the paper initializes the list.

use super::parent::{is_parented, node_id, set_parented, INVALID};

/// One buffer slot: distance plus flagged node index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BufEntry {
    /// Query distance (`f32::MAX` for dummies / hash-suppressed nodes).
    pub dist: f32,
    /// Node id with MSB parent flag.
    pub packed: u32,
}

impl BufEntry {
    /// A dummy entry sorting after every real entry.
    pub const DUMMY: BufEntry = BufEntry { dist: f32::MAX, packed: INVALID };

    /// A fresh (unparented) entry.
    pub fn new(id: u32, dist: f32) -> Self {
        BufEntry { dist, packed: id }
    }

    /// Sort key: distance, node id (flag excluded so parenting never
    /// perturbs the order), NaN last.
    #[inline]
    fn key(&self) -> (f32, u32) {
        (self.dist, node_id(self.packed))
    }
}

#[inline]
fn less(a: &BufEntry, b: &BufEntry) -> bool {
    let (da, ia) = a.key();
    let (db, ib) = b.key();
    match da.partial_cmp(&db) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Greater) => false,
        Some(std::cmp::Ordering::Equal) => ia < ib,
        None => db.is_nan() && !da.is_nan(), // NaN sorts last
    }
}

/// Sort `entries` ascending in place with a bitonic network, padding
/// virtually to the next power of two (padding compares as DUMMY).
///
/// This mirrors the warp-level register sort of the CUDA kernel (used
/// when the candidate buffer is <= 512 entries); for larger buffers
/// the GPU switches to a radix sort, which is functionally identical.
/// The search itself does not call it (see
/// [`SearchBuffer::update_topm`]); it is the GPU-faithful reference for
/// tests and the micro-benchmark.
pub fn bitonic_sort(entries: &mut [BufEntry]) {
    let n = entries.len();
    if n <= 1 {
        return;
    }
    let padded = n.next_power_of_two();
    // Virtual padding: out-of-range slots are DUMMY (max element), and
    // compare-exchange with them only matters in ascending direction,
    // where a real element never moves toward a higher index; so pairs
    // with j >= n can be skipped when ascending, and force-swapped
    // when descending. Simpler and still O(n log^2 n): materialize.
    let mut buf: Vec<BufEntry> = Vec::with_capacity(padded);
    buf.extend_from_slice(entries);
    buf.resize(padded, BufEntry::DUMMY);

    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..padded {
                let l = i ^ j;
                if l > i {
                    let ascending = i & k == 0;
                    // ALLOW(panic): `i < padded` and `l = i ^ j` with
                    // `j < padded` (a power of two), so `l < padded`.
                    if less(&buf[l], &buf[i]) == ascending {
                        buf.swap(i, l);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    // ALLOW(panic): `buf` was resized to `padded >= n` above.
    entries.copy_from_slice(&buf[..n]);
}

/// Stable in-place insertion sort: each entry goes after every
/// earlier entry that is not greater. Sized for the handful of
/// candidates that survive [`SearchBuffer::update_topm`]'s filter.
fn insertion_sort(entries: &mut [BufEntry]) {
    for end in 2..=entries.len() {
        let Some(run) = entries.get_mut(..end) else { break };
        let Some((&last, sorted)) = run.split_last() else { continue };
        let pos = sorted.partition_point(|e| !less(&last, e));
        if let Some(tail) = run.get_mut(pos..) {
            tail.rotate_right(1);
        }
    }
}

/// Merge the sorted `survivors` (each `less` than the last entry of
/// `topm`) into the sorted `topm` in place, keeping its length: the
/// largest survivor is placed first, and each block of `topm` entries
/// above it shifts once, straight to its final slot; whatever shifts
/// past the end is discarded. On equal keys a survivor goes below the
/// `topm` entry, as in a forward merge that takes the list first.
/// Returns how many survivors were kept and the lowest position that
/// changed (`topm.len()` when `survivors` is empty).
fn merge_backward(topm: &mut [BufEntry], survivors: &[BufEntry]) -> (usize, usize) {
    let m = topm.len();
    let mut admitted = 0usize;
    let mut lowest = m;
    // `topm[..hi]` still holds unplaced entries at their old positions.
    let mut hi = m;
    for (below, c) in survivors.iter().enumerate().rev() {
        let Some(head) = topm.get(..hi) else { break };
        let pos = head.partition_point(|t| !less(c, t));
        // `topm[pos..hi]` are the entries greater than `c`: `c` and the
        // `below` smaller survivors precede them, so each moves up by
        // `below + 1`.
        let shift = below + 1;
        if let Some(tail) = topm.get_mut(pos..) {
            let len = (hi - pos).min(tail.len().saturating_sub(shift));
            if len > 0 {
                tail.copy_within(..len, shift);
            }
        }
        if let Some(slot) = topm.get_mut(pos + below) {
            *slot = *c;
            admitted += 1;
            lowest = pos + below;
        }
        hi = pos;
    }
    (admitted, lowest)
}

/// The contiguous search buffer (Fig. 6 top).
#[derive(Clone, Debug)]
pub struct SearchBuffer {
    /// Internal top-M list, always sorted ascending.
    topm: Vec<BufEntry>,
    /// Candidate list (`p * d` slots).
    candidates: Vec<BufEntry>,
    /// Parent-pick scan start: no entry above this position can be
    /// selected (each is a parent, a dummy, or a placeholder), and
    /// [`SearchBuffer::update_topm`] lowers it to the first position
    /// it changed.
    cursor: usize,
}

impl SearchBuffer {
    /// Create a buffer with top-M length `m` and candidate capacity
    /// `width` (`p * d`). The top-M list starts as all dummies.
    pub fn new(m: usize, width: usize) -> Self {
        // ALLOW(panic): constructor precondition; zero-sized lists
        // have no meaningful search semantics.
        assert!(m > 0 && width > 0, "buffer sizes must be positive");
        SearchBuffer {
            topm: vec![BufEntry::DUMMY; m],
            candidates: Vec::with_capacity(width),
            cursor: 0,
        }
    }

    /// Re-initialize for a fresh search with top-M length `m` and
    /// candidate capacity `width`, reusing the existing allocations.
    /// After `reset` the buffer is indistinguishable from
    /// [`SearchBuffer::new`]`(m, width)` except that, in steady state
    /// (same shape as the previous search), no heap allocation occurs.
    pub fn reset(&mut self, m: usize, width: usize) {
        // ALLOW(panic): same precondition as `new`.
        assert!(m > 0 && width > 0, "buffer sizes must be positive");
        self.topm.clear();
        self.topm.resize(m, BufEntry::DUMMY);
        self.candidates.clear();
        self.candidates.reserve(width);
        self.cursor = 0;
    }

    /// The sorted top-M list.
    pub fn topm(&self) -> &[BufEntry] {
        &self.topm
    }

    /// Clear and refill the candidate segment.
    pub fn set_candidates(&mut self, iter: impl IntoIterator<Item = BufEntry>) {
        self.candidates.clear();
        self.candidates.extend(iter);
    }

    /// Drop all candidates, keeping the allocation.
    pub fn clear_candidates(&mut self) {
        self.candidates.clear();
    }

    /// Append one candidate (the allocation-free alternative to
    /// [`SearchBuffer::set_candidates`] for hot loops).
    #[inline]
    pub fn push_candidate(&mut self, entry: BufEntry) {
        self.candidates.push(entry);
    }

    /// Current candidate segment.
    pub fn candidates(&self) -> &[BufEntry] {
        &self.candidates
    }

    /// Mutable candidate segment. The expansion loop pushes every
    /// neighbor with a placeholder distance in adjacency order, then
    /// patches the first-visit entries from one batched distance call.
    #[inline]
    pub fn candidates_mut(&mut self) -> &mut [BufEntry] {
        &mut self.candidates
    }

    /// Step 1: merge the candidate list into the top-M list, keeping
    /// the M smallest, and clear the candidates. Returns the number of
    /// candidates that entered the list (a progress signal).
    ///
    /// The result is exactly that of [`bitonic_sort`] over all
    /// candidates followed by a forward merge that, on equal keys,
    /// keeps the top-M entry first — the GPU kernel's step. The CPU
    /// does work proportional to the candidates that can enter
    /// instead: a candidate not `less` than the current worst entry
    /// would land at position M or later, so it is dropped unsorted;
    /// the few survivors are insertion-sorted in place and merged
    /// backwards into the list in place, largest first. Candidates
    /// with equal keys must be interchangeable (fresh, unflagged
    /// entries are), since the two sorts may order them differently.
    pub fn update_topm(&mut self) -> usize {
        let Some(&worst) = self.topm.last() else {
            self.candidates.clear();
            return 0;
        };
        self.candidates.retain(|c| less(c, &worst));
        insertion_sort(&mut self.candidates);
        let (admitted, lowest) = merge_backward(&mut self.topm, &self.candidates);
        self.cursor = self.cursor.min(lowest);
        self.candidates.clear();
        admitted
    }

    /// Step 2: mark up to `count` of the best selectable entries as
    /// parents, appending their ids to `out`; returns how many were
    /// picked. An entry is selectable when it is not yet a parent (the
    /// flag is set on dummies too) and carries a computed distance:
    /// `MAX`-dist entries are hash-suppressed placeholders whose vector
    /// was never loaded, and expanding one would make the traversal
    /// depend on id order rather than geometry.
    ///
    /// The scan resumes at the cursor instead of the list head: every
    /// entry above it was unselectable at the last pick and has not
    /// moved since, so the picks equal a full scan's.
    pub fn pick_parents(&mut self, count: usize, out: &mut Vec<u32>) -> usize {
        let mut picked = 0usize;
        let mut stop = self.topm.len();
        for (pos, entry) in self.topm.iter_mut().enumerate().skip(self.cursor) {
            if picked == count {
                stop = pos;
                break;
            }
            if !is_parented(entry.packed) && entry.dist < f32::MAX {
                out.push(node_id(entry.packed));
                entry.packed = set_parented(entry.packed);
                picked += 1;
            }
        }
        self.cursor = stop;
        picked
    }

    /// Ids of the real (non-dummy) top-M entries, flags stripped.
    pub fn topm_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.topm.iter().filter(|e| e.packed != INVALID).map(|e| node_id(e.packed))
    }

    /// Ids of the *live* top-M entries: non-dummy AND carrying a
    /// computed distance. Hash-suppressed placeholders sit at
    /// `dist == f32::MAX` with a real id; which of those survive in an
    /// underfull list is tie-broken by id, so any consumer that must
    /// stay invariant under vertex relabeling (the forgettable-hash
    /// reset re-seed) has to skip them and take only the entries whose
    /// position is determined by geometry.
    pub fn topm_live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.topm
            .iter()
            .filter(|e| e.packed != INVALID && e.dist < f32::MAX)
            .map(|e| node_id(e.packed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::parent::set_parented;

    fn e(id: u32, dist: f32) -> BufEntry {
        BufEntry::new(id, dist)
    }

    #[test]
    fn bitonic_sorts_arbitrary_lengths() {
        for n in [0usize, 1, 2, 3, 5, 8, 13, 64, 100, 257] {
            let mut x = 99u64;
            let mut v: Vec<BufEntry> = (0..n)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                    e(i as u32, ((x >> 40) as f32) / 1e3)
                })
                .collect();
            let mut want = v.clone();
            want.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.packed.cmp(&b.packed)));
            bitonic_sort(&mut v);
            assert_eq!(v, want, "n = {n}");
        }
    }

    #[test]
    fn bitonic_sort_ignores_parent_flag_in_order() {
        let mut v = vec![BufEntry { dist: 2.0, packed: set_parented(7) }, e(3, 1.0)];
        bitonic_sort(&mut v);
        assert_eq!(node_id(v[0].packed), 3);
        assert!(super::super::parent::is_parented(v[1].packed), "flag preserved");
    }

    #[test]
    fn update_topm_keeps_m_smallest() {
        let mut b = SearchBuffer::new(3, 4);
        b.set_candidates([e(0, 4.0), e(1, 1.0), e(2, 3.0), e(3, 2.0)]);
        let admitted = b.update_topm();
        assert_eq!(admitted, 3);
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![1, 3, 2]);
        // Second round: only better candidates displace.
        b.set_candidates([e(4, 0.5), e(5, 10.0)]);
        b.update_topm();
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![4, 1, 3]);
    }

    #[test]
    fn dummies_fill_an_underfull_list() {
        let mut b = SearchBuffer::new(4, 2);
        b.set_candidates([e(9, 1.0)]);
        b.update_topm();
        assert_eq!(b.topm_ids().count(), 1);
        assert_eq!(b.topm()[3], BufEntry::DUMMY);
    }

    #[test]
    fn parent_flags_survive_update() {
        let mut b = SearchBuffer::new(2, 2);
        b.set_candidates([e(0, 1.0), e(1, 2.0)]);
        b.update_topm();
        let mut picked = Vec::new();
        assert_eq!(b.pick_parents(1, &mut picked), 1);
        assert_eq!(picked, vec![0]);
        b.set_candidates([e(2, 3.0)]);
        b.update_topm();
        assert!(super::super::parent::is_parented(b.topm()[0].packed));
    }

    #[test]
    fn pick_parents_skips_placeholders_and_resumes_below_changes() {
        let mut b = SearchBuffer::new(4, 4);
        b.set_candidates([e(0, 1.0), BufEntry { dist: f32::MAX, packed: 1 }, e(2, 3.0)]);
        b.update_topm();
        let mut picked = Vec::new();
        assert_eq!(b.pick_parents(2, &mut picked), 2);
        assert_eq!(picked, vec![0, 2], "the MAX placeholder is never a parent");
        picked.clear();
        assert_eq!(b.pick_parents(2, &mut picked), 0, "nothing selectable is left");
        // A new entry above the cursor must be found again.
        b.set_candidates([e(3, 0.5)]);
        assert_eq!(b.update_topm(), 1);
        assert_eq!(b.pick_parents(2, &mut picked), 1);
        assert_eq!(picked, vec![3]);
    }

    #[test]
    fn update_topm_breaks_ties_list_first_and_counts_kept_survivors() {
        let mut b = SearchBuffer::new(3, 4);
        b.set_candidates([e(5, 1.0), e(7, 2.0), e(9, 3.0)]);
        b.update_topm();
        // Equal keys: the list entry stays above the candidate. All
        // three candidates beat the worst entry, but only two fit.
        let flagged = BufEntry { dist: 1.0, packed: set_parented(5) };
        let mut picked = Vec::new();
        b.pick_parents(1, &mut picked);
        assert_eq!(b.topm()[0], flagged);
        b.set_candidates([e(5, 1.0), e(6, 1.5), e(8, 2.0)]);
        assert_eq!(b.update_topm(), 2);
        assert_eq!(b.topm(), &[flagged, e(5, 1.0), e(6, 1.5)]);
    }

    #[test]
    fn max_dist_candidates_never_displace_real_entries() {
        let mut b = SearchBuffer::new(2, 2);
        b.set_candidates([e(0, 1.0), e(1, 2.0)]);
        b.update_topm();
        // Hash-suppressed candidates arrive as dist = MAX.
        b.set_candidates([BufEntry { dist: f32::MAX, packed: 5 }]);
        b.update_topm();
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_m_rejected() {
        SearchBuffer::new(0, 1);
    }

    #[test]
    fn reset_matches_fresh_buffer() {
        let mut reused = SearchBuffer::new(3, 4);
        reused.set_candidates([e(0, 4.0), e(1, 1.0), e(2, 3.0)]);
        reused.update_topm();
        // Re-shape to a different (m, width) and replay a search that a
        // fresh buffer also runs; results must match entry-for-entry.
        reused.reset(2, 3);
        let mut fresh = SearchBuffer::new(2, 3);
        for b in [&mut reused, &mut fresh] {
            b.clear_candidates();
            b.push_candidate(e(7, 2.0));
            b.push_candidate(e(8, 0.5));
            b.update_topm();
        }
        assert_eq!(reused.topm(), fresh.topm());
    }
}
