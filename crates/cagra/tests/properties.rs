//! CAGRA search-machinery invariants over arbitrary inputs.

use cagra::search::buffer::{bitonic_sort, BufEntry, SearchBuffer};
use cagra::search::hash::VisitedSet;
use cagra::search::parent::{is_parented, node_id, set_parented, INVALID};
use proptest::prelude::*;

/// The buffer's sort order, restated: distance, then node id (flag
/// excluded), NaN last.
fn ref_less(a: &BufEntry, b: &BufEntry) -> bool {
    let (ia, ib) = (node_id(a.packed), node_id(b.packed));
    match a.dist.partial_cmp(&b.dist) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Greater) => false,
        Some(std::cmp::Ordering::Equal) => ia < ib,
        None => b.dist.is_nan() && !a.dist.is_nan(),
    }
}

/// The GPU kernel's top-M update: bitonic-sort every candidate, then
/// merge forward into a fresh list, taking the list entry first on
/// equal keys and padding with dummies. Returns the admitted count.
fn reference_update(topm: &mut Vec<BufEntry>, candidates: &mut [BufEntry]) -> usize {
    bitonic_sort(candidates);
    let m = topm.len();
    let mut merged = Vec::with_capacity(m);
    let (mut ti, mut ci, mut admitted) = (0usize, 0usize, 0usize);
    while merged.len() < m {
        match (topm.get(ti), candidates.get(ci)) {
            (Some(t), Some(c)) if ref_less(c, t) => {
                merged.push(*c);
                ci += 1;
                admitted += 1;
            }
            (Some(t), _) => {
                merged.push(*t);
                ti += 1;
            }
            (None, Some(c)) => {
                merged.push(*c);
                ci += 1;
                admitted += 1;
            }
            (None, None) => break,
        }
    }
    merged.resize(m, BufEntry::DUMMY);
    *topm = merged;
    admitted
}

/// Parent pick by scanning the whole list from the top.
fn reference_pick(topm: &mut [BufEntry], count: usize) -> Vec<u32> {
    let mut picked = Vec::new();
    for entry in topm.iter_mut() {
        if picked.len() == count {
            break;
        }
        if entry.packed != INVALID && !is_parented(entry.packed) && entry.dist < f32::MAX {
            picked.push(node_id(entry.packed));
            entry.packed = set_parented(entry.packed);
        }
    }
    picked
}

/// One generated candidate: `(kind, value, id)`. Kinds 0-3 are computed
/// distances from a small set (so duplicates are common), 4 and 5 are
/// hash-suppressed `MAX` placeholders (the ids collide with list
/// entries), 6 is NaN.
fn candidate((kind, value, id): (u8, u32, u32)) -> BufEntry {
    let dist = match kind {
        0..=3 => (value % 24) as f32 * 0.25,
        4 | 5 => f32::MAX,
        _ => f32::NAN,
    };
    BufEntry::new(id, dist)
}

proptest! {
    #[test]
    fn bitonic_network_sorts_like_std(dists in proptest::collection::vec(-1e6f32..1e6, 0..300)) {
        let mut entries: Vec<BufEntry> =
            dists.iter().enumerate().map(|(i, &d)| BufEntry::new(i as u32, d)).collect();
        let mut want = entries.clone();
        want.sort_by(|a, b| {
            a.dist.partial_cmp(&b.dist).unwrap().then(a.packed.cmp(&b.packed))
        });
        bitonic_sort(&mut entries);
        prop_assert_eq!(entries, want);
    }

    #[test]
    fn visited_set_matches_hashset(ids in proptest::collection::vec(0u32..10_000, 0..500)) {
        let mut ours = VisitedSet::new(14); // ample capacity
        let mut std_set = std::collections::HashSet::new();
        for &id in &ids {
            prop_assert_eq!(ours.insert(id), std_set.insert(id), "id {}", id);
        }
        prop_assert_eq!(ours.len(), std_set.len());
        for &id in &ids {
            prop_assert!(ours.contains(id));
        }
    }

    #[test]
    fn reset_then_survivors_only(ids in proptest::collection::vec(0u32..1000, 1..100), keep in proptest::collection::vec(0u32..1000, 0..20)) {
        let mut v = VisitedSet::new(12);
        for &id in &ids {
            v.insert(id);
        }
        v.reset(keep.iter().copied());
        for &id in &keep {
            prop_assert!(v.contains(id));
        }
        for &id in &ids {
            if !keep.contains(&id) {
                prop_assert!(!v.contains(id), "id {} survived reset", id);
            }
        }
    }

    #[test]
    fn parent_flag_never_corrupts_id(id in 0u32..(1 << 31)) {
        let p = set_parented(id);
        prop_assert!(is_parented(p));
        prop_assert_eq!(node_id(p), id);
        prop_assert_eq!(set_parented(p), p); // idempotent
    }

    #[test]
    fn buffer_topm_is_sorted_min_m_of_stream(chunks in proptest::collection::vec(proptest::collection::vec(0.0f32..1e6, 1..20), 1..10)) {
        let m = 8;
        let mut buf = SearchBuffer::new(m, 32);
        let mut all: Vec<(f32, u32)> = Vec::new();
        let mut next_id = 0u32;
        for chunk in &chunks {
            let entries: Vec<BufEntry> = chunk
                .iter()
                .map(|&d| {
                    let e = BufEntry::new(next_id, d);
                    all.push((d, next_id));
                    next_id += 1;
                    e
                })
                .collect();
            buf.set_candidates(entries);
            buf.update_topm();
        }
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let want: Vec<u32> = all.iter().take(m).map(|&(_, id)| id).collect();
        let got: Vec<u32> = buf.topm_ids().collect();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The in-place update (filter, insertion sort, backward merge) and
    /// the cursor's parent pick against the GPU-faithful reference:
    /// bitonic sort + forward merge, and a full-scan pick.
    #[test]
    fn update_topm_matches_bitonic_reference(
        m in 1usize..=300,
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..7, any::<u32>(), 0u32..96), 0..=64),
                0usize..=4,
            ),
            1..24,
        ),
    ) {
        let mut buf = SearchBuffer::new(m, 64);
        let mut want = vec![BufEntry::DUMMY; m];
        let mut picked = Vec::new();
        for (round, (cands, pick)) in rounds.iter().enumerate() {
            let mut cands: Vec<BufEntry> = cands.iter().copied().map(candidate).collect();
            buf.set_candidates(cands.iter().copied());
            let got_admitted = buf.update_topm();
            let want_admitted = reference_update(&mut want, &mut cands);
            prop_assert_eq!(got_admitted, want_admitted, "round {}", round);
            prop_assert!(buf.candidates().is_empty());
            let same = buf
                .topm()
                .iter()
                .zip(&want)
                .all(|(a, b)| a.dist.to_bits() == b.dist.to_bits() && a.packed == b.packed);
            prop_assert!(same, "round {}: {:?} vs {:?}", round, buf.topm(), want);

            picked.clear();
            let n = buf.pick_parents(*pick, &mut picked);
            let want_picked = reference_pick(&mut want, *pick);
            prop_assert_eq!(n, want_picked.len());
            prop_assert_eq!(&picked, &want_picked, "round {}", round);
        }
    }
}
