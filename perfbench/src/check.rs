//! Output checks: every served result is verified, and any failed
//! check fails the run.

use knn::topk::Neighbor;
use std::collections::{HashMap, HashSet};

/// Relative tolerance between a reported distance and the distance the
/// checker recomputes from the query and the row.
const DIST_TOLERANCE: f32 = 1e-4;

/// Check one top-`k` result: exactly `k` neighbors, distinct ids that
/// `row_of` knows, ascending finite distances, each equal (within
/// [`DIST_TOLERANCE`]) to the squared L2 distance recomputed from
/// `query` and the row.
pub fn check_result<'a>(
    result: &[Neighbor],
    k: usize,
    query: &[f32],
    row_of: impl Fn(u32) -> Option<&'a [f32]>,
) -> Result<(), String> {
    if result.len() != k {
        return Err(format!("{} neighbors, expected {k}", result.len()));
    }
    let mut seen = HashSet::with_capacity(k);
    for (i, nb) in result.iter().enumerate() {
        if !seen.insert(nb.id) {
            return Err(format!("id {} appears twice", nb.id));
        }
        let row = row_of(nb.id).ok_or_else(|| format!("id {} is out of range", nb.id))?;
        if !nb.dist.is_finite() {
            return Err(format!("id {} has distance {}", nb.id, nb.dist));
        }
        if i > 0 && result[i - 1].dist > nb.dist {
            return Err(format!("distances not ascending at position {i}"));
        }
        let exact = distance::squared_l2(query, row);
        if (exact - nb.dist).abs() > DIST_TOLERANCE * exact.abs().max(1.0) {
            return Err(format!("id {} reported at distance {}, exact {exact}", nb.id, nb.dist));
        }
    }
    Ok(())
}

/// A search as the churn checker sees it: when it was sent (ns since
/// the run started) and the ids it returned.
pub struct SentSearch<'a> {
    /// Send time.
    pub sent_ns: u64,
    /// Returned ids.
    pub ids: &'a [u32],
}

/// No search may return an id whose delete was acknowledged before the
/// search was sent. `deletes` maps each deleted id to its ack time.
pub fn check_no_stale_ids(
    searches: &[SentSearch<'_>],
    deletes: &HashMap<u32, u64>,
) -> Result<(), String> {
    for s in searches {
        for id in s.ids {
            if let Some(&acked) = deletes.get(id) {
                if acked < s.sent_ns {
                    return Err(format!(
                        "id {id} returned by a search sent at {} ns, after its delete was acked at {acked} ns",
                        s.sent_ns
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Every id an insert was acknowledged with must be new: distinct from
/// each other and from the `base_n` preloaded ids.
pub fn check_insert_ids(ids: &[u32], base_n: u32) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(ids.len());
    for &id in ids {
        if id < base_n {
            return Err(format!("insert was assigned base id {id}"));
        }
        if !seen.insert(id) {
            return Err(format!("insert id {id} assigned twice"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<f32>> {
        (0..8).map(|i| vec![i as f32, 0.0]).collect()
    }

    fn served(query: &[f32], rows: &[Vec<f32>], ids: &[u32]) -> Vec<Neighbor> {
        ids.iter()
            .map(|&id| Neighbor::new(id, distance::squared_l2(query, &rows[id as usize])))
            .collect()
    }

    #[test]
    fn accepts_a_correct_response_and_rejects_corrupted_ones() {
        let rows = rows();
        let row_of = |id: u32| rows.get(id as usize).map(Vec::as_slice);
        let q = [0.2f32, 0.0];
        let good = served(&q, &rows, &[0, 1, 2]);
        assert_eq!(check_result(&good, 3, &q, row_of), Ok(()));

        let short = &good[..2];
        assert!(check_result(short, 3, &q, row_of).unwrap_err().contains("expected 3"));
        let mut dup = good.clone();
        dup[2] = dup[1];
        assert!(check_result(&dup, 3, &q, row_of).unwrap_err().contains("twice"));
        let mut out_of_range = good.clone();
        out_of_range[2].id = 99;
        assert!(check_result(&out_of_range, 3, &q, row_of).unwrap_err().contains("out of range"));
        let unsorted = served(&q, &rows, &[0, 2, 1]);
        assert!(check_result(&unsorted, 3, &q, row_of).unwrap_err().contains("ascending"));
        let mut wrong_dist = good.clone();
        wrong_dist[1].dist += 0.5;
        assert!(check_result(&wrong_dist, 3, &q, row_of).unwrap_err().contains("exact"));
        let mut nan = good;
        nan[2].dist = f32::NAN;
        assert!(check_result(&nan, 3, &q, row_of).is_err());
    }

    #[test]
    fn rejects_an_id_deleted_before_the_search_was_sent() {
        let deletes = HashMap::from([(5u32, 100u64)]);
        let before = [SentSearch { sent_ns: 90, ids: &[5, 6] }];
        assert_eq!(check_no_stale_ids(&before, &deletes), Ok(()), "concurrent delete may race");
        let after = [SentSearch { sent_ns: 101, ids: &[6, 5] }];
        assert!(check_no_stale_ids(&after, &deletes).unwrap_err().contains("id 5"));
    }

    #[test]
    fn rejects_reused_insert_ids() {
        assert_eq!(check_insert_ids(&[10, 11, 12], 10), Ok(()));
        assert!(check_insert_ids(&[10, 11, 10], 10).is_err());
        assert!(check_insert_ids(&[3], 10).is_err());
    }
}
