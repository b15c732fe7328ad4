//! Deterministic op schedules for the churn workload.
//!
//! The whole op sequence is fixed up front from the seed, so two
//! commits measured with one seed do exactly the same work. Op counts
//! per type are exact (the mix is shuffled, not sampled), and deletes
//! draw from the benchmark's own list of live base ids, so no delete
//! can target an id that is already gone.

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Search with query `i` of the query pool.
    Search(u32),
    /// Insert held-out vector `i`.
    Insert(u32),
    /// Delete the row with this external id.
    Delete(u32),
}

/// Op mix in percent (sums to 100).
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Share of searches.
    pub search: u32,
    /// Share of inserts.
    pub insert: u32,
    /// Share of deletes.
    pub delete: u32,
}

/// SplitMix64: a tiny seedable generator, so the schedule does not
/// depend on any library's RNG.
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Build `ops` operations with exactly `mix` proportions (rounded
/// down for inserts and deletes, searches take the rest), in a seeded
/// order. Searches pick uniformly from a pool of `pool` queries;
/// inserts take held-out vectors `0, 1, 2, ...` in order; deletes pick
/// uniformly from the base ids `0..base_n` that are still live.
///
/// # Panics
/// Panics if the mix does not sum to 100, the pool is empty, or there
/// are more deletes than base rows.
pub fn churn_schedule(seed: u64, ops: usize, mix: Mix, pool: u32, base_n: u32) -> Vec<Op> {
    assert_eq!(mix.search + mix.insert + mix.delete, 100, "mix must sum to 100");
    assert!(pool > 0, "empty query pool");
    let inserts = ops * mix.insert as usize / 100;
    let deletes = ops * mix.delete as usize / 100;
    assert!(deletes <= base_n as usize, "more deletes than base rows");
    let mut rng = Rng::new(seed ^ 0x0c4a_7e5c_4ed0_1e00);
    // Kinds: 0 = search, 1 = insert, 2 = delete; Fisher-Yates shuffle.
    let mut kinds: Vec<u8> = vec![0; ops];
    kinds[..inserts].fill(1);
    kinds[inserts..inserts + deletes].fill(2);
    for i in (1..ops).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        kinds.swap(i, j);
    }
    let mut live: Vec<u32> = (0..base_n).collect();
    let mut next_insert = 0u32;
    kinds
        .into_iter()
        .map(|kind| match kind {
            0 => Op::Search(rng.below(u64::from(pool)) as u32),
            1 => {
                next_insert += 1;
                Op::Insert(next_insert - 1)
            }
            _ => Op::Delete(live.swap_remove(rng.below(live.len() as u64) as usize)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix { search: 80, insert: 10, delete: 10 };

    #[test]
    fn same_seed_same_schedule_other_seed_other_order() {
        let a = churn_schedule(7, 500, MIX, 64, 1000);
        assert_eq!(a, churn_schedule(7, 500, MIX, 64, 1000));
        assert_ne!(a, churn_schedule(8, 500, MIX, 64, 1000));
    }

    #[test]
    fn exact_mix_unique_deletes_sequential_inserts() {
        let ops = churn_schedule(3, 1000, MIX, 64, 5000);
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, Op::Search(_))), 800);
        assert_eq!(count(|o| matches!(o, Op::Insert(_))), 100);
        assert_eq!(count(|o| matches!(o, Op::Delete(_))), 100);
        let mut deleted: Vec<u32> = ops
            .iter()
            .filter_map(|o| if let Op::Delete(id) = o { Some(*id) } else { None })
            .collect();
        assert!(deleted.iter().all(|&id| id < 5000));
        deleted.sort_unstable();
        deleted.dedup();
        assert_eq!(deleted.len(), 100, "a base id is deleted at most once");
        let inserts: Vec<u32> = ops
            .iter()
            .filter_map(|o| if let Op::Insert(i) = o { Some(*i) } else { None })
            .collect();
        assert_eq!(inserts, (0..100).collect::<Vec<_>>());
        assert!(ops.iter().all(|o| !matches!(o, Op::Search(q) if *q >= 64)));
    }
}
