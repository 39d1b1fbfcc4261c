//! Shard planning for [`Fleet::step_sharded`], the one kernel that can
//! fan out over worker threads.
//!
//! A caller that passes a shard count above 1 gets the mobility step split
//! into contiguous index ranges, one scoped thread each. Every vehicle owns
//! its RNG stream and writes only its own slots, so the partition is
//! invisible: the shard count changes wall-clock only, never results.
//! Everything else in the simulator — and every preset — is sequential.
//!
//! [`Fleet::step_sharded`]: crate::mobility::Fleet::step_sharded

use std::ops::Range;

/// Below this many items per shard, fanning out costs more than it saves:
/// the planner collapses to fewer shards (possibly one, which runs inline).
pub const MIN_ITEMS_PER_SHARD: usize = 512;

/// A partition of `0..items` into contiguous, near-equal index ranges.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Plans at most `shards` contiguous ranges over `0..items`, collapsing
    /// to fewer when shards would fall under [`MIN_ITEMS_PER_SHARD`] items.
    /// Zero items yields an empty plan; the requested count is clamped to 1+.
    pub fn new(items: usize, shards: usize) -> ShardPlan {
        if items == 0 {
            return ShardPlan { ranges: Vec::new() };
        }
        let n = ShardPlan::effective(items, shards);
        let base = items / n;
        let extra = items % n;
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let len = base + usize::from(i < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ShardPlan { ranges }
    }

    /// The shard count [`ShardPlan::new`] would actually plan for this
    /// input, computed without allocating. Hot per-tick loops check this
    /// first and skip plan construction entirely when the work collapses to
    /// one inline range — that is what keeps their steady state
    /// allocation-free (asserted by the `memcheck` tests).
    pub fn effective(items: usize, shards: usize) -> usize {
        if items == 0 {
            return 0;
        }
        let by_size = items.div_ceil(MIN_ITEMS_PER_SHARD);
        shards.max(1).min(by_size.max(1)).min(items)
    }

    /// Number of planned shards.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` when the plan covers no items.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The planned ranges, in canonical (index) order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_all_items_contiguously() {
        for items in [0usize, 1, 5, 511, 512, 513, 4096, 10_000] {
            for shards in [1usize, 2, 3, 8, 64] {
                let plan = ShardPlan::new(items, shards);
                let mut next = 0;
                for r in plan.ranges() {
                    assert_eq!(r.start, next, "gap at {items}/{shards}");
                    assert!(!r.is_empty(), "empty shard at {items}/{shards}");
                    next = r.end;
                }
                assert_eq!(next, items, "items dropped at {items}/{shards}");
                assert!(plan.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn small_inputs_collapse_to_one_shard() {
        assert_eq!(ShardPlan::new(100, 8).len(), 1);
        assert_eq!(ShardPlan::new(MIN_ITEMS_PER_SHARD, 8).len(), 1);
        assert!(ShardPlan::new(MIN_ITEMS_PER_SHARD * 4, 8).len() > 1);
        assert!(ShardPlan::new(0, 8).is_empty());
    }
}
