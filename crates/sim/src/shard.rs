//! Shard planning for the parallel per-tick hot loops.
//!
//! The simulator's tick-rate work (vehicle kinematics, radio delivery) fans
//! out over worker threads in contiguous index-range shards. Determinism is preserved by construction: every item owns its RNG
//! stream (a persistent per-vehicle fork or a [`SimRng::stream`] derived from
//! a per-round key and the item's canonical index), threads are pure workers,
//! and shard results are merged back in canonical index order. The shard
//! count therefore changes wall-clock only, never results — the CI
//! determinism matrix compares `VC_SHARDS=1/2/8` byte-for-byte.
//!
//! `VC_SHARDS=N` overrides the default (available parallelism); `VC_SHARDS=1`
//! is the sequential escape hatch.
//!
//! [`SimRng::stream`]: crate::rng::SimRng::stream

use std::ops::Range;
use std::sync::OnceLock;

/// Below this many items per shard, fanning out costs more than it saves:
/// the planner collapses to fewer shards (possibly one, which runs inline).
pub const MIN_ITEMS_PER_SHARD: usize = 512;

/// The configured shard count: `VC_SHARDS` when set (parse failures and 0
/// fall back to 1), otherwise [`std::thread::available_parallelism`].
///
/// Read once per process; set the environment variable before first use.
pub fn shard_count() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| match std::env::var("VC_SHARDS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

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

/// Evaluates `f` over each planned range of `0..items`, fanning out across
/// threads when the plan has more than one shard, and returns the per-shard
/// results in canonical range order.
///
/// `f` must be a pure function of its range (plus captured shared state):
/// the caller's results must not depend on which thread ran which range.
pub fn map_shards<T, F>(items: usize, shards: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if items == 0 {
        return Vec::new();
    }
    if ShardPlan::effective(items, shards) <= 1 {
        return vec![f(0..items)];
    }
    let plan = ShardPlan::new(items, shards);
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan.ranges().iter().map(|r| scope.spawn(|| f(r.clone()))).collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    })
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

    #[test]
    fn map_shards_preserves_canonical_order() {
        // Results concatenate to the identity regardless of shard count.
        let items = 3000;
        let sequential: Vec<usize> = (0..items).collect();
        for shards in [1usize, 2, 3, 8] {
            let mapped: Vec<usize> = map_shards(items, shards, |r| r.collect::<Vec<_>>())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(mapped, sequential, "order broke at {shards} shards");
        }
    }

    #[test]
    fn shard_count_is_at_least_one() {
        assert!(shard_count() >= 1);
    }
}
