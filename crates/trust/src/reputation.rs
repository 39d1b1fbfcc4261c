//! Beta-distribution reputation, the classical baseline (paper §IV-D).
//!
//! Each (pseudonymous) reporter accumulates confirmed-good and
//! confirmed-bad outcomes; its reliability estimate is the Beta posterior
//! mean `(good + 1) / (good + bad + 2)`. The paper's critique — reputation
//! "is established over a period of time and a relatively stable network,
//! and neither of these exists in VANETs" — shows up in E9 as cold-start
//! weakness: short encounters mean most reporters sit near the 0.5 prior.

use std::collections::BTreeMap;

/// A reputation ledger keyed by pseudonymous reporter id.
#[derive(Debug, Clone, Default)]
pub struct ReputationStore {
    entries: BTreeMap<u64, (f64, f64)>, // (good, bad)
}

impl ReputationStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ReputationStore { entries: BTreeMap::new() }
    }

    /// Records a confirmed outcome for a reporter.
    pub fn record(&mut self, reporter: u64, was_correct: bool) {
        let e = self.entries.entry(reporter).or_insert((0.0, 0.0));
        if was_correct {
            e.0 += 1.0;
        } else {
            e.1 += 1.0;
        }
    }

    /// Reliability estimate in `(0, 1)`: the Beta posterior mean. Unknown
    /// reporters get the uninformative prior 0.5.
    pub fn reliability(&self, reporter: u64) -> f64 {
        match self.entries.get(&reporter) {
            Some(&(good, bad)) => (good + 1.0) / (good + bad + 2.0),
            None => 0.5,
        }
    }

    /// Evidence mass behind the estimate (0 for unknown reporters).
    pub fn evidence(&self, reporter: u64) -> f64 {
        self.entries.get(&reporter).map_or(0.0, |&(g, b)| g + b)
    }

    /// Number of reporters tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no reporter has history.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_reporter_is_neutral() {
        let store = ReputationStore::new();
        assert_eq!(store.reliability(42), 0.5);
        assert_eq!(store.evidence(42), 0.0);
    }

    #[test]
    fn good_history_raises_reliability() {
        let mut store = ReputationStore::new();
        for _ in 0..8 {
            store.record(1, true);
        }
        assert!((store.reliability(1) - 0.9).abs() < 1e-12); // (8+1)/(8+2)
        assert_eq!(store.evidence(1), 8.0);
    }

    #[test]
    fn bad_history_lowers_reliability() {
        let mut store = ReputationStore::new();
        for _ in 0..8 {
            store.record(2, false);
        }
        assert!((store.reliability(2) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mixed_history_balances() {
        let mut store = ReputationStore::new();
        store.record(3, true);
        store.record(3, false);
        assert_eq!(store.reliability(3), 0.5);
    }

    #[test]
    fn reliability_stays_in_open_interval() {
        let mut store = ReputationStore::new();
        for _ in 0..10_000 {
            store.record(5, true);
        }
        let r = store.reliability(5);
        assert!(r > 0.0 && r < 1.0);
    }
}
