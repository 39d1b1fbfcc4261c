//! Causal message tracing: trace ids, carried trace context, and
//! deterministic hash-based sampling.
//!
//! A *trace* follows one message end to end through the pipeline the paper's
//! dependability argument cares about — admission, clustering, relay,
//! delivery — as a chain of `causal.*` events sharing a [`TraceId`]:
//!
//! * `causal.origin` — the message entered the system (fields: `trace`,
//!   `packet`, `src`, `dst`);
//! * `causal.hop` — a relay accepted a copy (fields: `trace`, `hop`, `from`,
//!   `to`, `latency_us`). The parent link is implicit: hop `k`'s parent is
//!   the hop `k-1` (or the origin) whose `to` equals this event's `from`;
//! * `causal.deliver` — the destination was reached (fields: `trace`,
//!   `hops`, `relay`, `dst`, `e2e_s`);
//! * `causal.drop` — a copy died undeliverable (holder went offline;
//!   fields: `trace`, `hop`, `holder`).
//!
//! Tracing every message at fleet scale would dominate the run (Kargl et
//! al.: per-message overheads are *the* cost of secure VANETs), so traces
//! are **sampled**: the [`Sampler`] hashes the scenario seed with the
//! message's canonical id and keeps one in `N`. Because the decision is a
//! pure function of `(seed, id)` — never of wall-clock or thread — the
//! sampled set is reproducible across runs, so sampled traces byte-compare
//! exactly like unsampled ones.
//!
//! A `NetSim` samples nothing unless given a [`Sampler`]. E8 traces every
//! message ([`SampleRate::ALL`]); the events reach a trace only when a
//! recorder is attached. In-process sweeps pass other rates (the
//! `netsim/10_rounds_150v_traced/*` rows of `benches/obs.rs` time a traced
//! routing run at each rate).

/// Identifies one causal trace (one sampled message followed end to end).
///
/// Derived deterministically from the sampling hash, so the same scenario
/// seed and message id always yield the same trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw id (stable across runs; fits in 52 bits so
    /// it round-trips losslessly through the f64-backed JSON writer).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer: the avalanche mix behind sampling decisions and
/// trace-id derivation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// How many messages to trace: off, every message, or one in `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRate {
    /// 0 = off, 1 = every message, N = one in N (hash-selected).
    denom: u64,
}

impl SampleRate {
    /// Trace nothing (the default; causal tracing is provably inert here).
    pub const OFF: SampleRate = SampleRate { denom: 0 };
    /// Trace every message.
    pub const ALL: SampleRate = SampleRate { denom: 1 };

    /// Trace one message in `n` (`0` is [`SampleRate::OFF`], `1` is
    /// [`SampleRate::ALL`]).
    pub fn one_in(n: u64) -> SampleRate {
        SampleRate { denom: n }
    }
}

/// The deterministic sampling decision: seeded from the scenario seed so
/// the set of traced messages is reproducible.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    seed: u64,
    rate: SampleRate,
}

impl Sampler {
    /// A sampler with an explicit rate (in-process sweeps, tests).
    pub fn new(seed: u64, rate: SampleRate) -> Sampler {
        Sampler { seed, rate }
    }

    /// The configured rate.
    pub fn rate(&self) -> SampleRate {
        self.rate
    }

    /// Decides whether the message with canonical id `key` is traced, and
    /// if so returns its [`TraceId`]. Pure function of `(seed, rate, key)`.
    pub fn decide(&self, key: u64) -> Option<TraceId> {
        if self.rate.denom == 0 {
            return None;
        }
        let h = mix64(self.seed.rotate_left(32) ^ mix64(key));
        // Trace ids keep the top 52 bits (low bit forced nonzero) so they
        // are exactly representable as f64 and survive the JSON writer's
        // number type byte-for-byte.
        h.is_multiple_of(self.rate.denom).then_some(TraceId((h >> 12) | 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_in_zero_and_one_are_off_and_all() {
        assert_eq!(SampleRate::one_in(0), SampleRate::OFF);
        assert_eq!(SampleRate::one_in(1), SampleRate::ALL);
    }

    #[test]
    fn off_samples_nothing_all_samples_everything() {
        let off = Sampler::new(42, SampleRate::OFF);
        let all = Sampler::new(42, SampleRate::ALL);
        for key in 0..200 {
            assert_eq!(off.decide(key), None);
            assert!(all.decide(key).is_some());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = Sampler::new(7, SampleRate::one_in(4));
        let b = Sampler::new(7, SampleRate::one_in(4));
        let c = Sampler::new(8, SampleRate::one_in(4));
        let picks_a: Vec<_> = (0..512).filter_map(|k| a.decide(k).map(|t| (k, t))).collect();
        let picks_b: Vec<_> = (0..512).filter_map(|k| b.decide(k).map(|t| (k, t))).collect();
        let picks_c: Vec<_> = (0..512).filter_map(|k| c.decide(k).map(|t| (k, t))).collect();
        assert_eq!(picks_a, picks_b, "same seed must pick the same messages");
        assert_ne!(picks_a, picks_c, "different seeds must pick differently");
    }

    #[test]
    fn one_in_n_hits_roughly_one_in_n() {
        let s = Sampler::new(3, SampleRate::one_in(10));
        let hits = (0..10_000).filter(|&k| s.decide(k).is_some()).count();
        assert!((700..1300).contains(&hits), "1/10 sampling hit {hits}/10000");
    }

    #[test]
    fn trace_ids_are_distinct_per_key() {
        let s = Sampler::new(5, SampleRate::ALL);
        let mut ids: Vec<u64> = (0..4096).map(|k| s.decide(k).unwrap().as_u64()).collect();
        assert!(ids.iter().all(|&id| id < (1 << 53)), "trace ids must be f64-exact");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4096, "trace ids collided");
    }
}
