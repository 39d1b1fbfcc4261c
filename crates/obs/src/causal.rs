//! Causal message tracing: trace ids, carried trace context, and the
//! [`Sampler`] that turns tracing on for a run.
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
//! al.: per-message overheads are *the* cost of secure VANETs), so tracing
//! is an on/off switch per run: a `NetSim` traces nothing until it is given
//! a [`Sampler`], and then traces every message. A trace id hashes the
//! scenario seed with the message's canonical id, a pure function of
//! `(seed, id)` — never of wall-clock or thread — so traces byte-compare
//! across runs.
//!
//! E8 turns tracing on; the events reach a trace only when a recorder is
//! attached. The `netsim/10_rounds_150v_traced/{off,all}` rows of
//! `benches/obs.rs` time a routing run both ways.

/// Identifies one causal trace (one message followed end to end).
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

/// SplitMix64 finalizer: the avalanche mix behind trace-id derivation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Turns causal tracing on: every message is traced, under a trace id
/// seeded from the scenario seed.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    seed: u64,
}

impl Sampler {
    /// Traces every message, with trace ids seeded from `seed`.
    pub fn new(seed: u64) -> Sampler {
        Sampler { seed }
    }

    /// The [`TraceId`] of the message with canonical id `key`: a pure
    /// function of `(seed, key)`.
    pub fn trace_id(&self, key: u64) -> TraceId {
        let h = mix64(self.seed.rotate_left(32) ^ mix64(key));
        // Trace ids keep the top 52 bits (low bit forced nonzero) so they
        // are exactly representable as f64 and survive the JSON writer's
        // number type byte-for-byte.
        TraceId((h >> 12) | 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_seed_sensitive() {
        let ids = |seed| (0..512).map(|k| Sampler::new(seed).trace_id(k)).collect::<Vec<_>>();
        assert_eq!(ids(7), ids(7), "same seed must give the same ids");
        assert_ne!(ids(7), ids(8), "different seeds must give different ids");
    }

    #[test]
    fn trace_ids_are_distinct_per_key() {
        let s = Sampler::new(5);
        let mut ids: Vec<u64> = (0..4096).map(|k| s.trace_id(k).as_u64()).collect();
        assert!(ids.iter().all(|&id| id < (1 << 53)), "trace ids must be f64-exact");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4096, "trace ids collided");
    }
}
