//! E17 — causal-tracing overhead and provable inertness (extension; paper
//! §IV-B overhead concern: per-message security/observability machinery is
//! *the* cost driver at fleet scale).
//!
//! Sweeps the fleet size and the `VC_TRACE_SAMPLE` rate (off, 1/100, 1/10,
//! every message) over a routing workload and measures the wall-clock
//! overhead of causal tracing against an uninstrumented baseline. Two
//! hard assertions ride along:
//!
//! * **determinism** — every rate produces bitwise-identical routing
//!   statistics (sampling is a pure hash, never an RNG draw);
//! * **inertness** — at rate 0 the recorder's serialized trace is
//!   byte-identical to a run with no sampler configured at all, and zero
//!   `causal.*` events exist: rate 0 is provably free of causal residue.
//!
//! Wall-clock columns are host measurements and excluded from every
//! byte-compare; the stats fingerprint is deterministic and asserted
//! identical across every rate.

use crate::table::{f1, f3, Table};
use std::time::Instant;
use vc_net::netsim::NetSim;
use vc_net::routing::GreedyGeo;
use vc_obs::{reborrow, Recorder, SampleRate, Sampler};
use vc_sim::prelude::*;

/// Bitwise fingerprint of a run's routing statistics: equal fingerprints
/// across sample rates are E17's determinism evidence.
type Fingerprint = (u64, u64, u64, Vec<u32>, Vec<u64>);

/// A city sized to the fleet (~120 vehicles/km²) so radio degree — and
/// with it per-round cost — stays flat while `n` scales 10k → 100k. The
/// road graph is capped at 64×64 intersections with the block size widened
/// to cover the same area: waypoint pathfinding is O(graph) per vehicle,
/// so an uncapped graph would make *scenario construction* quadratic in
/// the fleet size and drown the routing loop this experiment times.
fn city(seed: u64, n: usize) -> Scenario {
    let mut rng = SimRng::seed_from(seed);
    let side_m = (n as f64 / 120.0).sqrt().max(0.5) * 1000.0;
    let cells = ((side_m / 120.0).ceil() as usize).clamp(2, 64);
    let roadnet = RoadNetwork::grid(cells, cells, side_m / cells as f64, 13.9);
    let fleet = Fleet::urban(&roadnet, n, &mut rng);
    Scenario {
        regime: Regime::InfrastructureBased,
        roadnet,
        fleet,
        channel: Channel::dsrc(),
        rsus: RsuNetwork::new(),
        cellular: Cellular::healthy(),
        canyon: None,
        seed,
        rng,
        dt: 0.5,
        shards: 1,
    }
}

/// One routing run: `n/10` packets under GreedyGeo over a clone of `base`
/// (construction is hoisted out so the timer sees only the routing loop).
/// `sampler` overrides the environment-default sampler; `rec` attaches
/// instrumentation. Returns the stats fingerprint and the wall seconds of
/// the routing loop.
fn run_once(
    base: &Scenario,
    rounds: usize,
    sampler: Option<Sampler>,
    mut rec: Option<&mut Recorder>,
) -> (Fingerprint, f64) {
    let packets = base.fleet.len() / 10;
    let mut scenario = base.clone();
    let mut sim = NetSim::new(&mut scenario, GreedyGeo);
    if let Some(sampler) = sampler {
        sim.set_sampler(sampler);
    }
    let start = Instant::now();
    sim.send_random_pairs(packets, 128, reborrow(&mut rec));
    sim.run_rounds_obs(rounds, rec);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let s = sim.into_stats();
    let lat_bits: Vec<u64> = s.latencies_s.iter().map(|l| l.to_bits()).collect();
    ((s.sent, s.delivered, s.transmissions, s.hops, lat_bits), secs)
}

/// Total `causal.*` events a recorder saw.
fn causal_events(rec: &Recorder) -> u64 {
    ["origin", "hop", "deliver", "drop"]
        .iter()
        .map(|k| rec.hub().counter(&format!("net.causal.{k}")))
        .sum()
}

/// Runs E17.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut Recorder>) -> Table {
    let sizes: &[usize] = if quick { &[1_000, 3_000] } else { &[10_000, 100_000] };
    let rounds = 8;
    let reps = if quick { 2 } else { 3 };
    let rates = [SampleRate::OFF, SampleRate::one_in(100), SampleRate::one_in(10), SampleRate::ALL];

    let mut table = Table::new(
        "E17",
        "causal tracing overhead by sample rate",
        "§IV-B (per-message overhead) / VC_TRACE_SAMPLE",
        &["vehicles", "rate", "rounds", "wall s", "overhead %", "causal events", "stats"],
    );

    for &n in sizes {
        let base = city(seed, n);
        // Uninstrumented baseline: no recorder, environment-default sampler
        // (VC_TRACE_SAMPLE unset in CI means off).
        let mut baseline_secs = f64::INFINITY;
        let mut baseline_fp: Option<Fingerprint> = None;
        for _ in 0..reps {
            let (fp, secs) = run_once(&base, rounds, None, None);
            baseline_secs = baseline_secs.min(secs);
            baseline_fp = Some(fp);
        }
        let baseline_fp = baseline_fp.expect("reps >= 1");
        table.row(vec![
            n.to_string(),
            "untraced".into(),
            rounds.to_string(),
            f3(baseline_secs),
            f1(0.0),
            "0".into(),
            "baseline".into(),
        ]);

        // Inertness: a rate-0 sampler must leave the trace byte-identical
        // to a recorder-attached run with no sampler override at all.
        let trace_bytes = |sampler: Option<Sampler>| {
            let mut rec = Recorder::new();
            let (fp, _) = run_once(&base, rounds, sampler, Some(&mut rec));
            assert_eq!(fp, baseline_fp, "instrumentation perturbed the run at {n} vehicles");
            let mut out = Vec::new();
            rec.write_jsonl(&mut out).expect("serialize trace");
            (out, causal_events(&rec))
        };
        let (default_trace, default_causal) = trace_bytes(None);
        let (off_trace, off_causal) = trace_bytes(Some(Sampler::new(seed, SampleRate::OFF)));
        assert_eq!(
            off_trace, default_trace,
            "rate-0 trace must be byte-identical to an unsampled run at {n} vehicles"
        );
        assert_eq!(off_causal, 0, "rate 0 must emit zero causal events");
        assert_eq!(default_causal, 0, "default (env off) must emit zero causal events");

        for rate in rates {
            let mut secs = f64::INFINITY;
            let mut events = 0u64;
            for _ in 0..reps {
                let mut rec = Recorder::new();
                let (fp, s) =
                    run_once(&base, rounds, Some(Sampler::new(seed, rate)), Some(&mut rec));
                assert_eq!(fp, baseline_fp, "rate {rate} perturbed the run at {n} vehicles");
                secs = secs.min(s);
                events = causal_events(&rec);
            }
            table.row(vec![
                n.to_string(),
                rate.to_string(),
                rounds.to_string(),
                f3(secs),
                f1((secs / baseline_secs - 1.0) * 100.0),
                events.to_string(),
                "bitwise".into(),
            ]);
        }
    }
    table.note(
        "wall-clock and overhead columns are host measurements (excluded from every \
         byte-compare); the stats fingerprint is asserted bitwise-identical across \
         every rate, and the rate-0 serialized trace is asserted byte-identical to a run with \
         no sampler configured — causal tracing off is provably inert",
    );
    table
}
