//! E9 — trustworthiness validators vs attacker fraction (paper §III-D,
//! §V-D).
//!
//! Sweeps the liar fraction and reports each validator's decision accuracy,
//! plus the classifier's event-separation accuracy. The evaluation latency
//! the paper's "stringent time constraints" bound is `vcbench`'s
//! `trust.validate_us`.

use crate::table::{pct, Table};
use vc_sim::prelude::*;
use vc_trust::prelude::*;

fn make_reports(
    truth: bool,
    honest: usize,
    liars: usize,
    colluding: bool,
    reputation_warm: bool,
    reputation: &mut ReputationStore,
    rng: &mut SimRng,
) -> Vec<Report> {
    let mut reports = Vec::new();
    for r in 0..honest as u64 {
        let claim = if rng.chance(0.05) { !truth } else { truth };
        reports.push(Report {
            reporter: r,
            kind: EventKind::Ice,
            location: Point::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0)),
            observed_at: SimTime::from_secs(10),
            claim,
            reporter_pos: Point::new(rng.range_f64(-50.0, 50.0), rng.range_f64(-50.0, 50.0)),
            reporter_speed: rng.range_f64(5.0, 25.0),
            path: vec![VehicleId(r as u32), VehicleId(100 + (r % 5) as u32)],
        });
        if reputation_warm && reputation.evidence(r) == 0.0 {
            for _ in 0..4 {
                reputation.record(r, true);
            }
        }
    }
    let shared_path = vec![VehicleId(666), VehicleId(667)];
    for l in 0..liars as u64 {
        reports.push(Report {
            reporter: 1000 + l,
            kind: EventKind::Ice,
            location: Point::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0)),
            observed_at: SimTime::from_secs(10),
            claim: !truth,
            reporter_pos: Point::new(rng.range_f64(-50.0, 50.0), rng.range_f64(-50.0, 50.0)),
            reporter_speed: rng.range_f64(5.0, 25.0),
            path: if colluding { shared_path.clone() } else { vec![VehicleId(1000 + l as u32)] },
        });
        if reputation_warm && reputation.evidence(1000 + l) == 0.0 {
            for _ in 0..4 {
                reputation.record(1000 + l, false);
            }
        }
    }
    reports
}

/// Runs E9.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut vc_obs::Recorder>) -> Table {
    let trials = if quick { 100 } else { 400 };
    let honest = 10;

    let mut table = Table::new(
        "E9",
        "trust validators vs attacker fraction",
        "§III-D / §V-D (message classification and content validation)",
        &[
            "liar fraction",
            "collusion",
            "majority",
            "weighted",
            "bayesian (warm)",
            "dempster-shafer (warm)",
        ],
    );

    let mut rng = SimRng::seed_from(seed);
    for liar_fraction in [0.1, 0.3, 0.5, 0.6, 0.7] {
        for colluding in [false, true] {
            let liars = ((honest as f64 * liar_fraction) / (1.0 - liar_fraction)).round() as usize;
            let mut correct = [0usize; 4];
            for t in 0..trials {
                let truth = t % 2 == 0;
                let mut reputation = ReputationStore::new();
                let reports =
                    make_reports(truth, honest, liars, colluding, true, &mut reputation, &mut rng);
                let cluster = EventCluster { reports };
                let cold = ReputationStore::new();
                let decisions = [
                    MajorityVote.decide(&cluster, &cold),
                    WeightedVote.decide(&cluster, &cold),
                    Bayesian.decide(&cluster, &reputation),
                    DempsterShafer.decide(&cluster, &reputation),
                ];
                for (i, d) in decisions.iter().enumerate() {
                    if *d == truth {
                        correct[i] += 1;
                    }
                }
            }
            table.row(vec![
                pct(liar_fraction),
                if colluding { "shared path".into() } else { "independent".into() },
                pct(correct[0] as f64 / trials as f64),
                pct(correct[1] as f64 / trials as f64),
                pct(correct[2] as f64 / trials as f64),
                pct(correct[3] as f64 / trials as f64),
            ]);
        }
    }

    // Classifier accuracy: k well-separated events must yield k clusters.
    let mut cluster_ok = 0usize;
    let class_trials = if quick { 50 } else { 200 };
    for _ in 0..class_trials {
        let k = 1 + rng.index(4);
        let mut reports = Vec::new();
        for e in 0..k {
            let center = Point::new(e as f64 * 1000.0, 0.0);
            for r in 0..5u64 {
                reports.push(Report {
                    reporter: e as u64 * 10 + r,
                    kind: EventKind::Accident,
                    location: center
                        + Point::new(rng.range_f64(-30.0, 30.0), rng.range_f64(-30.0, 30.0)),
                    observed_at: SimTime::from_secs(10 + r),
                    claim: true,
                    reporter_pos: center,
                    reporter_speed: 10.0,
                    path: vec![VehicleId(r as u32)],
                });
            }
        }
        let clusters = classify(&reports, &ClassifierConfig::default());
        if clusters.len() == k {
            cluster_ok += 1;
        }
    }

    table.note(format!(
        "classifier separated k events into exactly k clusters in {} of runs",
        pct(cluster_ok as f64 / class_trials as f64)
    ));
    table.note("trust evaluation time is measured where it runs, as vcbench cloud-pipeline's trust.validate_us (per validated report)");
    table.note("expected shape: majority collapses past 50% liars; weighted resists collusive (shared-path) majorities; warm bayesian/D-S stay accurate until liars dominate reputation evidence too");
    table
}
