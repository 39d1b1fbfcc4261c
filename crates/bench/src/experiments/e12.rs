//! E12 — verifiable computing through redundant execution (extension;
//! paper §IV-D's PTVC citation \[10\]: "the user can verify the correctness
//! of computation results").
//!
//! Sweeps the cheating-host fraction against the redundancy factor `r`:
//! undetected-wrong-result rate, detection rate, and the compute overhead
//! paid for verification.

use crate::table::{f1, pct, Table};
use std::collections::BTreeMap;
use vc_cloud::verify::{adjudicate, honest_digest, Adjudication, ResultReceipt};
use vc_crypto::schnorr::SigningKey;
use vc_sim::node::VehicleId;
use vc_sim::rng::SimRng;
use vc_sim::time::SimTime;

/// Runs E12.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut vc_obs::Recorder>) -> Table {
    let jobs = if quick { 100 } else { 400 };
    let pool = 30usize;

    let mut table = Table::new(
        "E12",
        "verifiable computing via redundant execution",
        "§IV-D [10] PTVC (verifiable vehicular cloud computing)",
        &[
            "cheater fraction",
            "redundancy r",
            "wrong result accepted",
            "inconclusive (re-run)",
            "cheaters flagged",
            "compute overhead",
        ],
    );

    let keys: Vec<SigningKey> =
        (0..pool).map(|i| SigningKey::from_seed(&[i as u8, 0xE1, 0x2C])).collect();
    let directory: BTreeMap<VehicleId, _> =
        keys.iter().enumerate().map(|(i, k)| (VehicleId(i as u32), k.verifying_key())).collect();

    let mut rng = SimRng::seed_from(seed);
    for cheater_fraction in [0.1, 0.2, 0.3] {
        // Exactly round(pool·f) cheaters, so the row label is the realized rate.
        let k = ((pool as f64) * cheater_fraction).round() as usize;
        let cheat_set = rng.sample_indices(pool, k);
        let mut cheaters = vec![false; pool];
        for c in cheat_set {
            cheaters[c] = true;
        }
        for r in [1usize, 3, 5] {
            let mut wrong = 0usize;
            let mut inconclusive = 0usize;
            let mut flagged = 0usize;
            let mut cheats_present = 0usize;
            for job in 0..jobs {
                let hosts = rng.sample_indices(pool, r);
                let receipts: Vec<ResultReceipt> = hosts
                    .iter()
                    .map(|&h| {
                        let payload: &[u8] = if cheaters[h] { b"forged" } else { b"correct" };
                        ResultReceipt::sign(
                            job as u64,
                            VehicleId(h as u32),
                            payload,
                            SimTime::from_secs(1),
                            &keys[h],
                        )
                    })
                    .collect();
                if hosts.iter().any(|&h| cheaters[h]) {
                    cheats_present += 1;
                }
                match adjudicate(&receipts, &directory) {
                    Adjudication::Accepted { result, dissenters } => {
                        if result != honest_digest(b"correct") {
                            wrong += 1;
                        }
                        flagged += dissenters.iter().filter(|d| cheaters[d.0 as usize]).count();
                    }
                    Adjudication::Inconclusive => inconclusive += 1,
                }
            }
            let _ = cheats_present;
            table.row(vec![
                pct(cheater_fraction),
                r.to_string(),
                pct(wrong as f64 / jobs as f64),
                pct(inconclusive as f64 / jobs as f64),
                flagged.to_string(),
                format!("{}x", f1(r as f64)),
            ]);
        }
    }
    table.note("expected shape: r=1 accepts every cheat it meets; r=3 accepts a wrong result only when 2 of 3 sampled hosts cheat; r=5 drives undetected errors toward zero — the linear compute overhead is the price of verifiability (PTVC's trade-off)");
    table
}
