//! E14 — routing under urban-canyon obstruction (extension; §IV-A.1's
//! street-centric/IDVR family).
//!
//! With buildings blocking through-block links, crow-flies greedy
//! forwarding keeps attempting dead links while street-aware forwarding
//! routes intersection to intersection. Same metrics as E8, canyon on.

use crate::table::{f1, f3, pct, Table};
use vc_net::prelude::*;
use vc_sim::prelude::*;

fn run_protocol<P: RoutingProtocol>(
    seed: u64,
    vehicles: usize,
    packets: usize,
    rounds: usize,
    protocol: P,
) -> RoutingStats {
    let mut builder = ScenarioBuilder::new();
    builder.seed(seed).vehicles(vehicles);
    let mut scenario = builder.urban_canyon();
    let mut sim = NetSim::new(&mut scenario, protocol);
    sim.send_random_pairs(packets, 256, None);
    sim.run_rounds(rounds);
    sim.into_stats()
}

/// Runs E14.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut vc_obs::Recorder>) -> Table {
    let densities: &[usize] = if quick { &[40] } else { &[40, 80, 120] };
    let packets = if quick { 15 } else { 40 };
    let rounds = if quick { 150 } else { 300 };

    let mut table = Table::new(
        "E14",
        "routing under urban-canyon obstruction",
        "§IV-A.1 street-centric routing family (IDVR/CBLTR) + canyon radio",
        &["vehicles", "protocol", "delivery", "mean delay s", "mean hops", "tx per delivery"],
    );

    let roadnet = {
        let mut b = ScenarioBuilder::new();
        b.seed(seed).vehicles(1);
        b.urban_canyon().roadnet
    };

    for &n in densities {
        let runs: Vec<(&str, RoutingStats)> = vec![
            ("epidemic", run_protocol(seed, n, packets, rounds, Epidemic)),
            ("greedy-geo", run_protocol(seed, n, packets, rounds, GreedyGeo)),
            (
                "street-aware",
                run_protocol(seed, n, packets, rounds, StreetAware::new(roadnet.clone())),
            ),
            ("mozo", run_protocol(seed, n, packets, rounds, MozoRouting::new())),
        ];
        for (name, stats) in runs {
            table.row(vec![
                n.to_string(),
                name.to_owned(),
                pct(stats.delivery_ratio()),
                f3(stats.mean_latency_s()),
                f1(stats.mean_hops()),
                f1(stats.overhead_per_delivery()),
            ]);
        }
    }
    table.note("expected shape: through-block links fail ~85% of attempts, so greedy wastes transmissions on crow-flies relays; street-aware makes street-following hops (fewer wasted tx per delivery, better delay); epidemic brute-forces through at its usual overhead");
    table
}
