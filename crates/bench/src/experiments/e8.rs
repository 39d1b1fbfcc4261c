//! E8 — routing protocol comparison across vehicle density (paper §IV-A.1).
//!
//! The survey's claim that clustering/zoning "improve the performance of
//! message routing in VANETs": epidemic (delivery upper bound, overhead
//! worst case), greedy geographic, cluster-backbone, and moving-zone
//! routing over the same traffic.

use crate::table::{f1, f3, pct, Table};
use vc_net::prelude::*;
use vc_sim::prelude::*;

fn run_protocol<P: RoutingProtocol>(
    seed: u64,
    vehicles: usize,
    packets: usize,
    rounds: usize,
    protocol: P,
    mut rec: Option<&mut vc_obs::Recorder>,
) -> RoutingStats {
    let mut builder = ScenarioBuilder::new();
    builder.seed(seed).vehicles(vehicles);
    let mut scenario = builder.urban_with_rsus();
    let mut sim = NetSim::new(&mut scenario, protocol);
    // With a recorder attached, packets the sampler selects at the
    // VC_TRACE_SAMPLE rate open causal chains.
    sim.set_sampler(vc_obs::Sampler::from_env(seed));
    sim.send_random_pairs(packets, 256, vc_obs::reborrow(&mut rec));
    sim.run_rounds_obs(rounds, rec);
    sim.into_stats()
}

/// Runs E8.
pub fn run(quick: bool, seed: u64, mut rec: Option<&mut vc_obs::Recorder>) -> Table {
    let densities: &[usize] = if quick { &[30, 60] } else { &[12, 30, 60, 120] };
    let packets = if quick { 15 } else { 40 };
    let rounds = if quick { 120 } else { 240 };

    let mut table = Table::new(
        "E8",
        "routing protocols across density",
        "§IV-A.1 (cluster/zone routing vs flooding and greedy-geographic)",
        &["vehicles", "protocol", "delivery", "mean delay s", "mean hops", "tx per delivery"],
    );

    for &n in densities {
        let runs: Vec<(&str, RoutingStats)> = vec![
            (
                "epidemic",
                run_protocol(seed, n, packets, rounds, Epidemic, vc_obs::reborrow(&mut rec)),
            ),
            (
                "greedy-geo",
                run_protocol(seed, n, packets, rounds, GreedyGeo, vc_obs::reborrow(&mut rec)),
            ),
            (
                "cluster",
                run_protocol(
                    seed,
                    n,
                    packets,
                    rounds,
                    ClusterRouting::new(),
                    vc_obs::reborrow(&mut rec),
                ),
            ),
            (
                "mozo",
                run_protocol(
                    seed,
                    n,
                    packets,
                    rounds,
                    MozoRouting::new(),
                    vc_obs::reborrow(&mut rec),
                ),
            ),
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
    // Ablation (DESIGN.md §5): cluster-head election score weights. Same
    // cluster routing, three weightings, plus head-churn measured directly.
    let ablation_n = if quick { 40 } else { 60 };
    for (label, w_degree, w_stability) in [
        ("cluster w=degree-only", 1.0, 0.0),
        ("cluster w=stability-only", 0.0, 2.0),
        ("cluster w=mixed", 1.0, 1.0),
    ] {
        let cfg = vc_net::cluster::ClusterConfig {
            max_hops: 2,
            weight_degree: w_degree,
            weight_stability: w_stability,
            velocity_similarity: None,
        };
        let stats = run_protocol(
            seed,
            ablation_n,
            packets,
            rounds,
            ClusterRouting::with_config(cfg.clone()),
            vc_obs::reborrow(&mut rec),
        );
        // Head churn under the same weighting, measured over mobility.
        let churn = {
            let mut builder = ScenarioBuilder::new();
            builder.seed(seed).vehicles(ablation_n);
            let mut scenario = builder.urban_with_rsus();
            let mut prev: Option<vc_net::cluster::Clustering> = None;
            let mut total = 0.0;
            let snapshots = 20;
            for _ in 0..snapshots {
                scenario.run_ticks(4);
                let nbr = scenario.neighbor_table();
                let world = WorldView {
                    positions: scenario.fleet.positions(),
                    velocities: scenario.fleet.velocities(),
                    online: scenario.fleet.online_flags(),
                    neighbors: &nbr,
                };
                let clustering = vc_net::cluster::form_clusters(&world, &cfg);
                if let Some(p) = &prev {
                    total += vc_net::cluster::head_churn(p, &clustering, ablation_n);
                }
                prev = Some(clustering);
            }
            total / (snapshots - 1) as f64
        };
        table.row(vec![
            ablation_n.to_string(),
            format!("{label} (churn {:.2})", churn),
            pct(stats.delivery_ratio()),
            f3(stats.mean_latency_s()),
            f1(stats.mean_hops()),
            f1(stats.overhead_per_delivery()),
        ]);
    }
    table.note("expected shape: epidemic tops delivery at an order-of-magnitude overhead; greedy stalls in sparse regimes; cluster/mozo approach epidemic's delivery at near-greedy overhead, with mozo best under high mobility");
    table.note("ablation: head churn (in parentheses) is weight-sensitive but no weighting dominates across regimes — in urban traffic the velocity spread is small, so degree and stability scores pick similar heads; routing metrics stay within a few percent of each other (the moving-zone split only pays off on highways, cf. the zone-stability integration test)");
    table
}
