//! Integration: routing protocols and clustering over live mobility.

use vcloud::net::prelude::*;
use vcloud::prelude::{ScenarioBuilder, VehicleId};

fn builder(seed: u64, n: usize) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new();
    b.seed(seed).vehicles(n);
    b
}

#[test]
fn epidemic_dominates_delivery_cluster_cuts_overhead() {
    let run = |proto: &str| -> RoutingStats {
        let mut scenario = builder(11, 60).urban_with_rsus();
        match proto {
            "epidemic" => {
                let mut sim = NetSim::new(&mut scenario, Epidemic);
                sim.send_random_pairs(25, 256, None);
                sim.run_rounds(150);
                sim.into_stats()
            }
            "cluster" => {
                let mut sim = NetSim::new(&mut scenario, ClusterRouting::new());
                sim.send_random_pairs(25, 256, None);
                sim.run_rounds(150);
                sim.into_stats()
            }
            _ => unreachable!(),
        }
    };
    let epidemic = run("epidemic");
    let cluster = run("cluster");
    assert!(epidemic.delivery_ratio() >= cluster.delivery_ratio() - 0.1);
    assert!(
        cluster.overhead_per_delivery() < epidemic.overhead_per_delivery() / 2.0,
        "cluster {} vs epidemic {} tx/delivery",
        cluster.overhead_per_delivery(),
        epidemic.overhead_per_delivery()
    );
}

#[test]
fn all_protocols_deliver_on_dense_urban() {
    let mut scenario = builder(12, 80).urban_with_rsus();
    let mut sim = NetSim::new(&mut scenario, MozoRouting::new());
    sim.send_random_pairs(20, 256, None);
    sim.run_rounds(150);
    assert!(sim.stats().delivery_ratio() > 0.7, "mozo ratio {}", sim.stats().delivery_ratio());

    let mut scenario = builder(12, 80).urban_with_rsus();
    let mut sim = NetSim::new(&mut scenario, GreedyGeo);
    sim.send_random_pairs(20, 256, None);
    sim.run_rounds(150);
    assert!(sim.stats().delivery_ratio() > 0.5, "greedy ratio {}", sim.stats().delivery_ratio());
}

#[test]
fn clusters_remain_valid_while_fleet_moves() {
    let mut scenario = builder(13, 50).urban_with_rsus();
    let config = ClusterConfig::multi_hop();
    let mut previous: Option<Clustering> = None;
    let mut churn_total = 0.0;
    let rounds = 30;
    for _ in 0..rounds {
        scenario.run_ticks(4);
        let table = scenario.neighbor_table();
        let world = WorldView {
            positions: scenario.fleet.positions(),
            velocities: scenario.fleet.velocities(),
            online: scenario.fleet.online_flags(),
            neighbors: &table,
        };
        let clustering = form_clusters(&world, &config);
        // Invariants hold every round.
        for i in 0..50u32 {
            let head = clustering.head_of(VehicleId(i)).expect("online vehicle clustered");
            assert_eq!(clustering.head_of(head), Some(head));
        }
        if let Some(prev) = &previous {
            churn_total += vcloud::net::cluster::head_churn(prev, &clustering, 50);
        }
        previous = Some(clustering);
    }
    let mean_churn = churn_total / (rounds - 1) as f64;
    assert!(mean_churn < 0.9, "clustering thrashes: {mean_churn}");
}

#[test]
fn moving_zones_are_more_stable_than_plain_clusters_on_highway() {
    // On a highway with opposing traffic, velocity-aware zones should churn
    // less than purely topological clusters.
    let measure = |cfg: ClusterConfig| {
        let mut scenario = builder(14, 60).highway_no_infra();
        let mut previous: Option<Clustering> = None;
        let mut churn = 0.0;
        let rounds = 25;
        for _ in 0..rounds {
            scenario.run_ticks(4);
            let table = scenario.neighbor_table();
            let world = WorldView {
                positions: scenario.fleet.positions(),
                velocities: scenario.fleet.velocities(),
                online: scenario.fleet.online_flags(),
                neighbors: &table,
            };
            let clustering = form_clusters(&world, &cfg);
            if let Some(prev) = &previous {
                churn += vcloud::net::cluster::head_churn(prev, &clustering, 60);
            }
            previous = Some(clustering);
        }
        churn / (rounds - 1) as f64
    };
    let plain = measure(ClusterConfig::multi_hop());
    let zones = measure(ClusterConfig::moving_zone());
    assert!(
        zones <= plain + 0.05,
        "zones churn {zones:.3} should not exceed plain clusters {plain:.3}"
    );
}

#[test]
fn packets_survive_holder_churn() {
    // Vehicles going offline mid-flight must not wedge the simulation; the
    // surviving copies (epidemic) still deliver.
    let mut scenario = builder(15, 60).urban_with_rsus();
    let mut sim = NetSim::new(&mut scenario, Epidemic);
    sim.send_random_pairs(15, 256, None);
    sim.run_rounds(30);
    // Knock 10 vehicles offline mid-flight.
    for v in 0..10u32 {
        sim.scenario_mut().fleet.set_online(VehicleId(v * 3), false);
    }
    sim.run_rounds(120);
    assert!(sim.stats().delivery_ratio() > 0.5, "ratio {}", sim.stats().delivery_ratio());
}
