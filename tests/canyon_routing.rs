//! Integration: urban-canyon obstruction end to end — the canyon cuts
//! through-block links, street-aware routing exploits the road graph, and
//! the cloud layer still functions in the obstructed regime.

use vcloud::cloud::prelude::*;
use vcloud::net::prelude::*;
use vcloud::prelude::{Point, ScenarioBuilder};

fn builder(seed: u64, n: usize) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new();
    b.seed(seed).vehicles(n);
    b
}

#[test]
fn canyon_preset_differs_from_open_urban() {
    let open = builder(1, 10).urban_with_rsus();
    let canyon = builder(1, 10).urban_canyon();
    assert!(open.canyon.is_none());
    assert!(canyon.canyon.is_some());
    // Identical seeds: same fleet, different radio behaviour only.
    assert_eq!(open.fleet.positions(), canyon.fleet.positions());
    let block_link = (Point::new(50.0, 50.0), Point::new(150.0, 150.0));
    assert_eq!(open.los_factor(block_link.0, block_link.1), 1.0);
    assert!(canyon.los_factor(block_link.0, block_link.1) < 1.0);
}

#[test]
fn street_aware_beats_greedy_on_overhead_under_canyon() {
    let run = |street: bool| -> RoutingStats {
        let mut scenario = builder(2, 80).urban_canyon();
        let roadnet = scenario.roadnet.clone();
        if street {
            let mut sim = NetSim::new(&mut scenario, StreetAware::new(roadnet));
            sim.send_random_pairs(20, 256, None);
            sim.run_rounds(200);
            sim.into_stats()
        } else {
            let mut sim = NetSim::new(&mut scenario, GreedyGeo);
            sim.send_random_pairs(20, 256, None);
            sim.run_rounds(200);
            sim.into_stats()
        }
    };
    let greedy = run(false);
    let street = run(true);
    assert!(street.delivered >= greedy.delivered.saturating_sub(2));
    assert!(
        street.overhead_per_delivery() < greedy.overhead_per_delivery(),
        "street {} vs greedy {} tx/delivery",
        street.overhead_per_delivery(),
        greedy.overhead_per_delivery()
    );
}

#[test]
fn dynamic_cloud_still_works_in_canyon() {
    // Obstructed radio shrinks clusters but the cloud keeps completing work.
    let mut sim = CloudSim::new(
        builder(3, 50).urban_canyon(),
        ArchitectureKind::Dynamic,
        SchedulerConfig::default(),
        Kinematic,
    );
    sim.submit_batch(10, 100.0, None);
    sim.run_ticks(400, None);
    assert!(
        sim.scheduler().stats().completed >= 8,
        "canyon cloud completed only {}",
        sim.scheduler().stats().completed
    );
}

#[test]
fn epidemic_remains_the_delivery_upper_bound_in_canyon() {
    let mut scenario = builder(4, 60).urban_canyon();
    let mut sim = NetSim::new(&mut scenario, Epidemic);
    sim.send_random_pairs(15, 256, None);
    sim.run_rounds(200);
    assert!(sim.stats().delivery_ratio() > 0.85, "epidemic ratio {}", sim.stats().delivery_ratio());
}
