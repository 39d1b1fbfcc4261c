//! Integration: the three Fig. 4 architectures over live scenarios —
//! lifecycle, failover, replication under churn, emergency switching.

use vcloud::cloud::prelude::*;
use vcloud::prelude::{Cellular, OperatingMode as Mode, ScenarioBuilder, SimRng, VehicleId};

fn builder(seed: u64, n: usize) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new();
    b.seed(seed).vehicles(n);
    b
}

#[test]
fn all_three_architectures_complete_work() {
    for (kind, scenario) in [
        (ArchitectureKind::Stationary, builder(1, 30).parking_lot()),
        (ArchitectureKind::InfrastructureBased, builder(1, 30).urban_with_rsus()),
        (ArchitectureKind::Dynamic, builder(1, 30).urban_with_rsus()),
    ] {
        let mut sim = CloudSim::new(scenario, kind, SchedulerConfig::default(), Kinematic);
        sim.submit_batch(8, 100.0, None);
        sim.run_ticks(400, None);
        assert!(
            sim.scheduler().stats().completed >= 6,
            "{kind} completed only {}",
            sim.scheduler().stats().completed
        );
    }
}

#[test]
fn infrastructure_failover_to_dynamic() {
    // The motivating claim: after total RSU failure the same fleet still
    // computes if (and only if) it reorganizes dynamically.
    let mut infra = CloudSim::new(
        builder(2, 40).urban_with_rsus(),
        ArchitectureKind::InfrastructureBased,
        SchedulerConfig::default(),
        Kinematic,
    );
    let mut rng = SimRng::seed_from(99);
    infra.scenario.rsus.fail_fraction(1.0, &mut rng);
    infra.scenario.cellular = Cellular::unavailable();
    infra.submit_batch(10, 100.0, None);
    infra.run_ticks(300, None);
    assert_eq!(infra.scheduler().stats().completed, 0, "no members without RSUs");
    assert!(infra.membership().members.is_empty());

    let mut dynamic = CloudSim::new(
        builder(2, 40).disaster(1.0),
        ArchitectureKind::Dynamic,
        SchedulerConfig::default(),
        Kinematic,
    );
    dynamic.submit_batch(10, 100.0, None);
    dynamic.run_ticks(300, None);
    assert!(
        dynamic.scheduler().stats().completed >= 8,
        "dynamic completed only {}",
        dynamic.scheduler().stats().completed
    );
}

#[test]
fn broker_is_reelected_as_fleet_moves() {
    let scenario = builder(3, 40).urban_with_rsus();
    let mut sim =
        CloudSim::new(scenario, ArchitectureKind::Dynamic, SchedulerConfig::default(), Kinematic);
    let mut brokers = std::collections::BTreeSet::new();
    for _ in 0..40 {
        sim.run_ticks(10, None);
        if let Some(b) = sim.membership().broker {
            brokers.insert(b);
        }
    }
    assert!(!brokers.is_empty());
    // Over 400 ticks of urban churn a single permanent broker is unlikely;
    // what matters is there is ALWAYS a broker when members exist.
    let m = sim.membership();
    if !m.members.is_empty() {
        assert!(m.broker.is_some());
        assert!(m.members.contains(&m.broker.unwrap()));
    }
}

#[test]
fn stationary_cloud_is_deterministic_and_stable() {
    let run = |seed| {
        let mut sim = CloudSim::new(
            builder(seed, 25).parking_lot(),
            ArchitectureKind::Stationary,
            SchedulerConfig::default(),
            Kinematic,
        );
        sim.submit_batch(10, 200.0, None);
        sim.run_ticks(200, None);
        (
            sim.scheduler().stats().completed,
            sim.scheduler().stats().handovers,
            sim.membership().members.len(),
        )
    };
    let (completed, handovers, members) = run(4);
    assert_eq!((completed, handovers, members), run(4));
    assert_eq!(completed, 10);
    assert_eq!(handovers, 0, "parked hosts never depart");
}

#[test]
fn replication_spans_cloud_members() {
    let scenario = builder(5, 40).urban_with_rsus();
    let sim =
        CloudSim::new(scenario, ArchitectureKind::Dynamic, SchedulerConfig::default(), Kinematic);
    let membership = sim.membership();
    let hosts: Vec<ReplicaHost> =
        membership.members.iter().map(|&id| ReplicaHost { id, stay_estimate_s: 120.0 }).collect();
    assert!(hosts.len() >= 3, "need a real cluster");
    let mut rng = SimRng::seed_from(6);
    let mut mgr = ReplicationManager::new();
    let file = mgr.publish(
        FileId(1),
        &vec![1u8; 100_000],
        3,
        &hosts,
        PlacementStrategy::StabilityRanked,
        &mut rng,
    );
    assert_eq!(file.holders.len(), 3);
    for h in &file.holders {
        assert!(membership.members.contains(h), "replicas only on members");
    }
    // Availability collapses only when every holder goes offline.
    let holders = file.holders.clone();
    assert!(mgr.is_available(FileId(1), &|v| v == holders[0]));
    assert!(!mgr.is_available(FileId(1), &|v| !holders.contains(&v)));
}

#[test]
fn emergency_gossip_reaches_moving_fleet() {
    let mut scenario = builder(7, 50).disaster(1.0);
    scenario.run_ticks(10);
    let mut modes = ModeManager::new(scenario.fleet.len());
    modes.inject(VehicleId(0), Mode::Disaster);
    let channel = scenario.channel.clone();
    let mut rounds = 0;
    while modes.coverage(Mode::Disaster) < 0.9 && rounds < 300 {
        scenario.tick();
        let table = scenario.neighbor_table();
        let positions = scenario.fleet.positions();
        modes.gossip_round(&table, positions, &channel, &mut scenario.rng);
        rounds += 1;
    }
    assert!(
        modes.coverage(Mode::Disaster) >= 0.9,
        "only {:.0}% after {rounds} rounds",
        modes.coverage(Mode::Disaster) * 100.0
    );
    assert!(rounds < 300);
}
