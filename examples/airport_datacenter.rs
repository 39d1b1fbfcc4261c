//! The airport parking-lot datacenter (Arif et al. [4] in the paper's
//! survey of stationary v-clouds): hundreds of long-term-parked vehicles
//! pool storage and compute into a conventional-cloud-like facility,
//! storing replicated files and processing batch jobs.
//!
//! ```text
//! cargo run --example airport_datacenter
//! ```

use vcloud::cloud::prelude::*;
use vcloud::prelude::{ScenarioBuilder, SimRng, VehicleId};

fn main() {
    println!("== airport parking-lot datacenter ==\n");
    let mut builder = ScenarioBuilder::new();
    builder.seed(99).vehicles(120);
    let mut cloud = CloudSim::new(
        builder.parking_lot(),
        ArchitectureKind::Stationary,
        SchedulerConfig { placement: PlacementPolicy::FastestCpu, ..Default::default() },
        Kinematic,
    );

    let members = cloud.membership();
    let capacity: f64 = members
        .members
        .iter()
        .map(|&id| cloud.scenario.fleet.vehicle(id).profile.resources.cpu_gflops)
        .sum();
    let storage: f64 = members
        .members
        .iter()
        .map(|&id| cloud.scenario.fleet.vehicle(id).profile.resources.storage_gb)
        .sum();
    println!(
        "datacenter online: {} parked vehicles pooling {:.0} GFLOPS and {:.0} GB",
        members.members.len(),
        capacity,
        storage
    );

    // Batch analytics job: 200 tasks of 800 GFLOP.
    cloud.submit_batch(200, 800.0, None);
    cloud.run_ticks(600, None);
    let stats = cloud.scheduler().stats();
    println!(
        "batch job: {}/200 tasks done, mean turnaround {:.1}s, utilization {:.1}%, zero handovers ({} observed)",
        stats.completed,
        stats.mean_turnaround_s(),
        stats.utilization() * 100.0,
        stats.handovers
    );

    // Replicated file storage with periodic repair as vehicles depart
    // (owners drive away — modeled as going offline).
    let mut rng = SimRng::seed_from(4);
    let mut mgr = ReplicationManager::new();
    let hosts: Vec<ReplicaHost> = members
        .members
        .iter()
        .map(|&id| ReplicaHost { id, stay_estimate_s: rng.range_f64(600.0, 86_400.0) })
        .collect();
    let archive = vec![0x5Au8; 256 * 1024];
    mgr.publish(FileId(1), &archive, 4, &hosts, PlacementStrategy::StabilityRanked, &mut rng);
    println!(
        "\npublished a 256 KiB archive as {} chunks with 4 replicas",
        mgr.file(FileId(1)).unwrap().chunk_count
    );

    // A day of departures: each epoch 10% of vehicles leave; repair re-places.
    let mut offline: Vec<bool> = vec![false; 120];
    let mut available_epochs = 0;
    let epochs = 50;
    for _ in 0..epochs {
        for slot in offline.iter_mut() {
            if !*slot && rng.chance(0.10) {
                *slot = true;
            }
        }
        let online = |v: VehicleId| !offline[v.0 as usize];
        if mgr.is_available(FileId(1), &online) {
            available_epochs += 1;
        }
        mgr.repair(FileId(1), 4, &online, &hosts, PlacementStrategy::StabilityRanked, &mut rng);
    }
    println!(
        "under steady departures with repair: file reachable in {}/{} epochs ({:.0}% availability)",
        available_epochs,
        epochs,
        available_epochs as f64 / epochs as f64 * 100.0
    );
    println!("\ndatacenter scenario complete.");
}
