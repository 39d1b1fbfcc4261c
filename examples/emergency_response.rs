//! Emergency response: an earthquake knocks out the RSUs and the cellular
//! network mid-run. The infrastructure-based cloud collapses; a dynamic
//! v-cloud self-organizes over pure V2V, switches the fleet into emergency
//! mode by gossip, and keeps completing safety tasks — the paper's central
//! motivating scenario (§I, §IV-A.2, §V-A).
//!
//! ```text
//! cargo run --example emergency_response
//! ```

use vcloud::cloud::prelude::*;
use vcloud::prelude::{Cellular, ScenarioBuilder, SimRng, VehicleId};

fn main() {
    println!("== emergency response scenario ==\n");
    let mut builder = ScenarioBuilder::new();
    builder.seed(7).vehicles(50);

    // Phase 1: normal city operation on the infrastructure-based cloud.
    let mut infra = CloudSim::new(
        builder.urban_with_rsus(),
        ArchitectureKind::InfrastructureBased,
        SchedulerConfig::default(),
        Kinematic,
    );
    infra.submit_batch(20, 300.0, None);
    infra.run_ticks(200, None);
    println!(
        "phase 1 (normal): infrastructure cloud completed {}/20 tasks with {} members",
        infra.scheduler().stats().completed,
        infra.membership().members.len()
    );

    // Phase 2: disaster — all RSUs fail, cellular jammed.
    let mut rng = SimRng::seed_from(0xE4);
    infra.scenario.rsus.fail_fraction(1.0, &mut rng);
    infra.scenario.cellular = Cellular::unavailable();
    infra.submit_batch(20, 300.0, None);
    infra.run_ticks(300, None);
    let after = infra.scheduler().stats().completed;
    println!(
        "phase 2 (disaster): infrastructure cloud has {} members; total completed stuck at {}",
        infra.membership().members.len(),
        after
    );

    // Phase 3: the same fleet, dynamic architecture: clusters elect brokers
    // over pure V2V and absorb the submitted work.
    let mut dynamic = CloudSim::new(
        {
            let mut b = ScenarioBuilder::new();
            b.seed(7).vehicles(50);
            b.disaster(1.0)
        },
        ArchitectureKind::Dynamic,
        SchedulerConfig::default(),
        Kinematic,
    );
    dynamic.submit_batch(20, 300.0, None);
    dynamic.run_ticks(300, None);
    println!(
        "phase 3 (dynamic v-cloud): {} members self-organized, completed {}/20 tasks with {} handovers",
        dynamic.membership().members.len(),
        dynamic.scheduler().stats().completed,
        dynamic.scheduler().stats().handovers
    );

    // Phase 4: emergency mode propagates by V2V gossip from a police vehicle.
    let mut scenario = {
        let mut b = ScenarioBuilder::new();
        b.seed(7).vehicles(50);
        b.disaster(1.0)
    };
    scenario.run_ticks(10);
    let mut modes = ModeManager::new(scenario.fleet.len());
    modes.inject(VehicleId(0), OperatingMode::Emergency);
    let channel = scenario.channel.clone();
    let mut rounds = 0;
    while modes.coverage(OperatingMode::Emergency) < 0.95 && rounds < 200 {
        scenario.tick();
        let table = scenario.neighbor_table();
        let positions = scenario.fleet.positions();
        modes.gossip_round(&table, positions, &channel, &mut scenario.rng);
        rounds += 1;
    }
    println!(
        "phase 4 (mode switch): {:.0}% of the fleet in emergency mode after {} gossip rounds ({:.1}s simulated), zero infrastructure used",
        modes.coverage(OperatingMode::Emergency) * 100.0,
        rounds,
        rounds as f64 * scenario.dt
    );
    println!("\nscenario complete: the dynamic v-cloud kept serving when infrastructure died.");
}
