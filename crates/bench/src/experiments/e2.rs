//! E2 — task processing across the three architectures of Fig. 4.
//!
//! Same task batch, same fleet size, three membership regimes: who
//! completes how much, how fast, at what utilization.

use crate::table::{f1, f3, pct, Table};
use vc_cloud::prelude::*;
use vc_sim::prelude::*;

/// Runs E2.
pub fn run(quick: bool, seed: u64, mut rec: Option<&mut vc_obs::Recorder>) -> Table {
    let vehicles = if quick { 30 } else { 60 };
    let tasks = if quick { 40 } else { 100 };
    // Heavy enough that a task spans tens of seconds on a typical host, so
    // churn and coverage actually bite.
    let work = 1500.0; // GFLOP per task
    let ticks = if quick { 300 } else { 800 };

    let mut table = Table::new(
        "E2",
        "task completion by architecture",
        "Fig. 4 (stationary / infrastructure-based / dynamic v-clouds)",
        &[
            "architecture",
            "completed",
            "completion",
            "mean turnaround s",
            "utilization",
            "handovers",
            "recomputed GFLOP",
            "network MB",
        ],
    );

    for kind in [
        ArchitectureKind::Stationary,
        ArchitectureKind::InfrastructureBased,
        ArchitectureKind::Dynamic,
    ] {
        let mut builder = ScenarioBuilder::new();
        builder.seed(seed).vehicles(vehicles);
        let scenario = match kind {
            ArchitectureKind::Stationary => builder.parking_lot(),
            _ => builder.urban_with_rsus(),
        };
        let mut sim = CloudSim::new(scenario, kind, SchedulerConfig::default(), Kinematic);
        sim.submit_batch(tasks, work, None);
        sim.run_ticks(ticks, vc_obs::reborrow(&mut rec));
        let stats = sim.scheduler().stats();
        table.row(vec![
            kind.to_string(),
            stats.completed.to_string(),
            pct(stats.completed as f64 / tasks as f64),
            f1(stats.mean_turnaround_s()),
            f3(stats.utilization()),
            stats.handovers.to_string(),
            f1(stats.recomputed_gflop),
            f1(stats.network_mb),
        ]);
    }
    table.note("expected shape: stationary completes everything cheaply (no churn); dynamic pays handovers/recompute; infrastructure sits between, bounded by coverage");
    table
}
