//! E6 — duration-of-stay estimation and task handover (paper §III-A).
//!
//! The under/over-estimation trade-off, and handover vs drop-and-reallocate,
//! on a churning dynamic cloud.

use crate::table::{f1, f3, pct, Table};
use vc_cloud::prelude::*;
use vc_sim::prelude::*;

fn run_config<E: StayEstimator>(
    seed: u64,
    vehicles: usize,
    tasks: usize,
    ticks: usize,
    estimator: E,
    handover: HandoverPolicy,
) -> (SchedulerStats, u64) {
    let mut builder = ScenarioBuilder::new();
    builder.seed(seed).vehicles(vehicles);
    let scenario = builder.urban_with_rsus();
    let config = SchedulerConfig { handover, ..Default::default() };
    let mut sim = CloudSim::new(scenario, ArchitectureKind::Dynamic, config, estimator);
    sim.submit_batch(tasks, 3000.0, None);
    sim.run_ticks(ticks, None);
    (sim.scheduler().stats().clone(), sim.scheduler().stats().completed)
}

/// Runs E6.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut vc_obs::Recorder>) -> Table {
    let vehicles = if quick { 30 } else { 50 };
    let tasks = if quick { 40 } else { 80 };
    let ticks = if quick { 300 } else { 800 };

    let mut table = Table::new(
        "E6",
        "stay estimation and handover ablation",
        "§III-A (duration-of-stay; handover of unfinished encrypted tasks)",
        &[
            "estimator",
            "departure policy",
            "completed",
            "completion",
            "utilization",
            "handovers",
            "recomputed GFLOP",
            "network MB",
        ],
    );

    for handover in [HandoverPolicy::Drop, HandoverPolicy::Handover] {
        let (p, _) = run_config(seed, vehicles, tasks, ticks, Pessimistic, handover);
        let (o, _) = run_config(seed, vehicles, tasks, ticks, Optimistic, handover);
        let (k, _) = run_config(seed, vehicles, tasks, ticks, Kinematic, handover);
        for (name, stats) in [("pessimistic", p), ("optimistic", o), ("kinematic", k)] {
            table.row(vec![
                name.to_owned(),
                match handover {
                    HandoverPolicy::Drop => "drop".to_owned(),
                    HandoverPolicy::Handover => "handover".to_owned(),
                },
                stats.completed.to_string(),
                pct(stats.completed as f64 / tasks as f64),
                f3(stats.utilization()),
                stats.handovers.to_string(),
                f1(stats.recomputed_gflop),
                f1(stats.network_mb),
            ]);
        }
    }
    table.note("expected shape (the paper's §III-A trade-off): pessimistic under-utilizes (fewest placements), optimistic over-commits (most recomputation under drop), kinematic balances; handover recovers most of optimistic's losses at modest network cost");
    table
}
