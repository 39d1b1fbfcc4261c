//! E19 — scenario-service throughput and latency under load (§III-A).
//!
//! The paper's vehicular cloud is shared infrastructure, not a batch
//! tool: many tenants submit work to a long-lived service. This
//! experiment stands a real `vcloudd` up in-process (worker pool + TCP
//! loopback) and drives it with the `vcload` closed-loop generator,
//! reporting jobs/sec and the submit→complete latency distribution
//! across worker-pool sizes and two job mixes.
//!
//! Wall-clock columns: E19 must stay **out** of the CI determinism
//! byte-compare list (like E4/E5/E9/E11/E17/E18) — the determinism the
//! service guarantees is in result *payloads*, which
//! `crates/service/tests/determinism.rs` and the CI `service-smoke` job
//! byte-compare instead.

use crate::table::{f1, Table};
use vc_service::job::SCENARIOS;
use vc_service::loadgen::{run_load, LoadConfig, Mode};
use vc_service::server::{Server, ServerConfig};
use vc_service::supervisor::SupervisorConfig;

fn mix(name: &str) -> Vec<String> {
    match name {
        "steady" => vec!["urban-epidemic".to_string()],
        _ => SCENARIOS.iter().map(|e| e.id.to_string()).collect(),
    }
}

/// Runs E19.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut vc_obs::Recorder>) -> Table {
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 4] };
    let (clients, jobs_per_client) = if quick { (2, 3) } else { (4, 6) };
    let ticks = if quick { 24 } else { 48 };

    let mut table = Table::new(
        "E19",
        "scenario-service throughput under load (vcloudd + vcload)",
        "§III-A (the v-cloud as long-lived shared infrastructure)",
        &[
            "workers",
            "mix",
            "jobs",
            "rejected",
            "jobs per s",
            "e2e p50 ms",
            "e2e p90 ms",
            "e2e p99 ms",
        ],
    );

    for &workers in worker_counts {
        for mix_name in ["steady", "mixed"] {
            let config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                pool: SupervisorConfig { workers, queue_cap: 256 },
            };
            let server = Server::bind(&config).expect("bind loopback");
            let addr = server.local_addr().expect("local addr").to_string();
            let daemon = std::thread::spawn(move || server.run().expect("server run"));

            let load = LoadConfig {
                addr: addr.clone(),
                clients,
                jobs_per_client,
                mix: mix(mix_name),
                ticks,
                flags: 0,
                seed,
                mode: Mode::Closed,
            };
            let report = run_load(&load).expect("load run");
            vc_service::client::Client::connect(&addr)
                .expect("connect for shutdown")
                .shutdown()
                .expect("graceful drain");
            daemon.join().expect("daemon thread");

            table.row(vec![
                workers.to_string(),
                mix_name.to_string(),
                report.completed.to_string(),
                report.rejected.to_string(),
                f1(report.jobs_per_sec),
                f1(report.e2e_us.p50 / 1_000.0),
                f1(report.e2e_us.p90 / 1_000.0),
                f1(report.e2e_us.p99 / 1_000.0),
            ]);
        }
    }

    table.note("closed-loop: each client submits, waits for RESULT, submits again — throughput finds the pool's natural level, so jobs/sec should scale with workers until the host runs out of cores");
    table.note("every job's RESULT payload is byte-identical to the in-process run of the same (scenario, seed, ticks) — enforced by crates/service tests and the CI service-smoke job, not by this wall-clock table");
    table
}
