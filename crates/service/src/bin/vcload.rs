//! `vcload` — open/closed-loop load generator for `vcloudd`.
//!
//! Submits a configurable job mix from N concurrent client connections,
//! measures throughput and submit→accept→start→complete latency from the
//! server's own lifecycle timestamps, and emits a deterministic-schema
//! JSON report (values are wall-clock measurements; the key set and
//! order never change).

use std::process::ExitCode;

use vc_service::job::SCENARIOS;
use vc_service::loadgen::{run_load, LoadConfig, Mode};

const USAGE: &str = "\
vcload — load generator for vcloudd

USAGE:
    vcload --addr HOST:PORT [OPTIONS]

OPTIONS:
    --addr HOST:PORT   daemon address (required)
    --clients N        concurrent client connections (default 4)
    --jobs N           jobs per client (default 8)
    --mix steady|mixed steady = urban-epidemic only; mixed = full catalog (default steady)
    --scenario ID      single-scenario mix override (repeatable)
    --ticks N          rounds per job (default 64)
    --trace            request the recorder trace with every job
    --seed N           base seed for the deterministic job stream (default 1)
    --open RATE        open-loop at RATE submits/sec per client (default: closed loop)
    --json PATH        also write the JSON report to PATH ('-' = stdout only)
    --once SCENARIO    submit exactly one job (with --seed/--ticks/--trace), fetch its
                       RESULT, and print the checksum; with --out DIR also write the
                       exact stats/trace bytes for comparison with `experiments --job`
    --out DIR          output directory for --once (stats.json, trace.jsonl)
    --metrics          print the daemon's METRICS JSON (svc.* counters, gauges) and exit
    --shutdown         send SHUTDOWN and wait for the drain acknowledgement, then exit
    --list             print the scenario catalog and exit
    --help             print this help
";

/// What this invocation does besides (or instead of) generating load.
enum Action {
    Load,
    Once { scenario: String, out: Option<String> },
    Metrics,
    Shutdown,
}

fn parse_args() -> Result<(LoadConfig, Option<String>, Action), String> {
    let mut config = LoadConfig::default();
    let mut json_path = None;
    let mut scenarios: Vec<String> = Vec::new();
    let mut addr_given = false;
    let mut once: Option<String> = None;
    let mut out: Option<String> = None;
    let mut shutdown = false;
    let mut metrics = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} requires a value"));
        let parse_num = |flag: &str, v: String| -> Result<u64, String> {
            v.parse().map_err(|_| format!("{flag} expects an unsigned integer"))
        };
        match arg.as_str() {
            "--addr" => {
                config.addr = value("--addr")?;
                addr_given = true;
            }
            "--clients" => config.clients = parse_num("--clients", value("--clients")?)? as usize,
            "--jobs" => config.jobs_per_client = parse_num("--jobs", value("--jobs")?)? as usize,
            "--ticks" => config.ticks = parse_num("--ticks", value("--ticks")?)? as u32,
            "--seed" => config.seed = parse_num("--seed", value("--seed")?)?,
            "--trace" => config.flags |= vc_net::svc::FLAG_TRACE,
            "--mix" => match value("--mix")?.as_str() {
                "steady" => scenarios = vec!["urban-epidemic".into()],
                "mixed" => scenarios = SCENARIOS.iter().map(|e| e.id.to_string()).collect(),
                other => return Err(format!("unknown mix {other:?} (steady|mixed)")),
            },
            "--scenario" => scenarios.push(value("--scenario")?),
            "--open" => {
                let rate: f64 = value("--open")?
                    .parse()
                    .map_err(|_| "--open expects a rate in submits/sec".to_string())?;
                if rate.is_nan() || rate <= 0.0 {
                    return Err("--open rate must be positive".into());
                }
                config.mode = Mode::Open { rate_hz: rate };
            }
            "--json" => json_path = Some(value("--json")?),
            "--once" => once = Some(value("--once")?),
            "--out" => out = Some(value("--out")?),
            "--metrics" => metrics = true,
            "--shutdown" => shutdown = true,
            "--list" => {
                for e in SCENARIOS {
                    println!("{:<18} {}", e.id, e.desc);
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !addr_given {
        return Err("--addr is required".into());
    }
    if !scenarios.is_empty() {
        for s in &scenarios {
            if vc_service::job::find_scenario(s).is_none() {
                return Err(format!("unknown scenario {s:?} (see --list)"));
            }
        }
        config.mix = scenarios;
    }
    if config.clients == 0 || config.jobs_per_client == 0 {
        return Err("--clients and --jobs must be at least 1".into());
    }
    let action = if shutdown {
        Action::Shutdown
    } else if metrics {
        Action::Metrics
    } else if let Some(scenario) = once {
        if vc_service::job::find_scenario(&scenario).is_none() {
            return Err(format!("unknown scenario {scenario:?} (see --list)"));
        }
        Action::Once { scenario, out }
    } else {
        Action::Load
    };
    Ok((config, json_path, action))
}

/// `--once`: one submit + RESULT fetch, bytes out, checksum on stdout in
/// the same line format `experiments --job` prints.
fn run_once(config: &LoadConfig, scenario: &str, out: Option<&str>) -> std::io::Result<()> {
    let mut client = vc_service::client::Client::connect(&config.addr)?;
    let spec = vc_service::job::JobSpec {
        scenario: scenario.into(),
        seed: config.seed,
        ticks: config.ticks,
        flags: config.flags,
    };
    let job = client.submit(&spec)?.map_err(|(reason, detail)| {
        std::io::Error::other(format!("rejected ({reason:?}): {detail}"))
    })?;
    let result = client.fetch_result(job)?;
    if !result.detail.is_empty() {
        return Err(std::io::Error::other(format!("job failed: {}", result.detail)));
    }
    println!(
        "job {scenario} seed={} ticks={} flags={} checksum={:#018x} stats_len={} trace_len={}",
        spec.seed,
        spec.ticks,
        spec.flags,
        result.checksum,
        result.stats.len(),
        result.trace.len()
    );
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)?;
        std::fs::write(format!("{dir}/stats.json"), &result.stats)?;
        std::fs::write(format!("{dir}/trace.jsonl"), &result.trace)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let (config, json_path, action) = match parse_args() {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("vcload: {why}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match action {
        Action::Load => {}
        Action::Once { scenario, out } => {
            return match run_once(&config, &scenario, out.as_deref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("vcload: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Action::Metrics => {
            return match vc_service::client::Client::connect(&config.addr)
                .and_then(|mut c| c.metrics())
            {
                Ok(json) => {
                    println!("{json}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("vcload: metrics failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Action::Shutdown => {
            return match vc_service::client::Client::connect(&config.addr)
                .and_then(|mut c| c.shutdown())
            {
                Ok(()) => {
                    println!("vcload: daemon drained and acknowledged shutdown");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("vcload: shutdown failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let report = match run_load(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("vcload: load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "vcload: {} submitted, {} accepted, {} rejected, {} completed ({} failed, {} cancelled)",
        report.submitted,
        report.accepted,
        report.rejected,
        report.completed,
        report.failed,
        report.cancelled
    );
    println!(
        "vcload: {:.2} jobs/s over {:.2}s; e2e latency p50 {:.0}us p90 {:.0}us p99 {:.0}us",
        report.jobs_per_sec,
        report.elapsed_s,
        report.e2e_us.p50,
        report.e2e_us.p90,
        report.e2e_us.p99
    );
    let json = report.to_json(&config).to_string_pretty();
    match json_path.as_deref() {
        None | Some("-") => println!("{json}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("vcload: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("vcload: report written to {path}");
        }
    }
    if report.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
