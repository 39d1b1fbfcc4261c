//! `vcload` — open/closed-loop load generator for `vcloudd`.
//!
//! Submits a configurable job mix from N concurrent client connections,
//! measures throughput and submit→accept→start→complete latency from the
//! server's own lifecycle timestamps, and emits a deterministic-schema
//! JSON report (values are wall-clock measurements; the key set and
//! order never change).

use std::io;
use std::process::ExitCode;

use vc_service::client::Client;
use vc_service::job::SCENARIOS;
use vc_service::loadgen::{run_load, LoadConfig, Mode};
use vc_testkit::cli::{Args, Cli, Flag};

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

--once, --metrics, --shutdown, --list and --help each select a mode; an
option the mode does not read is an error (docs/SERVICE.md has the table).
";

/// The modes: a load run (the default) and five the flags below select.
const LOAD: &str = "a load run";
const ONCE: &str = "--once";
const METRICS: &str = "--metrics";
const SHUTDOWN: &str = "--shutdown";
const LIST: &str = "--list";
const HELP: &str = "--help";

const FLAGS: &[Flag] = &[
    Flag::value("--addr", &[LOAD, ONCE, METRICS, SHUTDOWN]),
    Flag::value("--clients", &[LOAD]),
    Flag::value("--jobs", &[LOAD]),
    Flag::value("--mix", &[LOAD]),
    Flag::value("--scenario", &[LOAD]).repeated(),
    Flag::value("--ticks", &[LOAD, ONCE]),
    Flag::switch("--trace", &[LOAD, ONCE]),
    Flag::value("--seed", &[LOAD, ONCE]),
    Flag::value("--open", &[LOAD]),
    Flag::value("--json", &[LOAD]),
    Flag::value("--once", &[ONCE]).selects(),
    Flag::value("--out", &[ONCE]),
    Flag::switch("--metrics", &[METRICS]).selects(),
    Flag::switch("--shutdown", &[SHUTDOWN]).selects(),
    Flag::switch("--list", &[LIST]).selects(),
    Flag::switch("--help", &[HELP]).selects(),
    Flag::switch("-h", &[HELP]).selects(),
];
const CLI: Cli =
    Cli { name: "vcload", usage: USAGE, default_mode: LOAD, flags: FLAGS, positionals: &[] };

/// The load configuration the flags describe; flags the mode does not
/// read keep their defaults.
fn load_config(args: &Args) -> LoadConfig {
    let mut mix: Vec<String> = match args.value("--mix") {
        None => Vec::new(),
        Some("steady") => vec!["urban-epidemic".into()],
        Some("mixed") => SCENARIOS.iter().map(|e| e.id.to_string()).collect(),
        Some(other) => CLI.fail(format!("unknown mix {other:?} (steady|mixed)")),
    };
    mix.extend(args.values("--scenario").map(String::from));
    for s in mix.iter().map(String::as_str).chain(args.value("--once")) {
        if vc_service::job::find_scenario(s).is_none() {
            CLI.fail(format!("unknown scenario {s:?} (see --list)"));
        }
    }
    let default = LoadConfig::default();
    LoadConfig {
        addr: args.value("--addr").unwrap_or_else(|| CLI.fail("--addr is required")).into(),
        clients: args.positive("--clients").unwrap_or(default.clients),
        jobs_per_client: args.positive("--jobs").unwrap_or(default.jobs_per_client),
        mix: if mix.is_empty() { default.mix } else { mix },
        ticks: args.get("--ticks").unwrap_or(default.ticks),
        flags: if args.has("--trace") { vc_net::svc::FLAG_TRACE } else { 0 },
        seed: args.get("--seed").unwrap_or(default.seed),
        mode: args.positive("--open").map_or(Mode::Closed, |rate_hz| Mode::Open { rate_hz }),
    }
}

/// `--once`: one submit + RESULT fetch, bytes out, checksum on stdout in
/// the same line format `experiments --job` prints.
fn run_once(config: &LoadConfig, scenario: &str, out: Option<&str>) -> io::Result<()> {
    let mut client = Client::connect(&config.addr)?;
    let spec = vc_service::job::JobSpec {
        scenario: scenario.into(),
        seed: config.seed,
        ticks: config.ticks,
        flags: config.flags,
    };
    let job = client
        .submit(&spec)?
        .map_err(|(reason, detail)| io::Error::other(format!("rejected ({reason:?}): {detail}")))?;
    let result = client.fetch_result(job)?;
    if !result.detail.is_empty() {
        return Err(io::Error::other(format!("job failed: {}", result.detail)));
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
    let args = CLI.parse_env();
    let connect = || Client::connect(load_config(&args).addr);
    let done = match args.mode {
        LIST => {
            for e in SCENARIOS {
                println!("{:<18} {}", e.id, e.desc);
            }
            Ok(())
        }
        HELP => {
            print!("{USAGE}");
            Ok(())
        }
        ONCE => {
            let scenario = args.value("--once").expect("--once selects this mode");
            run_once(&load_config(&args), scenario, args.value("--out"))
        }
        METRICS => connect().and_then(|mut c| c.metrics()).map(|json| println!("{json}")),
        SHUTDOWN => connect()
            .and_then(|mut c| c.shutdown())
            .map(|()| println!("vcload: daemon drained and acknowledged shutdown")),
        _ => load(&load_config(&args), args.value("--json")),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vcload: {}: {e}", args.mode);
            ExitCode::FAILURE
        }
    }
}

/// A load run: two summary lines, then the JSON report on stdout or in
/// `json_path`.
fn load(config: &LoadConfig, json_path: Option<&str>) -> io::Result<()> {
    let report = run_load(config)?;
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
    let json = report.to_json(config).to_string_pretty();
    match json_path {
        None | Some("-") => println!("{json}"),
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| io::Error::other(format!("cannot write {path}: {e}")))?;
            println!("vcload: report written to {path}");
        }
    }
    match report.failed {
        0 => Ok(()),
        failed => Err(io::Error::other(format!("{failed} jobs failed"))),
    }
}
