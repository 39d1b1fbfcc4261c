//! `vcbench` — the end-to-end benchmark of the vcloud workspace.
//!
//! ```text
//! vcbench [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! vcbench aa    [--seed N] [--seconds S]
//! ```
//!
//! With `--workload` one workload runs in this process and the last line of
//! standard output is the result object `BENCHMARK.json` describes. Without
//! it every workload runs in a fresh child process of this binary (so
//! `peak_rss_mb` is the workload's own), untraced for the end-to-end numbers
//! and then traced for the per-layer ones unless `--trace` picks one. `aa`
//! runs the untraced set twice and compares the pairs with the bounds.

mod beacon;
mod city;
mod cloud;
mod harness;
mod spec;
mod svc;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use vc_testkit::json::Json;

use harness::{
    run_workload, steady, write_trace, Cfg, Report, Sizes, Steady, Workload, SETUP_REPS,
};
use spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const OUT_DIR: &str = "benchmark/out";
const GOLDEN: &str = include_str!("../golden.json");
const DETAIL_PREFIX: &str = "#detail ";

const USAGE: &str = "usage: vcbench [run|aa] [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]";

struct Runner {
    name: &'static str,
    run: fn(&Cfg, Instant) -> Report,
    sizes: fn(bool) -> Sizes,
}

const fn runner<W: Workload>() -> Runner {
    Runner { name: W::NAME, run: run_workload::<W>, sizes: W::sizes }
}

/// The workloads in `WORKLOADS` order.
const RUNNERS: [Runner; 4] = [
    runner::<city::City>(),
    runner::<beacon::BeaconAuth>(),
    runner::<cloud::CloudPipeline>(),
    runner::<svc::SvcMix>(),
];

struct Args {
    aa: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    run_id: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        aa: false,
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        run_id: None,
    };
    let mut it = argv.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => drop(it.next()),
        Some("aa") => {
            args.aa = true;
            it.next();
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            args.seconds = 0.0;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|(name, _)| name == value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--run-id" => args.run_id = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The knobs of the workspace are read from the environment deep inside the
/// layers; a run with any of them set would not measure the default paths.
fn vc_knobs_set(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|k| k.starts_with("VC_")).collect()
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// What every output starts with: enough to tell which code, host, knobs and
/// sizes a number came from.
fn manifest(args: &Args, run_id: &str, traced: Option<bool>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sizes = RUNNERS.iter().map(|r| {
        let s = (r.sizes)(args.smoke);
        (r.name, format!("{} warmup={} horizon={}", s.desc, s.warmup, s.horizon).into())
    });
    Json::object::<&str>(vec![
        ("run_id", run_id.into()),
        ("harness", concat!("vcbench ", env!("CARGO_PKG_VERSION")).into()),
        ("commit", tool_line("git", &["rev-parse", "HEAD"]).into()),
        ("nproc", nproc.into()),
        ("rustc", tool_line("rustc", &["--version"]).into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("setup_reps", SETUP_REPS.into()),
        ("traced", traced.map_or(Json::Null, Json::from)),
        ("smoke", args.smoke.into()),
        ("shards", 1u64.into()),
        ("sizes", Json::object(sizes)),
    ])
}

fn fresh_run_id() -> String {
    let since = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    format!("{:x}-{}", since.map_or(0, |d| d.as_millis()), std::process::id())
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn metrics_json(table: &[Metric], values: &[f64]) -> Json {
    Json::object(table.iter().zip(values).map(|(m, &v)| {
        (m.name, Json::object::<&str>(vec![("value", v.into()), ("unit", m.unit.into())]))
    }))
}

fn print_metric(m: &Metric, value: f64, note: &str) {
    println!("  {:<36} {:>14.4} {:<6} {:<7} {note}", m.name, value, m.unit, m.better);
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let start = Instant::now();
    let traced = args.trace.unwrap_or(false);
    let cfg = Cfg { seed: args.seed, seconds: args.seconds, traced, smoke: args.smoke };
    let run_id = args.run_id.clone().unwrap_or_else(fresh_run_id);
    let manifest = manifest(args, &run_id, Some(traced));
    println!("#manifest {}", manifest.to_string_compact());
    let runner =
        RUNNERS.iter().find(|r| r.name == name).expect("parse_args admits only known workloads");
    let report = (runner.run)(&cfg, start);

    let mut failures = report.run.failures.clone();
    let why = WORKLOADS.iter().find(|(n, _)| *n == name).expect("known workload").1;
    println!("workload {name}: {why}");
    let attempted = report.run.ops.len() as u64;
    let mut as_measured = Json::Null;
    let (table, values): (&[Metric], Vec<f64>) = if traced {
        let values: Vec<f64> = PER_LAYER.iter().map(|m| report.layer.get(m.name)).collect();
        println!(
            "per-layer metrics (traced run; spans on for {} of {attempted} ops, shadow calls \
             deducted; times are divided by the host factor {:.3}; a layer this workload does \
             not reach reads 0):",
            report.run.ops.iter().filter(|o| o.traced).count(),
            report.run.host_factor
        );
        for (m, &v) in PER_LAYER.iter().zip(&values) {
            print_metric(m, v, if report.layer.is_set(m.name) { "" } else { "(not reached)" });
        }
        (&PER_LAYER, values)
    } else {
        let s = steady(&report.run.ops).unwrap_or_else(|why| {
            failures.push(why);
            Steady::default()
        });
        let rss_mib = report.run.rss_kib_at_horizon as f64 / 1024.0;
        // As measured, then on the reference host (see `host_probe`).
        let raw = [report.setup_s, s.ops_per_s, s.p50_ms, s.p95_ms, rss_mib];
        let (slow, slow_setup) = (report.run.host_factor, report.setup_host_factor);
        let values = vec![raw[0] / slow_setup, raw[1] * slow, raw[2] / slow, raw[3] / slow, raw[4]];
        println!(
            "end-to-end metrics (untraced run; ops_per_s, op_p50_ms and op_p95_ms are medians \
             over {} blocks of n = {} ops; times are divided by the host factor, {slow_setup:.3} \
             during set-up and {slow:.3} during the timed section):",
            s.blocks, s.block_n
        );
        for ((m, &v), raw) in END_TO_END.iter().zip(&values).zip(raw) {
            let note = match m.name {
                "setup_s" => format!("median of {SETUP_REPS} set-ups; {raw:.4} as measured"),
                "peak_rss_mb" => format!("VmHWM after op {}", report.sizes.horizon),
                _ => format!("n={attempted}; {raw:.4} as measured"),
            };
            print_metric(m, v, &note);
        }
        as_measured = metrics_json(&END_TO_END, &raw);
        (&END_TO_END, values)
    };
    let failed = failures.len() as u64;
    let failed_share = Metric { name: "failed_share", unit: "ratio", better: "lower", bound: 0.0 };
    let share = failed as f64 / attempted as f64;
    print_metric(&failed_share, share, &format!("{failed} of {attempted} ops"));
    for why in failures.iter().take(10) {
        println!("  FAILED {why}");
    }

    let golden = Json::parse(GOLDEN).expect("golden.json is valid JSON");
    let pinned = !args.smoke && golden["seed"].as_f64() == Some(args.seed as f64);
    let digest = hex(report.run.digest);
    let digest_changed = pinned && golden["digests"][name].as_str() != Some(&digest);
    println!(
        "  result_digest {digest} over the first {} ops; schedule_digest {}; digest_changed: {}",
        report.sizes.horizon,
        hex(report.schedule_digest),
        if pinned {
            digest_changed.to_string()
        } else {
            "n/a (golden is seed 42, full size)".into()
        }
    );

    if traced {
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.jsonl"));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| write_trace(&path, &manifest.to_string_compact(), &report.run));
        match written {
            Ok(()) => println!("  {} spans -> {}", report.run.spans.len(), path.display()),
            Err(e) => {
                eprintln!("vcbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    let correct = failed == 0;
    let metrics = metrics_json(table, &values);
    let detail = Json::object::<&str>(vec![
        ("workload", name.into()),
        ("traced", traced.into()),
        ("n", attempted.into()),
        ("failed", failed.into()),
        ("result_digest", digest.into()),
        ("schedule_digest", hex(report.schedule_digest).into()),
        ("host_factor", report.run.host_factor.into()),
        ("setup_host_factor", report.setup_host_factor.into()),
        ("digest_changed", if pinned { digest_changed.into() } else { Json::Null }),
        ("metrics", metrics.clone()),
        ("as_measured", as_measured),
    ]);
    println!("{DETAIL_PREFIX}{}", detail.to_string_compact());
    let result = Json::object::<&str>(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload in a child process of this binary, passes its report
/// through, and returns its `#detail` object.
fn spawn_one(args: &Args, name: &str, traced: bool, run_id: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &args.seed.to_string()]).args([
        "--trace",
        if traced { "1" } else { "0" },
        "--run-id",
        run_id,
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    } else {
        cmd.args(["--seconds", &args.seconds.to_string()]);
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in text.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(json) => detail = Some(Json::parse(json)?),
            // The child's manifest and result object are folded into ours.
            None if line.starts_with("#manifest ") || line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail =
        detail.ok_or_else(|| format!("{name}: child printed no report ({})", out.status))?;
    if !out.status.success() {
        println!("  {name}: child exited with {}", out.status);
    }
    Ok(detail)
}

/// Runs every workload once, traced or not. Returns the `#detail` objects
/// and whether every check passed.
fn run_set(args: &Args, traced: bool, run_id: &str) -> Result<(Vec<Json>, bool), String> {
    let mut details = Vec::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let detail = spawn_one(args, name, traced, run_id)?;
        ok &= detail["failed"].as_f64() == Some(0.0);
        details.push(detail);
    }
    Ok((details, ok))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let run_id = fresh_run_id();
    let manifest = manifest(args, &run_id, args.trace);
    println!("#manifest {}", manifest.to_string_compact());
    let mut sets = Vec::new();
    let mut ok = true;
    for traced in [false, true] {
        if args.trace.is_none_or(|t| t == traced) {
            let (details, set_ok) = run_set(args, traced, &run_id)?;
            ok &= set_ok;
            sets.extend(details);
        }
    }
    let result = Json::object::<&str>(vec![("manifest", manifest), ("runs", Json::array(sets))]);
    let path = Path::new(OUT_DIR).join("result.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(&path, result.to_string_pretty() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("every metric above; machine-readable copy in {}", path.display());
    println!("{}", if ok { "all checks passed" } else { "SOME CHECKS FAILED" });
    Ok(ok)
}

/// A/A: the same code twice. Prints a markdown table (committed as `AA.md`).
fn run_aa(args: &Args) -> Result<bool, String> {
    let run_id = fresh_run_id();
    let manifest = manifest(args, &run_id, Some(false));
    println!("#manifest {}", manifest.to_string_compact());
    let (first, ok_a) = run_set(args, false, &run_id)?;
    let (second, ok_b) = run_set(args, false, &run_id)?;
    let mut ok = ok_a && ok_b;
    println!("\n# A/A noise check\n\n`{}`\n", manifest.to_string_compact());
    println!("| workload | metric | unit | run A | run B | rel. diff | bound | ok |");
    println!("|---|---|---|---:|---:|---:|---:|---|");
    for (a, b) in first.iter().zip(&second) {
        let name = a["workload"].as_str().unwrap_or("?");
        for m in &END_TO_END {
            let value = |d: &Json| d["metrics"][m.name]["value"].as_f64().unwrap_or(f64::NAN);
            let (va, vb) = (value(a), value(b));
            let diff = (vb - va).abs() / va;
            let within = diff <= m.bound;
            ok &= within;
            println!(
                "| {name} | {} | {} | {va:.4} | {vb:.4} | {:.2} % | {:.0} % | {} |",
                m.name,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                if within { "yes" } else { "NO" }
            );
        }
        let same = a["result_digest"] == b["result_digest"];
        ok &= same;
        println!(
            "| {name} | result_digest | | {} | {} | | | {} |",
            a["result_digest"].as_str().unwrap_or("?"),
            b["result_digest"].as_str().unwrap_or("?"),
            if same { "yes" } else { "NO" }
        );
    }
    println!(
        "\n{}",
        if ok { "every pair within its bound" } else { "A PAIR IS OUTSIDE ITS BOUND" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let knobs = vc_knobs_set(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if !knobs.is_empty() {
        eprintln!("vcbench: refusing to measure with workspace knobs set: {}", knobs.join(", "));
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("vcbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.aa) {
        (Some(name), false) => return run_one(&args, name),
        (Some(_), true) => Err("aa runs every workload; drop --workload".into()),
        (None, true) => run_aa(&args),
        (None, false) => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("vcbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
