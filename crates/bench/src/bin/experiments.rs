//! The experiment table generator: prints the registry's tables (see
//! DESIGN.md §4).

use std::io::Write;
use vc_bench::experiments::registry;
use vc_testkit::cli::{Cli, Flag};

// Count every allocation the harness makes: the per-frame alloc counts
// under --profile read these per-thread counters.
vc_obs::counting_allocator!();

/// The modes: experiment tables (the default) and one in-process job.
const TABLES: &str = "experiment tables";
const JOB: &str = "--job";

const FLAGS: &[Flag] = &[
    Flag::switch("--quick", &[TABLES]),
    Flag::value("--seed", &[TABLES, JOB]),
    Flag::value("--json", &[TABLES]),
    Flag::value("--trace", &[TABLES]),
    Flag::value("--timeseries", &[TABLES]),
    Flag::value("--profile", &[TABLES, JOB]),
    Flag::value("--folded", &[TABLES]),
    Flag::switch("--metrics", &[TABLES]),
    Flag::switch("--list", &[TABLES]),
    Flag::value("--job", &[JOB]).selects(),
    Flag::value("--ticks", &[JOB]),
    Flag::switch("--job-trace", &[JOB]),
    Flag::value("--job-out", &[JOB]),
];

/// The usage text and the experiment list, read from the registry, so an
/// error always shows what *would* have worked.
fn usage() -> String {
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    let mut usage = format!(
        "usage: experiments [--quick] [--seed N] [--json DIR] [--trace FILE] \
         [--timeseries FILE] [--profile FILE] [--folded FILE] [--metrics] [--list] [{} ...]\n\
         \x20      experiments --job SCENARIO [--seed N] [--ticks N] [--job-trace] [--job-out DIR] \
         [--profile FILE]\n\
         available experiments:",
        ids.join("|")
    );
    for exp in registry() {
        usage += &format!("\n  {:<4} {}", exp.id, exp.desc);
    }
    usage
}

/// `--job` mode: run one service scenario job in-process via the same
/// [`vc_service::job::run_job`] the `vcloudd` workers call, and write the
/// exact result bytes out so CI can byte-compare them with a daemon
/// RESULT stream. With `profile`, a profiler watches `run_job` alone and
/// its call tree goes to that file; the result bytes are the same.
fn run_job_mode(
    scenario: &str,
    seed: u64,
    ticks: u32,
    trace: bool,
    out_dir: Option<&str>,
    profile: Option<&str>,
) -> ! {
    let flags = if trace { vc_net::svc::FLAG_TRACE } else { 0 };
    let spec = vc_service::job::JobSpec { scenario: scenario.into(), seed, ticks, flags };
    if profile.is_some() {
        vc_obs::profile::install(vc_obs::profile::Profiler::new());
    }
    let output = match vc_service::job::run_job(&spec, None) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("job failed: {e}");
            eprintln!("available scenarios:");
            for entry in vc_service::job::SCENARIOS {
                eprintln!("  {:<18} {}", entry.id, entry.desc);
            }
            std::process::exit(2);
        }
    };
    if let Some(path) = profile {
        let prof = vc_obs::profile::take().expect("profiler was installed above");
        assert_eq!(prof.open_frames(), 0, "all profile frames must close before export");
        std::fs::write(path, prof.to_json().to_string_pretty() + "\n").expect("write profile json");
        eprintln!("profile: call tree -> {path}");
    }
    // Same line format as `vcload --once`, so logs can be diffed directly.
    println!(
        "job {scenario} seed={seed} ticks={ticks} flags={flags} checksum={:#018x} stats_len={} trace_len={}",
        output.checksum,
        output.stats.len(),
        output.trace.len()
    );
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).expect("create job output dir");
        std::fs::write(format!("{dir}/stats.json"), &output.stats).expect("write stats");
        std::fs::write(format!("{dir}/trace.jsonl"), &output.trace).expect("write trace");
    }
    std::process::exit(0);
}

fn main() {
    let usage = &usage();
    let cli = Cli {
        name: "experiments",
        usage,
        default_mode: TABLES,
        flags: FLAGS,
        positionals: &[TABLES],
    };
    let args = cli.parse_env();
    let seed = args.get("--seed").unwrap_or(42);
    if let Some(scenario) = args.value("--job") {
        let ticks = args.get("--ticks").unwrap_or(48);
        run_job_mode(
            scenario,
            seed,
            ticks,
            args.has("--job-trace"),
            args.value("--job-out"),
            args.value("--profile"),
        );
    }

    if args.has("--list") {
        for exp in registry() {
            println!("{:<4} [{:<23}] {}", exp.id, exp.flags, exp.desc);
        }
        return;
    }

    // Every requested name must exist: a typo mixed in with valid ids
    // must fail the invocation, not silently run the subset that matched.
    let wanted: Vec<String> = args.positionals.iter().map(|id| id.to_lowercase()).collect();
    let known: Vec<&str> = registry().iter().map(|e| e.id).collect();
    let unknown: Vec<&String> = wanted.iter().filter(|w| !known.contains(&w.as_str())).collect();
    if !unknown.is_empty() {
        cli.fail(format!("unknown experiment(s) {unknown:?}"));
    }
    let selected: Vec<_> = registry()
        .into_iter()
        .filter(|e| wanted.is_empty() || wanted.iter().any(|w| w == e.id))
        .collect();
    let quick = args.has("--quick");

    println!(
        "vcloud experiment harness — {} mode, seed {}\n",
        if quick { "quick" } else { "full" },
        seed
    );

    let emit = |id: &str, table: &vc_bench::Table, secs: f64| {
        println!("{}", table.render());
        println!("  [{id} completed in {secs:.1}s]\n");
        if let Some(dir) = args.value("--json") {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{id}.json");
            let mut f = std::fs::File::create(&path).expect("create json file");
            writeln!(f, "{}", table.to_json().to_string_pretty()).expect("write json");
        }
    };

    // With a recorder or profiler attached, run everything sequentially in
    // registry order on this thread so the trace (and metrics) are a single
    // coherent, deterministic stream and every profile frame lands in one
    // call tree. Profiling is wall-clock-only and never touches the
    // recorder, so the trace stays byte-identical with or without it.
    let (trace_path, timeseries_path) = (args.value("--trace"), args.value("--timeseries"));
    let (profile_path, folded_path) = (args.value("--profile"), args.value("--folded"));
    let metrics = args.has("--metrics");
    let profiling = profile_path.is_some() || folded_path.is_some();
    let recording = trace_path.is_some() || metrics || timeseries_path.is_some();
    if recording || profiling {
        if profiling {
            vc_obs::profile::install(vc_obs::profile::Profiler::new());
        }
        let mut rec = recording.then(vc_obs::Recorder::new);
        if timeseries_path.is_some() {
            // One sample per simulation round, windowed to the most recent
            // ticks (the trailer records how many older ones rolled off).
            rec.as_mut().expect("recording is on").enable_timeseries(4096);
        }
        for exp in &selected {
            let _exp = vc_obs::profile::frame(exp.id);
            let start = std::time::Instant::now();
            let table = {
                let _run = vc_obs::profile::frame("run");
                (exp.run)(quick, seed, rec.as_mut())
            };
            let _report = vc_obs::profile::frame("report");
            emit(exp.id, &table, start.elapsed().as_secs_f64());
        }
        if let Some(rec) = &rec {
            if let Some(path) = trace_path {
                let mut f = std::io::BufWriter::new(
                    std::fs::File::create(path).expect("create trace file"),
                );
                rec.write_jsonl(&mut f).expect("write trace");
                f.flush().expect("flush trace");
                eprintln!("trace: {} events -> {path} ({} dropped)", rec.len(), rec.dropped());
            }
            if let Some(path) = timeseries_path {
                let ts = rec.timeseries().expect("enabled above");
                let mut f = std::io::BufWriter::new(
                    std::fs::File::create(path).expect("create timeseries file"),
                );
                ts.write_jsonl(&mut f).expect("write timeseries");
                f.flush().expect("flush timeseries");
                eprintln!("timeseries: {} ticks -> {path} ({} dropped)", ts.len(), ts.dropped());
            }
            if metrics {
                print_metrics(rec.hub());
            }
        }
        if profiling {
            let prof = vc_obs::profile::take().expect("profiler was installed above");
            assert_eq!(prof.open_frames(), 0, "all profile frames must close before export");
            if let Some(path) = profile_path {
                std::fs::write(path, prof.to_json().to_string_pretty() + "\n")
                    .expect("write profile json");
                eprintln!("profile: call tree -> {path}");
            }
            if let Some(path) = folded_path {
                std::fs::write(path, prof.collapsed()).expect("write folded stacks");
                eprintln!("profile: collapsed stacks -> {path}");
            }
        }
        return;
    }

    // Experiments are independent (each builds its own seeded scenarios) and
    // read no clock, so run them concurrently and print in order.
    let results: std::sync::Mutex<Vec<(usize, vc_bench::Table, f64)>> =
        std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (order, exp) in selected.iter().enumerate() {
            let results = &results;
            let run = exp.run;
            scope.spawn(move || {
                let start = std::time::Instant::now();
                let table = run(quick, seed, None);
                results.lock().expect("no experiment panicked while publishing").push((
                    order,
                    table,
                    start.elapsed().as_secs_f64(),
                ));
            });
        }
    });

    let mut done = results.into_inner().expect("no experiment panicked");
    done.sort_by_key(|(order, _, _)| *order);
    for (order, table, secs) in &done {
        emit(selected[*order].id, table, *secs);
    }
}

/// Renders the metrics hub as aligned text tables (counters, gauges,
/// histograms) on stdout.
fn print_metrics(hub: &vc_obs::MetricsHub) {
    let name_width = hub
        .counters()
        .map(|(n, _)| n.len())
        .chain(hub.gauges().map(|(n, _)| n.len()))
        .chain(hub.histograms().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(4)
        .max(4);
    println!("metrics — counters");
    for (name, value) in hub.counters() {
        println!("  {name:<name_width$}  {value}");
    }
    println!("\nmetrics — gauges");
    for (name, value) in hub.gauges() {
        println!("  {name:<name_width$}  {value}");
    }
    println!("\nmetrics — histograms");
    println!(
        "  {:<name_width$}  {:>8}  {:>12}  {:>12}  {:>12}",
        "name", "count", "mean", "p95", "max"
    );
    for (name, h) in hub.histograms() {
        println!(
            "  {name:<name_width$}  {:>8}  {:>12.3}  {:>12.3}  {:>12.3}",
            h.count(),
            h.mean().unwrap_or(0.0),
            h.approx_percentile(0.95).unwrap_or(0.0),
            h.max().unwrap_or(0.0),
        );
    }
}
