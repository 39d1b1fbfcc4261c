//! The experiment table generator: prints the registry's tables (see
//! DESIGN.md §4).

use std::io::Write;
use vc_bench::experiments::registry;

// Count every allocation the harness makes: the per-frame alloc counts
// under --profile read these per-thread counters.
vc_obs::counting_allocator!();

/// The usage text, with the experiment ids read from the registry.
fn usage() -> String {
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    format!(
        "usage: experiments [--quick] [--seed N] [--json DIR] [--trace FILE] \
         [--timeseries FILE] [--profile FILE] [--folded FILE] [--metrics] [--list] [{} ...]\n\
         \x20      experiments --job SCENARIO [--seed N] [--ticks N] [--job-trace] [--job-out DIR]",
        ids.join("|")
    )
}

/// Prints the experiment list (used on unknown names/flags so the error
/// message always shows what *would* have worked).
fn print_available(mut out: impl Write) {
    let _ = writeln!(out, "available experiments:");
    for exp in registry() {
        let _ = writeln!(out, "  {:<4} {}", exp.id, exp.desc);
    }
}

/// `--job` mode: run one service scenario job in-process via the same
/// [`vc_service::job::run_job`] the `vcloudd` workers call, and write the
/// exact result bytes out so CI can byte-compare them with a daemon
/// RESULT stream.
fn run_job_mode(scenario: &str, seed: u64, ticks: u32, trace: bool, out_dir: Option<&str>) -> ! {
    let flags = if trace { vc_net::svc::FLAG_TRACE } else { 0 };
    let spec = vc_service::job::JobSpec { scenario: scenario.into(), seed, ticks, flags };
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed: u64 = 42;
    let mut json_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut timeseries_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut metrics = false;
    let mut list = false;
    let mut job: Option<String> = None;
    let mut job_ticks: Option<u32> = None;
    let mut job_trace = false;
    let mut job_out: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--metrics" => metrics = true,
            "--list" => list = true,
            "--job" => {
                i += 1;
                job = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--job needs a scenario id");
                    std::process::exit(2);
                }));
            }
            "--ticks" => {
                i += 1;
                job_ticks = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--ticks needs a number");
                    std::process::exit(2);
                }));
            }
            "--job-trace" => job_trace = true,
            "--job-out" => {
                i += 1;
                job_out = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--job-out needs a directory");
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a number\n{}", usage());
                    print_available(std::io::stderr());
                    std::process::exit(2);
                });
            }
            "--json" => {
                i += 1;
                json_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a directory");
                    std::process::exit(2);
                }));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--trace needs a file path");
                    std::process::exit(2);
                }));
            }
            "--timeseries" => {
                i += 1;
                timeseries_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--timeseries needs a file path");
                    std::process::exit(2);
                }));
            }
            "--profile" => {
                i += 1;
                profile_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--profile needs a file path");
                    std::process::exit(2);
                }));
            }
            "--folded" => {
                i += 1;
                folded_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--folded needs a file path");
                    std::process::exit(2);
                }));
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}\n{}", usage());
                print_available(std::io::stderr());
                std::process::exit(2);
            }
            id => wanted.push(id.to_lowercase()),
        }
        i += 1;
    }

    // The two modes read disjoint flags (only --seed is shared): a flag of
    // the other mode would be silently ignored, so a mix is an error.
    let table_flags: Vec<&str> = [
        ("--quick", quick),
        ("--json", json_dir.is_some()),
        ("--trace", trace_path.is_some()),
        ("--timeseries", timeseries_path.is_some()),
        ("--profile", profile_path.is_some()),
        ("--folded", folded_path.is_some()),
        ("--metrics", metrics),
        ("--list", list),
    ]
    .into_iter()
    .filter_map(|(flag, set)| set.then_some(flag))
    .chain(wanted.iter().map(String::as_str))
    .collect();
    let job_flags: Vec<&str> = [
        ("--ticks", job_ticks.is_some()),
        ("--job-trace", job_trace),
        ("--job-out", job_out.is_some()),
    ]
    .into_iter()
    .filter_map(|(flag, set)| set.then_some(flag))
    .collect();
    let mix = match job {
        Some(_) if !table_flags.is_empty() => {
            Some(format!("{} cannot be combined with --job", table_flags.join(" ")))
        }
        None if !job_flags.is_empty() => Some(format!("{} needs --job", job_flags.join(" "))),
        _ => None,
    };
    if let Some(mix) = mix {
        eprintln!("{mix}\n{}", usage());
        std::process::exit(2);
    }

    if list {
        for exp in registry() {
            println!("{:<4} [{:<23}] {}", exp.id, exp.flags, exp.desc);
        }
        return;
    }

    if let Some(scenario) = job {
        run_job_mode(&scenario, seed, job_ticks.unwrap_or(48), job_trace, job_out.as_deref());
    }

    // Every requested name must exist: a typo mixed in with valid ids
    // must fail the invocation, not silently run the subset that matched.
    let known: Vec<&str> = registry().iter().map(|e| e.id).collect();
    let unknown: Vec<&String> = wanted.iter().filter(|w| !known.contains(&w.as_str())).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s) {unknown:?}");
        print_available(std::io::stderr());
        std::process::exit(2);
    }

    let selected: Vec<_> = registry()
        .into_iter()
        .filter(|e| wanted.is_empty() || wanted.iter().any(|w| w == e.id))
        .collect();

    if selected.is_empty() {
        eprintln!("no experiments matched {wanted:?}");
        print_available(std::io::stderr());
        std::process::exit(2);
    }

    println!(
        "vcloud experiment harness — {} mode, seed {}\n",
        if quick { "quick" } else { "full" },
        seed
    );

    let emit = |id: &str, table: &vc_bench::Table, secs: f64| {
        println!("{}", table.render());
        println!("  [{id} completed in {secs:.1}s]\n");
        if let Some(dir) = &json_dir {
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
            if let Some(path) = &trace_path {
                let mut f = std::io::BufWriter::new(
                    std::fs::File::create(path).expect("create trace file"),
                );
                rec.write_jsonl(&mut f).expect("write trace");
                f.flush().expect("flush trace");
                eprintln!("trace: {} events -> {path} ({} dropped)", rec.len(), rec.dropped());
            }
            if let Some(path) = &timeseries_path {
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
            if let Some(path) = &profile_path {
                std::fs::write(path, prof.to_json().to_string_pretty() + "\n")
                    .expect("write profile json");
                eprintln!("profile: call tree -> {path}");
            }
            if let Some(path) = &folded_path {
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
