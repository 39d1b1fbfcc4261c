//! `benchdiff` — compares `BENCH_*.json` micro-bench artifacts.
//!
//! ```text
//! # delta table: first file is the baseline, the rest merge into "current"
//! benchdiff results/BENCH_pr16.json /tmp/bench-out/BENCH_*.json
//!
//! # merge per-suite artifacts into one committed baseline (a suite named
//! # again by a later file replaces the earlier one, so regenerated suites
//! # can be merged over the previous baseline)
//! benchdiff --merge BENCH_x --out /tmp/BENCH_x.json /tmp/out/BENCH_*.json
//! ```
//!
//! Accepts both artifact shapes the workspace produces: the per-suite
//! `{"suite","mode","results":[...]}` files written by `vc_testkit::bench`
//! and the committed merged `{"id","mode","suites":[...]}` baselines.
//! Suites align by name, benchmarks by name within the suite.
//!
//! The table is a drill-down tool, not an alarm: it always exits 0 on
//! well-formed input (`vcbench` and the same-process `lane_guard` ratio are
//! the regression alarms). A delta counts as *measured* only when both
//! sides ran more than one batch; 1-iteration smoke entries (`--quick` /
//! `VC_BENCH_QUICK=1`) are displayed and marked — a single sample is noise.
//!
//! When both sides of a benchmark carry the optional `allocs_per_iter` /
//! `alloc_bytes_per_iter` columns (suites run by a binary with a counting
//! allocator — see `vc_obs::mem`), an informational `alloc/iter` delta line
//! is printed under the timing row; suites without alloc data align and
//! print exactly as before.

use std::collections::BTreeMap;
use std::process::ExitCode;

use vc_testkit::json::Json;

/// One benchmark's comparable numbers.
#[derive(Debug, Clone, Copy)]
struct Entry {
    median_ns: f64,
    batches: u64,
    /// Mean allocations per iteration — present only when the suite was run
    /// by a binary with a counting allocator + registered bench probe.
    allocs_per_iter: Option<f64>,
    /// Mean heap bytes allocated per iteration (same condition).
    alloc_bytes_per_iter: Option<f64>,
}

impl Entry {
    /// A 1-batch entry is a smoke sample: displayed, marked, not counted
    /// as measured.
    fn reliable(self) -> bool {
        self.batches >= 2
    }
}

/// suite -> benchmark -> entry (BTreeMap so the table is deterministic).
type Side = BTreeMap<String, BTreeMap<String, Entry>>;

fn fail(msg: String) -> ! {
    eprintln!("benchdiff: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: benchdiff BASE.json CURRENT.json [MORE.json ...]\n\
\x20      benchdiff --merge ID --out FILE [--note TEXT] SUITE.json [...]"
    );
    std::process::exit(2);
}

/// Parses one artifact file into `(suite name, suite object)` pairs,
/// accepting both the merged and the per-suite shape.
fn load_suites(path: &str) -> Vec<(String, Json)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let doc = Json::parse(&text).unwrap_or_else(|e| fail(format!("{path}: bad JSON: {e}")));
    let suites: Vec<Json> = match doc.get("suites") {
        Some(Json::Arr(items)) => items.clone(),
        Some(_) => fail(format!("{path}: \"suites\" must be an array")),
        None => vec![doc],
    };
    suites
        .into_iter()
        .map(|s| match s.get("suite").and_then(Json::as_str) {
            Some(name) => (name.to_owned(), s),
            None => fail(format!(
                "{path}: expected a \"suite\" name and \"results\" array \
                 (or a merged file with \"suites\")"
            )),
        })
        .collect()
}

fn load_side(paths: &[String]) -> Side {
    let mut side = Side::new();
    for path in paths {
        for (suite, doc) in load_suites(path) {
            let Some(Json::Arr(results)) = doc.get("results") else {
                fail(format!("{path}: suite {suite} has no \"results\" array"));
            };
            let by_name = side.entry(suite.clone()).or_default();
            for r in results {
                let (Some(name), Some(median_ns)) =
                    (r.get("name").and_then(Json::as_str), r["median_ns"].as_f64())
                else {
                    fail(format!("{path}: suite {suite}: result lacks name/median_ns"));
                };
                let batches = r["batches"].as_f64().unwrap_or(1.0) as u64;
                by_name.insert(
                    name.to_owned(),
                    Entry {
                        median_ns,
                        batches,
                        allocs_per_iter: r["allocs_per_iter"].as_f64(),
                        alloc_bytes_per_iter: r["alloc_bytes_per_iter"].as_f64(),
                    },
                );
            }
        }
    }
    side
}

/// `"3.0 allocs, 96 B"`-style rendering for the per-iteration alloc columns.
fn fmt_allocs(allocs: f64, bytes: f64) -> String {
    let b = if bytes < 10_240.0 {
        format!("{bytes:.0} B")
    } else if bytes < 10.0 * 1024.0 * 1024.0 {
        format!("{:.1} KiB", bytes / 1024.0)
    } else {
        format!("{:.1} MiB", bytes / (1024.0 * 1024.0))
    };
    format!("{allocs:.1} allocs, {b}")
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn run_diff(paths: &[String]) -> ExitCode {
    let base = load_side(&paths[..1]);
    let current = load_side(&paths[1..]);

    let mut suite_names: Vec<&String> = base.keys().chain(current.keys()).collect();
    suite_names.sort();
    suite_names.dedup();

    let name_width = base
        .values()
        .chain(current.values())
        .flat_map(|s| s.keys().map(String::len))
        .max()
        .unwrap_or(9)
        .max(9);

    let mut compared = 0u32;
    let mut measured = 0u32;

    println!(
        "{:<name_width$}  {:>12}  {:>12}  {:>9}  note",
        "benchmark", "baseline", "current", "delta"
    );
    for suite in suite_names {
        let empty = BTreeMap::new();
        let b_suite = base.get(suite).unwrap_or(&empty);
        let c_suite = current.get(suite).unwrap_or(&empty);
        let mut bench_names: Vec<&String> = b_suite.keys().chain(c_suite.keys()).collect();
        bench_names.sort();
        bench_names.dedup();
        println!("[{suite}]");
        for name in bench_names {
            let label = format!("  {name}");
            match (b_suite.get(name), c_suite.get(name)) {
                (Some(b), Some(c)) => {
                    compared += 1;
                    let delta_pct = if b.median_ns > 0.0 {
                        (c.median_ns - b.median_ns) / b.median_ns * 100.0
                    } else {
                        0.0
                    };
                    let both_measured = b.reliable() && c.reliable();
                    let note = if both_measured { "" } else { "smoke — one sample" };
                    println!(
                        "{label:<width$}  {:>12}  {:>12}  {:>+8.1}%  {note}",
                        fmt_ns(b.median_ns),
                        fmt_ns(c.median_ns),
                        delta_pct,
                        width = name_width + 2,
                    );
                    measured += u32::from(both_measured);
                    // Allocation deltas are printed when both sides were
                    // measured with a counting allocator. Suites without
                    // alloc columns produce exactly the output they did
                    // before those existed.
                    if let (Some(ba), Some(bb), Some(ca), Some(cb)) = (
                        b.allocs_per_iter,
                        b.alloc_bytes_per_iter,
                        c.allocs_per_iter,
                        c.alloc_bytes_per_iter,
                    ) {
                        let bytes_delta = if bb > 0.0 { (cb - bb) / bb * 100.0 } else { 0.0 };
                        println!(
                            "    alloc/iter: {} -> {}  ({bytes_delta:+.1}% bytes)",
                            fmt_allocs(ba, bb),
                            fmt_allocs(ca, cb),
                        );
                    }
                }
                (Some(b), None) => {
                    println!(
                        "{label:<width$}  {:>12}  {:>12}  {:>9}  missing from current",
                        fmt_ns(b.median_ns),
                        "-",
                        "-",
                        width = name_width + 2,
                    );
                }
                (None, Some(c)) => {
                    println!(
                        "{label:<width$}  {:>12}  {:>12}  {:>9}  new",
                        "-",
                        fmt_ns(c.median_ns),
                        "-",
                        width = name_width + 2,
                    );
                }
                (None, None) => unreachable!("name came from one of the sides"),
            }
        }
    }

    println!("\n{compared} benchmarks compared, {measured} measured on both sides");
    ExitCode::SUCCESS
}

fn run_merge(id: &str, note: Option<&str>, out: &str, paths: &[String]) -> ExitCode {
    let mut suites: Vec<(String, Json)> = Vec::new();
    for path in paths {
        for (name, suite) in load_suites(path) {
            // A later file's suite replaces an earlier one of the same
            // name, so regenerated suites merge over a committed baseline.
            suites.retain(|(earlier, _)| *earlier != name);
            suites.push((name, suite));
        }
    }
    suites.sort_by(|a, b| a.0.cmp(&b.0));
    let all_full = suites.iter().all(|(_, s)| s.get("mode").and_then(Json::as_str) == Some("full"));
    let mut pairs = vec![
        ("id".to_string(), Json::from(id)),
        ("mode".to_string(), Json::from(if all_full { "full" } else { "quick" })),
    ];
    if let Some(note) = note {
        pairs.push(("note".to_string(), Json::from(note)));
    }
    pairs.push(("suites".to_string(), Json::array(suites.into_iter().map(|(_, s)| s))));
    let doc = Json::Obj(pairs);
    std::fs::write(out, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
    println!("merged {} suite file(s) -> {out}", paths.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut merge_id: Option<String> = None;
    let mut note: Option<String> = None;
    let mut out: Option<String> = None;
    let mut files: Vec<String> = Vec::new();

    let mut i = 0;
    let flag_value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("benchdiff: {flag} needs a value");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--merge" => merge_id = Some(flag_value(&args, &mut i, "--merge")),
            "--note" => note = Some(flag_value(&args, &mut i, "--note")),
            "--out" => out = Some(flag_value(&args, &mut i, "--out")),
            flag if flag.starts_with("--") => {
                eprintln!("benchdiff: unknown flag {flag}");
                usage();
            }
            path => files.push(path.to_owned()),
        }
        i += 1;
    }

    match merge_id {
        Some(id) => {
            let Some(out) = out else {
                eprintln!("benchdiff: --merge requires --out FILE");
                usage();
            };
            if files.is_empty() {
                usage();
            }
            run_merge(&id, note.as_deref(), &out, &files)
        }
        None => {
            if files.len() < 2 {
                usage();
            }
            run_diff(&files)
        }
    }
}
