//! Micro-benchmark harness: warmup, fixed iteration batches, median/p95
//! wall-clock, and a `BENCH_<suite>.json` artifact per suite.
//!
//! A bench target is a plain binary (`harness = false`) whose `main` builds a
//! [`Suite`], registers closures, and calls [`Suite::finish`]:
//!
//! ```no_run
//! use vc_testkit::bench::{black_box, Suite};
//!
//! fn main() {
//!     let mut suite = Suite::new("example");
//!     let data = vec![0u8; 1024];
//!     suite.bench_bytes("xor_fold/1KiB", data.len() as u64, || {
//!         black_box(data.iter().fold(0u8, |a, b| a ^ b))
//!     });
//!     suite.finish();
//! }
//! ```
//!
//! Flags (after `cargo bench -- `): `--quick` runs one iteration per bench
//! (the CI smoke mode), `--out DIR` writes `BENCH_<suite>.json` there.
//! The `--bench` cargo appends is accepted; any other flag exits 2.

use crate::cli::{Args, Cli, Flag};
use crate::json::Json;
use std::sync::OnceLock;
use std::time::Instant;

pub use std::hint::black_box;

/// Optional allocation probe: returns the current thread's cumulative
/// `(allocations, bytes allocated)`. Bench binaries that install a
/// counting allocator register one (see `vc_obs::mem::register_bench_probe`)
/// and every benchmark then reports allocs/iter and alloc bytes/iter in
/// its `BENCH_*.json` entry. Without a probe those columns are simply
/// absent and artifacts keep their prior shape.
static ALLOC_PROBE: OnceLock<fn() -> (u64, u64)> = OnceLock::new();

/// Registers the allocation probe. First registration wins; later calls
/// are ignored so a suite and its harness cannot fight over it.
pub fn set_alloc_probe(probe: fn() -> (u64, u64)) {
    let _ = ALLOC_PROBE.set(probe);
}

fn alloc_probe() -> Option<(u64, u64)> {
    ALLOC_PROBE.get().map(|f| f())
}

/// Target wall-clock per measured batch.
const BATCH_TARGET_NS: u128 = 5_000_000;
/// Measured batches per benchmark (each yields one ns/iter sample).
const BATCHES: usize = 30;
/// Warmup budget before calibration counts.
const WARMUP_NS: u128 = 50_000_000;

/// One benchmark's measured statistics, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub(crate) struct BenchResult {
    /// Benchmark name, e.g. `"schnorr/sign"`.
    pub name: String,
    /// Median ns/iter across batches.
    pub median_ns: f64,
    /// 95th-percentile ns/iter across batches.
    pub p95_ns: f64,
    /// Fastest batch's ns/iter.
    pub min_ns: f64,
    /// Mean ns/iter across batches.
    pub mean_ns: f64,
    /// Iterations per measured batch.
    pub iters_per_batch: u64,
    /// Number of measured batches.
    pub batches: u64,
    /// Optional throughput denominator: bytes processed per iteration.
    pub bytes_per_iter: Option<u64>,
    /// Optional throughput denominator: elements processed per iteration.
    pub elems_per_iter: Option<u64>,
    /// Mean heap allocations per iteration (present only when an
    /// allocation probe is registered, see [`set_alloc_probe`]).
    pub allocs_per_iter: Option<f64>,
    /// Mean heap bytes allocated per iteration (same condition).
    pub alloc_bytes_per_iter: Option<f64>,
}

impl BenchResult {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            ("median_ns".to_string(), Json::from(self.median_ns)),
            ("p95_ns".to_string(), Json::from(self.p95_ns)),
            ("min_ns".to_string(), Json::from(self.min_ns)),
            ("mean_ns".to_string(), Json::from(self.mean_ns)),
            ("iters_per_batch".to_string(), Json::from(self.iters_per_batch)),
            ("batches".to_string(), Json::from(self.batches)),
        ];
        if let Some(b) = self.bytes_per_iter {
            pairs.push(("bytes_per_iter".to_string(), Json::from(b)));
            if self.median_ns > 0.0 {
                let mibps = b as f64 * 1e9 / self.median_ns / (1024.0 * 1024.0);
                pairs.push(("throughput_mib_s".to_string(), Json::from(mibps)));
            }
        }
        if let Some(e) = self.elems_per_iter {
            pairs.push(("elems_per_iter".to_string(), Json::from(e)));
        }
        if let Some(a) = self.allocs_per_iter {
            pairs.push(("allocs_per_iter".to_string(), Json::from(a)));
        }
        if let Some(b) = self.alloc_bytes_per_iter {
            pairs.push(("alloc_bytes_per_iter".to_string(), Json::from(b)));
        }
        Json::Obj(pairs)
    }
}

/// The bench command line (`cargo bench` appends `--bench`).
const SUITE: &str = "a bench suite";
const SUITE_FLAGS: &[Flag] = &[
    Flag::switch("--quick", &[SUITE]),
    Flag::value("--out", &[SUITE]),
    Flag::switch("--bench", &[SUITE]),
];
const SUITE_CLI: Cli = Cli {
    name: "bench",
    usage: "usage: cargo bench -p vc-bench [--bench SUITE] -- [--quick] [--out DIR]",
    default_mode: SUITE,
    flags: SUITE_FLAGS,
    positionals: &[],
};

/// A named collection of benchmarks sharing one output artifact.
pub struct Suite {
    name: String,
    quick: bool,
    out_dir: Option<String>,
    results: Vec<BenchResult>,
}

impl Suite {
    /// Creates a suite, reading `--quick` / `--out DIR` from the command
    /// line; any other flag exits 2 with the usage.
    pub fn new(name: &str) -> Suite {
        Suite::from_args(name, &SUITE_CLI.parse_env())
    }

    /// [`Suite::new`] over parsed arguments.
    fn from_args(name: &str, args: &Args) -> Suite {
        let quick = args.has("--quick");
        println!(
            "bench suite '{name}' — {} mode",
            if quick { "quick (1 iteration, smoke only)" } else { "full" }
        );
        let out_dir = args.value("--out").map(String::from);
        Suite { name: name.to_string(), quick, out_dir, results: Vec::new() }
    }

    /// Measures `f`, recording ns/iter statistics under `name`.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) -> &mut Suite {
        self.record(name, None, None, f)
    }

    /// Like [`Suite::bench`], annotating bytes processed per iteration.
    pub fn bench_bytes<T>(&mut self, name: &str, bytes: u64, f: impl FnMut() -> T) -> &mut Suite {
        self.record(name, Some(bytes), None, f)
    }

    /// Like [`Suite::bench`], annotating elements processed per iteration.
    pub fn bench_elems<T>(&mut self, name: &str, elems: u64, f: impl FnMut() -> T) -> &mut Suite {
        self.record(name, None, Some(elems), f)
    }

    fn record<T>(
        &mut self,
        name: &str,
        bytes: Option<u64>,
        elems: Option<u64>,
        mut f: impl FnMut() -> T,
    ) -> &mut Suite {
        let result = if self.quick {
            // Smoke mode: prove the bench runs, once, and record that run.
            let before = alloc_probe();
            let start = Instant::now();
            black_box(f());
            let ns = start.elapsed().as_nanos() as f64;
            let (allocs_per_iter, alloc_bytes_per_iter) = alloc_delta(before, 1);
            BenchResult {
                name: name.to_string(),
                median_ns: ns,
                p95_ns: ns,
                min_ns: ns,
                mean_ns: ns,
                iters_per_batch: 1,
                batches: 1,
                bytes_per_iter: bytes,
                elems_per_iter: elems,
                allocs_per_iter,
                alloc_bytes_per_iter,
            }
        } else {
            measure(name, &mut f, bytes, elems)
        };
        println!(
            "  {:<40} median {:>12}  p95 {:>12}  ({} iters x {} batches)",
            result.name,
            format_ns(result.median_ns),
            format_ns(result.p95_ns),
            result.iters_per_batch,
            result.batches,
        );
        self.results.push(result);
        self
    }

    /// Prints the footer and writes `BENCH_<suite>.json` when an output
    /// directory is configured.
    pub fn finish(self) {
        println!("bench suite '{}': {} benchmarks", self.name, self.results.len());
        let Some(dir) = self.out_dir else { return };
        std::fs::create_dir_all(&dir).expect("create bench output dir");
        let doc = Json::object([
            ("suite", Json::from(self.name.as_str())),
            ("mode", Json::from(if self.quick { "quick" } else { "full" })),
            ("results", Json::array(self.results.iter().map(|r| r.to_json()))),
        ]);
        let path = format!("{dir}/BENCH_{}.json", self.name);
        std::fs::write(&path, doc.to_string_pretty() + "\n").expect("write bench json");
        println!("wrote {path}");
    }
}

fn measure<T>(
    name: &str,
    f: &mut impl FnMut() -> T,
    bytes: Option<u64>,
    elems: Option<u64>,
) -> BenchResult {
    // Warmup and calibration: run until the warmup budget is spent, tracking
    // the observed per-iteration cost.
    let warmup_start = Instant::now();
    let mut warmup_iters = 0u64;
    while warmup_start.elapsed().as_nanos() < WARMUP_NS && warmup_iters < 1_000_000 {
        black_box(f());
        warmup_iters += 1;
    }
    let per_iter_ns = (warmup_start.elapsed().as_nanos() / u128::from(warmup_iters.max(1))).max(1);
    let iters_per_batch = (BATCH_TARGET_NS / per_iter_ns).clamp(1, 10_000_000) as u64;

    let mut samples: Vec<f64> = Vec::with_capacity(BATCHES);
    let before = alloc_probe();
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters_per_batch {
            black_box(f());
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters_per_batch as f64);
    }
    let (allocs_per_iter, alloc_bytes_per_iter) =
        alloc_delta(before, BATCHES as u64 * iters_per_batch);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let percentile = |q: f64| {
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[idx]
    };
    BenchResult {
        name: name.to_string(),
        median_ns: percentile(0.5),
        p95_ns: percentile(0.95),
        min_ns: samples[0],
        mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
        iters_per_batch,
        batches: samples.len() as u64,
        bytes_per_iter: bytes,
        elems_per_iter: elems,
        allocs_per_iter,
        alloc_bytes_per_iter,
    }
}

/// Converts a pre-measurement probe reading into mean per-iteration alloc
/// columns (`None` when no probe is registered).
fn alloc_delta(before: Option<(u64, u64)>, iters: u64) -> (Option<f64>, Option<f64>) {
    let (Some((a0, b0)), Some((a1, b1))) = (before, alloc_probe()) else {
        return (None, None);
    };
    let iters = iters.max(1) as f64;
    (Some((a1 - a0) as f64 / iters), Some((b1 - b0) as f64 / iters))
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs_each_bench_once() {
        let args = SUITE_CLI.parse(["--bench", "--quick", "--out", "dir"].map(String::from));
        let mut suite = Suite::from_args("selftest", &args.unwrap());
        assert_eq!(suite.out_dir.as_deref(), Some("dir"));
        let mut calls = 0u32;
        suite.bench("counter", || {
            calls += 1;
            calls
        });
        assert!(suite.quick);
        assert_eq!(calls, 1);
        assert_eq!(suite.results.len(), 1);
        assert_eq!(suite.results[0].iters_per_batch, 1);
    }

    #[test]
    fn a_mistyped_flag_is_an_error_not_a_full_run() {
        let err = SUITE_CLI.parse(["--quik", "--bench"].map(String::from)).err();
        assert_eq!(err.as_deref(), Some("unknown flag --quik"));
        assert!(SUITE_CLI.parse(["filter".to_string()]).is_err(), "no positional filters");
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
    }

    #[test]
    fn result_json_has_throughput_when_bytes_given() {
        let r = BenchResult {
            name: "x".into(),
            median_ns: 1000.0,
            p95_ns: 1200.0,
            min_ns: 900.0,
            mean_ns: 1010.0,
            iters_per_batch: 10,
            batches: 30,
            bytes_per_iter: Some(1024),
            elems_per_iter: None,
            allocs_per_iter: None,
            alloc_bytes_per_iter: None,
        };
        let j = r.to_json();
        assert_eq!(j["name"], "x");
        assert!(j["throughput_mib_s"].as_f64().unwrap() > 0.0);
        assert!(j["allocs_per_iter"].as_f64().is_none(), "absent without a probe");
    }

    #[test]
    fn result_json_carries_alloc_columns_when_probed() {
        let r = BenchResult {
            name: "x".into(),
            median_ns: 1000.0,
            p95_ns: 1200.0,
            min_ns: 900.0,
            mean_ns: 1010.0,
            iters_per_batch: 10,
            batches: 30,
            bytes_per_iter: None,
            elems_per_iter: None,
            allocs_per_iter: Some(3.0),
            alloc_bytes_per_iter: Some(96.5),
        };
        let j = r.to_json();
        assert_eq!(j["allocs_per_iter"].as_f64(), Some(3.0));
        assert_eq!(j["alloc_bytes_per_iter"].as_f64(), Some(96.5));
    }
}
