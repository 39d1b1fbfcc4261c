//! Self-tests of the harness: the arithmetic every reported number rests on.

use std::time::Instant;

use vc_testkit::json::Json;

use crate::harness::{
    coverage_share, host_factor, host_probe, p95, quantile, schedule_digest, self_times, steady,
    OpRec, Span, Tracer, Workload, NO_PARENT, P95_MIN_N,
};
use crate::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::{beacon, city, cloud, parse_args, svc, vc_knobs_set, RUNNERS};

#[test]
fn quantiles_are_nearest_rank() {
    let ten: Vec<u64> = (1..=10).collect();
    assert_eq!(quantile(&ten, 0.5), 5);
    assert_eq!(quantile(&ten, 0.95), 10);
    assert_eq!(quantile(&ten, 0.0), 1);
    assert_eq!(quantile(&ten, 1.0), 10);
    assert_eq!(quantile(&[7], 0.95), 7);
}

#[test]
fn p95_refuses_a_sample_without_ten_values_beyond_it() {
    let short: Vec<u64> = (1..P95_MIN_N as u64).collect();
    let err = p95(&short).unwrap_err();
    assert!(err.contains("n = 199"), "the refusal names n: {err}");
    let enough: Vec<u64> = (1..=P95_MIN_N as u64).collect();
    assert_eq!(p95(&enough), Ok(190));
    assert_eq!(enough.iter().filter(|&&v| v > 190).count(), 10);
}

#[test]
fn host_factor_is_the_median_probe_over_the_reference() {
    let mut probes = [900_000, 300_000, 600_000];
    assert_eq!(host_factor(&mut probes), 2.0);
    assert!(host_probe() > 0, "the probe is not optimised away");
}

fn op(done_ns: u64, lat_ns: u64) -> OpRec {
    OpRec { done_ns, lat_ns, traced: false, ok: true }
}

#[test]
fn steady_reports_medians_over_blocks() {
    // 600 ops, one per millisecond; the middle block is disturbed: its ops
    // take ten times as long and end ten times as far apart.
    let mut ops = Vec::new();
    let mut now = 0;
    for i in 0..600u64 {
        let slow = (200..400).contains(&i);
        now += if slow { 10_000_000 } else { 1_000_000 };
        ops.push(op(now, if slow { 9_000_000 } else { 900_000 + i }));
    }
    let s = steady(&ops).unwrap();
    assert_eq!((s.blocks, s.block_n), (3, 200));
    assert!((s.ops_per_s - 1000.0).abs() < 1e-6, "median block rate, got {}", s.ops_per_s);
    assert!(s.p50_ms < 1.0 && s.p95_ms < 1.0, "the disturbed block is outvoted: {s:?}");
    // A failed op is attempted but not passed.
    ops[0].ok = false;
    ops[599].ok = false;
    assert!((steady(&ops).unwrap().ops_per_s - 995.0).abs() < 1e-6);
    assert!(steady(&ops[..199]).unwrap_err().contains("n = 199"));
}

fn span(
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    shadow: bool,
) -> Span {
    Span { id, parent, op: 0, name, start_ns, end_ns, items: 1, shadow }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = [
        span(0, NO_PARENT, "op", 0, 100, false),
        span(1, 0, "a", 10, 40, false),
        span(2, 1, "a.inner", 20, 30, false),
        span(3, 0, "shadowed", 50, 70, true),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    // The shadow call is not part of the op: 80 ns of op, 30 of them named.
    assert!((coverage_share(&spans) - 30.0 / 80.0).abs() < 1e-12);
}

#[test]
fn tracer_records_only_while_on_and_deducts_shadows() {
    let mut tr = Tracer::new(Instant::now(), true, 16);
    tr.begin_op(7);
    assert_eq!(tr.span("layer.call", 3, || 2 + 2), 4);
    assert_eq!(tr.span_by(1, || ("layer.named_after", "out")), "out");
    assert_eq!(tr.shadow("layer.shadow", || 5), Some(5));
    let shadow_ns = tr.end_op();
    let spans = tr.spans().to_vec();
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["op", "layer.call", "layer.named_after", "layer.shadow"]);
    assert!(spans[1..].iter().all(|s| s.parent == spans[0].id && s.op == 7));
    assert_eq!(spans[1].items, 3);
    assert_eq!(shadow_ns, spans[3].dur());
    assert!(spans[0].end_ns >= spans[3].end_ns, "the op span closes last");

    let mut off = Tracer::new(Instant::now(), false, 0);
    off.begin_op(8);
    assert_eq!(off.span("layer.call", 1, || 1), 1);
    assert_eq!(
        off.shadow("layer.shadow", || unreachable!("no shadow call in an untraced run")),
        None::<()>
    );
    assert_eq!(off.end_op(), 0);
    assert!(off.spans().is_empty());
}

fn schedule_is_a_function_of_the_seed<W: Workload>() {
    for smoke in [false, true] {
        let a = schedule_digest::<W>(42, smoke, 256);
        assert_eq!(a, schedule_digest::<W>(42, smoke, 256), "{}: same seed", W::NAME);
        assert_ne!(a, schedule_digest::<W>(43, smoke, 256), "{}: another seed", W::NAME);
    }
}

#[test]
fn op_schedules_are_pure_functions_of_the_seed() {
    schedule_is_a_function_of_the_seed::<city::City>();
    schedule_is_a_function_of_the_seed::<beacon::BeaconAuth>();
    schedule_is_a_function_of_the_seed::<cloud::CloudPipeline>();
    schedule_is_a_function_of_the_seed::<svc::SvcMix>();
}

#[test]
fn workspace_knobs_are_found_in_the_environment() {
    let env = ["PATH", "VC_SHARDS", "RUST_LOG", "VC_TRACE_SAMPLE", "MY_VC_X"].map(String::from);
    assert_eq!(vc_knobs_set(env.into_iter()), ["VC_SHARDS", "VC_TRACE_SAMPLE"]);
}

#[test]
fn arguments_default_to_the_benchmark_contract() {
    let parse =
        |line: &str| parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>());
    let args = parse("").unwrap();
    assert_eq!(
        (args.seed, args.seconds, args.trace, args.smoke),
        (42, RUN_SECONDS as f64, None, false)
    );
    let args = parse("--workload svc-mix --seed 7 --seconds 3 --trace 1").unwrap();
    assert_eq!(args.workload.as_deref(), Some("svc-mix"));
    assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, Some(true)));
    assert!(parse("aa --seed 7").unwrap().aa);
    assert!(parse("run --smoke").unwrap().smoke);
    for bad in
        ["--workload nope", "--seed x", "--trace 2", "--seconds -1", "--frobnicate 1", "--seed"]
    {
        assert!(parse(bad).is_err(), "{bad:?} must be refused");
    }
}

/// `BENCHMARK.json` is what the driver reads and `spec.rs` is what the binary
/// prints; they must say the same.
#[test]
fn benchmark_json_matches_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(doc["run_seconds"], Json::from(RUN_SECONDS));
    assert_eq!(doc["paths"], Json::array([Json::from("benchmark")]));
    assert_eq!(doc["command"], Json::array(["bash", "benchmark/run.sh"].map(Json::from)));

    let Json::Arr(workloads) = &doc["workloads"] else { panic!("workloads is an array") };
    assert_eq!(workloads.len(), WORKLOADS.len());
    for ((w, (name, why)), runner) in workloads.iter().zip(WORKLOADS).zip(RUNNERS) {
        assert_eq!(name, runner.name, "spec and runners list the workloads alike");
        assert_eq!((w["name"].as_str(), w["why"].as_str()), (Some(name), Some(why)));
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is one line of <= 200");
    }
    for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let Json::Arr(listed) = &doc[key] else { panic!("{key} is an array") };
        assert_eq!(listed.len(), table.len(), "{key}");
        for (j, m) in listed.iter().zip(table) {
            assert_eq!(j["name"].as_str(), Some(m.name));
            assert_eq!(j["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(j["better"].as_str(), Some(m.better), "{}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            if key == "end_to_end" {
                assert_eq!(j["bound"].as_f64(), Some(m.bound), "{}", m.name);
                assert!(m.bound > 0.0 && m.bound <= 0.25);
            } else {
                assert!(j.get("bound").is_none(), "{}: per-layer metrics have no bound", m.name);
            }
        }
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit, setup.better), ("setup_s", "s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
}
