//! The binary's contract with the driver, checked on the cheapest workload.

use std::process::Command;

use vc_testkit::json::Json;

fn vcbench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vcbench"));
    // Traces land in `benchmark/out` under the working directory.
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR"));
    for (knob, _) in std::env::vars_os().filter(|(k, _)| k.to_string_lossy().starts_with("VC_")) {
        cmd.env_remove(knob);
    }
    cmd
}

fn names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Json::Arr(listed) = &doc[key] else { panic!("{key} is an array") };
    listed.iter().map(|m| m["name"].as_str().unwrap().to_string()).collect()
}

#[test]
fn refuses_to_start_with_a_workspace_knob_set() {
    let out = vcbench()
        .env("VC_SHARDS", "1")
        .args(["--workload", "svc-mix", "--smoke"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("VC_SHARDS"));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = vcbench().args(["--workload", "no-such-workload"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn smoke_run_ends_with_the_result_object() {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = vcbench()
            .args(["--workload", "svc-mix", "--smoke", "--seed", "7", "--trace", trace])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let Json::Obj(pairs) = &last else { panic!("the last line is an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last["correct"], Json::Bool(true));
        assert_eq!(last["failed"], Json::from(0u64));
        assert!(last["attempted"].as_f64().unwrap() >= 200.0);
        let Json::Obj(metrics) = &last["metrics"] else { panic!("metrics is an object") };
        let reported: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(reported, names(key), "--trace {trace} reports every {key} metric");
        assert!(metrics
            .iter()
            .all(|(_, m)| m["value"].as_f64().is_some() && m["unit"].as_str().is_some()));
    }
}
