//! Regression tests for the `experiments` CLI surface: unknown names and
//! malformed flags must fail loudly (with the available list), and the
//! `--job` mode must reproduce the exact bytes `vcloudd` serves.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn unknown_experiment_name_lists_available_and_fails() {
    let out = experiments().arg("e99").output().expect("experiments runs");
    assert!(!out.status.success(), "unknown id must exit non-zero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "stderr: {err}");
    assert!(err.contains("available experiments:"), "stderr: {err}");
    for exp in vc_bench::experiments::registry() {
        let line = format!("  {:<4} {}\n", exp.id, exp.desc);
        assert!(err.contains(&line), "the list must be complete, {} missing: {err}", exp.id);
    }
}

#[test]
fn unknown_id_mixed_with_known_ids_still_fails() {
    // Regression: a typo next to a valid id used to silently run the
    // valid subset and drop the typo.
    let out = experiments().args(["--quick", "e7", "e99"]).output().expect("experiments runs");
    assert!(!out.status.success(), "typo mixed with valid ids must exit non-zero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("e99"), "the offending id must be named: {err}");
    assert!(err.contains("available experiments:"), "stderr: {err}");
    // And the valid experiment must NOT have run.
    assert!(
        String::from_utf8_lossy(&out.stdout).trim().is_empty(),
        "nothing may run when the invocation is invalid"
    );
}

#[test]
fn malformed_flags_list_available_and_fail() {
    let ids: Vec<&str> = vc_bench::experiments::registry().iter().map(|e| e.id).collect();
    let usage_ids = format!("[{} ...]", ids.join("|"));
    for args in [vec!["--frobnicate"], vec!["--seed", "not-a-number"], vec!["--seed"]] {
        let out = experiments().args(&args).output().expect("experiments runs");
        assert!(!out.status.success(), "{args:?} must exit non-zero");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("available experiments:"), "{args:?} stderr: {err}");
        assert!(err.contains(&usage_ids), "usage must list the registry's ids: {err}");
    }
}

#[test]
fn job_mode_writes_the_exact_service_bytes() {
    let dir = std::env::temp_dir().join(format!("vc_job_cli_{}", std::process::id()));
    let out = experiments()
        .args(["--job", "urban-greedy", "--seed", "77", "--ticks", "32", "--job-trace"])
        .args(["--job-out", dir.to_str().unwrap()])
        .output()
        .expect("experiments runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("job urban-greedy seed=77 ticks=32"), "stdout: {stdout}");

    let stats = std::fs::read(dir.join("stats.json")).expect("stats written");
    let trace = std::fs::read(dir.join("trace.jsonl")).expect("trace written");
    let spec = vc_service::job::JobSpec {
        scenario: "urban-greedy".into(),
        seed: 77,
        ticks: 32,
        flags: vc_net::svc::FLAG_TRACE,
    };
    let reference = vc_service::job::run_job(&spec, None).expect("reference run");
    assert_eq!(stats, reference.stats, "--job stats must be the service's exact bytes");
    assert_eq!(trace, reference.trace, "--job trace must be the service's exact bytes");
    let expected = format!("checksum={:#018x}", reference.checksum);
    assert!(stdout.contains(&expected), "stdout must carry the checksum: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_traced_job_ignores_the_trace_sample_rate_of_the_environment() {
    // A RESULT depends only on its spec: `VC_TRACE_SAMPLE` (E8's opt-in)
    // must not add causal events to a job's trace.
    let dir = std::env::temp_dir().join(format!("vc_job_env_{}", std::process::id()));
    let run = |rate: Option<&str>| {
        let out_dir = dir.join(rate.unwrap_or("unset"));
        let mut cmd = experiments();
        cmd.args(["--job", "urban-epidemic", "--seed", "99", "--ticks", "48", "--job-trace"])
            .args(["--job-out", out_dir.to_str().unwrap()]);
        match rate {
            Some(rate) => cmd.env("VC_TRACE_SAMPLE", rate),
            None => cmd.env_remove("VC_TRACE_SAMPLE"),
        };
        let out = cmd.output().expect("experiments runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let read = |name| std::fs::read(out_dir.join(name)).expect("job output written");
        (read("stats.json"), read("trace.jsonl"))
    };
    let unset = run(None);
    let sampled = run(Some("1"));
    assert_eq!(unset.0, sampled.0, "stats must not depend on VC_TRACE_SAMPLE");
    assert!(unset.1 == sampled.1, "the trace must not depend on VC_TRACE_SAMPLE");
    assert!(!String::from_utf8_lossy(&sampled.1).contains("causal."), "no causal event");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_mode_rejects_unknown_scenarios_with_the_catalog() {
    let out = experiments().args(["--job", "no-such-scenario"]).output().expect("experiments runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("available scenarios:"), "stderr: {err}");
    assert!(err.contains("urban-epidemic"), "stderr: {err}");
}
