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
fn flags_of_the_other_mode_are_rejected_not_ignored() {
    let dir = std::env::temp_dir().join(format!("vc_mixed_cli_{}", std::process::id()));
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let job = ["--job", "urban-epidemic", "--seed", "99", "--ticks", "48"];
    for args in [
        [&job[..], &["--profile", &path("profile.json")]].concat(),
        [&job[..], &["--trace", &path("trace.jsonl"), "--json", &path("json"), "e1"]].concat(),
        vec!["--quick", "--ticks", "5", "--job-trace", "--job-out", &path("job"), "e7"],
    ] {
        let out = experiments().args(&args).output().expect("experiments runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: experiments"), "{args:?} stderr: {err}");
        assert!(String::from_utf8_lossy(&out.stdout).is_empty(), "{args:?} ran something");
        assert!(!dir.exists(), "{args:?} wrote output");
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
fn job_mode_rejects_unknown_scenarios_with_the_catalog() {
    let out = experiments().args(["--job", "no-such-scenario"]).output().expect("experiments runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("available scenarios:"), "stderr: {err}");
    assert!(err.contains("urban-epidemic"), "stderr: {err}");
}
