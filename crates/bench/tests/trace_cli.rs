//! End-to-end CLI checks: `experiments --trace` writes a deterministic
//! multi-component JSONL stream, `--list` enumerates the registry, and
//! `vcstat` renders a report from the trace.

use std::process::Command;

/// SHA-256 of `run_trace`'s output. Every instrumented layer writes into
/// it, so a refactor of the instrumentation must leave it unchanged; a
/// change that alters a trace on purpose updates this and says why.
const TRACE_SHA256: &str = "2cd582b8822513b7148dcb976e8a331bd8d98a7e60b0e5c7af26ef85ce28fecd";

/// SHA-256 of the `VC_TRACE_SAMPLE=1` E8 trace (radio, routing and causal
/// events), pinned the same way.
const CAUSAL_TRACE_SHA256: &str =
    "30d04bd834cc098cc6c7b36c6d44b2106357d188c667803d4def4d6a175e9689";

fn sha256_hex(bytes: &[u8]) -> String {
    vc_crypto::sha256::sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// Asserts that `trace` holds at least one event of each `(component, kind)`.
fn assert_kinds(trace: &str, kinds: &[(&str, &str)]) {
    for (component, kind) in kinds {
        let needle = format!("\"component\":\"{component}\",\"kind\":\"{kind}\"");
        assert!(trace.contains(&needle), "trace lacks {component}/{kind} events");
    }
}

/// One traced run of every experiment whose table is free of wall-clock
/// columns (E3's re-join handshakes among them), at the default sample rate.
fn run_trace(path: &std::path::Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--seed", "7", "--trace"])
        .arg(path)
        .args(["e2", "e3", "e7", "e13", "e15"])
        .env_remove("VC_TRACE_SAMPLE")
        .output()
        .expect("experiments runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::read(path).expect("trace written")
}

#[test]
fn trace_runs_are_byte_identical_and_multi_component() {
    let dir = std::env::temp_dir().join(format!("vc_trace_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = run_trace(&dir.join("a.jsonl"));
    let b = run_trace(&dir.join("b.jsonl"));
    assert!(!a.is_empty(), "trace must be non-empty");
    assert_eq!(a, b, "same seed + flags must give a byte-identical trace");
    assert_eq!(sha256_hex(&a), TRACE_SHA256, "the trace's bytes changed");

    let text = String::from_utf8(a).expect("trace is UTF-8");
    for component in ["sim", "net", "auth", "cloud"] {
        let needle = format!("\"component\":\"{component}\"");
        assert!(text.contains(&needle), "trace lacks {component} events");
    }
    assert_kinds(
        &text,
        &[
            ("sim", "tick"),
            ("net", "cluster.elect"),
            ("cloud", "mode.switch"),
            ("auth", "pseudonym.switch"),
        ],
    );
    // Every line round-trips through the workspace JSON parser.
    for line in text.lines() {
        vc_testkit::json::Json::parse(line).expect("valid JSONL line");
    }

    let stat = Command::new(env!("CARGO_BIN_EXE_vcstat"))
        .arg(dir.join("a.jsonl"))
        .output()
        .expect("vcstat runs");
    assert!(stat.status.success());
    let report = String::from_utf8_lossy(&stat.stdout).into_owned();
    assert!(report.contains("4 components"), "report: {report}");
    assert!(report.contains("slowest spans"), "report: {report}");
    assert!(report.contains("auth.handshake"), "report: {report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vcstat_analytics_flags_report_latency_breakdowns() {
    let dir = std::env::temp_dir().join(format!("vc_vcstat_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("e3.jsonl");
    run_trace(&trace);
    let out = Command::new(env!("CARGO_BIN_EXE_vcstat"))
        .arg(&trace)
        .args(["--critical-path", "--histograms", "--by-kind"])
        .output()
        .expect("vcstat runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(report.contains("span latency by kind"), "report: {report}");
    assert!(report.contains("span latency histograms"), "report: {report}");
    assert!(report.contains("critical path"), "report: {report}");
    // E3's re-join handshake spans drive all three views.
    assert!(report.contains("auth.handshake.us"), "report: {report}");
    assert!(report.contains("[auth]"), "report: {report}");
    // The sparkline renders between pipes with the fixed alphabet.
    let spark = report
        .lines()
        .find(|l| l.contains("auth.handshake.us") && l.contains('|'))
        .expect("histogram row with sparkline");
    let bar = spark.split('|').nth(1).expect("sparkline between pipes");
    assert!(!bar.is_empty() && bar.chars().all(|c| " .:-=+*#@".contains(c)), "bar: {bar:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vcstat_rejects_a_corrupt_trace_with_the_line_number() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corrupt_trace.jsonl");
    let out =
        Command::new(env!("CARGO_BIN_EXE_vcstat")).arg(&fixture).output().expect("vcstat runs");
    assert!(!out.status.success(), "a truncated trace must fail");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("corrupt_trace.jsonl:6"), "error must name the line: {err}");
    assert!(err.contains("bad JSON"), "err: {err}");

    // A line nested past the parser's depth cap is bad JSON too: a clean
    // exit 1 naming the line, not a stack overflow.
    let dir = std::env::temp_dir().join(format!("vc_vcstat_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deep = dir.join("deep.jsonl");
    std::fs::write(&deep, "[".repeat(100_000) + "\n").expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_vcstat")).arg(&deep).output().expect("runs");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("deep.jsonl:1: bad JSON"), "err: {err}");
    assert!(err.contains("nesting deeper than"), "err: {err}");
    std::fs::remove_dir_all(&dir).ok();

    // Structurally valid JSON that is not a trace event also fails loudly.
    let dir = std::env::temp_dir().join(format!("vc_vcstat_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, line, needle) in [
        ("array.jsonl", "[1,2,3]", "expected a JSON object"),
        ("no_at.jsonl", r#"{"component":"x","kind":"y"}"#, "lacks numeric \"at_us\""),
        ("no_kind.jsonl", r#"{"at_us":1,"component":"x"}"#, "lacks string \"kind\""),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, format!("{line}\n")).expect("write fixture");
        let out = Command::new(env!("CARGO_BIN_EXE_vcstat")).arg(&path).output().expect("runs");
        assert!(!out.status.success(), "{name} must fail");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains(needle), "{name}: {err}");
        assert!(err.contains(":1:"), "{name} error must carry the line number: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn causal_timeline_and_json_modes_roundtrip() {
    let dir = std::env::temp_dir().join(format!("vc_causal_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("e8.jsonl");
    let ts = dir.join("ts.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--seed", "7", "--trace"])
        .arg(&trace)
        .arg("--timeseries")
        .arg(&ts)
        .arg("e8")
        .env("VC_TRACE_SAMPLE", "1")
        .output()
        .expect("experiments runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&trace).expect("trace written");
    assert_eq!(sha256_hex(&bytes), CAUSAL_TRACE_SHA256, "the causal trace's bytes changed");
    assert_kinds(&String::from_utf8(bytes).expect("trace is UTF-8"), &[("net", "causal.origin")]);

    // --causal reconstructs chains with percentiles and hop distribution.
    let causal = Command::new(env!("CARGO_BIN_EXE_vcstat"))
        .arg(&trace)
        .arg("--causal")
        .output()
        .expect("vcstat runs");
    assert!(causal.status.success(), "stderr: {}", String::from_utf8_lossy(&causal.stderr));
    let report = String::from_utf8_lossy(&causal.stdout).into_owned();
    assert!(report.contains("causal traces"), "report: {report}");
    assert!(report.contains("e2e delivery latency: p50"), "report: {report}");
    assert!(report.contains("hop-count distribution"), "report: {report}");
    assert!(report.contains("slowest causal chains"), "report: {report}");

    // --causal --json is machine-readable and consistent with the registry.
    let json = Command::new(env!("CARGO_BIN_EXE_vcstat"))
        .arg(&trace)
        .args(["--causal", "--json"])
        .output()
        .expect("vcstat runs");
    assert!(json.status.success());
    let doc = vc_testkit::json::Json::parse(&String::from_utf8_lossy(&json.stdout))
        .expect("valid JSON output");
    assert!(doc["summary"]["events"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(doc["causal"]["traces"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(doc["causal"]["e2e_latency_s"]["p50"].as_f64().is_some());

    // --timeline renders the per-tick evolution from the timeseries file.
    let timeline = Command::new(env!("CARGO_BIN_EXE_vcstat"))
        .arg(&ts)
        .arg("--timeline")
        .output()
        .expect("vcstat runs");
    assert!(timeline.status.success(), "stderr: {}", String::from_utf8_lossy(&timeline.stderr));
    let report = String::from_utf8_lossy(&timeline.stdout).into_owned();
    assert!(report.contains("timeline —"), "report: {report}");
    assert!(report.contains("net.routing.deliver"), "report: {report}");

    let timeline_json = Command::new(env!("CARGO_BIN_EXE_vcstat"))
        .arg(&ts)
        .args(["--timeline", "--json"])
        .output()
        .expect("vcstat runs");
    assert!(timeline_json.status.success());
    let doc = vc_testkit::json::Json::parse(&String::from_utf8_lossy(&timeline_json.stdout))
        .expect("valid JSON output");
    assert!(doc["timeline"]["ticks"].as_f64().unwrap_or(0.0) > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vcstat_flags_truncated_ring_traces_loudly() {
    let dir = std::env::temp_dir().join(format!("vc_ring_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ring.jsonl");
    std::fs::write(
        &path,
        concat!(
            "{\"at_us\":1,\"component\":\"net\",\"kind\":\"x\"}\n",
            "{\"at_us\":2,\"component\":\"obs\",\"kind\":\"trace.end\",",
            "\"fields\":{\"retained\":1,\"dropped\":5}}\n",
        ),
    )
    .expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_vcstat")).arg(&path).output().expect("vcstat runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(report.contains("TRUNCATED TRACE"), "report: {report}");
    assert!(report.contains("dropped 5 events"), "report: {report}");
    // The trailer itself stays out of the component tables.
    assert!(report.contains("1 events, 1 components"), "report: {report}");

    // --json surfaces the same counts machine-readably.
    let json = Command::new(env!("CARGO_BIN_EXE_vcstat"))
        .arg(&path)
        .arg("--json")
        .output()
        .expect("vcstat runs");
    assert!(json.status.success());
    let doc = vc_testkit::json::Json::parse(&String::from_utf8_lossy(&json.stdout))
        .expect("valid JSON output");
    assert_eq!(doc["summary"]["ring"]["dropped"].as_f64(), Some(5.0));
    assert_eq!(doc["summary"]["ring"]["truncated"], vc_testkit::json::Json::Bool(true));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_flag_prints_every_experiment_with_a_description() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--list")
        .output()
        .expect("experiments runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines: Vec<&str> = text.lines().collect();
    let registry = vc_bench::experiments::registry();
    assert_eq!(lines.len(), registry.len());
    for (i, (line, exp)) in lines.iter().zip(&registry).enumerate() {
        let id = exp.id;
        assert!(line.starts_with(id), "line {i} should start with {id}: {line}");
        assert!(line.len() > id.len() + 4, "missing description: {line}");
        // Every row advertises its supported flags; profiling is universal.
        assert!(line.contains("profile"), "line {i} should list its flags: {line}");
    }
}
