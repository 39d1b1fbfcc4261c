//! The experiment harness must be reproducible: same seed, same tables.
//! No experiment reads a clock, so every table — columns, rows and notes —
//! is a pure function of its seed.

use vc_bench::experiments::registry;

#[test]
fn deterministic_experiments_reproduce_exactly() {
    for exp in registry() {
        let a = (exp.run)(true, 7, None).to_json();
        let b = (exp.run)(true, 7, None).to_json();
        assert_eq!(a, b, "{} differs across identical runs", exp.id);
    }
}

/// Full-size E18 builds a million-vehicle fleet (≈ 25 s, ≈ 690 MB peak), so
/// its byte pin is CI's `obs-smoke` job, which regenerates it and `cmp`s.
const PINNED_IN_CI: &[&str] = &["e18"];

#[test]
fn committed_results_regenerate_byte_identical() {
    // The committed files were produced and re-verified under the
    // division-based crypto oracle and the linear road scan when the
    // Montgomery core and the road index landed, so this pins both fast
    // paths end to end (e1 + e8 the crypto core, e14 the road index)
    // without a runtime switch between two implementations.
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    for exp in registry() {
        if PINNED_IN_CI.contains(&exp.id) {
            continue;
        }
        let path = format!("{results}/{}.json", exp.id);
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let regenerated = (exp.run)(false, 42, None).to_json().to_string_pretty() + "\n";
        assert_eq!(regenerated, committed, "{path} would change");
    }
}

#[test]
fn every_committed_result_names_a_registry_experiment() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    for entry in std::fs::read_dir(results).expect("results/ exists") {
        let name = entry.expect("dir entry").file_name().into_string().expect("utf-8 name");
        let id = name.strip_suffix(".json").unwrap_or_else(|| panic!("results/{name}: not JSON"));
        assert!(ids.contains(&id), "results/{name} has no experiment to regenerate it");
    }
}

#[test]
fn different_seeds_change_something() {
    // E7 (replication churn) is seed-sensitive in its measured column.
    let e7 = registry().into_iter().find(|e| e.id == "e7").expect("e7 exists");
    let a = (e7.run)(true, 1, None);
    let b = (e7.run)(true, 2, None);
    assert_ne!(a.rows, b.rows, "seed must matter");
}

#[test]
fn tracing_does_not_perturb_results() {
    // Attaching a recorder must leave every table cell untouched: the
    // hooks only emit what the plain code paths computed.
    for id in ["e2", "e3"] {
        let exp = registry().into_iter().find(|e| e.id == id).expect("known id");
        let silent = (exp.run)(true, 7, None);
        let mut rec = vc_obs::Recorder::new();
        let traced = (exp.run)(true, 7, Some(&mut rec));
        assert_eq!(silent.rows, traced.rows, "{id} rows changed under tracing");
        assert!(!rec.is_empty(), "{id} emitted no events");
        assert_eq!(rec.open_spans(), 0, "{id} leaked open spans");
    }
}

#[test]
fn e3_trace_covers_four_components() {
    let exp = registry().into_iter().find(|e| e.id == "e3").expect("e3 exists");
    let mut rec = vc_obs::Recorder::new();
    let _ = (exp.run)(true, 7, Some(&mut rec));
    let mut components: Vec<&str> = rec.events().map(|e| e.component).collect();
    components.sort_unstable();
    components.dedup();
    for required in ["sim", "net", "auth", "cloud"] {
        assert!(components.contains(&required), "missing {required} events: {components:?}");
    }
    // Spans closed and measured: the handshake latency histogram exists.
    assert!(rec.hub().histogram("auth.handshake.us").is_some());
}

#[test]
fn every_experiment_produces_well_formed_tables() {
    for exp in registry() {
        let table = (exp.run)(true, 3, None);
        assert!(!table.columns.is_empty(), "{} has no columns", exp.id);
        assert!(!table.rows.is_empty(), "{} has no rows", exp.id);
        for (i, row) in table.rows.iter().enumerate() {
            assert_eq!(row.len(), table.columns.len(), "{} row {i} width mismatch", exp.id);
        }
        assert!(!table.paper_anchor.is_empty(), "{} lacks a paper anchor", exp.id);
        assert!(table.id.eq_ignore_ascii_case(exp.id));
        // JSON artifact serializes.
        let json = table.to_json();
        assert_eq!(json["id"], table.id);
    }
}
