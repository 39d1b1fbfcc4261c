//! `vcstat` never panics on a malformed artifact: every report, run on
//! seeded truncations, byte flips and wrong-typed fields of a real trace,
//! time-series and profile, exits 0, 1 or 2, and a failure says why on
//! stderr.

use std::process::Command;
use vc_sim::rng::SimRng;
use vc_testkit::json::Json;

/// Mutants of each kind made from each artifact.
const MUTANTS: usize = 20;

/// The flag sets `vcstat` runs each mutant under: the file picks the
/// report, the flags only its length and form.
const FLAG_SETS: [&[&str]; 3] = [&[], &["--json"], &["--top", "3"]];

/// Values of every JSON type, and numbers no artifact holds.
fn wrong_value(rng: &mut SimRng) -> Json {
    match rng.index(8) {
        0 => Json::Str("x".into()),
        1 => Json::Num(-1.0),
        2 => Json::Num(1e300),
        3 => Json::Num(0.5),
        4 => Json::Arr(vec![Json::Num(1.0)]),
        5 => Json::Obj(Vec::new()),
        6 => Json::Bool(true),
        _ => Json::Null,
    }
}

/// Replaces one value somewhere inside `doc` (never the whole document).
fn retype(doc: &mut Json, rng: &mut SimRng) {
    let mut node = doc;
    let mut depth = 0;
    loop {
        let len = match &*node {
            Json::Obj(pairs) => pairs.len(),
            Json::Arr(items) => items.len(),
            _ => 0,
        };
        if len == 0 || (depth > 0 && rng.chance(0.3)) {
            break;
        }
        let i = rng.index(len);
        node = match node {
            Json::Obj(pairs) => &mut pairs[i].1,
            Json::Arr(items) => &mut items[i],
            _ => unreachable!("only containers have children"),
        };
        depth += 1;
    }
    if depth > 0 {
        *node = wrong_value(rng);
    }
}

/// One mutant of `bytes`: kind 0 truncates, 1 flips bytes, 2 gives a field
/// the wrong type (in one line of a JSONL file, or anywhere in a document).
fn mutate(bytes: &[u8], jsonl: bool, kind: usize, rng: &mut SimRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match kind {
        0 => out.truncate(rng.index(bytes.len())),
        1 => {
            for _ in 0..1 + rng.index(4) {
                let at = rng.index(out.len());
                out[at] ^= 1 + rng.index(255) as u8;
            }
        }
        _ => {
            let text = String::from_utf8(out).expect("artifacts are UTF-8");
            let reparse = |text: &str| Json::parse(text).expect("artifacts are JSON");
            if !jsonl {
                let mut doc = reparse(&text);
                retype(&mut doc, rng);
                return (doc.to_string_pretty() + "\n").into_bytes();
            }
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            let at = rng.index(lines.len());
            let mut doc = reparse(&lines[at]);
            retype(&mut doc, rng);
            lines[at] = doc.to_string_compact();
            return (lines.join("\n") + "\n").into_bytes();
        }
    }
    out
}

#[test]
fn vcstat_exits_cleanly_on_malformed_artifacts() {
    let dir = std::env::temp_dir().join(format!("vc_vcstat_malformed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut rng = SimRng::seed_from(0x5eed_0038);
    let mut runs = 0;
    for (flag, name, exp) in [
        ("--trace", "e3.jsonl", "e3"),
        ("--timeseries", "ts.jsonl", "e8"),
        ("--profile", "profile.json", "e8"),
    ] {
        let source = dir.join(name);
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--quick", "--seed", "7", flag])
            .arg(&source)
            .arg(exp)
            .output()
            .expect("experiments runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let bytes = std::fs::read(&source).expect("artifact written");
        for kind in 0..3 {
            for n in 0..MUTANTS {
                let mutant = dir.join(format!("mutant-{kind}-{n}-{name}"));
                let mutated = mutate(&bytes, name.ends_with(".jsonl"), kind, &mut rng);
                std::fs::write(&mutant, mutated).expect("write mutant");
                for flags in FLAG_SETS {
                    let out = Command::new(env!("CARGO_BIN_EXE_vcstat"))
                        .arg(&mutant)
                        .args(flags)
                        .output()
                        .expect("vcstat runs");
                    let err = String::from_utf8_lossy(&out.stderr);
                    let code = out.status.code();
                    assert!(
                        matches!(code, Some(0..=2)),
                        "vcstat {} {flags:?} exited {code:?}: {err}",
                        mutant.display()
                    );
                    assert!(
                        code == Some(0) || err.contains("vcstat:") || err.contains("usage:"),
                        "vcstat {} {flags:?} failed without saying why: {err}",
                        mutant.display()
                    );
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 3 * 3 * MUTANTS * FLAG_SETS.len());
    std::fs::remove_dir_all(&dir).ok();
}
