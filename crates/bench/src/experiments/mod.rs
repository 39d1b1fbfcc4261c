//! The per-experiment modules E1..E18 (see DESIGN.md §4 for the index).
//! There is no E11, E16, E17, E19 or E20: ids are not reused.

pub mod e1;
pub mod e10;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e18;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use crate::table::Table;
use vc_obs::Recorder;

/// An experiment's id, one-line description, supported instrumentation
/// flags, and runner.
pub struct Experiment {
    /// "e1" … "e18".
    pub id: &'static str,
    /// One-line description (shown by `experiments --list`).
    pub desc: &'static str,
    /// Instrumentation the experiment responds to, shown by
    /// `experiments --list`: every experiment supports `profile` (the
    /// profiler is ambient); only recorder-instrumented ones emit `trace`
    /// events and `timeseries` ticks.
    pub flags: &'static str,
    /// Runner: `(quick, seed, recorder) -> table`. Passing `None` for the
    /// recorder must yield the exact same table as passing `Some` — the
    /// observability hooks only emit what the plain code paths computed.
    pub run: fn(bool, u64, Option<&mut Recorder>) -> Table,
}

/// Flags for experiments that thread the recorder through their workload.
const INSTRUMENTED: &str = "trace,timeseries,profile";
/// Flags for experiments that only respond to the ambient profiler.
const PROFILE_ONLY: &str = "profile";

/// The full experiment registry, in order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            desc: "measured comparison of cloud regimes (Fig. 2 matrix)",
            flags: PROFILE_ONLY,
            run: e1::run,
        },
        Experiment {
            id: "e2",
            desc: "task completion by architecture (Fig. 4)",
            flags: INSTRUMENTED,
            run: e2::run,
        },
        Experiment {
            id: "e3",
            desc: "disaster: RSU failure and emergency response (§IV-A.2/§V-A)",
            flags: INSTRUMENTED,
            run: e3::run,
        },
        Experiment {
            id: "e4",
            desc: "authentication protocol comparison (Fig. 5/§IV-B)",
            flags: PROFILE_ONLY,
            run: e4::run,
        },
        Experiment {
            id: "e5",
            desc: "authorization grants vs contact windows (§III-C)",
            flags: PROFILE_ONLY,
            run: e5::run,
        },
        Experiment {
            id: "e6",
            desc: "stay estimation and handover ablation (§III-A)",
            flags: PROFILE_ONLY,
            run: e6::run,
        },
        Experiment {
            id: "e7",
            desc: "replica count vs file availability (§III-A)",
            flags: PROFILE_ONLY,
            run: e7::run,
        },
        Experiment {
            id: "e8",
            desc: "routing protocols across density (§IV-A.1)",
            flags: INSTRUMENTED,
            run: e8::run,
        },
        Experiment {
            id: "e9",
            desc: "trust validators vs attacker fraction (§III-D/§V-D)",
            flags: PROFILE_ONLY,
            run: e9::run,
        },
        Experiment {
            id: "e10",
            desc: "attack success with defenses off/on (§III)",
            flags: INSTRUMENTED,
            run: e10::run,
        },
        Experiment {
            id: "e12",
            desc: "verifiable computing via redundant execution (§IV-D)",
            flags: PROFILE_ONLY,
            run: e12::run,
        },
        Experiment {
            id: "e13",
            desc: "offload latency: local vs v-cloud vs cellular (§I)",
            flags: PROFILE_ONLY,
            run: e13::run,
        },
        Experiment {
            id: "e14",
            desc: "routing under urban-canyon obstruction (§IV-A.1)",
            flags: PROFILE_ONLY,
            run: e14::run,
        },
        Experiment {
            id: "e15",
            desc: "group maintenance vs re-election (§V-A)",
            flags: PROFILE_ONLY,
            run: e15::run,
        },
        Experiment {
            id: "e18",
            desc: "memory footprint scaling: bytes per vehicle by layer",
            flags: PROFILE_ONLY,
            run: e18::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            vec![
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e12", "e13", "e14",
                "e15", "e18"
            ]
        );
        for exp in registry() {
            assert!(!exp.desc.is_empty(), "{} lacks a description", exp.id);
            assert!(exp.flags.contains("profile"), "{} must at least support profile", exp.id);
        }
    }
}
