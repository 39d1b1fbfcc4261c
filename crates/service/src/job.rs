//! The scenario catalog and the single deterministic job runner.
//!
//! Every way of executing a scenario job — a `vcloudd` worker thread, the
//! `experiments --job` in-process mode, a test — goes through [`run_job`],
//! which is what makes the service's determinism contract checkable: the
//! daemon can only ever return bytes this function produced.

use std::sync::atomic::{AtomicBool, Ordering};

use vc_net::message::RoutingStats;
use vc_net::netsim::NetSim;
use vc_net::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol};
use vc_net::svc::fnv1a64;
use vc_obs::{reborrow, MemSize, Recorder};
use vc_sim::scenario::{Scenario, ScenarioBuilder};
use vc_testkit::json::Json;

/// Upper bound on `ticks` accepted for a single job: the most rounds a job
/// may simulate. A job whose last packet copy dies sooner stops there.
pub(crate) const MAX_TICKS: u32 = 50_000;

/// Per-job deterministic heap budget (bytes): fleet + network-layer state,
/// measured with the [`MemSize`]/`heap_bytes` capacity accounting, so the
/// same job hits (or clears) the budget identically on every host.
pub(crate) const MEM_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

/// How often (in rounds) the runner polls the cancel flag and re-measures
/// the heap footprint against [`MEM_BUDGET_BYTES`].
const CHECK_EVERY_ROUNDS: u32 = 16;

/// The [`ScenarioBuilder`] preset a catalog entry runs on.
#[derive(Debug, Clone, Copy)]
enum Map {
    UrbanWithRsus,
    HighwayNoInfra,
    UrbanCanyon,
}

/// The routing protocol a catalog entry drives.
#[derive(Debug, Clone, Copy)]
enum Protocol {
    Epidemic,
    GreedyGeo,
    Cluster,
    Mozo,
}

/// One entry in the scenario catalog.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioEntry {
    /// Catalog id clients put in SUBMIT frames.
    pub id: &'static str,
    /// Human-readable description for listings.
    pub desc: &'static str,
    /// Vehicle count of the underlying scenario.
    pub vehicles: usize,
    /// Random source/destination packet pairs injected before the run.
    pub packets: usize,
    map: Map,
    protocol: Protocol,
}

/// The jobs `vcloudd` will run. Ticks and seed come from the client; the
/// map, routing protocol, and traffic shape are fixed per catalog id so a
/// `(scenario, seed, ticks, flags)` tuple fully determines the result.
pub const SCENARIOS: &[ScenarioEntry] = &[
    ScenarioEntry {
        id: "urban-epidemic",
        desc: "urban grid with RSUs, epidemic flooding",
        vehicles: 40,
        packets: 24,
        map: Map::UrbanWithRsus,
        protocol: Protocol::Epidemic,
    },
    ScenarioEntry {
        id: "urban-greedy",
        desc: "urban grid with RSUs, greedy geographic forwarding",
        vehicles: 40,
        packets: 24,
        map: Map::UrbanWithRsus,
        protocol: Protocol::GreedyGeo,
    },
    ScenarioEntry {
        id: "urban-cluster",
        desc: "urban grid with RSUs, cluster-backbone routing",
        vehicles: 40,
        packets: 24,
        map: Map::UrbanWithRsus,
        protocol: Protocol::Cluster,
    },
    ScenarioEntry {
        id: "highway-epidemic",
        desc: "highway without infrastructure, epidemic flooding",
        vehicles: 48,
        packets: 24,
        map: Map::HighwayNoInfra,
        protocol: Protocol::Epidemic,
    },
    ScenarioEntry {
        id: "highway-mozo",
        desc: "highway without infrastructure, moving-zone routing",
        vehicles: 48,
        packets: 24,
        map: Map::HighwayNoInfra,
        protocol: Protocol::Mozo,
    },
    ScenarioEntry {
        id: "canyon-greedy",
        desc: "urban canyon (harsh LOS), greedy geographic forwarding",
        vehicles: 36,
        packets: 16,
        map: Map::UrbanCanyon,
        protocol: Protocol::GreedyGeo,
    },
];

/// Looks a catalog id up.
pub fn find_scenario(id: &str) -> Option<&'static ScenarioEntry> {
    SCENARIOS.iter().find(|e| e.id == id)
}

/// Everything that identifies a job run. Mirrors the SUBMIT frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Catalog id ([`SCENARIOS`]).
    pub scenario: String,
    /// Deterministic seed.
    pub seed: u64,
    /// The most simulation rounds the job runs. Every packet is injected
    /// before the first round, so the job ends after the first round that
    /// leaves no packet copy alive: later rounds cannot change a result
    /// byte but `heap_bytes`.
    pub ticks: u32,
    /// [`vc_net::svc::FLAG_TRACE`] and future flags.
    pub flags: u32,
}

impl JobSpec {
    /// Validates the spec against the catalog and service limits without
    /// running anything. `Err` carries a human-readable reason.
    pub fn validate(&self) -> Result<(), JobError> {
        if find_scenario(&self.scenario).is_none() {
            return Err(JobError::UnknownScenario(self.scenario.clone()));
        }
        if self.ticks == 0 || self.ticks > MAX_TICKS {
            return Err(JobError::BadRequest("ticks must be in 1..=50000"));
        }
        if self.flags & !vc_net::svc::FLAG_TRACE != 0 {
            return Err(JobError::BadRequest("unknown flag bits set"));
        }
        Ok(())
    }

    /// Whether the client asked for the recorder trace in the result.
    pub(crate) fn wants_trace(&self) -> bool {
        self.flags & vc_net::svc::FLAG_TRACE != 0
    }
}

/// The deterministic result payload of a finished job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// Stats JSON (pretty, trailing newline) — byte-stable for a spec.
    pub stats: Vec<u8>,
    /// Recorder JSONL (empty unless the spec set `FLAG_TRACE`).
    pub trace: Vec<u8>,
    /// `fnv1a64` over stats bytes then trace bytes.
    pub checksum: u64,
    /// Rounds the job simulated: `ticks`, or fewer when its last packet
    /// copy died sooner. Not part of the payload or the checksum.
    pub(crate) rounds: u32,
}

/// Why a job failed to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Scenario id is not in [`SCENARIOS`].
    UnknownScenario(String),
    /// Spec fails a static limit (ticks range, flag bits).
    BadRequest(&'static str),
    /// The deterministic heap footprint crossed `MEM_BUDGET_BYTES`.
    BudgetExceeded {
        /// Measured footprint at the failing check.
        used: u64,
        /// The budget it crossed.
        budget: u64,
    },
    /// The cancel flag was observed set.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::UnknownScenario(id) => write!(f, "unknown scenario {id:?}"),
            JobError::BadRequest(why) => write!(f, "bad request: {why}"),
            JobError::BudgetExceeded { used, budget } => {
                write!(f, "memory budget exceeded: {used} > {budget} bytes")
            }
            JobError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

fn build_scenario(entry: &ScenarioEntry, seed: u64) -> Scenario {
    let mut builder = ScenarioBuilder::new();
    builder.seed(seed).vehicles(entry.vehicles);
    match entry.map {
        Map::UrbanWithRsus => builder.urban_with_rsus(),
        Map::HighwayNoInfra => builder.highway_no_infra(),
        Map::UrbanCanyon => builder.urban_canyon(),
    }
}

/// Runs a validated job to completion: at most `spec.ticks` rounds, and no
/// round after the first that leaves no packet copy alive. `cancel` (when
/// given) is polled every `CHECK_EVERY_ROUNDS` rounds and after the
/// job's last round; the same polls re-measure the deterministic heap
/// footprint against `MEM_BUDGET_BYTES`, so a cancelled or over-budget
/// job stops within a bounded number of rounds. The stats report
/// `heap_bytes` as measured when the job stopped.
///
/// The returned bytes depend only on the spec — not on the worker
/// thread, wall-clock time, or anything else the daemon is doing.
pub fn run_job(spec: &JobSpec, cancel: Option<&AtomicBool>) -> Result<JobOutput, JobError> {
    spec.validate()?;
    let entry = find_scenario(&spec.scenario).expect("validated above");
    let mut scenario = build_scenario(entry, spec.seed);
    let mut recorder = spec.wants_trace().then(Recorder::new);
    let rec = recorder.as_mut();
    let (stats_json, rounds) = match entry.protocol {
        Protocol::Epidemic => drive(spec, entry, &mut scenario, Epidemic, cancel, rec),
        Protocol::GreedyGeo => drive(spec, entry, &mut scenario, GreedyGeo, cancel, rec),
        Protocol::Cluster => drive(spec, entry, &mut scenario, ClusterRouting::new(), cancel, rec),
        Protocol::Mozo => drive(spec, entry, &mut scenario, MozoRouting::new(), cancel, rec),
    }?;
    Ok(finish(stats_json, recorder, rounds))
}

fn drive<P: RoutingProtocol>(
    spec: &JobSpec,
    entry: &ScenarioEntry,
    scenario: &mut Scenario,
    protocol: P,
    cancel: Option<&AtomicBool>,
    mut rec: Option<&mut Recorder>,
) -> Result<(Json, u32), JobError> {
    let mut sim = NetSim::new(scenario, protocol);
    sim.send_random_pairs(entry.packets, 256, reborrow(&mut rec));
    // Statistics and trace events come only from live copies, and no packet
    // is sent after this point: once the last copy dies, no later round can
    // change a result byte but `heap_bytes`.
    let mut rounds = 0;
    while rounds < spec.ticks {
        sim.run_rounds_obs(1, reborrow(&mut rec));
        rounds += 1;
        let quiet = sim.live_copies() == 0;
        if quiet || rounds.is_multiple_of(CHECK_EVERY_ROUNDS) || rounds == spec.ticks {
            let used = sim.heap_bytes() + sim.scenario_mut().fleet.mem_bytes();
            if used > MEM_BUDGET_BYTES {
                return Err(JobError::BudgetExceeded { used, budget: MEM_BUDGET_BYTES });
            }
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return Err(JobError::Cancelled);
            }
            if quiet {
                break;
            }
        }
    }
    let heap = sim.heap_bytes() + sim.scenario_mut().fleet.mem_bytes();
    Ok((stats_json(spec, sim.into_stats(), heap), rounds))
}

/// The stats object a job returns.
fn stats_json(spec: &JobSpec, stats: RoutingStats, heap: u64) -> Json {
    Json::object::<&str>(vec![
        ("scenario", Json::from(spec.scenario.as_str())),
        ("seed", Json::from(spec.seed)),
        ("ticks", Json::from(spec.ticks)),
        ("flags", Json::from(spec.flags)),
        ("sent", Json::from(stats.sent)),
        ("delivered", Json::from(stats.delivered)),
        ("transmissions", Json::from(stats.transmissions)),
        ("delivery_ratio", Json::from(stats.delivery_ratio())),
        ("mean_latency_s", Json::from(stats.mean_latency_s())),
        ("mean_hops", Json::from(stats.mean_hops())),
        ("overhead_per_delivery", Json::from(stats.overhead_per_delivery())),
        ("heap_bytes", Json::from(heap)),
    ])
}

fn finish(stats_json: Json, recorder: Option<Recorder>, rounds: u32) -> JobOutput {
    let mut stats = stats_json.to_string_pretty().into_bytes();
    stats.push(b'\n');
    let mut trace = Vec::new();
    if let Some(rec) = recorder {
        rec.write_jsonl(&mut trace).expect("Vec<u8> write cannot fail");
    }
    let checksum = fnv1a64(&[&stats, &trace]);
    JobOutput { stats, trace, checksum, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_net::svc::FLAG_TRACE;

    /// The round loop without the early exit: all `spec.ticks` rounds.
    fn every_round<P: RoutingProtocol>(
        spec: &JobSpec,
        entry: &ScenarioEntry,
        scenario: &mut Scenario,
        protocol: P,
        mut rec: Option<&mut Recorder>,
    ) -> Json {
        let mut sim = NetSim::new(scenario, protocol);
        sim.send_random_pairs(entry.packets, 256, reborrow(&mut rec));
        sim.run_rounds_obs(spec.ticks as usize, reborrow(&mut rec));
        let heap = sim.heap_bytes() + sim.scenario_mut().fleet.mem_bytes();
        stats_json(spec, sim.into_stats(), heap)
    }

    /// [`run_job`] on [`every_round`]: the reference the early exit must
    /// match.
    fn reference(spec: &JobSpec) -> JobOutput {
        let entry = find_scenario(&spec.scenario).unwrap();
        let mut scenario = build_scenario(entry, spec.seed);
        let mut recorder = spec.wants_trace().then(Recorder::new);
        let (s, rec) = (&mut scenario, recorder.as_mut());
        let stats = match entry.protocol {
            Protocol::Epidemic => every_round(spec, entry, s, Epidemic, rec),
            Protocol::GreedyGeo => every_round(spec, entry, s, GreedyGeo, rec),
            Protocol::Cluster => every_round(spec, entry, s, ClusterRouting::new(), rec),
            Protocol::Mozo => every_round(spec, entry, s, MozoRouting::new(), rec),
        };
        finish(stats, recorder, spec.ticks)
    }

    /// The stats lines of `out` that name none of `keys`.
    fn lines_without<'a>(out: &'a JobOutput, keys: &[&str]) -> Vec<&'a str> {
        let text = std::str::from_utf8(&out.stats).unwrap();
        text.lines().filter(|line| !keys.iter().any(|k| line.contains(&format!("{k:?}")))).collect()
    }

    #[test]
    fn the_early_exit_returns_the_every_round_bytes() {
        // Ends before, at and after a cancel-poll boundary, and far past
        // the round the last copy of any catalogue job dies.
        const TICKS: [u32; 9] = [1, 5, 15, 16, 17, 33, 64, 256, 2_000];
        let (mut early, mut between_polls) = (0, 0);
        for entry in SCENARIOS {
            for seed in 1..=20 {
                for flags in [0, FLAG_TRACE] {
                    let mut quiet: Option<JobOutput> = None;
                    for ticks in TICKS {
                        let spec = JobSpec { scenario: entry.id.into(), seed, ticks, flags };
                        let got = run_job(&spec, None).unwrap();
                        let want = reference(&spec);
                        let id = format!("{} seed {seed} ticks {ticks} flags {flags}", entry.id);
                        let simulated = ["heap_bytes"];
                        assert_eq!(
                            lines_without(&got, &simulated),
                            lines_without(&want, &simulated),
                            "{id}"
                        );
                        assert_eq!(got.trace, want.trace, "{id}");
                        assert!(got.rounds <= ticks, "{id}: {} rounds", got.rounds);
                        if got.rounds == ticks {
                            continue;
                        }
                        early += 1;
                        between_polls +=
                            usize::from(!got.rounds.is_multiple_of(CHECK_EVERY_ROUNDS));
                        // Past the quiescent round, only the tick count the
                        // spec names moves.
                        let first = quiet.get_or_insert_with(|| got.clone());
                        let spec_only = ["ticks", "heap_bytes"];
                        assert_eq!(
                            lines_without(&got, &spec_only),
                            lines_without(first, &spec_only),
                            "{id}"
                        );
                        assert_eq!((got.rounds, &got.trace), (first.rounds, &first.trace), "{id}");
                    }
                    assert!(
                        quiet.is_some(),
                        "{} seed {seed}: a copy outlived 2 000 rounds",
                        entry.id
                    );
                }
            }
        }
        assert!(early > 0 && between_polls > 0, "{early} early exits, {between_polls} off a poll");
    }

    #[test]
    fn a_preset_cancel_wins_over_an_exit_before_the_first_poll() {
        let spec = (1..=20)
            .map(|seed| JobSpec { scenario: "urban-epidemic".into(), seed, ticks: 2_000, flags: 0 })
            .find(|spec| run_job(spec, None).unwrap().rounds < CHECK_EVERY_ROUNDS)
            .expect("an urban-epidemic job that goes quiet within one poll interval");
        let cancel = AtomicBool::new(true);
        assert_eq!(run_job(&spec, Some(&cancel)), Err(JobError::Cancelled));
    }
}
