//! `cloud-pipeline`: one op is one epoch of the paper's Fig. 3 chain
//! (identity → token → policy → trust) on a Fig. 4 dynamic cloud. The cloud
//! ticks (mobility, clustering-based membership, scheduler, handover), then
//! one vehicle signs a hello, is admitted, proves its attributes and asks to
//! read a sealed 4 KiB package; every eighth epoch a batch of event reports
//! is validated.
//!
//! The only workload that reaches `vc_access`, `vc_trust` and the `vc_cloud`
//! scheduler: without it those crates can neither regress visibly nor earn a
//! claim.

use vc_access::credential::Attributes;
use vc_access::package::{AccessError, DataPackage};
use vc_access::policy::{Action, Context, Expr, Policy, Role};
use vc_auth::token::ServiceId;
use vc_cloud::arch::{ArchitectureKind, CloudSim};
use vc_cloud::pipeline::{PipelineError, SecurePipeline, VehicleCredentials};
use vc_cloud::scheduler::SchedulerConfig;
use vc_cloud::stay::Kinematic;
use vc_crypto::schnorr::SigningKey;
use vc_sim::geom::Point;
use vc_sim::node::{SaeLevel, VehicleId};
use vc_sim::scenario::ScenarioBuilder;
use vc_sim::time::SimTime;
use vc_trust::report::{EventKind, Report};

use crate::harness::{mix, Cfg, Driven, Fnv, Lane, Layer, Sizes, Tracer, Workload};

struct Dims {
    vehicles: usize,
    pool: u64,
    warmup: u64,
    horizon: u64,
}

const FULL: Dims = Dims { vehicles: 1_000, pool: 256, warmup: 16, horizon: 512 };
const SMOKE: Dims = Dims { vehicles: 100, pool: 32, warmup: 4, horizon: 200 };

fn dims(smoke: bool) -> &'static Dims {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

const SUBMIT_EVERY: u64 = 4;
const TASKS_PER_SUBMIT: usize = 25;
const TASK_GFLOP: f64 = 400.0;
/// One pool vehicle in this many holds a role the package's policy denies.
const DENY_EVERY: u64 = 8;
const VALIDATE_EVERY: u64 = 8;
const REPORTS: u64 = 50;
const PACKAGE_ID: u64 = 42;
const PACKAGE_BYTES: usize = 4096;
const SERVICE: ServiceId = ServiceId(1);

fn denied(pool_vehicle: u64) -> bool {
    pool_vehicle % DENY_EVERY == DENY_EVERY - 1
}

/// Reports on five events; reporters disagree on two of them.
fn reports(seed: u64, i: u64, now: SimTime) -> Vec<Report> {
    const KINDS: [EventKind; 5] = [
        EventKind::Accident,
        EventKind::Ice,
        EventKind::Congestion,
        EventKind::RoadBlocked,
        EventKind::RoadClear,
    ];
    (0..REPORTS)
        .map(|r| {
            let event = r % 5;
            let reporter = mix(seed, i * REPORTS + r, 3) % 200;
            let at = Point::new(event as f64 * 400.0, (mix(seed, i, 4) % 1000) as f64);
            Report {
                reporter,
                kind: KINDS[event as usize],
                location: at + Point::new((r % 7) as f64 * 5.0, 0.0),
                observed_at: now,
                claim: event < 3 || r % 3 != 0,
                reporter_pos: at + Point::new(30.0, (r % 11) as f64 * 4.0),
                reporter_speed: 8.0 + (r % 5) as f64,
                path: vec![VehicleId(reporter as u32), VehicleId((reporter as u32 + 1) % 200)],
            }
        })
        .collect()
}

/// Simulated counters as they stand when the last fixed op ends.
#[derive(Default)]
struct AtHorizon {
    completed: u64,
    handovers: u64,
    audit_len: u64,
}

pub struct CloudPipeline {
    seed: u64,
    last_fixed: u64,
    cloud: CloudSim<Kinematic>,
    pipeline: SecurePipeline,
    pool: Vec<VehicleCredentials>,
    package: DataPackage,
    payload: Vec<u8>,
    at_horizon: AtHorizon,
    deny_expected: u64,
    deny_exact: u64,
}

impl Workload for CloudPipeline {
    const NAME: &'static str = "cloud-pipeline";

    fn sizes(smoke: bool) -> Sizes {
        let d = dims(smoke);
        Sizes {
            warmup: d.warmup,
            horizon: d.horizon,
            desc: format!(
                "vehicles={} arch=dynamic pool={} package={PACKAGE_BYTES}B \
                 submit={TASKS_PER_SUBMIT}x{TASK_GFLOP}GFLOP/{SUBMIT_EVERY} deny=1/{DENY_EVERY} \
                 validate={REPORTS}/{VALIDATE_EVERY}",
                d.vehicles, d.pool
            ),
        }
    }

    fn plan_hash(seed: u64, smoke: bool, i: u64) -> u64 {
        let vehicle = i % dims(smoke).pool;
        let batch = if i.is_multiple_of(VALIDATE_EVERY) {
            let rs = reports(seed, i, SimTime::ZERO);
            Fnv::new().words(rs.iter().map(|r| r.reporter ^ r.location.y.to_bits())).0
        } else {
            0
        };
        Fnv::new()
            .words([i.is_multiple_of(SUBMIT_EVERY) as u64, vehicle, denied(vehicle) as u64, batch])
            .0
    }

    fn setup(cfg: &Cfg, sizes: &Sizes, _tr: &mut Tracer) -> CloudPipeline {
        let d = dims(cfg.smoke);
        let mut scenario =
            ScenarioBuilder::new().seed(cfg.seed).vehicles(d.vehicles).urban_with_rsus();
        scenario.shards = 1;
        let cloud = CloudSim::new(
            scenario,
            ArchitectureKind::Dynamic,
            SchedulerConfig::default(),
            Kinematic,
        );

        let seed_bytes = cfg.seed.to_be_bytes();
        let mut pipeline = SecurePipeline::new(&[&b"vcbench-"[..], &seed_bytes].concat());
        let pool = (0..d.pool)
            .map(|v| {
                let attributes = Attributes {
                    role: if denied(v) { Role::Member } else { Role::Storage },
                    automation: SaeLevel::L4,
                    storage_provider: true,
                    compute_provider: true,
                };
                pipeline
                    .provision(VehicleId(v as u32), attributes, SimTime::ZERO)
                    .expect("a fresh identity can be provisioned")
            })
            .collect();
        let payload: Vec<u8> =
            (0..PACKAGE_BYTES as u64).map(|b| mix(cfg.seed, b, 1) as u8).collect();
        let owner = SigningKey::from_seed(&[&b"owner"[..], &seed_bytes].concat());
        let policy = Policy::new().allow(Action::Read, Expr::HasRole(Role::Storage));
        let package = DataPackage::seal_new(
            PACKAGE_ID,
            &payload,
            policy,
            &owner,
            &pipeline.tpd_share(),
            mix(cfg.seed, 0, 2),
        );
        CloudPipeline {
            seed: cfg.seed,
            last_fixed: sizes.last_fixed(),
            cloud,
            pipeline,
            pool,
            package,
            payload,
            at_horizon: AtHorizon::default(),
            deny_expected: 0,
            deny_exact: 0,
        }
    }

    fn lanes(&mut self) -> Vec<Lane<'_>> {
        let CloudPipeline {
            seed,
            last_fixed,
            cloud,
            pipeline,
            pool,
            package,
            payload,
            at_horizon,
            deny_expected,
            deny_exact,
        } = self;
        let (seed, last_fixed) = (*seed, *last_fixed);
        vec![Box::new(move |i, tr| {
            let mut out = Fnv::new();
            let mut wrong = Vec::new();

            // Management: submit work, advance the cloud.
            if i.is_multiple_of(SUBMIT_EVERY) {
                tr.span("cloud.submit", TASKS_PER_SUBMIT as u32, || {
                    cloud.submit_batch(TASKS_PER_SUBMIT, TASK_GFLOP, None)
                });
            }
            tr.span("cloud.tick", 1, || cloud.tick());
            let now = cloud.now();
            let stats = cloud.scheduler().stats();
            out.words([
                stats.completed,
                stats.handovers,
                stats.expired,
                stats.executed_gflop.to_bits(),
            ]);

            // Security: identity, token, policy.
            let vehicle = i % pool.len() as u64;
            let credentials = &pool[vehicle as usize];
            let hello = tr
                .span("auth.pseudonym.sign", 1, || credentials.wallet.sign(&i.to_be_bytes(), now));
            match tr.span("auth.admit", 1, || pipeline.admit(&hello, SERVICE, now)) {
                Err(e) => wrong.push(format!("admit of pool vehicle {vehicle}: {e}")),
                Ok(token) => {
                    let proof = tr.span("access.proof", 1, || {
                        SecurePipeline::make_proof(credentials, PACKAGE_ID, now)
                    });
                    let ambient = Context::member_at(Point::new(0.0, 0.0), now);
                    let read = tr.span_by(1, || {
                        let r = pipeline.authorize(
                            package,
                            Action::Read,
                            &token,
                            SERVICE,
                            &proof,
                            &ambient,
                        );
                        (if r.is_ok() { "access.authorize" } else { "access.deny" }, r)
                    });
                    let exact = match (&read, denied(vehicle)) {
                        (Ok(data), false) => data == &*payload,
                        (Err(PipelineError::Access(AccessError::Denied)), true) => true,
                        _ => false,
                    };
                    if denied(vehicle) {
                        *deny_expected += 1;
                        *deny_exact += exact as u64;
                    }
                    if !exact {
                        let got = read.map(|data| format!("{} bytes", data.len()));
                        wrong.push(format!("read by pool vehicle {vehicle}: {got:?}"));
                    }
                    out.words([token.holder.0, exact as u64, package.audit.len() as u64]);
                }
            }

            // Trust: validate a batch of event reports.
            if i.is_multiple_of(VALIDATE_EVERY) {
                let batch = reports(seed, i, now);
                let verdicts =
                    tr.span("trust.validate", REPORTS as u32, || pipeline.validate_reports(&batch));
                if verdicts.is_empty() {
                    wrong.push("no event came out of 50 reports".into());
                }
                out.words(verdicts.iter().map(|&(c, score, trusted)| {
                    c as u64 ^ score.to_bits().rotate_left(1) ^ trusted as u64
                }));
            }

            if i == last_fixed {
                *at_horizon = AtHorizon {
                    completed: stats.completed,
                    handovers: stats.handovers,
                    audit_len: package.audit.len() as u64,
                };
            }
            if wrong.is_empty() {
                Ok(out.0)
            } else {
                Err(wrong.join("; "))
            }
        })]
    }

    fn finish(self, run: &Driven, layer: &mut Layer) -> Vec<String> {
        let ms = |name: &str| run.us_per_call(name) / 1e3;
        layer.set("cloud.tick_ms", ms("cloud.tick"));
        layer.set("cloud.tasks.completed", self.at_horizon.completed as f64);
        layer.set("cloud.tasks.handovers", self.at_horizon.handovers as f64);
        layer.set("auth.pseudonym.sign_us", run.us_per_call("auth.pseudonym.sign"));
        layer.set("auth.admit_ms", ms("auth.admit"));
        layer.set("access.proof_us", run.us_per_call("access.proof"));
        layer.set("access.authorize_ms", ms("access.authorize"));
        layer.set("access.deny_ms", ms("access.deny"));
        layer.set("access.denied_exact_share", self.deny_exact as f64 / self.deny_expected as f64);
        layer.set("access.audit.len", self.at_horizon.audit_len as f64);
        layer.set("trust.validate_us", run.us_per_call("trust.validate"));
        if self.at_horizon.completed == 0 {
            return vec!["the cloud completed no task within the fixed ops".into()];
        }
        Vec::new()
    }
}
