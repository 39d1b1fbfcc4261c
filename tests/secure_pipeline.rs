//! Integration: the full Fig. 3 secure pipeline across vc-auth, vc-access,
//! vc-trust, and vc-cloud — multiple vehicles, revocation, escalation.

use vcloud::access::policy::{Action, Context, Expr, Policy, Role};
use vcloud::access::prelude::{Attributes, DataPackage};
use vcloud::auth::token::ServiceId;
use vcloud::cloud::prelude::*;
use vcloud::crypto::schnorr::SigningKey;
use vcloud::prelude::{EventKind, Point, Report, SaeLevel, SimTime, VehicleId};

fn attrs(role: Role, automation: SaeLevel) -> Attributes {
    Attributes { role, automation, storage_provider: true, compute_provider: true }
}

#[test]
fn ten_vehicles_admit_and_access_concurrently() {
    let mut pipeline = SecurePipeline::new(b"integration-1");
    let now = SimTime::from_secs(100);
    let owner = SigningKey::from_seed(b"owner");
    let policy = Policy::new().allow(Action::Read, Expr::HasRole(Role::Storage));
    let mut package =
        DataPackage::seal_new(1, b"common map data", policy, &owner, &pipeline.tpd_share(), 9);

    let mut grants = 0;
    for v in 0..10u32 {
        let role = if v % 2 == 0 { Role::Storage } else { Role::Member };
        let creds =
            pipeline.provision(VehicleId(v), attrs(role, SaeLevel::L4), now).expect("provision");
        let t = now + vcloud::prelude::SimDuration::from_millis(v as u64 * 10);
        let hello = creds.wallet.sign(format!("hello from {v}").as_bytes(), t);
        let token = pipeline.admit(&hello, ServiceId(1), t).expect("admit");
        let proof = SecurePipeline::make_proof(&creds, 1, t);
        let ctx = Context::member_at(Point::new(0.0, 0.0), t);
        match pipeline.authorize(&mut package, Action::Read, &token, ServiceId(1), &proof, &ctx) {
            Ok(data) => {
                assert_eq!(data, b"common map data");
                assert_eq!(role, Role::Storage, "only storage nodes may read");
                grants += 1;
            }
            Err(PipelineError::Access(_)) => {
                assert_eq!(role, Role::Member, "storage nodes must not be denied");
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_eq!(grants, 5);
    assert_eq!(package.audit.len(), 10, "every decision audited");
    assert!(package.audit.verify(None));
}

#[test]
fn revoked_vehicle_is_locked_out_of_admission() {
    let mut pipeline = SecurePipeline::new(b"integration-2");
    let now = SimTime::from_secs(10);
    // Provisioning a vehicle whose identity the TA has flagged fails.
    let identity = vcloud::auth::identity::RealIdentity::for_vehicle(VehicleId(66));
    // First provision succeeds.
    let _ = pipeline.provision(VehicleId(66), attrs(Role::Member, SaeLevel::L3), now).unwrap();
    // Out-of-band misbehaviour verdict: mark revoked at the TA.
    // (Pipeline exposes the TA read-only; revocation flows through a new
    // domain in this release — verify the wallet path enforces it.)
    let mut ta = vcloud::auth::identity::TrustedAuthority::new(b"integration-2-ta");
    ta.register(identity.clone(), VehicleId(66));
    ta.revoke(&identity);
    let mut registry = vcloud::auth::pseudonym::PseudonymRegistry::new();
    let err = registry
        .issue_wallet(
            &ta,
            &identity,
            4,
            now,
            now + vcloud::prelude::SimDuration::from_secs(100),
            b"s",
        )
        .unwrap_err();
    assert_eq!(err, vcloud::auth::identity::AuthError::Revoked);
}

#[test]
fn emergency_mode_unlocks_data_for_responders() {
    let mut pipeline = SecurePipeline::new(b"integration-3");
    let now = SimTime::from_secs(50);
    let responder = pipeline
        .provision(VehicleId(1), attrs(Role::Member, SaeLevel::L5), now)
        .expect("provision");
    let owner = SigningKey::from_seed(b"victim-vehicle");
    // Crash telemetry: normally private, emergency-readable by L4+.
    let policy =
        Policy::new().allow_in_emergency(Action::Read, Expr::AutomationAtLeast(SaeLevel::L4));
    let mut package =
        DataPackage::seal_new(9, b"crash telemetry", policy, &owner, &pipeline.tpd_share(), 3);
    let hello = responder.wallet.sign(b"responder", now);
    let token = pipeline.admit(&hello, ServiceId(2), now).expect("admit");
    let proof = SecurePipeline::make_proof(&responder, 9, now);

    let normal = Context::member_at(Point::new(0.0, 0.0), now);
    assert!(matches!(
        pipeline.authorize(&mut package, Action::Read, &token, ServiceId(2), &proof, &normal),
        Err(PipelineError::Access(_))
    ));

    let mut crisis = normal.clone();
    crisis.emergency = true;
    let data = pipeline
        .authorize(&mut package, Action::Read, &token, ServiceId(2), &proof, &crisis)
        .expect("emergency read");
    assert_eq!(data, b"crash telemetry");
    // The audit trail distinguishes the emergency grant.
    let decisions: Vec<_> = package.audit.records().iter().map(|r| r.decision).collect();
    assert_eq!(
        decisions,
        vec![
            vcloud::access::policy::Decision::Deny,
            vcloud::access::policy::Decision::PermitEmergency
        ]
    );
}

#[test]
fn trust_feedback_loop_improves_verdicts() {
    let mut pipeline = SecurePipeline::new(b"integration-4");
    let mk = |reporter: u64, claim: bool| Report {
        reporter,
        kind: EventKind::RoadBlocked,
        location: Point::new(5.0, 5.0),
        observed_at: SimTime::from_secs(1),
        claim,
        reporter_pos: Point::new(10.0, 5.0),
        reporter_speed: 12.0,
        path: vec![VehicleId(reporter as u32)],
    };
    // Round 1: cold start, 3 liars vs 2 honest — the weighted vote follows
    // the (wrong) majority.
    let verdicts = pipeline.validate_reports(&[
        mk(1, true),
        mk(2, true),
        mk(10, false),
        mk(11, false),
        mk(12, false),
    ]);
    assert!(!verdicts[0].2, "cold start follows the majority");
    // Ground truth arrives (the road WAS blocked): feed outcomes back.
    for r in [1, 2] {
        for _ in 0..6 {
            pipeline.record_outcome(r, true);
        }
    }
    for r in [10, 11, 12] {
        for _ in 0..6 {
            pipeline.record_outcome(r, false);
        }
    }
    // Round 2: same liars, now discounted.
    let verdicts = pipeline.validate_reports(&[
        mk(1, true),
        mk(2, true),
        mk(10, false),
        mk(11, false),
        mk(12, false),
    ]);
    assert!(verdicts[0].2, "warmed reputation overrides the lying majority");
}

#[test]
fn cloud_tasks_complete_under_secure_admission() {
    // The scheduler and the pipeline compose: only admitted vehicles lend.
    let mut pipeline = SecurePipeline::new(b"integration-5");
    let now = SimTime::from_secs(1);
    let mut admitted = Vec::new();
    for v in 0..8u32 {
        let creds =
            pipeline.provision(VehicleId(v), attrs(Role::Member, SaeLevel::L4), now).unwrap();
        let hello = creds.wallet.sign(b"join", now);
        if pipeline.admit(&hello, ServiceId(1), now).is_ok() {
            admitted.push(VehicleId(v));
        }
    }
    assert_eq!(admitted.len(), 8);
    let mut sched = Scheduler::new(SchedulerConfig::default());
    for i in 0..12 {
        sched.submit(TaskSpec::compute(TaskId(i), 50.0), now);
    }
    let hosts: Vec<HostInfo> = admitted
        .iter()
        .map(|&id| HostInfo {
            id,
            cpu_gflops: 50.0,
            automation: SaeLevel::L4,
            stay_estimate_s: 1_000.0,
        })
        .collect();
    let mut t = now;
    for _ in 0..10 {
        t += vcloud::prelude::SimDuration::from_secs(1);
        sched.tick(t, 1.0, &hosts, None);
    }
    assert_eq!(sched.stats().completed, 12);
}
