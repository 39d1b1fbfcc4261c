//! Micro-benches for access control and trust evaluation — the
//! "stringent time constraints" cost basis of experiments E5/E9.

use vc_access::audit::AuditLog;
use vc_access::credential::{prove_possession, AttributeIssuer, Attributes};
use vc_access::delegation::{grant, verify_chain, DelegationChain};
use vc_access::package::{challenge_bytes, DataPackage, TpdEnforcer};
use vc_access::policy::{Action, Context, Decision, Expr, Policy, Role};
use vc_auth::pseudonym::PseudonymId;
use vc_crypto::schnorr::SigningKey;
use vc_sim::geom::Point;
use vc_sim::node::SaeLevel;
use vc_sim::time::SimTime;
use vc_testkit::bench::{black_box, Suite};
use vc_trust::prelude::*;

fn deep_expr(depth: usize) -> Expr {
    let mut e = Expr::HasRole(Role::Storage);
    for i in 0..depth {
        e = e.or(Expr::SpeedBelow(i as f64).and(Expr::AutomationAtLeast(SaeLevel::L3)));
    }
    e
}

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns.
vc_obs::counting_allocator!();

fn main() {
    vc_obs::mem::register_bench_probe();
    let mut suite = Suite::new("access");

    // ---- policy evaluation ----
    let ctx = Context::member_at(Point::new(0.0, 0.0), SimTime::from_secs(1));
    for depth in [1usize, 8, 64] {
        let policy = Policy::new().allow(Action::Read, deep_expr(depth));
        suite.bench(&format!("policy/decide/{depth}"), || {
            policy.decide(Action::Read, black_box(&ctx))
        });
    }

    // ---- attribute credentials ----
    let issuer = AttributeIssuer::new(b"issuer");
    let subject = SigningKey::from_seed(b"subject");
    let attrs = Attributes {
        role: Role::Storage,
        automation: SaeLevel::L4,
        storage_provider: true,
        compute_provider: true,
    };
    let cred = issuer.issue(attrs, subject.verifying_key(), SimTime::from_secs(1_000));
    let challenge = challenge_bytes(1, SimTime::from_secs(5));
    suite.bench("credential/prove", || prove_possession(black_box(&cred), &subject, &challenge));
    let proof = prove_possession(&cred, &subject, &challenge);
    suite.bench("credential/verify", || {
        vc_access::credential::verify_possession(
            black_box(&proof),
            &issuer.public_key(),
            &challenge,
            SimTime::from_secs(5),
        )
    });

    // ---- sealed packages ----
    let tpd = TpdEnforcer::new(b"tpd");
    let owner = SigningKey::from_seed(b"owner");
    let payload = vec![0u8; 4096];
    suite.bench("package/seal_4KiB", || {
        DataPackage::seal_new(
            1,
            black_box(&payload),
            Policy::new().allow(Action::Read, Expr::True),
            &owner,
            &tpd.public_share(),
            7,
        )
    });

    // Full enforcement path. Each iteration seals a fresh package and then
    // exercises request_access (access consumes the package state), so the
    // reported time includes one seal_4KiB — subtract the seal bench above
    // for the isolated enforcement cost.
    let now = SimTime::from_secs(5);
    let proof2 = prove_possession(&cred, &subject, &challenge_bytes(1, now));
    let ctx2 = Context::member_at(Point::new(0.0, 0.0), now);
    suite.bench("package/seal_and_request_access", || {
        let mut pkg = DataPackage::seal_new(
            1,
            &payload,
            Policy::new().allow(Action::Read, Expr::HasRole(Role::Storage)),
            &owner,
            &tpd.public_share(),
            7,
        );
        tpd.request_access(
            &mut pkg,
            Action::Read,
            &proof2,
            &issuer.public_key(),
            &ctx2,
            PseudonymId(1),
        )
    });

    // ---- audit chain ----
    let mut log = AuditLog::new();
    let mut i = 0u64;
    suite.bench("audit/append", || {
        log.append(SimTime::from_secs(i), PseudonymId(i), Action::Read, Decision::Permit);
        i += 1;
    });
    let mut log2 = AuditLog::new();
    for i in 0..1000 {
        log2.append(SimTime::from_secs(i), PseudonymId(i), Action::Read, Decision::Permit);
    }
    suite.bench("audit/verify_1000", || log2.verify(black_box(None)));

    // ---- trust validators ----
    let mut rep = ReputationStore::new();
    for r in 0..50u64 {
        for _ in 0..5 {
            rep.record(r, r % 3 != 0);
        }
    }
    let reports: Vec<Report> = (0..50u64)
        .map(|r| Report {
            reporter: r,
            kind: EventKind::Ice,
            location: Point::new(0.0, 0.0),
            observed_at: SimTime::from_secs(1),
            claim: r % 4 != 0,
            reporter_pos: Point::new(20.0, 0.0),
            reporter_speed: 12.0,
            path: vec![vc_sim::node::VehicleId((r % 7) as u32)],
        })
        .collect();
    let cluster = EventCluster { reports: reports.clone() };
    for v in all_validators() {
        suite.bench(&format!("trust/score_50_reports/{}", v.name()), || {
            v.score(black_box(&cluster), &rep)
        });
    }
    suite
        .bench("trust/classify_50", || classify(black_box(&reports), &ClassifierConfig::default()));

    // ---- delegation chains ----
    let owner = SigningKey::from_seed(b"owner");
    let far = SimTime::from_secs(100_000);
    let keys: Vec<SigningKey> = (0..3u8).map(|i| SigningKey::from_seed(&[i, 3])).collect();
    let g1 =
        grant(&owner, 1, keys[0].verifying_key(), vec![Action::Read, Action::Delegate], 3, far);
    let g2 =
        grant(&keys[0], 1, keys[1].verifying_key(), vec![Action::Read, Action::Delegate], 2, far);
    let g3 = grant(&keys[1], 1, keys[2].verifying_key(), vec![Action::Read], 1, far);
    let chain = DelegationChain { grants: vec![g1, g2, g3] };
    suite.bench("delegation/verify_3_links", || {
        verify_chain(black_box(&chain), &owner.verifying_key(), 1, SimTime::from_secs(1))
            .expect("valid")
    });

    suite.finish();
}
