//! Micro-benches for the authentication protocols — per-message costs
//! and the CRL-scaling curve (the wall-clock side of Fig. 5; experiment E4
//! counts the same scan in CRL entries hashed).

use vc_auth::groupsig::{GroupCoordinator, GroupId};
use vc_auth::handshake::{run_handshake_cached, HandshakeObsParams, SessionCache};
use vc_auth::hybrid::{RegionalIssuer, TaOpening};
use vc_auth::identity::{RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{crl_matches, CrlFront, LinkageSeed, PseudonymRegistry};
use vc_auth::token::{ServiceId, TokenGateway};
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::bench::{black_box, Suite};

fn window() -> SimDuration {
    SimDuration::from_secs(5)
}

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns.
vc_obs::counting_allocator!();

fn main() {
    vc_obs::mem::register_bench_probe();
    let mut suite = Suite::new("auth");

    // ---- pseudonyms ----
    let mut ta = TrustedAuthority::new(b"bench-ta");
    let mut reg = PseudonymRegistry::new();
    let id = RealIdentity::for_vehicle(VehicleId(1));
    ta.register(id.clone(), VehicleId(1));
    let wallet =
        reg.issue_wallet(&ta, &id, 8, SimTime::ZERO, SimTime::from_secs(100_000), b"seed").unwrap();
    let now = SimTime::from_secs(10);
    suite.bench("pseudonym/sign", || wallet.sign(black_box(b"beacon"), now));
    let msg = wallet.sign(b"beacon", now);
    // The 10 000-seed CRL before any verdict is memoized.
    let mut pristine_crl = CrlFront::default();
    for crl_size in [0usize, 1_000, 10_000, 50_000] {
        let mut reg2 = PseudonymRegistry::new();
        for i in 0..crl_size as u64 {
            let mut s = [0u8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            reg2.inject_revoked_seed(LinkageSeed(s));
        }
        if crl_size == 10_000 {
            pristine_crl = reg2.crl().clone();
        }
        if crl_size > 0 {
            // The scan alone, miss case (the wallet is not on this CRL):
            // every entry is hashed, none matches.
            suite.bench_elems(&format!("crl/scan/{crl_size}"), crl_size as u64, || {
                crl_matches(black_box(reg2.crl()), msg.cert.id, black_box(msg.cert.linkage_value))
            });
        }
        suite.bench(&format!("pseudonym/verify_vs_crl/{crl_size}"), || {
            vc_auth::pseudonym::verify(black_box(&msg), &ta.public_key(), reg2.crl(), now, window())
        });
        // The CrlFront memoizes the scan verdict per cert: warm verifies pay
        // a map lookup instead of the linear keyed-hash scan above.
        let front = CrlFront::new(reg2.crl());
        let _ =
            vc_auth::pseudonym::verify_with_front(&msg, &ta.public_key(), &front, now, window());
        suite.bench(&format!("pseudonym/verify_with_front/{crl_size}"), || {
            vc_auth::pseudonym::verify_with_front(
                black_box(&msg),
                &ta.public_key(),
                &front,
                now,
                window(),
            )
        });
    }

    // ---- session-key reuse ----
    let sid = RealIdentity::for_vehicle(VehicleId(9));
    ta.register(sid.clone(), VehicleId(9));
    let peer = reg
        .issue_wallet(&ta, &sid, 8, SimTime::ZERO, SimTime::from_secs(100_000), b"peer")
        .unwrap();
    let params = HandshakeObsParams {
        ta_key: &ta.public_key(),
        crl: reg.crl(),
        window: window(),
        hop: SimDuration::from_millis(3),
    };
    let ttl = SimDuration::from_secs(600);
    // Fresh session caches, but the registry's CRL memo holds both
    // certificates from the first iteration on: neither side scans.
    suite.bench("handshake/full", || {
        let mut ca = SessionCache::new(4, ttl);
        let mut cb = SessionCache::new(4, ttl);
        run_handshake_cached(&wallet, &peer, &mut ca, &mut cb, &params, now, 7, None).unwrap()
    });
    // A fresh copy of the unmemoized 10 000-seed CRL each iteration: both
    // sides pay the full scan, as on a first encounter.
    suite.bench("handshake/full/cold_crl/10000", || {
        let crl = pristine_crl.clone();
        let cold = HandshakeObsParams { crl: &crl, ..params };
        let mut ca = SessionCache::new(4, ttl);
        let mut cb = SessionCache::new(4, ttl);
        run_handshake_cached(&wallet, &peer, &mut ca, &mut cb, &cold, now, 7, None).unwrap()
    });
    let mut ca = SessionCache::new(4, ttl);
    let mut cb = SessionCache::new(4, ttl);
    run_handshake_cached(&wallet, &peer, &mut ca, &mut cb, &params, now, 7, None).unwrap();
    // Resume after the warm handshake completed (keys are cached at
    // `now + 2*hop`), well inside the TTL.
    let resume_at = now + SimDuration::from_secs(1);
    let (_, resumed) =
        run_handshake_cached(&wallet, &peer, &mut ca, &mut cb, &params, resume_at, 8, None)
            .unwrap();
    assert!(resumed, "warm caches must resume, not re-handshake");
    suite.bench("handshake/cached_resume", || {
        run_handshake_cached(&wallet, &peer, &mut ca, &mut cb, &params, resume_at, 8, None).unwrap()
    });

    // ---- group signatures ----
    let mut coord = GroupCoordinator::new(GroupId(1), b"bench-group");
    let member = coord.admit(RealIdentity::for_vehicle(VehicleId(2)));
    suite.bench("group/sign", || member.sign(black_box(b"beacon"), now, 7));
    let gmsg = member.sign(b"beacon", now, 7);
    suite.bench("group/verify", || {
        vc_auth::groupsig::verify(
            black_box(&gmsg),
            &coord.group_public_key(),
            coord.epoch(),
            now,
            window(),
        )
    });
    suite.bench("group/open", || coord.open_message(black_box(&gmsg)));
    let gbatch: Vec<_> = (0..32u8).map(|i| member.sign(&[i], now, i as u64)).collect();
    suite.bench("group/verify_batch/32", || {
        vc_auth::groupsig::verify_batch(
            black_box(&gbatch),
            &coord.group_public_key(),
            coord.epoch(),
            now,
            window(),
        )
    });

    // ---- hybrid regional certs ----
    let ta2 = TrustedAuthority::new(b"bench-hybrid-ta");
    let opening = TaOpening::for_ta(&ta2);
    let mut issuer = RegionalIssuer::new(b"region", &opening, SimDuration::from_secs(60));
    let hid = RealIdentity::for_vehicle(VehicleId(3));
    suite.bench("hybrid/issue_cert", || issuer.issue(black_box(&hid), now).unwrap());
    let cred = issuer.issue(&hid, now).unwrap();
    suite.bench("hybrid/sign", || cred.sign(black_box(b"beacon"), now));
    let hmsg = cred.sign(b"beacon", now);
    suite.bench("hybrid/verify", || {
        vc_auth::hybrid::verify(black_box(&hmsg), &issuer.public_key(), now, window())
    });
    let hbatch: Vec<_> = (0..32u8).map(|i| cred.sign(&[i], now)).collect();
    suite.bench("hybrid/verify_batch/32", || {
        vc_auth::hybrid::verify_batch(black_box(&hbatch), &issuer.public_key(), now, window())
    });

    // ---- capability tokens ----
    let gw = TokenGateway::new(b"gw", SimDuration::from_secs(300));
    suite.bench("token/issue", || gw.issue(vc_auth::pseudonym::PseudonymId(1), ServiceId(1), now));
    let token = gw.issue(vc_auth::pseudonym::PseudonymId(1), ServiceId(1), now);
    suite.bench("token/verify", || {
        vc_auth::token::verify_token(black_box(&token), &gw.public_key(), ServiceId(1), now)
    });

    suite.finish();
}
