//! Micro-benches for the authentication protocols — per-message costs
//! and the CRL-scaling curve (the wall-clock side of Fig. 5; experiment E4
//! counts the same work in linkage hashes).

use vc_auth::groupsig::{GroupCoordinator, GroupId};
use vc_auth::handshake::{run_handshake_cached, HandshakeObsParams, SessionCache};
use vc_auth::hybrid::{RegionalIssuer, TaOpening};
use vc_auth::identity::{RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{
    crl_matches, verify_checks, verify_with_front, CrlFront, LinkageSeed, PseudonymCert,
    PseudonymRegistry,
};
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
    let at = msg.cert.linkage_index();
    // The 10 000-seed CRL before any index is expanded.
    let mut pristine_crl = CrlFront::default();
    // Fig. 5's curve, two ways side by side: `linear` checks a sighting
    // with one keyed hash per CRL entry (the five checks with `crl_matches`
    // answering revocation); `expanded` is a first sighting through a front
    // that has already expanded the certificate's index (each iteration a
    // clone, which shares the seeds and the filter but has not seen the
    // certificate). The second reads flat in |CRL|, except at a size where
    // this one certificate is among the ≈ 2.4 % of false filter hits: then
    // every iteration pays the exact scan, as `linear` does.
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
        let crl = reg2.crl();
        if crl_size > 0 {
            // The scan alone, miss case (the wallet is not on this CRL):
            // every entry is hashed, none matches.
            suite.bench_elems(&format!("crl/scan/{crl_size}"), crl_size as u64, || {
                crl_matches(black_box(crl), at, black_box(msg.cert.linkage_value))
            });
        }
        let scan =
            |cert: &PseudonymCert| crl_matches(crl, cert.linkage_index(), cert.linkage_value);
        suite.bench(&format!("pseudonym/verify_vs_crl/linear/{crl_size}"), || {
            verify_checks(black_box(&msg), &ta.public_key(), scan, now, window())
        });
        // Expand the index once, through another value at it.
        let expanded = CrlFront::new(crl);
        assert!(!expanded.is_revoked(at, [0u8; 8]));
        suite.bench(&format!("pseudonym/verify_vs_crl/expanded/{crl_size}"), || {
            let front = expanded.clone();
            verify_with_front(black_box(&msg), &ta.public_key(), &front, now, window())
        });
        // Repeats answer from the memo: a map lookup.
        let front = CrlFront::new(crl);
        let _ = verify_with_front(&msg, &ta.public_key(), &front, now, window());
        suite.bench(&format!("pseudonym/verify_with_front/{crl_size}"), || {
            verify_with_front(black_box(&msg), &ta.public_key(), &front, now, window())
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
    // A fresh copy of the unexpanded 10 000-seed CRL each iteration: the
    // first side's check expands the period (10 000 × 16 linkage hashes),
    // as a verifier does once per CRL refresh.
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

    // ---- capability tokens ----
    let gw = TokenGateway::new(b"gw", SimDuration::from_secs(300));
    suite.bench("token/issue", || gw.issue(vc_auth::pseudonym::PseudonymId(1), ServiceId(1), now));
    let token = gw.issue(vc_auth::pseudonym::PseudonymId(1), ServiceId(1), now);
    suite.bench("token/verify", || {
        vc_auth::token::verify_token(black_box(&token), &gw.public_key(), ServiceId(1), now)
    });

    suite.finish();
}
