//! E4 — the authentication-protocol comparison of Fig. 5, measured.
//!
//! Pseudonym vs group vs hybrid on the axes the paper argues about: wire
//! overhead, revocation-cost scaling (linkage hashes a first-sighting
//! verify pays), and eavesdropper linkability. Pseudonyms appear twice: the
//! linear CRL check Fig. 5 describes, and per-period linkage values, whose
//! verifier expands the CRL once per period and index. Every cell is counted, so the
//! table is a pure function of the seed; the per-message times live in
//! `benches/auth.rs` and `vcbench`'s `auth.pseudonym.verify_cold_us`.

use crate::table::{pct, Table};
use vc_attacks::prelude::{tracking_accuracy, IdScheme};
use vc_auth::prelude::*;
use vc_auth::pseudonym::{crl_matches, verify_checks, CERTS_PER_PERIOD};
use vc_obs::MemSize;
use vc_sim::prelude::*;

/// Vehicles whose certificates, 16 each, are the per-period row's first
/// sightings.
const SIGHTED_VEHICLES: u32 = 32;

/// Runs E4.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut vc_obs::Recorder>) -> Table {
    let window = SimDuration::from_secs(5);
    let now = SimTime::from_secs(10);
    let track_vehicles = if quick { 30 } else { 60 };

    let mut table = Table::new(
        "E4",
        "authentication protocol comparison",
        "Fig. 5 / §IV-B (pseudonym vs group vs hybrid)",
        &[
            "protocol",
            "overhead B",
            "CRL hashes / first verify",
            "revocation cost",
            "tracking accuracy",
            "who learns identity",
        ],
    );

    // ---- pseudonym ----
    let mut ta = TrustedAuthority::new(&seed.to_be_bytes());
    let mut registry = PseudonymRegistry::new();
    let identity = RealIdentity::for_vehicle(VehicleId(1));
    ta.register(identity.clone(), VehicleId(1));
    let wallet = registry
        .issue_wallet(&ta, &identity, 8, SimTime::ZERO, SimTime::from_secs(100_000), b"w")
        .expect("wallet");
    let msg = wallet.sign(b"beacon payload 0123456789", now);
    // Grow the CRL to a deployment-scale revocation pool (one linkage seed
    // per revoked vehicle; each costs the verifier a keyed hash per message).
    let revoked = if quick { 20_000u64 } else { 100_000 };
    for i in 0..revoked {
        let mut s = [0u8; 16];
        s[..8].copy_from_slice(&i.to_be_bytes());
        registry.inject_revoked_seed(LinkageSeed(s));
    }
    // The linear check hashes every entry on each sighting.
    let crl_len = registry.crl().len();
    let scan = |cert: &PseudonymCert| {
        crl_matches(registry.crl(), cert.linkage_index(), cert.linkage_value)
    };
    verify_checks(&msg, &ta.public_key(), scan, now, window).expect("ok");
    let rot_period = 4;
    let mut rng = SimRng::seed_from(seed);
    let pseudo_tracking = tracking_accuracy(
        IdScheme::RotatingPseudonym { period: rot_period },
        track_vehicles,
        20,
        &mut rng,
    );
    table.row(vec![
        "pseudonym".into(),
        msg.auth_overhead_bytes().to_string(),
        crl_len.to_string(),
        "CRL grows per pseudonym".into(),
        pct(pseudo_tracking),
        "TA (escrow map)".into(),
    ]);

    // ---- pseudonym, per-period linkage values ----
    // The same CRL behind a front that expands each of the period's J
    // indices at its first lookup; 512 first sightings, each one probe and, on a
    // filter hit, one exact scan.
    let front = CrlFront::new(registry.crl());
    let unexpanded = front.mem_bytes();
    let mut sightings = 0u64;
    for v in 0..SIGHTED_VEHICLES {
        let identity = RealIdentity::for_vehicle(VehicleId(100 + v));
        ta.register(identity.clone(), VehicleId(100 + v));
        let until = SimTime::from_secs(100_000);
        let mut wallet = registry
            .issue_wallet(&ta, &identity, CERTS_PER_PERIOD, SimTime::ZERO, until, b"s")
            .expect("wallet");
        for _ in 0..CERTS_PER_PERIOD {
            let msg = wallet.sign(b"beacon payload 0123456789", now);
            vc_auth::pseudonym::verify_with_front(&msg, &ta.public_key(), &front, now, window)
                .expect("ok");
            sightings += 1;
            wallet.rotate();
        }
    }
    let scans = front.exact_scans();
    let held = front.mem_bytes() - unexpanded;
    table.row(vec![
        "pseudonym (per-period)".into(),
        msg.auth_overhead_bytes().to_string(),
        (scans * crl_len as u64 / sightings).to_string(),
        format!("{} hashes + {held} B per period (J x |CRL|)", crl_len * CERTS_PER_PERIOD),
        pct(pseudo_tracking),
        "TA (escrow map)".into(),
    ]);

    // ---- group ----
    let mut coord = GroupCoordinator::new(GroupId(1), b"grp");
    let member = coord.admit(RealIdentity::for_vehicle(VehicleId(2)));
    let gmsg = member.sign(b"beacon payload 0123456789", now, 7);
    vc_auth::groupsig::verify(&gmsg, &coord.group_public_key(), coord.epoch(), now, window)
        .expect("ok");
    let mut rng = SimRng::seed_from(seed + 1);
    let group_tracking = tracking_accuracy(IdScheme::GroupAnonymous, track_vehicles, 20, &mut rng);
    table.row(vec![
        "group".into(),
        gmsg.auth_overhead_bytes().to_string(),
        "0".into(),
        "O(group) rekey".into(),
        pct(group_tracking),
        "group coordinator".into(),
    ]);

    // ---- hybrid ----
    let ta2 = TrustedAuthority::new(b"hybrid-ta");
    let opening = TaOpening::for_ta(&ta2);
    let mut issuer = RegionalIssuer::new(b"region", &opening, SimDuration::from_secs(60));
    let cred = issuer.issue(&RealIdentity::for_vehicle(VehicleId(3)), now).expect("issue");
    let hmsg = cred.sign(b"beacon payload 0123456789", now);
    vc_auth::hybrid::verify(&hmsg, &issuer.public_key(), now, window).expect("ok");
    let mut rng = SimRng::seed_from(seed + 2);
    let hybrid_tracking =
        tracking_accuracy(IdScheme::RotatingPseudonym { period: 2 }, track_vehicles, 20, &mut rng);
    table.row(vec![
        "hybrid".into(),
        hmsg.auth_overhead_bytes().to_string(),
        "0".into(),
        "cert expiry (no list)".into(),
        pct(hybrid_tracking),
        "TA only (trapdoor)".into(),
    ]);

    table.note(format!(
        "linear pseudonym: a first-sighting verify hashes all {crl_len} CRL entries, one keyed hash per revoked seed — Fig. 5's 'checking process of the huge pool of revoked certificates is time-consuming'; benches/auth.rs pseudonym/verify_vs_crl/linear/{{0,1000,10000,50000}} times it"
    ));
    table.note(format!(
        "per-period pseudonym: the verifier expands the CRL once per linkage index (i, j), {crl_len} hashes each, at most J = {CERTS_PER_PERIOD} per period — here all J, {} linkage values held as filters of one byte each; over {sightings} first sightings {scans} were filter hits, each confirmed by one exact scan of {crl_len} hashes, and the rest cost one probe — vcbench's auth.pseudonym.verify_cold_us and benches/auth.rs pseudonym/verify_vs_crl/expanded/{{0,1000,10000,50000}} time it",
        crl_len * CERTS_PER_PERIOD
    ));
    table.note("expected shape: pseudonym = heaviest wire+CRL cost, linkable between rotations; group = no list to scan, anonymity except to coordinator; hybrid = no CRL and TA-only identity knowledge");
    table
}
