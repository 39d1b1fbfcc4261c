//! Property-based tests for the authentication protocols.

use vc_auth::groupsig::{GroupCoordinator, GroupId};
use vc_auth::handshake::{
    respond, run_handshake_cached, HandshakeObsParams, Initiator, SessionCache,
};
use vc_auth::identity::{AuthError, RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{
    crl_matches, verify_checks, verify_with_front, CrlFront, LinkageIndex, LinkageSeed,
    PseudonymCert, PseudonymId, PseudonymMessage, PseudonymRegistry, CERTS_PER_PERIOD,
    LINKAGE_PERIOD,
};
use vc_auth::replay::{ReplayGuard, ReplayVerdict};
use vc_crypto::schnorr::VerifyingKey;
use vc_crypto::sha256::sha256;
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::prop::strategy::{any_bytes, any_u16, any_u32, any_u64, any_u8, vec};
use vc_testkit::{prop, prop_assert, prop_assert_eq};

/// The linear verifier, and the oracle [`verify_with_front`] is held to:
/// the five checks, with every CRL entry hashed at the certificate's
/// `(i, j)` on every call.
fn verify(
    message: &PseudonymMessage,
    ta_key: &VerifyingKey,
    crl: &[LinkageSeed],
    now: SimTime,
    replay_window: SimDuration,
) -> Result<(), AuthError> {
    let scan = |cert: &PseudonymCert| crl_matches(crl, cert.linkage_index(), cert.linkage_value);
    verify_checks(message, ta_key, scan, now, replay_window)
}

prop! {
    #![cases(24)]

    // Any payload signed by a provisioned wallet verifies; any single-byte
    // payload tamper is rejected.
    #[test]
    fn pseudonym_sign_verify_tamper(
        payload in vec(any_u8(), 1..128),
        flip_idx in any_u16(),
        pool in 1usize..6,
    ) {
        let mut ta = TrustedAuthority::new(b"prop-ta");
        let mut reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(1));
        ta.register(id.clone(), VehicleId(1));
        let wallet = reg
            .issue_wallet(&ta, &id, pool, SimTime::ZERO, SimTime::from_secs(10_000), b"s")
            .unwrap();
        let now = SimTime::from_secs(50);
        let msg = wallet.sign(&payload, now);
        let window = SimDuration::from_secs(5);
        prop_assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), now, window),
            Ok(())
        );
        let mut tampered = msg.clone();
        let idx = flip_idx as usize % tampered.payload.len();
        tampered.payload[idx] ^= 1;
        prop_assert_eq!(
            verify(&tampered, &ta.public_key(), reg.crl(), now, window),
            Err(AuthError::BadSignature)
        );
    }

    // Revocation is complete (every pseudonym of the identity dies) and
    // sound (other identities keep verifying) for any pool size and any
    // rotation position.
    #[test]
    fn revocation_complete_and_sound(pool in 1usize..6, rotations in 0usize..12) {
        let mut ta = TrustedAuthority::new(b"prop-ta");
        let mut reg = PseudonymRegistry::new();
        let bad = RealIdentity::for_vehicle(VehicleId(1));
        let good = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(bad.clone(), VehicleId(1));
        ta.register(good.clone(), VehicleId(2));
        let mut bad_wallet = reg
            .issue_wallet(&ta, &bad, pool, SimTime::ZERO, SimTime::from_secs(10_000), b"b")
            .unwrap();
        let good_wallet = reg
            .issue_wallet(&ta, &good, pool, SimTime::ZERO, SimTime::from_secs(10_000), b"g")
            .unwrap();
        reg.revoke_identity(&bad);
        for _ in 0..rotations {
            bad_wallet.rotate();
        }
        let now = SimTime::from_secs(10);
        let window = SimDuration::from_secs(5);
        let bad_msg = bad_wallet.sign(b"hi", now);
        prop_assert_eq!(
            verify(&bad_msg, &ta.public_key(), reg.crl(), now, window),
            Err(AuthError::Revoked),
            "revoked identity must fail under every pseudonym"
        );
        let good_msg = good_wallet.sign(b"hi", now);
        prop_assert_eq!(
            verify(&good_msg, &ta.public_key(), reg.crl(), now, window),
            Ok(())
        );
    }

    // Group signatures: members verify under the current epoch; the
    // coordinator opens every message to the right identity regardless of
    // entropy; non-members never verify.
    #[test]
    fn group_open_is_correct(member_count in 1usize..6, entropy in any_u64(), pick in any_u8()) {
        let mut coord = GroupCoordinator::new(GroupId(1), b"prop-group");
        let creds: Vec<_> = (0..member_count)
            .map(|i| coord.admit(RealIdentity::for_vehicle(VehicleId(i as u32))))
            .collect();
        let now = SimTime::from_secs(5);
        let idx = pick as usize % member_count;
        let msg = creds[idx].sign(b"report", now, entropy);
        prop_assert_eq!(
            vc_auth::groupsig::verify(&msg, &coord.group_public_key(), coord.epoch(), now, SimDuration::from_secs(5)),
            Ok(())
        );
        let opened = coord.open_message(&msg).unwrap();
        prop_assert_eq!(opened, &RealIdentity::for_vehicle(VehicleId(idx as u32)));
    }

    // Replay guard: within a window, a digest is fresh exactly once, for
    // any interleaving of distinct messages.
    #[test]
    fn replay_guard_exactly_once(msgs in vec(vec(any_u8(), 1..16), 1..20)) {
        let mut guard = ReplayGuard::new(SimDuration::from_secs(1_000), 4096);
        let now = SimTime::from_secs(10);
        let mut seen = std::collections::HashSet::new();
        for m in &msgs {
            let digest = sha256(m);
            let verdict = guard.check(digest, now, now);
            if seen.insert(digest) {
                prop_assert_eq!(verdict, ReplayVerdict::Fresh);
            } else {
                prop_assert_eq!(verdict, ReplayVerdict::Duplicate);
            }
        }
    }

    // The CRL front is a pure cache: for any CRL size and message mix,
    // verify_with_front returns exactly what the linear-scan verify does,
    // on both the cold (scan) and warm (memo) paths.
    #[test]
    fn crl_front_equivalent_to_linear_verify(crl_size in 0usize..40, tamper in any_u8()) {
        let mut ta = TrustedAuthority::new(b"prop-ta");
        let mut reg = PseudonymRegistry::new();
        let good = RealIdentity::for_vehicle(VehicleId(1));
        let bad = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(good.clone(), VehicleId(1));
        ta.register(bad.clone(), VehicleId(2));
        let good_wallet = reg
            .issue_wallet(&ta, &good, 3, SimTime::ZERO, SimTime::from_secs(10_000), b"g")
            .unwrap();
        let bad_wallet = reg
            .issue_wallet(&ta, &bad, 3, SimTime::ZERO, SimTime::from_secs(10_000), b"b")
            .unwrap();
        reg.revoke_identity(&bad);
        for i in 0..crl_size as u64 {
            let mut s = [0u8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            reg.inject_revoked_seed(LinkageSeed(s));
        }
        let now = SimTime::from_secs(50);
        let window = SimDuration::from_secs(5);
        let mut messages = vec![good_wallet.sign(b"ok", now), bad_wallet.sign(b"revoked", now)];
        let mut tampered = good_wallet.sign(b"t", now);
        if tamper & 1 == 0 {
            tampered.payload = b"forged".to_vec();
        } else {
            tampered.cert.valid_until = SimTime::from_secs(999_999);
        }
        messages.push(tampered);
        let front = CrlFront::new(reg.crl());
        for msg in &messages {
            let slow = verify(msg, &ta.public_key(), front.seeds(), now, window);
            for _ in 0..2 {
                let fast = verify_with_front(
                    msg, &ta.public_key(), &front, now, window,
                );
                prop_assert_eq!(fast, slow);
            }
        }
    }

    // The registry's CRL memo never answers from before a revocation: on one
    // registry, over any interleaving of verifies and full handshakes
    // through `reg.crl()`, revocations, and injected seeds (new and already
    // listed), every verdict equals linear `verify` against the seeds at
    // that moment. A listed seed keeps the memo; a new one empties it.
    #[test]
    fn registry_memo_follows_every_revocation(ops in vec(any_u8(), 1..48)) {
        const VEHICLES: usize = 6;
        let mut ta = TrustedAuthority::new(b"prop-memo");
        let mut reg = PseudonymRegistry::new();
        let ids: Vec<RealIdentity> =
            (0..VEHICLES as u32).map(|v| RealIdentity::for_vehicle(VehicleId(v))).collect();
        let wallets: Vec<_> = ids
            .iter()
            .zip(0u8..)
            .map(|(id, v)| {
                ta.register(id.clone(), VehicleId(v as u32));
                reg.issue_wallet(&ta, id, 2, SimTime::ZERO, SimTime::from_secs(10_000), &[v])
                    .unwrap()
            })
            .collect();
        let ta_key = ta.public_key();
        let now = SimTime::from_secs(50);
        let window = SimDuration::from_secs(5);
        for (step, &op) in ops.iter().enumerate() {
            let a = (op >> 3) as usize % VEHICLES;
            match op % 8 {
                0..=3 => {
                    let msg = wallets[a].sign(&[op], now);
                    let linear = verify(&msg, &ta_key, reg.crl().seeds(), now, window);
                    prop_assert_eq!(verify_with_front(&msg, &ta_key, reg.crl(), now, window), linear);
                }
                4 | 5 => {
                    let b = (a + 1 + op as usize % (VEHICLES - 1)) % VEHICLES;
                    let (init, hello) = Initiator::hello(&wallets[a], now, step as u64);
                    let linear = verify(&hello.envelope, &ta_key, reg.crl().seeds(), now, window);
                    match respond(&hello, &wallets[b], &ta_key, reg.crl(), now, window, 1) {
                        Err(e) => prop_assert_eq!(Err(e), linear),
                        Ok((_, accept)) => {
                            prop_assert_eq!(linear, Ok(()));
                            let linear =
                                verify(&accept.envelope, &ta_key, reg.crl().seeds(), now, window);
                            let fast = init.finish(&accept, &ta_key, reg.crl(), now, window);
                            prop_assert_eq!(fast.map(|_| ()), linear);
                        }
                    }
                }
                6 => reg.revoke_identity(&ids[a]),
                _ if op & 0x80 != 0 || reg.crl().is_empty() => {
                    let mut seed = [0xC5u8; 16];
                    seed[..8].copy_from_slice(&(step as u64).to_be_bytes());
                    reg.inject_revoked_seed(LinkageSeed(seed));
                    prop_assert_eq!(reg.crl().memo_len(), 0, "a new seed empties the memo");
                }
                _ => {
                    let listed = reg.crl()[op as usize % reg.crl().len()];
                    let memo = reg.crl().memo_len();
                    reg.inject_revoked_seed(listed);
                    prop_assert_eq!(reg.crl().memo_len(), memo, "a listed seed keeps the memo");
                }
            }
        }
    }

    // Session cache: a re-encounter within TTL resumes with the same key;
    // past the TTL it re-runs the handshake; revocation invalidation always
    // forces the full (failing) handshake.
    #[test]
    fn session_cache_hit_expiry_revocation(gap_secs in 1u64..200, revoke in any_u8()) {
        let mut ta = TrustedAuthority::new(b"prop-hs");
        let mut reg = PseudonymRegistry::new();
        let a_id = RealIdentity::for_vehicle(VehicleId(1));
        let b_id = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(a_id.clone(), VehicleId(1));
        ta.register(b_id.clone(), VehicleId(2));
        let alice = reg
            .issue_wallet(&ta, &a_id, 3, SimTime::ZERO, SimTime::from_secs(10_000), b"a")
            .unwrap();
        let bob = reg
            .issue_wallet(&ta, &b_id, 3, SimTime::ZERO, SimTime::from_secs(10_000), b"b")
            .unwrap();
        let ttl = SimDuration::from_secs(100);
        let mut ca = SessionCache::new(8, ttl);
        let mut cb = SessionCache::new(8, ttl);
        let params = HandshakeObsParams {
            ta_key: &ta.public_key(),
            crl: reg.crl(),
            window: SimDuration::from_secs(5),
            hop: SimDuration::from_millis(3),
        };
        let t0 = SimTime::from_secs(10);
        let (k1, r1) =
            run_handshake_cached(&alice, &bob, &mut ca, &mut cb, &params, t0, 1, None).unwrap();
        prop_assert!(!r1);
        if revoke & 1 == 0 {
            let t1 = SimTime::from_secs(10 + gap_secs);
            let (k2, r2) =
                run_handshake_cached(&alice, &bob, &mut ca, &mut cb, &params, t1, 2, None)
                    .unwrap();
            // Within TTL (gap <= 100 s) the session resumes with the same
            // key; past it, a fresh handshake runs.
            prop_assert_eq!(r2, gap_secs <= 100);
            if r2 {
                prop_assert_eq!(k1.0, k2.0);
            }
        } else {
            reg.revoke_identity(&a_id);
            ca.invalidate_revoked(reg.crl());
            cb.invalidate_revoked(reg.crl());
            prop_assert_eq!(cb.len(), 0, "revoked peer's cached session dropped");
            let fresh = HandshakeObsParams {
                ta_key: &ta.public_key(),
                crl: reg.crl(),
                window: SimDuration::from_secs(5),
                hop: SimDuration::from_millis(3),
            };
            let t1 = SimTime::from_secs(11);
            let err = run_handshake_cached(&alice, &bob, &mut ca, &mut cb, &fresh, t1, 2, None)
                .unwrap_err();
            prop_assert_eq!(err, AuthError::Revoked);
        }
    }

    // Hybrid batch verification agrees with sequential verification for any
    // mix of valid, tampered, and replayed messages.
    #[test]
    fn hybrid_batch_matches_sequential(count in 1usize..10, culprit in any_u8(), mode in any_u8()) {
        let ta = TrustedAuthority::new(b"prop-hy");
        let opening = vc_auth::hybrid::TaOpening::for_ta(&ta);
        let mut issuer =
            vc_auth::hybrid::RegionalIssuer::new(b"prop-region", &opening, SimDuration::from_secs(60));
        let now = SimTime::from_secs(10);
        let creds: Vec<_> = (0..3)
            .map(|i| issuer.issue(&RealIdentity::for_vehicle(VehicleId(i)), now).unwrap())
            .collect();
        let mut msgs: Vec<_> =
            (0..count).map(|i| creds[i % creds.len()].sign(&[i as u8], now)).collect();
        let idx = culprit as usize % count;
        match mode % 3 {
            0 => msgs[idx].payload = b"evil".to_vec(),
            1 => msgs[idx].cert.valid_until = SimTime::from_secs(999_999),
            _ => msgs[idx].sent_at = SimTime::ZERO,
        }
        let window = SimDuration::from_secs(5);
        let batch = vc_auth::hybrid::verify_batch(&msgs, &issuer.public_key(), now, window);
        for (m, got) in msgs.iter().zip(&batch) {
            prop_assert_eq!(
                got.clone(),
                vc_auth::hybrid::verify(m, &issuer.public_key(), now, window)
            );
        }
        prop_assert!(batch[idx].is_err(), "tampered message must fail");
    }

    // Group-signature batch verification agrees with sequential
    // verification for any mix of valid and tampered messages.
    #[test]
    fn groupsig_batch_matches_sequential(count in 1usize..10, culprit in any_u8(), mode in any_u8()) {
        let mut coord = GroupCoordinator::new(GroupId(7), b"prop-gs");
        let creds: Vec<_> = (0..3)
            .map(|i| coord.admit(RealIdentity::for_vehicle(VehicleId(i))))
            .collect();
        let now = SimTime::from_secs(10);
        let mut msgs: Vec<_> = (0..count)
            .map(|i| creds[i % creds.len()].sign(&[i as u8], now, i as u64))
            .collect();
        let idx = culprit as usize % count;
        match mode % 3 {
            0 => msgs[idx].payload = b"evil".to_vec(),
            1 => msgs[idx].epoch += 1,
            _ => msgs[idx].sent_at = SimTime::ZERO,
        }
        let window = SimDuration::from_secs(5);
        let batch = vc_auth::groupsig::verify_batch(
            &msgs, &coord.group_public_key(), coord.epoch(), now, window,
        );
        for (m, got) in msgs.iter().zip(&batch) {
            prop_assert_eq!(
                got.clone(),
                vc_auth::groupsig::verify(m, &coord.group_public_key(), coord.epoch(), now, window)
            );
        }
        prop_assert!(batch[idx].is_err(), "tampered message must fail");
    }

    // The fast arithmetic core opens no bypass: with exactly one forged
    // message in a window, batch verification names the same culprit
    // single-signature `verify` does (which vc-crypto's suite holds equal to
    // its division-based oracle); and a revoked wallet — whose signatures
    // are themselves valid — is still `Revoked` through the CRL front, cold
    // and warm, as in linear `verify`.
    #[test]
    fn fast_core_opens_no_bypass(count in 2usize..8, culprit in any_u8(), crl_size in 0usize..20) {
        let mut ta = TrustedAuthority::new(b"prop-ta");
        let mut reg = PseudonymRegistry::new();
        let now = SimTime::from_secs(50);
        let window = SimDuration::from_secs(5);
        let wallets: Vec<_> = (0..count as u32)
            .map(|v| {
                let id = RealIdentity::for_vehicle(VehicleId(v));
                ta.register(id.clone(), VehicleId(v));
                reg.issue_wallet(&ta, &id, 2, SimTime::ZERO, SimTime::from_secs(10_000), b"w")
                    .unwrap()
            })
            .collect();
        let mut msgs: Vec<_> = wallets.iter().map(|w| w.sign(b"beacon", now)).collect();
        let idx = culprit as usize % count;
        msgs[idx].signature.response =
            msgs[idx].signature.response.add(vc_crypto::group::Scalar::one());
        let signed: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| [m.payload.as_slice(), &m.sent_at.as_micros().to_be_bytes()].concat())
            .collect();
        let items: Vec<(&[u8], _, _)> = msgs
            .iter()
            .zip(&signed)
            .map(|(m, bytes)| (bytes.as_slice(), m.cert.key, m.signature))
            .collect();
        prop_assert_eq!(vc_crypto::schnorr::verify_batch(&items, b"prop"), Err(vec![idx]));
        for (i, (bytes, key, sig)) in items.iter().enumerate() {
            prop_assert_eq!(key.verify(bytes, sig), i != idx);
        }

        let revoked = &wallets[(idx + 1) % count];
        reg.revoke_identity(revoked.real_identity());
        for i in 0..crl_size as u64 {
            let mut s = [0xEEu8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            reg.inject_revoked_seed(LinkageSeed(s));
        }
        let msg = revoked.sign(b"still signs", now);
        let bytes = [msg.payload.as_slice(), &msg.sent_at.as_micros().to_be_bytes()].concat();
        prop_assert!(msg.cert.key.verify(&bytes, &msg.signature));
        let front = CrlFront::new(reg.crl());
        let linear = verify(&msg, &ta.public_key(), reg.crl(), now, window);
        prop_assert_eq!(linear.clone(), Err(AuthError::Revoked));
        for _ in 0..2 {
            let fast = verify_with_front(
                &msg, &ta.public_key(), &front, now, window,
            );
            prop_assert_eq!(fast, linear.clone());
        }
    }

    // The lane-parallel CRL scan against the one-hash-at-a-time scan it
    // replaced, around every group boundary: empty, a lone tail, one short
    // of / exactly / one past a group, two groups minus one, two groups plus
    // a tail, and the benchmark's 10 000. For each length: a miss; the
    // matching seed first, last in the last full group, and in the tail
    // only; a value one bit away from a listed entry's in its first or last
    // byte (no match); and the list doubled (duplicates change no verdict).
    #[test]
    fn crl_matches_equals_scalar_scan(salt in any_bytes::<8>(), period in any_u32(), j in any_u8()) {
        let id = LinkageIndex { period, j: j % CERTS_PER_PERIOD as u8 };
        // Both scans' verdicts, which must agree with each other and with
        // what the construction of the list implies.
        let both = |seeds: &[LinkageSeed], lv: [u8; 8]| {
            (crl_matches(seeds, id, lv), seeds.iter().any(|seed| seed.linkage_value(id) == lv))
        };
        for len in [0usize, 1, 15, 16, 17, 31, 33, 10_000] {
            let seeds: Vec<LinkageSeed> = (0..len as u64)
                .map(|i| {
                    let mut s = [0u8; 16];
                    s[..8].copy_from_slice(&salt);
                    s[8..].copy_from_slice(&i.to_be_bytes());
                    LinkageSeed(s)
                })
                .collect();
            let doubled = [seeds.as_slice(), seeds.as_slice()].concat();
            let absent = LinkageSeed([0xEE; 16]).linkage_value(id);
            prop_assert_eq!(both(&seeds, absent), (false, false), "miss, len {}", len);
            prop_assert_eq!(both(&doubled, absent), (false, false), "miss, doubled {}", len);
            let full = len - len % 16;
            let planted =
                [(len > 0).then_some(0), full.checked_sub(1), (full < len).then(|| len - 1)];
            for at in planted.into_iter().flatten() {
                let lv = seeds[at].linkage_value(id);
                prop_assert_eq!(both(&seeds, lv), (true, true), "hit at {} of {}", at, len);
                prop_assert_eq!(both(&doubled, lv), (true, true), "hit at {}, doubled", at);
                for byte in [0, 7] {
                    let mut near = lv;
                    near[byte] ^= 1;
                    prop_assert_eq!(both(&seeds, near), (false, false), "near hit at {}", at);
                }
            }
        }
    }

    // Near misses at every position the scan treats differently: each of
    // the 16 lanes of a full group and each entry of the `len % 16` tail.
    // A linkage value that agrees with a listed entry's in 7 of its 8 bytes,
    // once for each byte that differs, matches nothing; the exact value
    // matches. The lane kernel compares two digest words per lane, so a
    // near miss in either word, in any lane, must not leak a hit from its
    // neighbours.
    #[test]
    fn crl_matches_rejects_every_near_miss(
        salt in any_bytes::<8>(),
        period in any_u32(),
        flip in 1u8..=255,
    ) {
        let id = LinkageIndex { period, j: flip % CERTS_PER_PERIOD as u8 };
        let seeds: Vec<LinkageSeed> = (0..16 + 7u64)
            .map(|i| {
                let mut s = [0u8; 16];
                s[..8].copy_from_slice(&salt);
                s[8..].copy_from_slice(&i.to_be_bytes());
                LinkageSeed(s)
            })
            .collect();
        for (at, seed) in seeds.iter().enumerate() {
            let lv = seed.linkage_value(id);
            prop_assert!(crl_matches(&seeds, id, lv), "exact value at {}", at);
            for byte in 0..8 {
                let mut near = lv;
                near[byte] ^= flip;
                prop_assert!(
                    !crl_matches(&seeds, id, near),
                    "entry {} with byte {} flipped by {:#04x}", at, byte, flip
                );
            }
        }
    }

    // Linkage values are deterministic per (seed, i, j) and collide only
    // negligibly (the J values of two adjacent periods never collide).
    #[test]
    fn linkage_values_distinct(seed_bytes in any_bytes::<16>(), base in any_u32()) {
        let seed = LinkageSeed(seed_bytes);
        let mut values = std::collections::HashSet::new();
        for period in [base, base.wrapping_add(1)] {
            for j in 0..CERTS_PER_PERIOD as u8 {
                let v = seed.linkage_value(LinkageIndex { period, j });
                prop_assert!(values.insert(v), "linkage collision");
            }
        }
    }

    // The differential property of the per-period scheme: on one registry
    // whose vehicles hold certificates in four periods, over any order of
    // verifies (in any period, of revoked or unrevoked vehicles, with the
    // linkage value intact or one byte off), revocations, injected seeds and
    // snapshot clones, `verify_with_front` through the registry's front and
    // through a snapshot returns exactly what the linear oracle returns
    // against that front's seeds. Periods arrive out of order, so expansion,
    // replacement of the oldest period and the scan of an older one all run;
    // one-byte-off values in the last byte are filter hits.
    #[test]
    fn verify_with_front_equals_the_linear_oracle(
        ops in vec(any_u16(), 1..40),
        salt in any_u64(),
    ) {
        const VEHICLES: usize = 4;
        const PERIODS: u64 = 4;
        let week = LINKAGE_PERIOD.as_micros() / 1_000_000;
        let mut ta = TrustedAuthority::new(b"prop-periods");
        let mut reg = PseudonymRegistry::new();
        let ids: Vec<RealIdentity> =
            (0..VEHICLES as u32).map(|v| RealIdentity::for_vehicle(VehicleId(v))).collect();
        let until = SimTime::from_secs(10 * week);
        // wallets[v][p]: vehicle v's two certificates valid from period p.
        let wallets: Vec<Vec<_>> = ids
            .iter()
            .zip(0u32..)
            .map(|(id, v)| {
                ta.register(id.clone(), VehicleId(v));
                (0..PERIODS)
                    .map(|p| {
                        let from = SimTime::from_secs(p * week + 5);
                        reg.issue_wallet(&ta, id, 2, from, until, &[v as u8, p as u8]).unwrap()
                    })
                    .collect()
            })
            .collect();
        let ta_key = ta.public_key();
        let now = SimTime::from_secs(PERIODS * week + 10);
        let window = SimDuration::from_secs(5);
        let mut snapshot = CrlFront::new(reg.crl());
        for (step, &op) in ops.iter().enumerate() {
            let (v, p) = ((op >> 4) as usize % VEHICLES, (op >> 6) as usize % PERIODS as usize);
            match op % 8 {
                0..=4 => {
                    let mut msg = wallets[v][p].sign(&op.to_be_bytes(), now);
                    if op & 0x100 != 0 {
                        // Another j for the same linkage value.
                        msg.cert.id = PseudonymId(msg.cert.id.0 ^ 1);
                    }
                    if op & 0x200 != 0 {
                        let byte = if op & 0x400 != 0 { 7 } else { (op >> 11) as usize % 8 };
                        msg.cert.linkage_value[byte] ^= 1 + (op >> 12) as u8;
                    }
                    for front in [reg.crl(), &snapshot] {
                        let linear = verify(&msg, &ta_key, front.seeds(), now, window);
                        for _ in 0..2 {
                            let fast = verify_with_front(&msg, &ta_key, front, now, window);
                            prop_assert_eq!(fast, linear.clone(), "step {}, op {:#x}", step, op);
                        }
                    }
                }
                5 => reg.revoke_identity(&ids[v]),
                6 => {
                    let mut seed = [0u8; 16];
                    seed[..8].copy_from_slice(&salt.to_be_bytes());
                    seed[8..].copy_from_slice(&(step as u64).to_be_bytes());
                    reg.inject_revoked_seed(LinkageSeed(seed));
                }
                _ => snapshot = reg.crl().clone(),
            }
        }
    }
}
