//! Guards for the CRL linkage scan: how fast one scan is, and how seldom a
//! verifier pays it.
//!
//! `crl_matches` and the per-period expansion are fast only because LLVM
//! turns the lane loops of `vc_crypto::sha256::compress_lanes` into vector
//! code, and on x86 the CPU picks which build runs: AVX-512F, AVX2, or the
//! baseline target's SSE2. Nothing in the type system holds any of them to
//! that. A toolchain bump that stops vectorising the loops, or a tier
//! wrapper that calls an out-of-line SSE2 body, passes every functional
//! test while multiplying the cost of every expansion and every exact
//! confirmation. The first test times the two
//! bench entries `auth/crl/scan/10000` and `crypto/sha256/linkage_scalar`
//! in one process and compares them as a ratio, which no host speed enters,
//! against a bound for the tier this host reports. Measured on rustc 1.95:
//! 0.07–0.10 under AVX-512F, 0.15–0.17 under AVX2, 0.29–0.34 on SSE2, ≥ 0.9 not
//! vectorised (docs/CRYPTO.md, "linkage-scan kernel").
//!
//! Both sides of a full handshake check the peer's certificate through the
//! registry's memoizing CRL, so a handshake between vehicles whose
//! certificates it has seen scans nothing. The second test times such a
//! warm handshake against one 10 000-entry scan: ≈ 0.3 as built under
//! AVX-512F (≈ 0.1 on SSE2, where the scan is three times slower), ≈ 2.2
//! when the handshake goes back to two linear scans (docs/CRYPTO.md,
//! "CRL front").
//!
//! A first sighting of a certificate whose period the front has expanded
//! is one filter probe, not a scan. The third test times such cold
//! verifies, each of a certificate the front has never seen, against one
//! 10 000-entry scan: ≈ 0.08 as built under AVX-512F, ≈ 1.1 when a first
//! sighting goes back to the linear scan.
//!
//! A signature costs one fixed-base exponentiation, for its commitment: the
//! signer keeps its public key and does not recompute it. The fourth test
//! times `sign_beacon` against `Element::base_pow`, failing above 3.7:
//! 3.0–3.4 as built, 4.05–4.3 when `sign` pays a second `base_pow` for its
//! own key. (A byte-window `base_pow` is ≈ 32 products, so the nonce and
//! challenge hashes are most of a signature.) The fifth times a 30-beacon `verify_batch`, per
//! beacon, against `base_pow`, failing above 5.0: 3.85–3.9 as built on a
//! quiet host and up to 4.85 on a busy one, 5.1–5.2 when each challenge is
//! hashed on its own instead of in SIMD lanes. A transcript hashed twice
//! costs ≈ 0.2 `base_pow` a beacon (4.05–4.15), inside the as-built spread:
//! no bound on this ratio separates it. The sixth times a 30-beacon window
//! with one forged beacon against the same window all valid, failing above
//! 2.5: 1.6–1.85 as built, 3.05–3.4 when a failed batch checks every item
//! on its own instead of solving for the culprit (docs/CRYPTO.md, "Cost
//! model").
//!
//! The tests take turns (`one_at_a_time`): timed beside each other on the
//! harness's parallel threads, the ratios above spread past their bounds.
//!
//! Timing tests, so they are ignored by default; the `bench-smoke` CI job
//! runs them optimised:
//! `cargo test --release -p vc-bench --test lane_guard -- --ignored`.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use vc_auth::handshake::{run_handshake_obs, HandshakeObsParams};
use vc_auth::identity::{RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{
    crl_matches, verify_with_front, LinkageIndex, LinkageSeed, PseudonymRegistry,
};
use vc_crypto::group::{Element, Scalar};
use vc_crypto::schnorr::{verify_batch, Signature, SigningKey, VerifyingKey};
use vc_net::beacon::{sign_beacon, Beacon};
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};

const ENTRIES: usize = 10_000;

/// Best-of-`reps` wall-clock nanoseconds of `f` and of `g`, timed in
/// alternation so that both see the same clock speed: a process that starts
/// on a slow core and times one side before the other skews the ratio.
fn best_pair_ns(reps: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let time = |h: &mut dyn FnMut()| {
        let start = Instant::now();
        h();
        start.elapsed().as_nanos() as f64
    };
    (0..reps).fold((f64::INFINITY, f64::INFINITY), |(best_f, best_g), _| {
        (best_f.min(time(&mut f)), best_g.min(time(&mut g)))
    })
}

/// Holds the test that holds it apart from every other test in this file.
///
/// The harness runs tests on parallel threads, and a guard timed beside
/// another on a sibling hyperthread reads skewed ratios: beside the CRL
/// scans, `sign_beacon ÷ base_pow` read up to 4.4 where it reads 3.0 alone,
/// as high as a signer paying a second exponentiation.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `ENTRIES` synthetic revoked seeds, in ascending order.
fn seeds() -> Vec<LinkageSeed> {
    (0..ENTRIES as u64)
        .map(|i| {
            let mut s = [0u8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            LinkageSeed(s)
        })
        .collect()
}

/// The `(i, j)` every scan in this file hashes at.
const AT: LinkageIndex = LinkageIndex { period: 0x0123_4567, j: 11 };

/// One miss scan over `seeds`: every entry is hashed.
fn miss_scan(seeds: &[LinkageSeed]) {
    assert!(!black_box(crl_matches(black_box(seeds), AT, black_box([0u8; 8]))));
}

/// A registry whose CRL holds `seeds()`, and `vehicles` registered,
/// unrevoked vehicles, each with a wallet of `pool` certificates.
fn registry_with_wallets(
    vehicles: u32,
    pool: usize,
) -> (TrustedAuthority, PseudonymRegistry, Vec<vc_auth::pseudonym::PseudonymWallet>) {
    let mut ta = TrustedAuthority::new(b"lane-guard-ta");
    let mut reg = PseudonymRegistry::new();
    for seed in seeds() {
        reg.inject_revoked_seed(seed);
    }
    let wallets = (1..=vehicles)
        .map(|v| {
            let id = RealIdentity::for_vehicle(VehicleId(v));
            ta.register(id.clone(), VehicleId(v));
            reg.issue_wallet(
                &ta,
                &id,
                pool,
                SimTime::ZERO,
                SimTime::from_secs(100),
                &v.to_be_bytes(),
            )
            .expect("a registered identity gets a wallet")
        })
        .collect();
    (ta, reg, wallets)
}

/// The build of the round loop this host's `compress_lanes` runs (the same
/// order it checks the features in), and the most scalar hashes per CRL
/// entry a scan may cost under it.
fn tier() -> (&'static str, f64) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if is_x86_feature_detected!("avx512f") {
            return ("avx512f", 0.2);
        }
        if is_x86_feature_detected!("avx2") {
            return ("avx2", 0.25);
        }
    }
    ("portable", 0.6)
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn crl_scan_costs_at_most_six_tenths_of_a_scalar_hash_per_entry() {
    let _turn = one_at_a_time();
    let (tier, bound) = tier();
    let seeds = seeds();
    let (scan_ns, scalar_ns) = best_pair_ns(
        30,
        || miss_scan(&seeds),
        || {
            for seed in &seeds {
                black_box(black_box(seed).linkage_value(AT));
            }
        },
    );
    let (scan_ns, scalar_ns) = (scan_ns / ENTRIES as f64, scalar_ns / ENTRIES as f64);
    let ratio = scan_ns / scalar_ns;
    println!(
        "tier {tier}: scan {scan_ns:.1} ns/entry, scalar {scalar_ns:.1} ns/hash, ratio {ratio:.3} \
         (bound {bound})"
    );
    assert!(
        ratio <= bound,
        "crl_matches costs {scan_ns:.1} ns per entry against {scalar_ns:.1} ns for one scalar \
         linkage_value ({ratio:.2}x, bound {bound} under {tier}): the lane loop in \
         compress_lanes no longer vectorises, or no longer for the tier the CPU reports"
    );
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn warm_full_handshake_costs_at_most_half_a_crl_scan() {
    let _turn = one_at_a_time();
    let (ta, reg, wallets) = registry_with_wallets(2, 1);
    let seeds = seeds();
    let params = HandshakeObsParams {
        ta_key: &ta.public_key(),
        crl: reg.crl(),
        window: SimDuration::from_secs(5),
        hop: SimDuration::from_millis(3),
    };
    let now = SimTime::from_secs(10);
    let handshake = || {
        black_box(run_handshake_obs(&wallets[0], &wallets[1], &params, now, 7, None))
            .expect("neither vehicle is revoked");
    };
    // The first handshake memoizes both certificates.
    handshake();
    let (handshake_ns, scan_ns) = best_pair_ns(30, handshake, || miss_scan(&seeds));
    let ratio = handshake_ns / scan_ns;
    println!(
        "warm handshake {:.1} us, 10 000-entry scan {:.1} us, ratio {ratio:.3}",
        handshake_ns / 1e3,
        scan_ns / 1e3
    );
    assert!(
        ratio <= 0.5,
        "a warm full handshake costs {ratio:.2} CRL scans: a side is scanning the CRL instead \
         of asking the registry's memo"
    );
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn cold_first_sighting_costs_at_most_a_fifth_of_a_crl_scan() {
    let _turn = one_at_a_time();
    const REPS: usize = 30;
    let (ta, reg, mut wallets) = registry_with_wallets(3, 16);
    let seeds = seeds();
    let now = SimTime::from_secs(10);
    let mut fresh = Vec::new();
    for wallet in &mut wallets {
        for _ in 0..wallet.pool_size() {
            fresh.push(wallet.sign(b"beacon", now));
            wallet.rotate();
        }
    }
    let (ta_key, window) = (ta.public_key(), SimDuration::from_secs(5));
    let mut fresh = fresh.iter();
    let mut first_sighting = || {
        let msg = fresh.next().expect("a certificate the front has not seen");
        black_box(verify_with_front(black_box(msg), &ta_key, reg.crl(), now, window))
            .expect("no vehicle is revoked");
    };
    // The first sighting of the period expands it.
    first_sighting();
    let (cold_ns, scan_ns) = best_pair_ns(REPS, first_sighting, || miss_scan(&seeds));
    assert_eq!(reg.crl().memo_len(), 1 + REPS, "every timed verify was a first sighting");
    let ratio = cold_ns / scan_ns;
    println!(
        "cold verify {:.1} us, 10 000-entry scan {:.1} us, ratio {ratio:.3}",
        cold_ns / 1e3,
        scan_ns / 1e3
    );
    assert!(
        ratio <= 0.2,
        "a first sighting in an expanded period costs {ratio:.2} CRL scans: the per-sighting \
         path is scanning the CRL instead of probing the period's filter"
    );
}

/// One call of `f` in fixed-base exponentiations: the best of `reps` calls
/// of each, timed in alternation.
fn per_base_pow(reps: usize, f: impl FnMut()) -> f64 {
    let e = Scalar::hash_to_scalar(&[b"lane-guard-exponent"]);
    let (f_ns, pow_ns) = best_pair_ns(reps, f, || {
        black_box(Element::base_pow(black_box(e)));
    });
    f_ns / pow_ns
}

/// The beacon `sender` sends at `t` µs.
fn beacon(sender: u32, t: u64) -> Beacon {
    Beacon {
        sender: VehicleId(sender),
        pos: Point::new(f64::from(sender) * 7.0, 0.5),
        vel: Point::new(13.9, 0.0),
        sent_at: SimTime::from_micros(t),
    }
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn a_signature_costs_one_fixed_base_exponentiation() {
    let _turn = one_at_a_time();
    let key = SigningKey::from_seed(b"lane-guard-signer");
    let mut t = 0;
    let ratio = per_base_pow(30_000, || {
        t += 1;
        black_box(sign_beacon(beacon(1, t), black_box(&key)));
    });
    println!("sign_beacon / base_pow {ratio:.2}");
    assert!(
        ratio <= 3.7,
        "sign_beacon costs {ratio:.2} fixed-base exponentiations: the signer is computing \
         something beside its commitment, such as its own public key, again"
    );
}

/// Beacons in the windows the batch guards verify.
const BEACONS: usize = 30;

/// `BEACONS` signed 44-byte beacon bodies, each under its own key.
fn signed_window() -> Vec<(Vec<u8>, VerifyingKey, Signature)> {
    (0..BEACONS)
        .map(|i| {
            let key =
                SigningKey::from_seed(&[b"lane-guard-sender".as_slice(), &[i as u8]].concat());
            let body = [i as u8; 44].to_vec();
            let signature = key.sign(&body);
            (body, key.verifying_key(), signature)
        })
        .collect()
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn a_batched_beacon_costs_at_most_five_fixed_base_exponentiations() {
    let _turn = one_at_a_time();
    let signed = signed_window();
    let items: Vec<(&[u8], VerifyingKey, Signature)> =
        signed.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
    let ratio = per_base_pow(2_000, || {
        black_box(verify_batch(black_box(&items), b"vc-beacon-batch"))
            .expect("every beacon is valid");
    }) / BEACONS as f64;
    println!("verify_batch/{BEACONS} per beacon / base_pow {ratio:.2}");
    assert!(
        ratio <= 5.0,
        "a {BEACONS}-beacon verify_batch costs {ratio:.2} fixed-base exponentiations a beacon: \
         the batch is hashing its items one at a time instead of in SIMD lanes, or hashing its \
         transcript more than once"
    );
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn a_window_with_one_forged_beacon_costs_at_most_two_and_a_half_valid_ones() {
    let _turn = one_at_a_time();
    let signed = signed_window();
    let valid: Vec<(&[u8], VerifyingKey, Signature)> =
        signed.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
    let mut forged = valid.clone();
    let tampered = [0xFFu8; 44];
    forged[BEACONS / 2].0 = &tampered;
    let (forged_ns, valid_ns) = best_pair_ns(
        100,
        || {
            let culprits = verify_batch(black_box(&forged), b"vc-beacon-batch");
            assert_eq!(black_box(culprits), Err(vec![BEACONS / 2]));
        },
        || {
            black_box(verify_batch(black_box(&valid), b"vc-beacon-batch"))
                .expect("every beacon is valid");
        },
    );
    let ratio = forged_ns / valid_ns;
    println!(
        "verify_batch/{BEACONS} with one forged beacon {:.1} us, valid {:.1} us, ratio {ratio:.2}",
        forged_ns / 1e3,
        valid_ns / 1e3
    );
    assert!(
        ratio <= 2.5,
        "a {BEACONS}-beacon window with one forged beacon costs {ratio:.2} valid windows: the \
         failed batch is checking its items one by one instead of solving for the culprit"
    );
}
