//! Guards for the CRL linkage scan: how fast one scan is, and how seldom a
//! handshake pays it.
//!
//! `crl_matches` is fast only because LLVM turns the lane loops of
//! `vc_crypto::sha256::compress_lanes` into 4-wide SSE2; nothing in the
//! type system holds it to that, and a toolchain bump that stops
//! vectorising them would pass every functional test while tripling the
//! cost of every cold pseudonym verify. The first test times the two bench
//! entries `auth/crl/scan/10000` and `crypto/sha256/linkage_scalar` in one
//! process and compares them as a ratio, which no host speed enters.
//! Measured on rustc 1.95: vectorised ≈ 0.38, not vectorised ≥ 0.9
//! (docs/CRYPTO.md, "linkage-scan kernel").
//!
//! Both sides of a full handshake check the peer's certificate through the
//! registry's memoizing CRL, so a handshake between vehicles whose
//! certificates it has seen scans nothing. The second test times such a
//! warm handshake against one 10 000-entry scan: ≈ 0.1 as built, ≈ 2.2
//! when the handshake goes back to two linear scans (docs/CRYPTO.md,
//! "Memoizing CRL front").
//!
//! Timing tests, so they are ignored by default; the `bench-smoke` CI job
//! runs them optimised:
//! `cargo test --release -p vc-bench --test lane_guard -- --ignored`.

use std::hint::black_box;
use std::time::Instant;
use vc_auth::handshake::{run_handshake_obs, HandshakeObsParams};
use vc_auth::identity::{RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{crl_matches, LinkageSeed, PseudonymId, PseudonymRegistry};
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};

const ENTRIES: usize = 10_000;

/// Best-of-`reps` wall-clock nanoseconds of `f`.
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
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

/// Best-of-30 nanoseconds of one miss scan over `seeds`: every entry is
/// hashed.
fn scan_ns(seeds: &[LinkageSeed]) -> f64 {
    let id = PseudonymId(0x0123_4567_89AB_CDEF);
    best_ns(30, || {
        assert!(!black_box(crl_matches(black_box(seeds), id, black_box([0u8; 8]))));
    })
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn crl_scan_costs_at_most_six_tenths_of_a_scalar_hash_per_entry() {
    let seeds = seeds();
    let id = PseudonymId(0x0123_4567_89AB_CDEF);
    let scan_ns = scan_ns(&seeds) / ENTRIES as f64;
    let scalar_ns = best_ns(30, || {
        for seed in &seeds {
            black_box(black_box(seed).linkage_value(id));
        }
    }) / ENTRIES as f64;
    let ratio = scan_ns / scalar_ns;
    println!("scan {scan_ns:.1} ns/entry, scalar {scalar_ns:.1} ns/hash, ratio {ratio:.3}");
    assert!(
        ratio <= 0.6,
        "crl_matches costs {scan_ns:.1} ns per entry against {scalar_ns:.1} ns for one scalar \
         linkage_value ({ratio:.2}x): the lane loop in compress_lanes no longer vectorises"
    );
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn warm_full_handshake_costs_at_most_half_a_crl_scan() {
    let mut ta = TrustedAuthority::new(b"lane-guard-ta");
    let mut reg = PseudonymRegistry::new();
    let seeds = seeds();
    for &seed in &seeds {
        reg.inject_revoked_seed(seed);
    }
    let wallets: Vec<_> = (1..=2u32)
        .map(|v| {
            let id = RealIdentity::for_vehicle(VehicleId(v));
            ta.register(id.clone(), VehicleId(v));
            reg.issue_wallet(&ta, &id, 1, SimTime::ZERO, SimTime::from_secs(100), &v.to_be_bytes())
                .expect("a registered identity gets a wallet")
        })
        .collect();
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
    let handshake_ns = best_ns(30, handshake);
    let scan_ns = scan_ns(&seeds);
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
