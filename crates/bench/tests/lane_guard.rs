//! Guards for the CRL linkage scan: how fast one scan is, and how seldom a
//! handshake pays it.
//!
//! `crl_matches` is fast only because LLVM turns the lane loops of
//! `vc_crypto::sha256::compress_lanes` into vector code, and on x86 the CPU
//! picks which build runs: AVX-512F, AVX2, or the baseline target's SSE2.
//! Nothing in the type system holds any of them to that. A toolchain bump
//! that stops vectorising the loops, or a tier wrapper that calls an
//! out-of-line SSE2 body, passes every functional test while multiplying
//! the cost of every cold pseudonym verify. The first test times the two
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

/// One miss scan over `seeds`: every entry is hashed.
fn miss_scan(seeds: &[LinkageSeed]) {
    let id = PseudonymId(0x0123_4567_89AB_CDEF);
    assert!(!black_box(crl_matches(black_box(seeds), id, black_box([0u8; 8]))));
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
    let (tier, bound) = tier();
    let seeds = seeds();
    let id = PseudonymId(0x0123_4567_89AB_CDEF);
    let (scan_ns, scalar_ns) = best_pair_ns(
        30,
        || miss_scan(&seeds),
        || {
            for seed in &seeds {
                black_box(black_box(seed).linkage_value(id));
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
