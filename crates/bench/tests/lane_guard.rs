//! Vectorisation guard for the CRL linkage scan.
//!
//! `crl_matches` is fast only because LLVM turns the lane loops of
//! `vc_crypto::sha256::compress_lanes` into 4-wide SSE2; nothing in the
//! type system holds it to that, and a toolchain bump that stops
//! vectorising them would pass every functional test while tripling the
//! cost of every cold pseudonym verify. This test times the two bench
//! entries `auth/crl/scan/10000` and `crypto/sha256/linkage_scalar` in one
//! process and compares them as a ratio, which no host speed enters.
//!
//! Measured on rustc 1.95: vectorised ≈ 0.38, not vectorised ≥ 0.9
//! (docs/CRYPTO.md, "linkage-scan kernel").
//!
//! A timing test, so it is ignored by default; the `bench-smoke` CI job
//! runs it optimised:
//! `cargo test --release -p vc-bench --test lane_guard -- --ignored`.

use std::hint::black_box;
use std::time::Instant;
use vc_auth::pseudonym::{crl_matches, LinkageSeed, PseudonymId};

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

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn crl_scan_costs_at_most_six_tenths_of_a_scalar_hash_per_entry() {
    const ENTRIES: usize = 10_000;
    let seeds: Vec<LinkageSeed> = (0..ENTRIES as u64)
        .map(|i| {
            let mut s = [0u8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            LinkageSeed(s)
        })
        .collect();
    let id = PseudonymId(0x0123_4567_89AB_CDEF);
    // A miss: every entry is hashed.
    let scan_ns = best_ns(30, || {
        assert!(!black_box(crl_matches(black_box(&seeds), id, black_box([0u8; 8]))));
    }) / ENTRIES as f64;
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
