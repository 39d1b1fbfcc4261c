//! Micro-benches for the cryptographic substrate: the raw cost basis
//! behind every protocol number in EXPERIMENTS.md.

use vc_auth::pseudonym::{LinkageIndex, LinkageSeed};
use vc_crypto::chacha20::{encrypt, seal};
use vc_crypto::dh::EphemeralSecret;
use vc_crypto::group::{Element, Scalar};
use vc_crypto::hmac::hmac_sha256;
use vc_crypto::merkle::MerkleTree;
use vc_crypto::schnorr::SigningKey;
use vc_crypto::sha256::{compress_lanes, sha256};
use vc_crypto::u256::{Mont, U256};
use vc_testkit::bench::{black_box, Suite};

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns.
vc_obs::counting_allocator!();

/// The message the signature rows sign: a `vc_net::beacon` beacon's 44
/// bytes (sender 4, position and velocity 32, timestamp 8). Every signer in
/// the workspace signs 30–60 bytes, so a longer message would time hashing.
const BEACON_LEN: usize = 44;

fn main() {
    vc_obs::mem::register_bench_probe();
    let mut suite = Suite::new("crypto");

    // ---- hashes ----
    for size in [64usize, 1024, 16_384] {
        let data = vec![0xA5u8; size];
        suite.bench_bytes(&format!("sha256/{size}"), size as u64, || sha256(black_box(&data)));
    }
    // One CRL entry's keyed hash through the streaming hasher: what the
    // lane kernel under `auth/crl/scan/*` is measured against.
    let seed = LinkageSeed([0x5A; 16]);
    suite.bench("sha256/linkage_scalar", || {
        black_box(&seed).linkage_value(black_box(LinkageIndex { period: 0x0123_4567, j: 11 }))
    });
    // A batch verification's first lane pass: sixteen 3-block messages (a
    // beacon's challenge or transcript entry is 128–148 bytes), scalar and
    // in lanes. The lane hasher is crate-private, so the lane row runs its
    // kernel on the same 48 block compressions, three one-block calls of
    // sixteen lanes, without the packing.
    let messages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 148]).collect();
    suite.bench("sha256/scalar/16x3blocks", || {
        black_box(&messages).iter().map(|m| sha256(m)[0]).fold(0, |a, b| a ^ b)
    });
    let lane_blocks = [[0x5A5A_5A5Au32; 16]; 16];
    suite.bench("sha256/lanes/16x3blocks", || {
        (0..3).map(|_| compress_lanes(black_box(&lane_blocks))[0][0]).fold(0, |a, b| a ^ b)
    });
    let data = vec![0u8; 256];
    suite.bench("hmac_sha256/256B", || hmac_sha256(black_box(b"key"), black_box(&data)));

    // ---- cipher ----
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    for size in [256usize, 4096] {
        let data = vec![0u8; size];
        suite.bench_bytes(&format!("chacha20/encrypt/{size}"), size as u64, || {
            encrypt(black_box(&key), black_box(&nonce), black_box(&data))
        });
    }
    let data = vec![0u8; 1024];
    suite.bench("seal/1KiB", || seal(black_box(&key), black_box(&nonce), black_box(&data)));

    // ---- bignum ----
    let p = vc_crypto::group::group().p;
    let a =
        U256::from_hex("1234567890abcdef1234567890abcdef1234567890abcdef1234567890abcdef").unwrap();
    let b_val =
        U256::from_hex("fedcba0987654321fedcba0987654321fedcba0987654321fedcba0987654321").unwrap();
    // The division-based oracle's rows, then the Montgomery core on the
    // same operands (mont/mul is one product on Montgomery-form inputs;
    // mont/pow is canonical in and out, conversions included).
    suite.bench("u256/mul_mod", || black_box(a).mul_mod(black_box(b_val), black_box(p)));
    suite.bench("u256/pow_mod", || black_box(a).pow_mod(black_box(b_val), black_box(p)));
    let ctx = Mont::new(p);
    let (a_mont, b_mont) = (ctx.to_mont(a), ctx.to_mont(b_val));
    suite.bench("mont/mul", || black_box(&ctx).mul(black_box(a_mont), black_box(b_mont)));
    suite.bench("mont/pow", || black_box(&ctx).pow(black_box(a), black_box(b_val)));

    // ---- signatures ----
    let sk = SigningKey::from_seed(b"bench");
    let vk = sk.verifying_key();
    let msg = vec![0x42u8; BEACON_LEN];
    let sig = sk.sign(&msg);
    suite.bench("schnorr/sign", || sk.sign(black_box(&msg)));
    suite.bench("schnorr/verify", || vk.verify(black_box(&msg), black_box(&sig)));
    let batch_items: Vec<(
        Vec<u8>,
        vc_crypto::schnorr::VerifyingKey,
        vc_crypto::schnorr::Signature,
    )> = (0..64u8)
        .map(|i| {
            let sk = SigningKey::from_seed(&[i, 0xB, 0xE]);
            let msg = vec![i; BEACON_LEN];
            let sig = sk.sign(&msg);
            (msg, sk.verifying_key(), sig)
        })
        .collect();
    for batch in [8usize, 32, 64] {
        let refs: Vec<(&[u8], _, _)> =
            batch_items[..batch].iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
        suite.bench(&format!("schnorr/verify_batch/{batch}"), || {
            vc_crypto::schnorr::verify_batch(black_box(&refs), b"bench").is_ok()
        });
    }
    // One forged beacon in a window of 32: the failed check, the culprit
    // equation and the culprit's own check.
    let mut forged: Vec<(&[u8], _, _)> =
        batch_items[..32].iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
    let tampered = vec![0xFFu8; BEACON_LEN];
    forged[13].0 = &tampered;
    suite.bench("schnorr/verify_batch/32-one-forged", || {
        vc_crypto::schnorr::verify_batch(black_box(&forged), b"bench") == Err(vec![13])
    });
    // Full-width exponent, as every real nonce, key and response is: a
    // short one touches only its own nonzero nibbles of the fixed-base table.
    let e = Scalar::hash_to_scalar(&[b"bench-exponent"]);
    suite.bench("group/base_pow", || Element::base_pow(black_box(e)));

    // ---- key agreement ----
    let alice = EphemeralSecret::from_seed(b"alice");
    let bob_share = EphemeralSecret::from_seed(b"bob").public_share();
    suite.bench("dh/agree", || alice.agree(black_box(&bob_share), b"ctx"));

    // ---- merkle ----
    let leaves: Vec<Vec<u8>> = (0..256).map(|i: u32| i.to_be_bytes().to_vec()).collect();
    suite.bench("merkle/build_256", || MerkleTree::from_leaves(black_box(&leaves)));
    let tree = MerkleTree::from_leaves(&leaves);
    let proof = tree.prove(127).unwrap();
    suite.bench("merkle/verify_proof_256", || {
        proof.verify(black_box(&tree.root()), black_box(&leaves[127]))
    });

    suite.finish();
}
