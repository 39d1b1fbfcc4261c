//! Property-based tests for the cryptographic substrate.

use vc_crypto::chacha20::{decrypt, encrypt, open, seal};
use vc_crypto::group::{Element, Scalar};
use vc_crypto::hex;
use vc_crypto::hmac::{hkdf_expand, hkdf_extract, hmac_sha256};
use vc_crypto::merkle::MerkleTree;
use vc_crypto::schnorr::SigningKey;
use vc_crypto::sha256::{compress_lanes, sha256};
use vc_crypto::u256::{Mont, U256};
use vc_testkit::prop::strategy::{any_bytes, any_u16, any_u64, any_u8, any_words, vec};
use vc_testkit::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};

/// `p`, `q`, and a small odd modulus where the `u128` oracle reaches.
fn mont_moduli() -> [U256; 3] {
    let params = vc_crypto::group::group();
    [params.p, params.q, U256::from(1_000_000_007u128)]
}

/// `g^e` by division-based square-and-multiply: the oracle for the
/// fixed-base table.
fn base_pow_reference(e: Scalar) -> U256 {
    let params = vc_crypto::group::group();
    params.g.pow_mod(e.as_u256(), params.p)
}

/// Binary (bit-at-a-time) division-based Straus interleaving: the oracle
/// for the windowed Montgomery `multi_exp`.
fn multi_exp_binary(bases: &[Element], exps: &[Scalar]) -> U256 {
    assert_eq!(bases.len(), exps.len(), "bases and exponents must pair up");
    let p = vc_crypto::group::group().p;
    let max_bits = exps.iter().map(|e| e.as_u256().bits()).max().unwrap_or(0);
    let mut acc = U256::ONE;
    for bit in (0..max_bits).rev() {
        acc = acc.mul_mod(acc, p);
        for (base, exp) in bases.iter().zip(exps) {
            if exp.as_u256().bit(bit) {
                acc = acc.mul_mod(base.as_u256(), p);
            }
        }
    }
    acc
}

#[test]
fn multi_exp_windowed_matches_binary_on_short_and_edge_exponents() {
    // Mixed lengths (batch weights are 128-bit, products 256-bit) plus
    // zero/one edges, all against the binary reference.
    let bases: Vec<Element> =
        (1..8u64).map(|i| Element::base_pow(Scalar::from_u64(i * 104_729))).collect();
    let exps: Vec<Scalar> = vec![
        Scalar::zero(),
        Scalar::one(),
        Scalar::from_u64(u64::MAX),
        Scalar::from_u256(U256::from(u128::MAX)),
        Scalar::hash_to_scalar(&[b"full-width", b"a"]),
        Scalar::hash_to_scalar(&[b"full-width", b"b"]),
        Scalar::from_u64(0x8000_0000_0000_0000),
    ];
    assert_eq!(
        vc_crypto::group::multi_exp(&bases, &exps).as_u256(),
        multi_exp_binary(&bases, &exps)
    );
    assert_eq!(multi_exp_binary(&[], &[]), U256::ONE);
}

prop! {
    #![cases(64)]

    // ---- U256 ring axioms against the u128 oracle ----

    #[test]
    fn u256_add_matches_u128(a in any_u64(), b in any_u64()) {
        let sum = U256::from(a as u128).wrapping_add(U256::from(b as u128));
        prop_assert_eq!(sum, U256::from(a as u128 + b as u128));
    }

    #[test]
    fn u256_mul_matches_u128(a in any_u64(), b in any_u64()) {
        let wide = U256::from(a as u128).mul_wide(U256::from(b as u128));
        let expect = a as u128 * b as u128;
        let lo = wide.limbs()[0] as u128 | ((wide.limbs()[1] as u128) << 64);
        prop_assert_eq!(lo, expect);
        prop_assert_eq!(wide.limbs()[2], 0);
    }

    #[test]
    fn u256_add_commutes(a in any_words::<4>(), b in any_words::<4>()) {
        let x = U256::from_limbs(a);
        let y = U256::from_limbs(b);
        prop_assert_eq!(x.wrapping_add(y), y.wrapping_add(x));
    }

    #[test]
    fn u256_sub_inverts_add(a in any_words::<4>(), b in any_words::<4>()) {
        let x = U256::from_limbs(a);
        let y = U256::from_limbs(b);
        prop_assert_eq!(x.wrapping_add(y).wrapping_sub(y), x);
    }

    #[test]
    fn u256_div_rem_reconstructs(a in any_words::<4>(), b in any_words::<2>()) {
        let x = U256::from_limbs(a);
        let d = U256::from_limbs([b[0], b[1], 0, 0]);
        prop_assume!(!d.is_zero());
        let (q, r) = x.div_rem(d);
        prop_assert!(r < d);
        // x == q*d + r (verify via wide mul low half + add)
        let qd = q.mul_wide(d);
        let back = U256::from_limbs([qd.limbs()[0], qd.limbs()[1], qd.limbs()[2], qd.limbs()[3]])
            .wrapping_add(r);
        prop_assert_eq!(back, x);
    }

    #[test]
    fn u256_bytes_roundtrip(a in any_words::<4>()) {
        let x = U256::from_limbs(a);
        prop_assert_eq!(U256::from_be_bytes(&x.to_be_bytes()), x);
        prop_assert_eq!(U256::from_hex(&x.to_hex()).unwrap(), x);
    }

    #[test]
    fn u256_shifts_invert(a in any_words::<4>(), n in 0usize..255) {
        let x = U256::from_limbs(a);
        prop_assert_eq!(x.shl_bits(n).shr_bits(n).shl_bits(n), x.shl_bits(n));
    }

    // ---- the Montgomery core vs the division-based oracle ----

    #[test]
    fn pow_mod_windowed_matches_reference(base in any_words::<4>(), exp in any_words::<4>()) {
        let b = U256::from_limbs(base);
        let e = U256::from_limbs(exp);
        for m in mont_moduli() {
            let ctx = Mont::new(m);
            prop_assert_eq!(ctx.pow(b, e), b.pow_mod(e, m));
            // Edge bases and exponents against the random partner.
            for edge in [U256::ZERO, U256::ONE, m.wrapping_sub(U256::ONE), U256::MAX] {
                prop_assert_eq!(ctx.pow(edge, e), edge.pow_mod(e, m));
                prop_assert_eq!(ctx.pow(b, edge), b.pow_mod(edge, m));
            }
        }
    }

    #[test]
    fn mont_mul_matches_mul_mod(a in any_words::<4>(), b in any_words::<4>()) {
        for m in mont_moduli() {
            let ctx = Mont::new(m);
            let edges = [U256::ZERO, U256::ONE, m.wrapping_sub(U256::ONE)];
            let randoms = [U256::from_limbs(a).rem(m), U256::from_limbs(b).rem(m)];
            for x in edges.into_iter().chain(randoms) {
                prop_assert_eq!(ctx.from_mont(ctx.to_mont(x)), x);
                // to_mont is multiplication by R mod m, which is one().
                prop_assert_eq!(ctx.to_mont(x), x.mul_mod(ctx.one(), m));
                for y in edges.into_iter().chain(randoms) {
                    let product = ctx.from_mont(ctx.mul(ctx.to_mont(x), ctx.to_mont(y)));
                    prop_assert_eq!(product, x.mul_mod(y, m));
                }
            }
            // Unreduced input: to_mont reduces on the way in.
            let wide = U256::from_limbs(a);
            prop_assert_eq!(ctx.from_mont(ctx.to_mont(wide)), wide.rem(m));
        }
    }

    #[test]
    fn mont_new_rejects_even_modulus(m in any_words::<4>()) {
        let even = U256::from_limbs([m[0] & !1, m[1], m[2], m[3]]);
        prop_assert!(std::panic::catch_unwind(|| Mont::new(even)).is_err());
    }

    // ---- Scalar reduction: conditional subtraction vs division ----

    #[test]
    fn scalar_from_u256_matches_rem(v in any_words::<4>()) {
        let q = vc_crypto::group::group().q;
        let two_q = q.wrapping_add(q);
        let edges = [U256::ZERO, q.wrapping_sub(U256::ONE), q, two_q, two_q.wrapping_add(q), U256::MAX];
        for x in edges.into_iter().chain([U256::from_limbs(v)]) {
            prop_assert_eq!(Scalar::from_u256(x).as_u256(), x.rem(q));
        }
    }

    // ---- subgroup membership: the full v^q == 1 check is kept ----

    #[test]
    fn element_from_bytes_matches_oracle(v in any_words::<4>(), k in any_u64()) {
        let params = vc_crypto::group::group();
        let oracle = |v: U256| {
            !v.is_zero() && v < params.p && v.pow_mod(params.q, params.p) == U256::ONE
        };
        // Random 256-bit values (about a third are members: v < p half the
        // time at this p, then half of those are quadratic residues), the
        // fixed rejects, and small integers where both classes are dense.
        let minus_one = params.p.wrapping_sub(U256::ONE);
        for x in [U256::from_limbs(v), U256::from_u64(k), U256::ZERO, params.p, minus_one] {
            let decoded = Element::from_bytes(&x.to_be_bytes());
            prop_assert_eq!(decoded.is_some(), oracle(x));
            if let Some(e) = decoded {
                prop_assert_eq!(e.as_u256(), x);
            }
        }
        for reject in [U256::ZERO, params.p, minus_one] {
            prop_assert!(Element::from_bytes(&reject.to_be_bytes()).is_none());
        }
    }

    // ---- Element / Scalar arithmetic vs the division oracle ----

    #[test]
    fn group_ops_match_division_oracle(a in any_bytes::<16>(), b in any_bytes::<16>()) {
        let params = vc_crypto::group::group();
        let (sa, sb) = (Scalar::hash_to_scalar(&[b"a", &a]), Scalar::hash_to_scalar(&[b"b", &b]));
        prop_assert_eq!(sa.mul(sb).as_u256(), sa.as_u256().mul_mod(sb.as_u256(), params.q));
        prop_assert_eq!(sa.invert().map(|s| s.as_u256()), sa.as_u256().inv_mod_prime(params.q));
        let (ea, eb) = (Element::base_pow(sa), Element::base_pow(sb));
        prop_assert_eq!(ea.as_u256(), base_pow_reference(sa));
        prop_assert_eq!(ea.mul(eb).as_u256(), ea.as_u256().mul_mod(eb.as_u256(), params.p));
        prop_assert_eq!(ea.pow(sb).as_u256(), ea.as_u256().pow_mod(sb.as_u256(), params.p));
        prop_assert_eq!(Some(ea.invert().as_u256()), ea.as_u256().inv_mod_prime(params.p));
    }

    #[test]
    fn base_pow_table_matches_reference(seed in any_bytes::<16>()) {
        let e = Scalar::hash_to_scalar(&[b"prop-basepow", &seed]);
        prop_assert_eq!(Element::base_pow(e).as_u256(), base_pow_reference(e));
    }

    #[test]
    fn multi_exp_windowed_matches_binary(count in 1usize..6, seed in any_bytes::<8>(),
                                         short in any_u64()) {
        let mut bases = Vec::new();
        let mut exps = Vec::new();
        for i in 0..count {
            bases.push(Element::base_pow(Scalar::hash_to_scalar(&[b"b", &seed, &[i as u8]])));
            exps.push(Scalar::hash_to_scalar(&[b"e", &seed, &[i as u8]]));
        }
        // Mix in a short exponent (batch weights are 128-bit).
        exps[0] = Scalar::from_u64(short);
        prop_assert_eq!(
            vc_crypto::group::multi_exp(&bases, &exps).as_u256(),
            multi_exp_binary(&bases, &exps)
        );
    }

    // ---- group / scalar laws ----

    #[test]
    fn scalar_add_sub_roundtrip(a in any_u64(), b in any_u64()) {
        let x = Scalar::from_u64(a);
        let y = Scalar::from_u64(b);
        prop_assert_eq!(x.add(y).sub(y), x);
    }

    #[test]
    fn group_exponent_homomorphism(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let lhs = Element::base_pow(Scalar::from_u64(a)).mul(Element::base_pow(Scalar::from_u64(b)));
        let rhs = Element::base_pow(Scalar::from_u64(a).add(Scalar::from_u64(b)));
        prop_assert_eq!(lhs, rhs);
    }

    // ---- hashes and MACs ----

    #[test]
    fn sha256_deterministic_and_sensitive(data in vec(any_u8(), 0..512), flip in any_u8()) {
        let d1 = sha256(&data);
        prop_assert_eq!(d1, sha256(&data));
        if !data.is_empty() {
            let mut tampered = data.clone();
            let idx = flip as usize % tampered.len();
            tampered[idx] ^= 1;
            prop_assert_ne!(d1, sha256(&tampered));
        }
    }

    // The lane kernel against the streaming hasher: sixteen random
    // messages of random single-block lengths, padded by hand, every lane,
    // all eight digest words.
    #[test]
    fn compress_lanes_matches_sha256_per_lane(
        messages in vec(vec(any_u8(), 0..56), 16..17),
    ) {
        let mut blocks = [[0u32; 16]; 16];
        for (lane, message) in messages.iter().enumerate() {
            let mut block = [0u8; 64];
            block[..message.len()].copy_from_slice(message);
            block[message.len()] = 0x80;
            block[56..].copy_from_slice(&(8 * message.len() as u64).to_be_bytes());
            for (word, bytes) in blocks.iter_mut().zip(block.chunks_exact(4)) {
                word[lane] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
        }
        let words = compress_lanes(&blocks);
        for (lane, message) in messages.iter().enumerate() {
            let digest = sha256(message);
            for (word, bytes) in words.iter().zip(digest.chunks_exact(4)) {
                prop_assert_eq!(&word[lane].to_be_bytes()[..], bytes, "lane {}", lane);
            }
        }
    }

    #[test]
    fn hmac_distinguishes_keys(key1 in vec(any_u8(), 1..64),
                               key2 in vec(any_u8(), 1..64),
                               msg in vec(any_u8(), 0..128)) {
        prop_assume!(key1 != key2);
        prop_assert_ne!(hmac_sha256(&key1, &msg), hmac_sha256(&key2, &msg));
    }

    #[test]
    fn hkdf_prefix_stability(ikm in vec(any_u8(), 1..64), short in 1usize..32, long in 33usize..96) {
        let prk = hkdf_extract(b"salt", &ikm);
        let a = hkdf_expand(&prk, b"ctx", short);
        let b = hkdf_expand(&prk, b"ctx", long);
        prop_assert_eq!(&b[..short], &a[..]);
    }

    #[test]
    fn hex_roundtrip(data in vec(any_u8(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    // ---- cipher ----

    #[test]
    fn chacha_roundtrip(key in any_bytes::<32>(), nonce in any_bytes::<12>(),
                        msg in vec(any_u8(), 0..300)) {
        prop_assert_eq!(decrypt(&key, &nonce, &encrypt(&key, &nonce, &msg)), msg);
    }

    #[test]
    fn sealed_tamper_always_detected(key in any_bytes::<32>(), nonce in any_bytes::<12>(),
                                     msg in vec(any_u8(), 0..128),
                                     pos in any_u16(), bit in 0u8..8) {
        let sealed = seal(&key, &nonce, &msg);
        let mut tampered = sealed.clone();
        let idx = pos as usize % tampered.len();
        tampered[idx] ^= 1 << bit;
        prop_assert_eq!(open(&key, &nonce, &tampered), None);
        prop_assert_eq!(open(&key, &nonce, &sealed).unwrap(), msg);
    }

    // ---- signatures (the single-signature tamper property sits beside
    // the division-based verifier it checks, in `schnorr.rs`) ----

    // Batch verification is equivalent to sequential verification: an
    // all-valid batch of 0–64 items passes (odd sizes leave the last weight
    // pair half used), and after up to three forgeries (a flipped message
    // byte, a response plus one, two items' keys or commitments swapped)
    // it names exactly the items per-item `verify` rejects.
    #[test]
    fn batch_verify_equivalent_to_sequential(count in 0usize..65,
                                             forgeries in vec(any_u16(), 0..4)) {
        type Item = (Vec<u8>, vc_crypto::schnorr::VerifyingKey, vc_crypto::schnorr::Signature);
        fn refs(items: &[Item]) -> Vec<(&[u8], vc_crypto::schnorr::VerifyingKey,
                                        vc_crypto::schnorr::Signature)> {
            items.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect()
        }
        let signed: Vec<Item> = (0..count)
            .map(|i| {
                let sk = SigningKey::from_seed(&[i as u8, 0xB, 0xC]);
                let msg = vec![i as u8; 1 + i];
                let sig = sk.sign(&msg);
                (msg, sk.verifying_key(), sig)
            })
            .collect();
        prop_assert_eq!(vc_crypto::schnorr::verify_batch(&refs(&signed), b"prop"), Ok(()));
        let mut forged = signed.clone();
        for &f in forgeries.iter().filter(|_| count > 0) {
            let idx = (f >> 2) as usize % count;
            let other = (idx + 1) % count;
            match f & 3 {
                0 => forged[idx].0[0] ^= 1,
                1 => forged[idx].2.response = forged[idx].2.response.add(Scalar::one()),
                2 => {
                    let key = forged[idx].1;
                    forged[idx].1 = forged[other].1;
                    forged[other].1 = key;
                }
                _ => {
                    let commitment = forged[idx].2.commitment;
                    forged[idx].2.commitment = forged[other].2.commitment;
                    forged[other].2.commitment = commitment;
                }
            }
        }
        // Sequential ground truth, item by item.
        let bad: Vec<usize> = forged
            .iter()
            .enumerate()
            .filter(|(_, (m, k, s))| !k.verify(m, s))
            .map(|(i, _)| i)
            .collect();
        if let ([f], true) = (forgeries.as_slice(), count > 1) {
            // One forgery of any kind is caught: one culprit, or the two
            // items whose keys or commitments swapped.
            let idx = (f >> 2) as usize % count;
            let mut expect = if f & 3 < 2 { vec![idx] } else { vec![idx, (idx + 1) % count] };
            expect.sort_unstable();
            prop_assert_eq!(&bad, &expect);
        }
        let want = if bad.is_empty() { Ok(()) } else { Err(bad) };
        prop_assert_eq!(vc_crypto::schnorr::verify_batch(&refs(&forged), b"prop"), want);
    }

    // ---- merkle ----

    #[test]
    fn merkle_proofs_sound(leaves in vec(vec(any_u8(), 0..32), 1..24),
                           probe in any_u8()) {
        let tree = MerkleTree::from_leaves(&leaves);
        let idx = probe as usize % leaves.len();
        let proof = tree.prove(idx).unwrap();
        prop_assert!(proof.verify(&tree.root(), &leaves[idx]));
        // Wrong data never verifies.
        let mut wrong = leaves[idx].clone();
        wrong.push(0xFF);
        prop_assert!(!proof.verify(&tree.root(), &wrong));
    }
}
