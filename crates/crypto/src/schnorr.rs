//! Schnorr signatures over the crate's discrete-log [`group`](crate::group).
//!
//! The signature scheme under every authenticated message in the workspace:
//! pseudonym certificates, beacon signing, task receipts. Deterministic
//! nonces (RFC 6979 in spirit: `k = H(sk || msg)`) keep runs reproducible
//! and remove nonce-reuse foot-guns.

use crate::group::{ratio_exponent, BaseTables, Element, Scalar};
use crate::sha256::{sha256_lanes, sha256_parts, Digest, Sha256};
use crate::u256::U256;

/// A signing (secret) key, holding its public key `g^x` beside the secret so
/// neither [`SigningKey::sign`] nor [`SigningKey::verifying_key`] pays a
/// fixed-base exponentiation for it (64 B a key).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SigningKey {
    secret: Scalar,
    public: Element,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret.
        f.write_str("SigningKey(..)")
    }
}

/// A verification (public) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey {
    point: Element,
}

/// A Schnorr signature `(R, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Commitment `R = g^k`.
    pub commitment: Element,
    /// Response `s = k + x·e (mod q)`.
    pub response: Scalar,
}

/// Serialized signature length in bytes.
pub(crate) const SIGNATURE_LEN: usize = 64;

impl SigningKey {
    /// Derives a signing key from 32 bytes of seed material.
    ///
    /// The seed is hashed to a scalar; a zero result (probability ~2^-256)
    /// is bumped to one so the key is always valid.
    pub fn from_seed(seed: &[u8]) -> SigningKey {
        let mut secret = Scalar::hash_to_scalar(&[b"vc-schnorr-key", seed]);
        if secret.is_zero() {
            secret = Scalar::one();
        }
        SigningKey { secret, public: Element::base_pow(secret) }
    }

    /// The matching verification key `y = g^x`, computed once by
    /// [`SigningKey::from_seed`].
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey { point: self.public }
    }

    /// Signs `message`: one fixed-base exponentiation, for the commitment.
    pub fn sign(&self, message: &[u8]) -> Signature {
        // Deterministic nonce bound to the secret and the message.
        let mut k =
            Scalar::hash_to_scalar(&[b"vc-schnorr-nonce", &self.secret.to_bytes(), message]);
        if k.is_zero() {
            k = Scalar::one();
        }
        let commitment = Element::base_pow(k);
        let challenge = challenge_scalar(&commitment, &self.verifying_key(), message);
        let response = k.add(self.secret.mul(challenge));
        Signature { commitment, response }
    }
}

impl VerifyingKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        equation_holds(self, signature, challenge_scalar(&signature.commitment, self, message))
    }

    /// The public group element.
    pub(crate) fn element(&self) -> Element {
        self.point
    }

    /// 32-byte encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.point.to_bytes()
    }

    /// Decodes and validates a key (must be a genuine subgroup member).
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<VerifyingKey> {
        Element::from_bytes(bytes).map(|point| VerifyingKey { point })
    }
}

impl Signature {
    /// Serializes to 64 bytes (`R || s`).
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..32].copy_from_slice(&self.commitment.to_bytes());
        out[32..].copy_from_slice(&self.response.to_bytes());
        out
    }

    /// Deserializes from 64 bytes; `None` when the commitment is not a valid
    /// group element or the response is not below `q`. A response of `q` or
    /// more would reduce to the same scalar as a canonical one, so refusing
    /// it leaves each signature exactly one encoding.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Option<Signature> {
        let mut r = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        let mut s = [0u8; 32];
        s.copy_from_slice(&bytes[32..]);
        let commitment = Element::from_bytes(&r)?;
        let response = Scalar::from_bytes(&s);
        (response.to_bytes() == s).then_some(Signature { commitment, response })
    }
}

/// The per-item hashes and per-base tables of one batch (message, key,
/// signature triples): what both of a failed batch's products read.
///
/// Batch verification (the technique the paper's time-critical
/// authentication citations rely on: [21] batch verification, [44]
/// real-time signatures) weighs item `i` by a 128-bit `w_i` and checks one
/// random linear combination with one simultaneous multi-exponentiation:
///
/// ```text
/// g^(Σ w_i·s_i)  ==  Π R_i^{w_i} · Π y_i^{w_i·e_i}
/// ```
///
/// Sound except with probability ~2^-128 over the weights. Each item's
/// challenge `e_i` and its transcript entry
/// `d_i = SHA-256(len(m_i) ‖ m_i ‖ y_i ‖ R_i ‖ s_i)` are independent of every
/// other item's, so they hash side by side in SIMD lanes; the one
/// sequential hash is the transcript
/// `SHA-256("vc-batch-transcript" ‖ len(seed) ‖ seed ‖ d_0 ‖ … ‖ d_{n-1})`,
/// 32 bytes an item. So a forger cannot pick signatures after seeing the
/// weights, and no two batches share a transcript. Each
/// `SHA-256("vc-batch-weight" ‖ transcript ‖ k)` gives the weights of items
/// `2k` and `2k + 1`, its low half and its high half (zero bumped to one);
/// those hash in lanes beside the challenges' hash-to-scalar step.
struct Batch<'a> {
    items: &'a [(&'a [u8], VerifyingKey, Signature)],
    challenges: Vec<Scalar>,
    weights: Vec<Scalar>,
    /// `R_0, y_0, R_1, y_1, …`'s window tables.
    tables: BaseTables,
}

impl<'a> Batch<'a> {
    /// Hashes a nonempty batch and builds its bases' tables.
    fn new(items: &'a [(&'a [u8], VerifyingKey, Signature)], weight_seed: &[u8]) -> Batch<'a> {
        let (challenges, weights) = hash_batch(items, weight_seed);
        let bases: Vec<Element> =
            items.iter().flat_map(|(_, key, sig)| [sig.commitment, key.element()]).collect();
        Batch { items, challenges, weights, tables: BaseTables::new(&bases) }
    }

    /// Both sides of the batch equation with item `i` weighed by
    /// `coefficients[i]`: `g^(Σ c_i·s_i)` and `Π R_i^{c_i} · y_i^{c_i·e_i}`.
    fn sides(&self, coefficients: &[Scalar]) -> (Element, Element) {
        let mut s_combined = Scalar::zero();
        let mut exps = Vec::with_capacity(2 * coefficients.len());
        for (((_, _, sig), c), e) in self.items.iter().zip(coefficients).zip(&self.challenges) {
            s_combined = s_combined.add(c.mul(sig.response));
            exps.push(*c);
            exps.push(c.mul(*e));
        }
        (Element::base_pow(s_combined), self.tables.multi_exp(&exps))
    }

    /// Item `i`'s own verification equation, on its cached challenge.
    fn holds(&self, i: usize) -> bool {
        let (_, key, sig) = &self.items[i];
        equation_holds(key, sig, self.challenges[i])
    }

    /// The one bad item that explains a failed batch, or `None` when none
    /// does. `first` is the weighed equation's two sides.
    ///
    /// Write `δ_i = g^(s_i) / (R_i·y_i^(e_i))`, which is 1 exactly for a
    /// valid item. The failed check says `D_1 = Π δ_i^(w_i) ≠ 1`; a second
    /// product with the weights scaled by `i + 1` gives
    /// `D_2 = Π δ_i^((i+1)·w_i)`. If item `j` alone is bad, `D_2 = D_1^(j+1)`,
    /// and no other `c ≤ n` fits, since `D_1` has prime order `q > n`. The
    /// candidate must then fail its own check to be named, so a valid item
    /// never is. With two or more bad items some `c` fits only with
    /// probability ≤ n·2^-128 over the weights, and even then a valid
    /// candidate sends the caller to the per-item path.
    fn lone_culprit(&self, first: (Element, Element)) -> Option<usize> {
        let scaled: Vec<Scalar> =
            self.weights.iter().zip(1..).map(|(w, i)| w.mul(Scalar::from_u64(i))).collect();
        let c = ratio_exponent(first, self.sides(&scaled), self.items.len())?;
        (!self.holds(c - 1)).then_some(c - 1)
    }
}

/// Every item's challenge and weight, hashed in two lane passes around the
/// sequential transcript (see `Batch`).
fn hash_batch(
    items: &[(&[u8], VerifyingKey, Signature)],
    weight_seed: &[u8],
) -> (Vec<Scalar>, Vec<Scalar>) {
    let n = items.len();
    // Pass one: every challenge's first hash, then every transcript entry.
    let challenge_len = CHALLENGE_TAG.len() + 2 * 32;
    let entry_len = 8 + 32 + SIGNATURE_LEN;
    let messages: usize = items.iter().map(|(msg, _, _)| msg.len()).sum();
    let mut bytes = Vec::with_capacity(n * (challenge_len + entry_len) + 2 * messages);
    let mut ends = Vec::with_capacity(2 * n);
    for (msg, key, sig) in items {
        for part in [CHALLENGE_TAG, &sig.commitment.to_bytes(), &key.to_bytes(), msg] {
            bytes.extend_from_slice(part);
        }
        ends.push(bytes.len());
    }
    for (msg, key, sig) in items {
        for part in [&(msg.len() as u64).to_be_bytes(), *msg, &key.to_bytes(), &sig.to_bytes()] {
            bytes.extend_from_slice(part);
        }
        ends.push(bytes.len());
    }
    let hashed = sha256_lanes(&split_at_ends(&bytes, &ends));
    let (inner, entries) = hashed.split_at(n);
    let mut transcript = Sha256::new();
    transcript.update(b"vc-batch-transcript");
    transcript.update(&(weight_seed.len() as u64).to_be_bytes());
    transcript.update(weight_seed);
    for entry in entries {
        transcript.update(entry);
    }
    let transcript = transcript.finalize();
    // Pass two: every challenge's hash-to-scalar, then every weight pair.
    let pairs: Vec<[u8; 55]> = (0..n.div_ceil(2) as u64)
        .map(|k| {
            let mut m = [0u8; 55];
            m[..15].copy_from_slice(b"vc-batch-weight");
            m[15..47].copy_from_slice(&transcript);
            m[47..].copy_from_slice(&k.to_be_bytes());
            m
        })
        .collect();
    let second: Vec<&[u8]> =
        inner.iter().map(Digest::as_slice).chain(pairs.iter().map(|m| &m[..])).collect();
    let hashed = sha256_lanes(&second);
    let (outer, pairs) = hashed.split_at(n);
    let challenges = outer.iter().map(|d| Scalar::from_u256(U256::from_be_bytes(d))).collect();
    let weights = pairs
        .iter()
        .flat_map(|pair| [&pair[16..], &pair[..16]])
        .take(n)
        .map(|half| weight(half.try_into().expect("a digest half is 16 bytes")))
        .collect();
    (challenges, weights)
}

/// `bytes` cut into consecutive pieces ending at each of `ends`.
fn split_at_ends<'b>(bytes: &'b [u8], ends: &[usize]) -> Vec<&'b [u8]> {
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let piece = &bytes[start..end];
            start = end;
            piece
        })
        .collect()
}

/// Batch verification with culprit attribution: semantically equivalent to
/// verifying every triple individually, but a batch of valid signatures
/// costs one random-linear-combination check (see `Batch` for the
/// equation and its hashing).
///
/// On success returns `Ok(())`. When the combined check fails, a second
/// product over the same tables names a lone forged item (`Batch`'s
/// culprit equation), confirmed by that item's own check. Failing that
/// (two or more bad items), every item is checked on its own, on the
/// challenges the batch already hashed. Per-signature verification is the
/// ground truth: a named item always fails it, and the result is the set a
/// sequential verifier would reject, except with probability ≤ n·2^-128
/// that a batch of several bad items names only one of them — the same
/// one-sided error as accepting a passing batch. (A batch of
/// individually-valid signatures satisfies the combined equation
/// *identically*, so an all-valid batch never fails; see docs/CRYPTO.md.)
///
/// Weights are derived by pure hashing of the batch transcript and
/// `weight_seed` — never an RNG draw — so results are deterministic. An
/// empty batch verifies trivially.
///
/// # Errors
///
/// `Err(indices)` of the individually-failing items, in ascending order.
pub fn verify_batch(
    items: &[(&[u8], VerifyingKey, Signature)],
    weight_seed: &[u8],
) -> Result<(), Vec<usize>> {
    if items.is_empty() {
        return Ok(());
    }
    let batch = Batch::new(items, weight_seed);
    let (lhs, rhs) = batch.sides(&batch.weights);
    if lhs == rhs {
        return Ok(());
    }
    if let Some(culprit) = batch.lone_culprit((lhs, rhs)) {
        return Err(vec![culprit]);
    }
    Err((0..items.len()).filter(|&i| !batch.holds(i)).collect())
}

/// A batch weight from 128 bits of transcript-bound hash (zero bumped to
/// one). Half-width weights halve the multiply count the commitment terms
/// contribute to the shared multi-exponentiation while keeping the forgery
/// probability at the same 2^-128 bound full-width weights give (the bound
/// is `1/#weights`, not `1/q`).
fn weight(half: [u8; 16]) -> Scalar {
    let w = Scalar::from_u256(crate::u256::U256::from(u128::from_be_bytes(half)));
    if w.is_zero() {
        Scalar::one()
    } else {
        w
    }
}

/// The domain tag in front of every challenge hash.
const CHALLENGE_TAG: &[u8] = b"vc-schnorr-challenge";

fn challenge_scalar(commitment: &Element, key: &VerifyingKey, message: &[u8]) -> Scalar {
    let digest = sha256_parts(&[CHALLENGE_TAG, &commitment.to_bytes(), &key.to_bytes(), message]);
    Scalar::hash_to_scalar(&[&digest])
}

/// `g^s == R · y^e`: one signature's verification equation, its challenge
/// `e` already hashed.
fn equation_holds(key: &VerifyingKey, signature: &Signature, challenge: Scalar) -> bool {
    Element::base_pow(signature.response) == signature.commitment.mul(key.point.pow(challenge))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_testkit::prop::strategy::{any_u8, vec};
    use vc_testkit::{prop, prop_assert};

    /// The verifier over division-based square-and-multiply only (`pow_mod`,
    /// `mul_mod`): the oracle [`VerifyingKey::verify`]'s Montgomery table
    /// and windows are held to.
    fn verify_scalar(key: &VerifyingKey, message: &[u8], signature: &Signature) -> bool {
        let params = crate::group::group();
        let challenge = challenge_scalar(&signature.commitment, key, message);
        let lhs = params.g.pow_mod(signature.response.as_u256(), params.p);
        let y_to_e = key.point.as_u256().pow_mod(challenge.as_u256(), params.p);
        lhs == signature.commitment.as_u256().mul_mod(y_to_e, params.p)
    }

    prop! {
        #![cases(64)]

        #[test]
        fn schnorr_roundtrip_and_tamper(seed in vec(any_u8(), 1..32),
                                        msg in vec(any_u8(), 0..128),
                                        flip in any_u8()) {
            let sk = SigningKey::from_seed(&seed);
            let vk = sk.verifying_key();
            let sig = sk.sign(&msg);
            prop_assert!(vk.verify(&msg, &sig));
            prop_assert!(verify_scalar(&vk, &msg, &sig));
            let mut bytes = sig.to_bytes();
            // Flip a bit in the response half (commitment flips may fail to parse).
            bytes[32 + (flip as usize % 32)] ^= 1;
            if let Some(bad) = Signature::from_bytes(&bytes) {
                prop_assert!(!vk.verify(&msg, &bad));
                prop_assert!(!verify_scalar(&vk, &msg, &bad));
            }
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SigningKey::from_seed(b"vehicle 42 registration seed");
        let vk = sk.verifying_key();
        let sig = sk.sign(b"beacon: pos=(12.0, 8.5) v=13.2");
        assert!(vk.verify(b"beacon: pos=(12.0, 8.5) v=13.2", &sig));
    }

    /// The bytes of one signature, as the signer gave them before it kept
    /// its public key: holding `g^x` moves no signature byte.
    #[test]
    fn known_answer_signature() {
        let sk = SigningKey::from_seed(b"vc-schnorr-kat");
        let sig = sk.sign(b"beacon: pos=(12.0, 8.5) v=13.2");
        assert_eq!(
            crate::hex::encode(&sig.to_bytes()),
            "2c7f19f3b9baf0e5c3425d95a11c214b712bdf8788b2bfb98ba4b6330ef2c9bf\
             1d09afd9c29d0d90fbbe453da9ebe7cfeb110aa0fa073230002723e6724a8492"
        );
        assert_eq!(
            crate::hex::encode(&sk.verifying_key().to_bytes()),
            "432c23b10afa01eb9d95768024b58466c081eee9025e772bbc3e3888fef09261"
        );
    }

    #[test]
    fn kept_public_key_is_g_to_the_secret() {
        let params = crate::group::group();
        for seed in [&b"a"[..], b"vehicle 42 registration seed", &[0u8; 32]] {
            let sk = SigningKey::from_seed(seed);
            let y = params.g.pow_mod(sk.secret.as_u256(), params.p);
            assert_eq!(sk.verifying_key().element().as_u256(), y);
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let sk = SigningKey::from_seed(b"seed-a");
        let sig = sk.sign(b"original");
        assert!(!sk.verifying_key().verify(b"tampered", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed(b"seed-1");
        let sk2 = SigningKey::from_seed(b"seed-2");
        let sig = sk1.sign(b"m");
        assert!(!sk2.verifying_key().verify(b"m", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_seed(b"seed");
        let sig = sk.sign(b"m");
        let bumped =
            Signature { commitment: sig.commitment, response: sig.response.add(Scalar::one()) };
        assert!(!sk.verifying_key().verify(b"m", &bumped));
        let wrong_commit = Signature {
            commitment: sig.commitment.mul(Element::generator()),
            response: sig.response,
        };
        assert!(!sk.verifying_key().verify(b"m", &wrong_commit));
    }

    #[test]
    fn deterministic_signatures() {
        let sk = SigningKey::from_seed(b"det");
        assert_eq!(sk.sign(b"m").to_bytes(), sk.sign(b"m").to_bytes());
        assert_ne!(sk.sign(b"m1").to_bytes(), sk.sign(b"m2").to_bytes());
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let sk = SigningKey::from_seed(b"bytes");
        let sig = sk.sign(b"msg");
        let restored = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(restored, sig);
        assert!(sk.verifying_key().verify(b"msg", &restored));
        // Corrupt the commitment half so it's no longer a subgroup member.
        let mut bad = sig.to_bytes();
        bad[..32].copy_from_slice(&[0u8; 32]);
        assert_eq!(Signature::from_bytes(&bad), None);
        // A response of q or more, which would reduce to a valid scalar.
        let mut lifted = sig.to_bytes();
        lifted[32..].fill(0xFF);
        assert_eq!(Signature::from_bytes(&lifted), None);
    }

    #[test]
    fn verifying_key_bytes_roundtrip() {
        let vk = SigningKey::from_seed(b"vk").verifying_key();
        assert_eq!(VerifyingKey::from_bytes(&vk.to_bytes()), Some(vk));
        assert_eq!(VerifyingKey::from_bytes(&[0u8; 32]), None);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = SigningKey::from_seed(b"a").verifying_key();
        let b = SigningKey::from_seed(b"b").verifying_key();
        assert_ne!(a, b);
    }

    #[test]
    fn debug_hides_secret() {
        let sk = SigningKey::from_seed(b"hidden");
        assert_eq!(format!("{sk:?}"), "SigningKey(..)");
    }

    /// The combined check alone: does the weighed equation hold?
    fn batch_verify(items: &[(&[u8], VerifyingKey, Signature)], weight_seed: &[u8]) -> bool {
        verify_batch(items, weight_seed).is_ok()
    }

    /// `count` signed items whose messages are `1 + i` bytes long.
    fn signed(count: usize) -> Vec<(Vec<u8>, VerifyingKey, Signature)> {
        (0..count)
            .map(|i| {
                let sk = SigningKey::from_seed(&(i as u32).to_be_bytes());
                let msg = vec![i as u8; 1 + i];
                let sig = sk.sign(&msg);
                (msg, sk.verifying_key(), sig)
            })
            .collect()
    }

    fn as_refs(
        items: &[(Vec<u8>, VerifyingKey, Signature)],
    ) -> Vec<(&[u8], VerifyingKey, Signature)> {
        items.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect()
    }

    /// The challenges a batch hashes in lanes are the ones `verify` hashes
    /// one at a time, whatever block counts the messages pad to.
    #[test]
    fn batch_challenges_match_the_scalar_challenge() {
        let items = signed(70);
        let refs = as_refs(&items);
        let batch = Batch::new(&refs, b"seed");
        for ((msg, key, sig), e) in refs.iter().zip(&batch.challenges) {
            assert_eq!(
                *e,
                challenge_scalar(&sig.commitment, key, msg),
                "{}-byte message",
                msg.len()
            );
        }
        assert_eq!(batch.weights.len(), refs.len());
        assert!(batch.weights.iter().all(|w| !w.is_zero()));
    }

    /// One forgery at every index of windows of 1, 2, 3, 8, 17 and 64 items
    /// is named by the culprit equation, not by the per-item path.
    #[test]
    fn one_forgery_at_every_index_is_named_by_the_culprit_equation() {
        for count in [1usize, 2, 3, 8, 17, 64] {
            let items = signed(count);
            for bad in 0..count {
                let mut forged = items.clone();
                if bad % 2 == 0 {
                    forged[bad].0[0] ^= 1;
                } else {
                    forged[bad].2.response = forged[bad].2.response.add(Scalar::one());
                }
                let refs = as_refs(&forged);
                assert_eq!(verify_batch(&refs, b"seed"), Err(vec![bad]), "{count} items");
                let batch = Batch::new(&refs, b"seed");
                let first = batch.sides(&batch.weights);
                assert_ne!(first.0, first.1);
                assert_eq!(batch.lone_culprit(first), Some(bad), "{count} items, forged #{bad}");
            }
        }
    }

    /// Two forgeries get no lone culprit: the per-item path names both.
    #[test]
    fn two_forgeries_reach_the_per_item_path() {
        let mut items = signed(9);
        items[2].0[0] ^= 1;
        items[7].2.response = items[7].2.response.add(Scalar::one());
        let refs = as_refs(&items);
        let batch = Batch::new(&refs, b"seed");
        assert_eq!(batch.lone_culprit(batch.sides(&batch.weights)), None);
        assert_eq!(verify_batch(&refs, b"seed"), Err(vec![2, 7]));
    }

    #[test]
    fn batch_verify_accepts_valid_batch() {
        let items: Vec<(Vec<u8>, VerifyingKey, Signature)> = (0..8u8)
            .map(|i| {
                let sk = SigningKey::from_seed(&[i; 4]);
                let msg = vec![i; 20];
                let sig = sk.sign(&msg);
                (msg, sk.verifying_key(), sig)
            })
            .collect();
        let refs: Vec<(&[u8], VerifyingKey, Signature)> =
            items.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
        assert!(batch_verify(&refs, b"seed"));
        assert!(batch_verify(&[], b"seed"), "empty batch verifies");
    }

    #[test]
    fn batch_verify_rejects_one_bad_signature() {
        let mut items: Vec<(Vec<u8>, VerifyingKey, Signature)> = (0..6u8)
            .map(|i| {
                let sk = SigningKey::from_seed(&[i; 4]);
                let msg = vec![i; 20];
                let sig = sk.sign(&msg);
                (msg, sk.verifying_key(), sig)
            })
            .collect();
        // Corrupt one message after signing.
        items[3].0[0] ^= 1;
        let refs: Vec<(&[u8], VerifyingKey, Signature)> =
            items.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
        assert!(!batch_verify(&refs, b"seed"));
    }

    #[test]
    fn batch_verify_rejects_swapped_signatures() {
        // Two individually valid signatures attached to each other's message.
        let sk1 = SigningKey::from_seed(b"one");
        let sk2 = SigningKey::from_seed(b"two");
        let s1 = sk1.sign(b"msg-1");
        let s2 = sk2.sign(b"msg-2");
        let swapped: Vec<(&[u8], VerifyingKey, Signature)> =
            vec![(b"msg-1", sk1.verifying_key(), s2), (b"msg-2", sk2.verifying_key(), s1)];
        assert!(!batch_verify(&swapped, b"seed"));
    }

    #[test]
    fn batch_verify_single_item_agrees_with_verify() {
        let sk = SigningKey::from_seed(b"solo");
        let sig = sk.sign(b"m");
        assert!(batch_verify(&[(b"m", sk.verifying_key(), sig)], b"x"));
        let bad =
            Signature { commitment: sig.commitment, response: sig.response.add(Scalar::one()) };
        assert!(!batch_verify(&[(b"m", sk.verifying_key(), bad)], b"x"));
    }

    #[test]
    fn verify_batch_attributes_single_culprit() {
        let mut items: Vec<(Vec<u8>, VerifyingKey, Signature)> = (0..8u8)
            .map(|i| {
                let sk = SigningKey::from_seed(&[i; 4]);
                let msg = vec![i; 20];
                let sig = sk.sign(&msg);
                (msg, sk.verifying_key(), sig)
            })
            .collect();
        fn refs(
            items: &[(Vec<u8>, VerifyingKey, Signature)],
        ) -> Vec<(&[u8], VerifyingKey, Signature)> {
            items.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect()
        }
        assert_eq!(verify_batch(&refs(&items), b"seed"), Ok(()));
        assert_eq!(verify_batch(&[], b"seed"), Ok(()), "empty batch verifies");
        // Exactly one forged signature must fail the batch AND be attributed.
        items[5].0[0] ^= 1;
        assert_eq!(verify_batch(&refs(&items), b"seed"), Err(vec![5]));
        // A second culprit joins the list, ascending order.
        items[2].2.response = items[2].2.response.add(Scalar::one());
        assert_eq!(verify_batch(&refs(&items), b"seed"), Err(vec![2, 5]));
    }

    #[test]
    fn verify_scalar_agrees_with_verify() {
        let sk = SigningKey::from_seed(b"scalar-ref");
        let vk = sk.verifying_key();
        let sig = sk.sign(b"beacon");
        assert!(verify_scalar(&vk, b"beacon", &sig));
        assert!(!verify_scalar(&vk, b"tampered", &sig));
        let bumped =
            Signature { commitment: sig.commitment, response: sig.response.add(Scalar::one()) };
        assert!(!verify_scalar(&vk, b"beacon", &bumped));
    }

    #[test]
    fn empty_message_signs() {
        let sk = SigningKey::from_seed(b"empty");
        let sig = sk.sign(b"");
        assert!(sk.verifying_key().verify(b"", &sig));
        assert!(!sk.verifying_key().verify(b"x", &sig));
    }
}
