//! Schnorr signatures over the crate's discrete-log [`group`](crate::group).
//!
//! The signature scheme under every authenticated message in the workspace:
//! pseudonym certificates, beacon signing, task receipts. Deterministic
//! nonces (RFC 6979 in spirit: `k = H(sk || msg)`) keep runs reproducible
//! and remove nonce-reuse foot-guns.

use crate::group::{Element, Scalar};
use crate::sha256::sha256_parts;

/// A signing (secret) key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SigningKey {
    secret: Scalar,
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
        SigningKey { secret }
    }

    /// The matching verification key `y = g^x`.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey { point: Element::base_pow(self.secret) }
    }

    /// Signs `message`.
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
        let challenge = challenge_scalar(&signature.commitment, self, message);
        // g^s == R * y^e
        let lhs = Element::base_pow(signature.response);
        let rhs = signature.commitment.mul(self.point.pow(challenge));
        lhs == rhs
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
    /// group element.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Option<Signature> {
        let mut r = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        let mut s = [0u8; 32];
        s.copy_from_slice(&bytes[32..]);
        let commitment = Element::from_bytes(&r)?;
        Some(Signature { commitment, response: Scalar::from_bytes(&s) })
    }
}

/// Batch verification of many (message, key, signature) triples — the
/// technique the paper's time-critical authentication citations rely on
/// ([21] batch verification, [44] real-time signatures).
///
/// Uses small random weights `r_i` and one simultaneous multi-exponentiation:
///
/// ```text
/// g^(Σ r_i·s_i)  ==  Π R_i^{r_i} · Π y_i^{r_i·e_i}
/// ```
///
/// Sound except with probability ~2^-128 over the weights (derived by
/// hashing the whole batch with `weight_seed`, so a forger cannot pick
/// signatures after seeing them). An empty batch verifies trivially.
///
/// A failed batch says *some* signature is bad but not which; the one
/// public entry, [`verify_batch`], falls back to per-signature verification
/// to pinpoint culprits.
fn batch_verify(items: &[(&[u8], VerifyingKey, Signature)], weight_seed: &[u8]) -> bool {
    if items.is_empty() {
        return true;
    }
    // Transcript hash binding all items, so weights depend on everything.
    let mut transcript = Sha256Transcript::new(weight_seed);
    for (msg, key, sig) in items {
        transcript.absorb(msg);
        transcript.absorb(&key.to_bytes());
        transcript.absorb(&sig.to_bytes());
    }
    let mut s_combined = Scalar::zero();
    let mut bases = Vec::with_capacity(items.len() * 2);
    let mut exps = Vec::with_capacity(items.len() * 2);
    for (i, (msg, key, sig)) in items.iter().enumerate() {
        let weight = transcript.weight(i as u64);
        let challenge = challenge_scalar(&sig.commitment, key, msg);
        s_combined = s_combined.add(weight.mul(sig.response));
        bases.push(sig.commitment);
        exps.push(weight);
        bases.push(key.element());
        exps.push(weight.mul(challenge));
    }
    let lhs = Element::base_pow(s_combined);
    let rhs = crate::group::multi_exp(&bases, &exps);
    lhs == rhs
}

/// Batch verification with culprit attribution: semantically equivalent to
/// verifying every triple individually, but a batch of valid signatures
/// costs one random-linear-combination check.
///
/// On success returns `Ok(())`. When the combined check fails, falls back
/// to per-signature [`VerifyingKey::verify`] and returns the indices that
/// fail individually — per-signature verification is the ground truth, so
/// the result is exactly the set a sequential verifier would reject. (A
/// batch of individually-valid signatures satisfies the combined equation
/// *identically*, so the fallback never runs on an all-valid batch; the
/// 2^-128 soundness gap runs the other way — see docs/CRYPTO.md.)
///
/// Weights are derived by pure hashing of the batch transcript and
/// `weight_seed` — never an RNG draw — so results are deterministic.
///
/// # Errors
///
/// `Err(indices)` of the individually-failing items, in ascending order.
pub fn verify_batch(
    items: &[(&[u8], VerifyingKey, Signature)],
    weight_seed: &[u8],
) -> Result<(), Vec<usize>> {
    if batch_verify(items, weight_seed) {
        return Ok(());
    }
    Err(items
        .iter()
        .enumerate()
        .filter(|(_, (msg, key, sig))| !key.verify(msg, sig))
        .map(|(i, _)| i)
        .collect())
}

/// Minimal transcript helper for deriving batch weights.
struct Sha256Transcript {
    state: [u8; 32],
}

impl Sha256Transcript {
    fn new(seed: &[u8]) -> Self {
        Sha256Transcript { state: sha256_parts(&[b"vc-batch-transcript", seed]) }
    }

    fn absorb(&mut self, data: &[u8]) {
        self.state = sha256_parts(&[&self.state, data]);
    }

    /// The i-th batch weight: the low 128 bits of a transcript-bound hash
    /// (zero bumped to one). Half-width weights halve the multiply count
    /// the commitment terms contribute to the shared multi-exponentiation
    /// while keeping the forgery probability at the same 2^-128 bound the
    /// full-width weights gave (the bound is `1/#weights`, not `1/q`).
    fn weight(&self, index: u64) -> Scalar {
        let digest = sha256_parts(&[b"vc-batch-weight", &self.state, &index.to_be_bytes()]);
        let mut low = [0u8; 16];
        low.copy_from_slice(&digest[16..]);
        let mut w = Scalar::from_u256(crate::u256::U256::from(u128::from_be_bytes(low)));
        if w.is_zero() {
            w = Scalar::one();
        }
        w
    }
}

fn challenge_scalar(commitment: &Element, key: &VerifyingKey, message: &[u8]) -> Scalar {
    let digest =
        sha256_parts(&[b"vc-schnorr-challenge", &commitment.to_bytes(), &key.to_bytes(), message]);
    Scalar::hash_to_scalar(&[&digest])
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
