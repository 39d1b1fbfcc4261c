//! Hybrid authentication (paper §IV-B.1, after Rajput et al. \[31\]).
//!
//! Combines the two families to dodge both drawbacks of Fig. 5: a regional
//! coordinator (cluster head / RSU) holds a group key and locally issues
//! **short-lived pseudonym certificates**. Verifiers check only the group
//! signature on the certificate and its tight expiry — *no CRL scan* —
//! while the certificate embeds a trapdoor sealed to the TA, preserving
//! conditional privacy without the coordinator learning identities.
//!
//! Revocation = stop issuing to the revoked vehicle; outstanding
//! certificates die within one expiry window.

use crate::identity::{AuthError, RealIdentity, TrustedAuthority};
use vc_crypto::chacha20::{open as aead_open, seal as aead_seal};
use vc_crypto::dh::{EphemeralSecret, PublicShare};
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_sim::time::{SimDuration, SimTime};

/// A short-lived certificate issued by a regional coordinator.
#[derive(Debug, Clone)]
pub struct ShortCert {
    /// The ephemeral pseudonym key the vehicle signs messages with.
    pub key: VerifyingKey,
    /// Trapdoor: the real identity sealed to the TA's opening key.
    pub trapdoor: Vec<u8>,
    /// Ephemeral share used to seal the trapdoor.
    pub trapdoor_share: [u8; 32],
    /// Expiry instant (short: tens of seconds).
    pub valid_until: SimTime,
    /// The issuing coordinator's signature over the above.
    pub issuer_signature: Signature,
}

impl ShortCert {
    fn signed_bytes(
        key: &VerifyingKey,
        trapdoor: &[u8],
        share: &[u8; 32],
        until: SimTime,
    ) -> Vec<u8> {
        let mut out = key.to_bytes().to_vec();
        out.extend_from_slice(trapdoor);
        out.extend_from_slice(share);
        out.extend_from_slice(&until.as_micros().to_be_bytes());
        out
    }

    /// Wire size in bytes.
    pub fn wire_len(&self) -> usize {
        32 + self.trapdoor.len() + 32 + 8 + 64
    }
}

/// A message authenticated under the hybrid scheme.
#[derive(Debug, Clone)]
pub struct HybridMessage {
    /// The attached short certificate.
    pub cert: ShortCert,
    /// Message signature under the certificate key.
    pub signature: Signature,
    /// Claimed send time.
    pub sent_at: SimTime,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl HybridMessage {
    /// Bytes of authentication overhead this message carries.
    pub fn auth_overhead_bytes(&self) -> usize {
        self.cert.wire_len() + 64 + 8
    }
}

/// Vehicle-side state: the current short certificate plus its signing key.
#[derive(Debug)]
pub struct HybridCredential {
    cert: ShortCert,
    key: SigningKey,
}

impl HybridCredential {
    /// Signs `payload` at `now`.
    pub fn sign(&self, payload: &[u8], now: SimTime) -> HybridMessage {
        let mut to_sign = payload.to_vec();
        to_sign.extend_from_slice(&now.as_micros().to_be_bytes());
        HybridMessage {
            cert: self.cert.clone(),
            signature: self.key.sign(&to_sign),
            sent_at: now,
            payload: payload.to_vec(),
        }
    }

    /// Whether this credential has expired.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now > self.cert.valid_until
    }
}

/// The regional issuer (a cluster head or RSU holding the group key).
#[derive(Debug)]
pub struct RegionalIssuer {
    group_key: SigningKey,
    ta_opening_share: PublicShare,
    cert_lifetime: SimDuration,
    issued: u64,
    banned: Vec<RealIdentity>,
}

impl RegionalIssuer {
    /// Creates an issuer whose certificates live for `cert_lifetime`.
    pub fn new(seed: &[u8], ta_opening: &TaOpening, cert_lifetime: SimDuration) -> Self {
        RegionalIssuer {
            group_key: SigningKey::from_seed(seed),
            ta_opening_share: ta_opening.public_share(),
            cert_lifetime,
            issued: 0,
            banned: Vec::new(),
        }
    }

    /// The verification key vehicles use to check certificates from this
    /// region.
    pub fn public_key(&self) -> VerifyingKey {
        self.group_key.verifying_key()
    }

    /// Stops issuing to a revoked identity (the hybrid revocation path).
    pub fn ban(&mut self, identity: RealIdentity) {
        self.banned.push(identity);
    }

    /// Issues a fresh short certificate to a vehicle that proves `identity`
    /// (the proof protocol is out of band — registration-time credentials).
    ///
    /// # Errors
    ///
    /// [`AuthError::Revoked`] if the identity is banned.
    pub fn issue(
        &mut self,
        identity: &RealIdentity,
        now: SimTime,
    ) -> Result<HybridCredential, AuthError> {
        if self.banned.contains(identity) {
            return Err(AuthError::Revoked);
        }
        self.issued += 1;
        let mut seed = identity.0.as_bytes().to_vec();
        seed.extend_from_slice(&self.issued.to_be_bytes());
        seed.extend_from_slice(&now.as_micros().to_be_bytes());
        let key = SigningKey::from_seed(&seed);
        // Trapdoor: identity sealed to the TA (not to this issuer).
        let eph = EphemeralSecret::from_seed(&seed);
        let shared = eph.agree(&self.ta_opening_share, b"vc-hybrid-trapdoor");
        let trapdoor = aead_seal(&shared.0, &[0u8; 12], identity.0.as_bytes());
        let trapdoor_share = eph.public_share().to_bytes();
        let valid_until = now + self.cert_lifetime;
        let body =
            ShortCert::signed_bytes(&key.verifying_key(), &trapdoor, &trapdoor_share, valid_until);
        let issuer_signature = self.group_key.sign(&body);
        Ok(HybridCredential {
            cert: ShortCert {
                key: key.verifying_key(),
                trapdoor,
                trapdoor_share,
                valid_until,
                issuer_signature,
            },
            key,
        })
    }
}

/// The TA's trapdoor-opening capability for the hybrid scheme.
#[derive(Debug)]
pub struct TaOpening {
    secret: EphemeralSecret,
}

impl TaOpening {
    /// Derives the opening keypair from the TA.
    pub fn for_ta(ta: &TrustedAuthority) -> TaOpening {
        // Bind to the TA's public key so every run agrees.
        let seed = ta.public_key().to_bytes();
        TaOpening { secret: EphemeralSecret::from_seed(&seed) }
    }

    /// The public half embedded in issuers.
    pub fn public_share(&self) -> PublicShare {
        self.secret.public_share()
    }

    /// Opens a certificate's trapdoor to the real identity (dispute path).
    ///
    /// # Errors
    ///
    /// [`AuthError::Malformed`] when the trapdoor does not decrypt.
    pub fn open(&self, cert: &ShortCert) -> Result<RealIdentity, AuthError> {
        let share = PublicShare::from_bytes(&cert.trapdoor_share).ok_or(AuthError::Malformed)?;
        let key = self.secret.agree(&share, b"vc-hybrid-trapdoor");
        let bytes = aead_open(&key.0, &[0u8; 12], &cert.trapdoor).ok_or(AuthError::Malformed)?;
        String::from_utf8(bytes).map(RealIdentity).map_err(|_| AuthError::Malformed)
    }
}

/// Verifier-side check: two signature verifications, an expiry check, and
/// **no CRL scan** — the cost profile that makes the hybrid attractive.
///
/// # Errors
///
/// Returns the specific [`AuthError`] that failed.
pub fn verify(
    message: &HybridMessage,
    issuer_key: &VerifyingKey,
    now: SimTime,
    replay_window: SimDuration,
) -> Result<(), AuthError> {
    if now > message.cert.valid_until {
        return Err(AuthError::Expired);
    }
    if message.sent_at > now || now.saturating_since(message.sent_at) > replay_window {
        return Err(AuthError::Replayed);
    }
    let body = ShortCert::signed_bytes(
        &message.cert.key,
        &message.cert.trapdoor,
        &message.cert.trapdoor_share,
        message.cert.valid_until,
    );
    if !issuer_key.verify(&body, &message.cert.issuer_signature) {
        return Err(AuthError::BadCredential);
    }
    let mut to_check = message.payload.clone();
    to_check.extend_from_slice(&message.sent_at.as_micros().to_be_bytes());
    if !message.cert.key.verify(&to_check, &message.signature) {
        return Err(AuthError::BadSignature);
    }
    Ok(())
}

/// Batched [`verify`] over a slice of messages: per-message verdicts are
/// identical to calling `verify` on each, but all surviving signatures are
/// checked in one random-linear-combination batch
/// ([`vc_crypto::schnorr::verify_batch`]), and duplicate certificates —
/// the common case when one sender's cert rides many messages — pay their
/// issuer-signature check once instead of once per message.
///
/// Non-signature checks (expiry, replay) run first and keep the sequential
/// error precedence: a message failing both its certificate and message
/// signature still reports [`AuthError::BadCredential`].
pub fn verify_batch(
    messages: &[HybridMessage],
    issuer_key: &VerifyingKey,
    now: SimTime,
    replay_window: SimDuration,
) -> Vec<Result<(), AuthError>> {
    let _f = vc_obs::profile::frame("auth.verify.batch");
    let mut results: Vec<Result<(), AuthError>> = messages
        .iter()
        .map(|m| {
            if now > m.cert.valid_until {
                Err(AuthError::Expired)
            } else if m.sent_at > now || now.saturating_since(m.sent_at) > replay_window {
                Err(AuthError::Replayed)
            } else {
                Ok(())
            }
        })
        .collect();
    // Distinct certificates among survivors (deduped by signed body + sig).
    let mut cert_items: Vec<(Vec<u8>, Signature)> = Vec::new();
    let mut cert_index: std::collections::BTreeMap<Vec<u8>, usize> =
        std::collections::BTreeMap::new();
    // (message index, cert batch slot, message bytes to check)
    let mut survivors: Vec<(usize, usize, Vec<u8>)> = Vec::new();
    for (i, m) in messages.iter().enumerate() {
        if results[i].is_err() {
            continue;
        }
        let body = ShortCert::signed_bytes(
            &m.cert.key,
            &m.cert.trapdoor,
            &m.cert.trapdoor_share,
            m.cert.valid_until,
        );
        let mut dedupe = body.clone();
        dedupe.extend_from_slice(&m.cert.issuer_signature.to_bytes());
        let next = cert_items.len();
        let slot = *cert_index.entry(dedupe).or_insert(next);
        if slot == next {
            cert_items.push((body, m.cert.issuer_signature));
        }
        let mut to_check = m.payload.clone();
        to_check.extend_from_slice(&m.sent_at.as_micros().to_be_bytes());
        survivors.push((i, slot, to_check));
    }
    if survivors.is_empty() {
        return results;
    }
    // One batch: distinct cert signatures first, then message signatures.
    let mut items: Vec<(&[u8], VerifyingKey, Signature)> =
        Vec::with_capacity(cert_items.len() + survivors.len());
    for (body, sig) in &cert_items {
        items.push((body.as_slice(), *issuer_key, *sig));
    }
    for (i, _, to_check) in &survivors {
        items.push((to_check.as_slice(), messages[*i].cert.key, messages[*i].signature));
    }
    if let Err(bad) = vc_crypto::schnorr::verify_batch(&items, b"vc-hybrid-batch") {
        let n_certs = cert_items.len();
        for (pos, (i, slot, _)) in survivors.iter().enumerate() {
            if bad.contains(slot) {
                results[*i] = Err(AuthError::BadCredential);
            } else if bad.contains(&(n_certs + pos)) {
                results[*i] = Err(AuthError::BadSignature);
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::node::VehicleId;

    fn setup() -> (TrustedAuthority, TaOpening, RegionalIssuer) {
        let ta = TrustedAuthority::new(b"ta");
        let opening = TaOpening::for_ta(&ta);
        let issuer = RegionalIssuer::new(b"region-1", &opening, SimDuration::from_secs(30));
        (ta, opening, issuer)
    }

    fn window() -> SimDuration {
        SimDuration::from_secs(5)
    }

    #[test]
    fn issue_sign_verify() {
        let (_, _, mut issuer) = setup();
        let id = RealIdentity::for_vehicle(VehicleId(1));
        let now = SimTime::from_secs(10);
        let cred = issuer.issue(&id, now).unwrap();
        let msg = cred.sign(b"hello", now);
        assert_eq!(verify(&msg, &issuer.public_key(), now, window()), Ok(()));
    }

    #[test]
    fn certs_expire_quickly() {
        let (_, _, mut issuer) = setup();
        let id = RealIdentity::for_vehicle(VehicleId(1));
        let issued_at = SimTime::from_secs(0);
        let cred = issuer.issue(&id, issued_at).unwrap();
        assert!(!cred.is_expired(SimTime::from_secs(29)));
        assert!(cred.is_expired(SimTime::from_secs(31)));
        let msg = cred.sign(b"stale", SimTime::from_secs(31));
        assert_eq!(
            verify(&msg, &issuer.public_key(), SimTime::from_secs(31), window()),
            Err(AuthError::Expired)
        );
    }

    #[test]
    fn banned_identity_refused() {
        let (_, _, mut issuer) = setup();
        let id = RealIdentity::for_vehicle(VehicleId(2));
        issuer.ban(id.clone());
        assert_eq!(issuer.issue(&id, SimTime::ZERO).unwrap_err(), AuthError::Revoked);
    }

    #[test]
    fn ta_opens_trapdoor_issuer_cannot() {
        let (_, opening, mut issuer) = setup();
        let id = RealIdentity::for_vehicle(VehicleId(3));
        let cred = issuer.issue(&id, SimTime::ZERO).unwrap();
        let msg = cred.sign(b"m", SimTime::ZERO);
        // TA opens.
        assert_eq!(opening.open(&msg.cert).unwrap(), id);
        // A different "TA" (same capability class as the issuer) cannot.
        let other_ta = TrustedAuthority::new(b"not-the-ta");
        let other_opening = TaOpening::for_ta(&other_ta);
        assert!(other_opening.open(&msg.cert).is_err());
    }

    #[test]
    fn consecutive_certs_unlinkable() {
        let (_, _, mut issuer) = setup();
        let id = RealIdentity::for_vehicle(VehicleId(4));
        let c1 = issuer.issue(&id, SimTime::from_secs(0)).unwrap();
        let c2 = issuer.issue(&id, SimTime::from_secs(30)).unwrap();
        assert_ne!(c1.cert.key, c2.cert.key);
        assert_ne!(c1.cert.trapdoor, c2.cert.trapdoor);
    }

    #[test]
    fn forged_cert_rejected() {
        let (_, _, mut issuer) = setup();
        let id = RealIdentity::for_vehicle(VehicleId(5));
        let now = SimTime::ZERO;
        let cred = issuer.issue(&id, now).unwrap();
        let mut msg = cred.sign(b"m", now);
        msg.cert.valid_until = SimTime::from_secs(99_999);
        assert_eq!(
            verify(&msg, &issuer.public_key(), now, window()),
            Err(AuthError::BadCredential)
        );
    }

    #[test]
    fn tampered_payload_rejected() {
        let (_, _, mut issuer) = setup();
        let id = RealIdentity::for_vehicle(VehicleId(6));
        let now = SimTime::ZERO;
        let cred = issuer.issue(&id, now).unwrap();
        let mut msg = cred.sign(b"m", now);
        msg.payload = b"evil".to_vec();
        assert_eq!(verify(&msg, &issuer.public_key(), now, window()), Err(AuthError::BadSignature));
    }

    #[test]
    fn replay_rejected() {
        let (_, _, mut issuer) = setup();
        let id = RealIdentity::for_vehicle(VehicleId(7));
        let cred = issuer.issue(&id, SimTime::ZERO).unwrap();
        let msg = cred.sign(b"m", SimTime::ZERO);
        assert_eq!(
            verify(&msg, &issuer.public_key(), SimTime::from_secs(20), window()),
            Err(AuthError::Replayed)
        );
    }

    #[test]
    fn verify_batch_matches_sequential_on_mixed_batch() {
        let (_, _, mut issuer) = setup();
        let now = SimTime::from_secs(10);
        // Two senders; the first sends three messages under one cert, so the
        // batch dedupes its issuer-signature check.
        let cred_a = issuer.issue(&RealIdentity::for_vehicle(VehicleId(1)), now).unwrap();
        let cred_b = issuer.issue(&RealIdentity::for_vehicle(VehicleId(2)), now).unwrap();
        let mut msgs = vec![
            cred_a.sign(b"a1", now),
            cred_a.sign(b"a2", now),
            cred_b.sign(b"b1", now),
            cred_a.sign(b"a3", now),
            cred_b.sign(b"b2", now),
            cred_a.sign(b"old", SimTime::from_secs(1)), // replayed
        ];
        // Tamper one payload (BadSignature) and one cert (BadCredential).
        msgs[1].payload = b"evil".to_vec();
        msgs[4].cert.valid_until = SimTime::from_secs(99_999);
        let batch = verify_batch(&msgs, &issuer.public_key(), now, window());
        for (m, got) in msgs.iter().zip(&batch) {
            assert_eq!(*got, verify(m, &issuer.public_key(), now, window()));
        }
        assert_eq!(batch[0], Ok(()));
        assert_eq!(batch[1], Err(AuthError::BadSignature));
        assert_eq!(batch[4], Err(AuthError::BadCredential));
        assert_eq!(batch[5], Err(AuthError::Replayed));
    }

    #[test]
    fn verify_batch_handles_empty_and_all_valid() {
        let (_, _, mut issuer) = setup();
        let now = SimTime::from_secs(10);
        assert!(verify_batch(&[], &issuer.public_key(), now, window()).is_empty());
        let cred = issuer.issue(&RealIdentity::for_vehicle(VehicleId(3)), now).unwrap();
        let msgs: Vec<HybridMessage> = (0..8).map(|i| cred.sign(&[i], now)).collect();
        let batch = verify_batch(&msgs, &issuer.public_key(), now, window());
        assert!(batch.iter().all(|r| r.is_ok()));
    }
}
