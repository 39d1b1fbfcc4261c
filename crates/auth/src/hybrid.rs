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
}
