//! Real identities and the trusted authority (TA).
//!
//! Every protocol in the paper's survey (§IV-B) assumes an offline
//! registration phase with some identity-management authority that can, on
//! dispute, recover a vehicle's real identity ("conditional privacy"). This
//! module is that authority: registration, master keys, revocation, and
//! deanonymization hooks the protocol modules call into.

use std::collections::{BTreeMap, BTreeSet};
use vc_crypto::schnorr::{SigningKey, VerifyingKey};
use vc_sim::node::VehicleId;

/// A vehicle's real, legal identity (VIN-like). Never appears on the air in
/// privacy-preserving protocols.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RealIdentity(pub String);

impl RealIdentity {
    /// Canonical identity string for a simulated vehicle.
    pub fn for_vehicle(id: VehicleId) -> RealIdentity {
        RealIdentity(format!("VIN-{:08}", id.0))
    }
}

impl vc_obs::MemSize for RealIdentity {
    fn mem_bytes(&self) -> u64 {
        self.0.capacity() as u64
    }
}

/// Errors across the authentication protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// The credential's signature (by TA, group manager, …) is invalid.
    BadCredential,
    /// The message signature does not verify.
    BadSignature,
    /// The credential is expired or not yet valid.
    Expired,
    /// The credential has been revoked.
    Revoked,
    /// Replay detected (timestamp outside window or nonce seen before).
    Replayed,
    /// The sender is not registered / unknown.
    Unknown,
    /// Malformed on-the-wire data.
    Malformed,
    /// Issuance refused: the identity would hold more than
    /// [`crate::pseudonym::CERTS_PER_PERIOD`] certificates in one period.
    PoolExhausted,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AuthError::BadCredential => "credential signature invalid",
            AuthError::BadSignature => "message signature invalid",
            AuthError::Expired => "credential expired or not yet valid",
            AuthError::Revoked => "credential revoked",
            AuthError::Replayed => "message replayed",
            AuthError::Unknown => "unknown sender",
            AuthError::Malformed => "malformed message",
            AuthError::PoolExhausted => "certificate pool for the period exhausted",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AuthError {}

/// The trusted authority: the root of registration for every protocol.
///
/// The TA is **offline during operation** — protocols may only consult it at
/// registration/revocation time, mirroring the paper's "no central authority
/// at the scene" constraint. Methods that would require online TA access are
/// deliberately segregated under `audit_*` names.
#[derive(Debug)]
pub struct TrustedAuthority {
    master_key: SigningKey,
    registered: BTreeMap<RealIdentity, VehicleId>,
    revoked_vehicles: BTreeSet<RealIdentity>,
}

impl TrustedAuthority {
    /// Creates a TA with a master key derived from `seed`.
    pub fn new(seed: &[u8]) -> Self {
        TrustedAuthority {
            master_key: SigningKey::from_seed(seed),
            registered: BTreeMap::new(),
            revoked_vehicles: BTreeSet::new(),
        }
    }

    /// The TA's public key, pre-installed in every vehicle at manufacture.
    pub fn public_key(&self) -> VerifyingKey {
        self.master_key.verifying_key()
    }

    /// The TA's signing key — internal to protocol modules in this crate.
    pub(crate) fn signing_key(&self) -> &SigningKey {
        &self.master_key
    }

    /// Registers a vehicle's real identity. Idempotent.
    pub fn register(&mut self, identity: RealIdentity, vehicle: VehicleId) {
        self.registered.insert(identity, vehicle);
    }

    /// Whether an identity is registered.
    pub(crate) fn is_registered(&self, identity: &RealIdentity) -> bool {
        self.registered.contains_key(identity)
    }

    /// Marks a real identity as revoked (stolen vehicle, misbehaviour
    /// verdict). Protocol modules translate this into their own revocation
    /// artifacts (CRL entries, group exclusion).
    pub fn revoke(&mut self, identity: &RealIdentity) {
        self.revoked_vehicles.insert(identity.clone());
    }

    /// Whether a real identity is revoked.
    pub(crate) fn is_revoked(&self, identity: &RealIdentity) -> bool {
        self.revoked_vehicles.contains(identity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_roundtrip() {
        let mut ta = TrustedAuthority::new(b"ta-seed");
        let id = RealIdentity::for_vehicle(VehicleId(7));
        assert!(!ta.is_registered(&id));
        ta.register(id.clone(), VehicleId(7));
        assert!(ta.is_registered(&id));
    }

    #[test]
    fn revocation() {
        let mut ta = TrustedAuthority::new(b"ta-seed");
        let id = RealIdentity::for_vehicle(VehicleId(1));
        ta.register(id.clone(), VehicleId(1));
        assert!(!ta.is_revoked(&id));
        ta.revoke(&id);
        assert!(ta.is_revoked(&id));
    }

    #[test]
    fn public_key_is_stable() {
        let ta1 = TrustedAuthority::new(b"same-seed");
        let ta2 = TrustedAuthority::new(b"same-seed");
        assert_eq!(ta1.public_key(), ta2.public_key());
        let ta3 = TrustedAuthority::new(b"other-seed");
        assert_ne!(ta1.public_key(), ta3.public_key());
    }

    #[test]
    fn identity_format() {
        assert_eq!(RealIdentity::for_vehicle(VehicleId(42)).0, "VIN-00000042");
    }

    #[test]
    fn error_display() {
        assert_eq!(AuthError::Revoked.to_string(), "credential revoked");
        assert_eq!(AuthError::Replayed.to_string(), "message replayed");
    }
}
