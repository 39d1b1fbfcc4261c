//! Data-policy packages ("sticky policies", paper §V-C).
//!
//! The paper's answer to "a fundamentally new access control mechanism that
//! can travel with data and enforce access control policies anywhere the
//! data goes" (§III): the owner seals the payload and couples it to its
//! policy in one package. The package key is sealed to the fleet's
//! **tamper-proof device (TPD)** enforcement key — TPDs are the standard
//! VANET trust anchor the paper's citations assume (\[30\], \[21\]). A TPD
//! releases plaintext only after (1) verifying an anonymous attribute
//! credential, (2) evaluating the policy against the certified attributes
//! and ambient context, and (3) appending a hash-chained audit record —
//! whatever vehicle happens to be holding the package.

use crate::audit::AuditLog;
use crate::credential::{verify_possession, PossessionProof};
use crate::policy::{Action, Context, Policy};
use vc_auth::pseudonym::PseudonymId;
use vc_crypto::chacha20::{open as aead_open, seal as aead_seal};
use vc_crypto::dh::{EphemeralSecret, PublicShare};
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_crypto::sha256::{sha256_parts, Digest};
use vc_sim::time::SimTime;

/// Errors from the enforcement path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// The attribute proof failed verification.
    BadProof,
    /// The policy denied the request.
    Denied,
    /// The package failed integrity checks.
    Corrupt,
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AccessError::BadProof => "attribute proof invalid",
            AccessError::Denied => "policy denied the request",
            AccessError::Corrupt => "package integrity check failed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AccessError {}

/// A self-protecting data package: encrypted payload + policy + audit log.
#[derive(Debug, Clone)]
pub struct DataPackage {
    /// Package identifier.
    pub id: u64,
    /// The policy that travels with the data.
    pub policy: Policy,
    /// The sealed payload (ChaCha20 + MAC).
    ciphertext: Vec<u8>,
    /// Ephemeral share the TPD uses to re-derive the package key.
    key_share: [u8; 32],
    /// Owner signature over `(id, policy digest, ciphertext digest)`.
    owner_signature: Signature,
    /// Owner's public key (pseudonymous).
    owner_key: VerifyingKey,
    /// The tamper-evident access log.
    pub audit: AuditLog,
}

fn policy_digest(policy: &Policy) -> Digest {
    // Policies are built from plain data with a deterministic Debug form;
    // hashing it yields a canonical commitment without a wire format.
    sha256_parts(&[b"vc-policy", format!("{policy:?}").as_bytes()])
}

fn package_commitment(id: u64, policy: &Policy, ciphertext: &[u8]) -> Vec<u8> {
    let mut out = id.to_be_bytes().to_vec();
    out.extend_from_slice(&policy_digest(policy));
    out.extend_from_slice(&sha256_parts(&[b"vc-package-ct", ciphertext]));
    out
}

impl DataPackage {
    /// Seals `payload` under `policy`, owned by the holder of `owner_key`,
    /// openable only through TPDs of the given fleet.
    ///
    /// `entropy` seeds the package key (pass RNG output).
    pub fn seal_new(
        id: u64,
        payload: &[u8],
        policy: Policy,
        owner_key: &SigningKey,
        tpd_fleet: &PublicShare,
        entropy: u64,
    ) -> DataPackage {
        // Derive a fresh package key and seal the payload.
        let mut seed = id.to_be_bytes().to_vec();
        seed.extend_from_slice(&entropy.to_be_bytes());
        seed.extend_from_slice(&owner_key.verifying_key().to_bytes());
        let eph = EphemeralSecret::from_seed(&seed);
        let package_key = eph.agree(tpd_fleet, b"vc-package-key");
        // The TPD re-derives package_key from the ephemeral public share,
        // which is the "sealed key" transported with the package.
        let ciphertext = aead_seal(&package_key.0, &[0u8; 12], payload);
        let commitment = package_commitment(id, &policy, &ciphertext);
        let owner_signature = owner_key.sign(&commitment);
        DataPackage {
            id,
            policy,
            ciphertext,
            key_share: eph.public_share().to_bytes(),
            owner_signature,
            owner_key: owner_key.verifying_key(),
            audit: AuditLog::new(),
        }
    }

    /// Verifies the owner's signature binding data to policy — any holder
    /// can check a package was not re-wrapped under a weaker policy.
    pub(crate) fn verify_binding(&self) -> bool {
        let commitment = package_commitment(self.id, &self.policy, &self.ciphertext);
        self.owner_key.verify(&commitment, &self.owner_signature)
    }

    /// Ciphertext size in bytes (for replication cost accounting).
    pub fn ciphertext_len(&self) -> usize {
        self.ciphertext.len()
    }
}

/// The fleet's tamper-proof enforcement device class.
#[derive(Debug)]
pub struct TpdEnforcer {
    secret: EphemeralSecret,
}

impl TpdEnforcer {
    /// Creates the fleet TPD keypair from seed material (installed at
    /// manufacture).
    pub fn new(seed: &[u8]) -> Self {
        TpdEnforcer { secret: EphemeralSecret::from_seed(seed) }
    }

    /// The public enforcement key owners seal packages to.
    pub fn public_share(&self) -> PublicShare {
        self.secret.public_share()
    }

    /// The full enforcement path: proof → policy → audit → plaintext.
    ///
    /// The context's `role` and `automation` are **overridden by the
    /// certified attributes** — self-claimed context can't escalate.
    ///
    /// # Errors
    ///
    /// [`AccessError::BadProof`] on a failed credential proof,
    /// [`AccessError::Denied`] when the policy denies (a denial is still
    /// audited), [`AccessError::Corrupt`] when package integrity fails.
    pub fn request_access(
        &self,
        package: &mut DataPackage,
        action: Action,
        proof: &PossessionProof,
        issuer_key: &VerifyingKey,
        ambient: &Context,
        who: PseudonymId,
    ) -> Result<Vec<u8>, AccessError> {
        if !package.verify_binding() {
            return Err(AccessError::Corrupt);
        }
        // Challenge binds the proof to this package and time (no proof
        // replay across packages).
        let challenge = challenge_bytes(package.id, ambient.now);
        let attributes = verify_possession(proof, issuer_key, &challenge, ambient.now)
            .ok_or(AccessError::BadProof)?;
        // Effective context: certified attributes override self-claims.
        let mut ctx = ambient.clone();
        ctx.role = attributes.role;
        ctx.automation = attributes.automation;
        let decision = package.policy.decide(action, &ctx);
        package.audit.append(ctx.now, who, action, decision);
        if !decision.is_permit() {
            return Err(AccessError::Denied);
        }
        // Unseal: re-derive the package key from the stored share.
        let share = PublicShare::from_bytes(&package.key_share).ok_or(AccessError::Corrupt)?;
        let key = self.secret.agree(&share, b"vc-package-key");
        aead_open(&key.0, &[0u8; 12], &package.ciphertext).ok_or(AccessError::Corrupt)
    }
}

/// The challenge a subject must sign to access a package at a given time.
pub fn challenge_bytes(package_id: u64, now: SimTime) -> Vec<u8> {
    let mut out = b"vc-package-access".to_vec();
    out.extend_from_slice(&package_id.to_be_bytes());
    out.extend_from_slice(&now.as_micros().to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credential::{prove_possession, AttributeIssuer, Attributes};
    use crate::policy::{Decision, Expr, Role};
    use vc_sim::geom::Point;
    use vc_sim::node::SaeLevel;

    struct Setup {
        tpd: TpdEnforcer,
        issuer: AttributeIssuer,
        subject_key: SigningKey,
        package: DataPackage,
    }

    fn setup_with_policy(policy: Policy, attrs: Attributes) -> (Setup, PossessionProof, Context) {
        let tpd = TpdEnforcer::new(b"fleet-tpd");
        let issuer = AttributeIssuer::new(b"issuer");
        let owner = SigningKey::from_seed(b"owner");
        let subject_key = SigningKey::from_seed(b"subject");
        let cred = issuer.issue(attrs, subject_key.verifying_key(), SimTime::from_secs(10_000));
        let package =
            DataPackage::seal_new(7, b"sensor archive", policy, &owner, &tpd.public_share(), 99);
        let now = SimTime::from_secs(50);
        let proof = prove_possession(&cred, &subject_key, &challenge_bytes(7, now));
        let ctx = Context::member_at(Point::new(0.0, 0.0), now);
        (Setup { tpd, issuer, subject_key, package }, proof, ctx)
    }

    fn storage_attrs() -> Attributes {
        Attributes {
            role: Role::Storage,
            automation: SaeLevel::L4,
            storage_provider: true,
            compute_provider: true,
        }
    }

    #[test]
    fn grant_path_returns_plaintext_and_audits() {
        let policy = Policy::new().allow(Action::Read, Expr::HasRole(Role::Storage));
        let (mut s, proof, ctx) = setup_with_policy(policy, storage_attrs());
        let out = s
            .tpd
            .request_access(
                &mut s.package,
                Action::Read,
                &proof,
                &s.issuer.public_key(),
                &ctx,
                PseudonymId(1),
            )
            .unwrap();
        assert_eq!(out, b"sensor archive");
        assert_eq!(s.package.audit.len(), 1);
        assert!(s.package.audit.verify(None));
        assert_eq!(s.package.audit.records()[0].decision, Decision::Permit);
    }

    #[test]
    fn deny_path_audits_too() {
        let policy = Policy::new().allow(Action::Read, Expr::HasRole(Role::Head));
        let (mut s, proof, ctx) = setup_with_policy(policy, storage_attrs());
        let err = s
            .tpd
            .request_access(
                &mut s.package,
                Action::Read,
                &proof,
                &s.issuer.public_key(),
                &ctx,
                PseudonymId(1),
            )
            .unwrap_err();
        assert_eq!(err, AccessError::Denied);
        assert_eq!(s.package.audit.len(), 1, "denial still logged");
        assert_eq!(s.package.audit.records()[0].decision, Decision::Deny);
    }

    #[test]
    fn self_claimed_role_cannot_escalate() {
        // Policy wants Head; the credential certifies Storage; claiming Head
        // in ambient context must not help.
        let policy = Policy::new().allow(Action::Read, Expr::HasRole(Role::Head));
        let (mut s, proof, mut ctx) = setup_with_policy(policy, storage_attrs());
        ctx.role = Role::Head; // lie
        let err = s
            .tpd
            .request_access(
                &mut s.package,
                Action::Read,
                &proof,
                &s.issuer.public_key(),
                &ctx,
                PseudonymId(1),
            )
            .unwrap_err();
        assert_eq!(err, AccessError::Denied);
    }

    #[test]
    fn bad_proof_rejected_without_audit() {
        let policy = Policy::new().allow(Action::Read, Expr::True);
        let (mut s, _, ctx) = setup_with_policy(policy, storage_attrs());
        // Proof signed by the wrong key.
        let thief = SigningKey::from_seed(b"thief");
        let cred = s.issuer.issue(
            storage_attrs(),
            s.subject_key.verifying_key(),
            SimTime::from_secs(10_000),
        );
        let bad = prove_possession(&cred, &thief, &challenge_bytes(7, ctx.now));
        let err = s
            .tpd
            .request_access(
                &mut s.package,
                Action::Read,
                &bad,
                &s.issuer.public_key(),
                &ctx,
                PseudonymId(1),
            )
            .unwrap_err();
        assert_eq!(err, AccessError::BadProof);
        assert!(s.package.audit.is_empty(), "unverified requesters leave no log entries");
    }

    #[test]
    fn proof_does_not_replay_across_packages() {
        let policy = Policy::new().allow(Action::Read, Expr::True);
        let (s, proof, ctx) = setup_with_policy(policy.clone(), storage_attrs());
        // Same proof against a different package id must fail (challenge mismatch).
        let owner = SigningKey::from_seed(b"owner2");
        let mut other =
            DataPackage::seal_new(8, b"other data", policy, &owner, &s.tpd.public_share(), 1);
        let err = s
            .tpd
            .request_access(
                &mut other,
                Action::Read,
                &proof,
                &s.issuer.public_key(),
                &ctx,
                PseudonymId(1),
            )
            .unwrap_err();
        assert_eq!(err, AccessError::BadProof);
    }

    #[test]
    fn rewrapped_policy_detected() {
        let strict = Policy::new().allow(Action::Read, Expr::HasRole(Role::Head));
        let (mut s, proof, ctx) = setup_with_policy(strict, storage_attrs());
        // Attacker swaps in a permissive policy without the owner's key.
        s.package.policy = Policy::new().allow(Action::Read, Expr::True);
        let err = s
            .tpd
            .request_access(
                &mut s.package,
                Action::Read,
                &proof,
                &s.issuer.public_key(),
                &ctx,
                PseudonymId(1),
            )
            .unwrap_err();
        assert_eq!(err, AccessError::Corrupt);
    }

    #[test]
    fn emergency_escalation_grants() {
        let policy = Policy::new()
            .allow(Action::Read, Expr::HasRole(Role::Head))
            .allow_in_emergency(Action::Read, Expr::AutomationAtLeast(SaeLevel::L3));
        let (mut s, proof, mut ctx) = setup_with_policy(policy, storage_attrs());
        ctx.emergency = true;
        let out = s
            .tpd
            .request_access(
                &mut s.package,
                Action::Read,
                &proof,
                &s.issuer.public_key(),
                &ctx,
                PseudonymId(1),
            )
            .unwrap();
        assert_eq!(out, b"sensor archive");
        assert_eq!(s.package.audit.records()[0].decision, Decision::PermitEmergency);
    }

    #[test]
    fn wrong_tpd_cannot_unseal() {
        let policy = Policy::new().allow(Action::Read, Expr::True);
        let (mut s, proof, ctx) = setup_with_policy(policy, storage_attrs());
        let rogue = TpdEnforcer::new(b"rogue-device");
        let err = rogue
            .request_access(
                &mut s.package,
                Action::Read,
                &proof,
                &s.issuer.public_key(),
                &ctx,
                PseudonymId(1),
            )
            .unwrap_err();
        assert_eq!(err, AccessError::Corrupt);
    }

    #[test]
    fn binding_survives_audit_growth() {
        // Audit appends must not invalidate the owner binding (audit is
        // outside the signed commitment by design: it grows in transit).
        let policy = Policy::new().allow(Action::Read, Expr::True);
        let (mut s, proof, ctx) = setup_with_policy(policy, storage_attrs());
        assert!(s.package.verify_binding());
        let _ = s.tpd.request_access(
            &mut s.package,
            Action::Read,
            &proof,
            &s.issuer.public_key(),
            &ctx,
            PseudonymId(1),
        );
        assert!(s.package.verify_binding());
        assert_eq!(s.package.audit.len(), 1);
    }
}
