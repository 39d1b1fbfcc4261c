//! Group-based authentication (paper §IV-B.1, Fig. 5 right).
//!
//! Members of a self-organized vehicle group sign messages that any holder
//! of the group's public key can verify as "from *some* current member",
//! without learning which one. The group coordinator — and only the
//! coordinator — can *open* a signature to the member's identity.
//!
//! This is a simulation-level construction with the same structure and the
//! same cost/privacy trade-offs as deployed group-signature schemes (BBS-,
//! threshold-, and identity-based variants the paper cites): constant-size
//! verification independent of revocations, anonymity of members toward
//! each other and outsiders, **conditional** privacy because the
//! coordinator holds the opening trapdoor (exactly the drawback Fig. 5
//! names), and O(group) rekey cost on member revocation instead of a CRL.
//!
//! Construction: an epoch-scoped group signing key shared by members;
//! per-message member tags sealed to the coordinator's opening key via DH +
//! authenticated encryption.

use crate::identity::{AuthError, RealIdentity};
use std::collections::BTreeMap;
use vc_crypto::chacha20::{open as aead_open, seal as aead_seal};
use vc_crypto::dh::{EphemeralSecret, PublicShare};
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_sim::time::SimTime;

/// Identifier of a vehicle group (cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u64);

/// A member's pseudonymous tag inside a group; meaningless to anyone but the
/// coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberTag(pub u64);

/// A message authenticated as "from a current member of the group".
#[derive(Debug, Clone)]
pub struct GroupMessage {
    /// Which group signed.
    pub group: GroupId,
    /// Key epoch (bumped on every revocation).
    pub epoch: u32,
    /// Signature under the epoch's group key over
    /// `payload || sent_at || sealed_tag || eph_share`.
    pub signature: Signature,
    /// The member tag, sealed to the coordinator (opening trapdoor).
    pub sealed_tag: Vec<u8>,
    /// Ephemeral DH share used to seal the tag.
    pub eph_share: [u8; 32],
    /// Claimed send time.
    pub sent_at: SimTime,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl GroupMessage {
    /// Bytes of authentication overhead this message carries.
    pub fn auth_overhead_bytes(&self) -> usize {
        8 + 4 + 64 + self.sealed_tag.len() + 32 + 8
    }

    fn signed_bytes(&self) -> Vec<u8> {
        let mut out = self.payload.clone();
        out.extend_from_slice(&self.sent_at.as_micros().to_be_bytes());
        out.extend_from_slice(&self.sealed_tag);
        out.extend_from_slice(&self.eph_share);
        out
    }
}

/// A member's credential for one epoch.
#[derive(Debug, Clone)]
pub struct MemberCredential {
    group: GroupId,
    epoch: u32,
    tag: MemberTag,
    group_key: SigningKey,
    coordinator_share: PublicShare,
}

impl MemberCredential {
    /// The member's tag (local knowledge).
    pub fn tag(&self) -> MemberTag {
        self.tag
    }

    /// The epoch this credential is valid for.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Signs `payload` at `now`. `entropy` seeds the per-message ephemeral
    /// (pass RNG output; reuse only harms unlinkability, not unforgeability).
    pub fn sign(&self, payload: &[u8], now: SimTime, entropy: u64) -> GroupMessage {
        let mut seed = self.tag.0.to_be_bytes().to_vec();
        seed.extend_from_slice(&entropy.to_be_bytes());
        seed.extend_from_slice(&now.as_micros().to_be_bytes());
        let eph = EphemeralSecret::from_seed(&seed);
        let key = eph.agree(&self.coordinator_share, b"vc-group-open");
        let nonce = [0u8; 12]; // fresh key per message => fixed nonce is fine
        let sealed_tag = aead_seal(&key.0, &nonce, &self.tag.0.to_be_bytes());
        let eph_share = eph.public_share().to_bytes();
        let mut signed = payload.to_vec();
        signed.extend_from_slice(&now.as_micros().to_be_bytes());
        signed.extend_from_slice(&sealed_tag);
        signed.extend_from_slice(&eph_share);
        let signature = self.group_key.sign(&signed);
        GroupMessage {
            group: self.group,
            epoch: self.epoch,
            signature,
            sealed_tag,
            eph_share,
            sent_at: now,
            payload: payload.to_vec(),
        }
    }
}

/// The coordinator of one group: key custody, membership, opening.
#[derive(Debug)]
pub struct GroupCoordinator {
    id: GroupId,
    epoch: u32,
    group_key: SigningKey,
    opening_secret: EphemeralSecret,
    members: BTreeMap<MemberTag, RealIdentity>,
    next_tag: u64,
    seed: Vec<u8>,
}

impl GroupCoordinator {
    /// Creates a group with keys derived from `seed`.
    pub fn new(id: GroupId, seed: &[u8]) -> Self {
        let mut coordinator = GroupCoordinator {
            id,
            epoch: 0,
            group_key: SigningKey::from_seed(seed),
            opening_secret: EphemeralSecret::from_seed(seed),
            members: BTreeMap::new(),
            next_tag: 1,
            seed: seed.to_vec(),
        };
        coordinator.rekey();
        coordinator
    }

    fn rekey(&mut self) {
        self.epoch += 1;
        let mut ks = self.seed.clone();
        ks.extend_from_slice(b"group-key");
        ks.extend_from_slice(&self.epoch.to_be_bytes());
        self.group_key = SigningKey::from_seed(&ks);
        let mut os = self.seed.clone();
        os.extend_from_slice(b"opening-key");
        os.extend_from_slice(&self.epoch.to_be_bytes());
        self.opening_secret = EphemeralSecret::from_seed(&os);
    }

    /// This group's id.
    pub fn id(&self) -> GroupId {
        self.id
    }

    /// Current key epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The group public key verifiers use for the current epoch.
    pub fn group_public_key(&self) -> VerifyingKey {
        self.group_key.verifying_key()
    }

    /// Admits a member, returning its credential for the current epoch.
    /// The coordinator learns — and records — the real identity: this is the
    /// conditional-privacy trade-off of group schemes.
    pub fn admit(&mut self, identity: RealIdentity) -> MemberCredential {
        let tag = MemberTag(self.next_tag);
        self.next_tag += 1;
        self.members.insert(tag, identity);
        MemberCredential {
            group: self.id,
            epoch: self.epoch,
            tag,
            group_key: self.group_key,
            coordinator_share: self.opening_secret.public_share(),
        }
    }

    /// Number of current members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Revokes a member: removes it and rotates the group key. Returns fresh
    /// credentials for every remaining member — the O(group-size) rekey cost
    /// that replaces the pseudonym scheme's CRL.
    pub fn revoke(&mut self, tag: MemberTag) -> Vec<MemberCredential> {
        self.members.remove(&tag);
        self.rekey();
        let remaining: Vec<(MemberTag, RealIdentity)> =
            self.members.iter().map(|(t, i)| (*t, i.clone())).collect();
        remaining
            .into_iter()
            .map(|(tag, _)| MemberCredential {
                group: self.id,
                epoch: self.epoch,
                tag,
                group_key: self.group_key,
                coordinator_share: self.opening_secret.public_share(),
            })
            .collect()
    }

    /// Opens a message to the signing member's identity (coordinator-only
    /// trapdoor).
    ///
    /// # Errors
    ///
    /// [`AuthError::Malformed`] when the sealed tag does not decrypt,
    /// [`AuthError::Unknown`] when the tag is not a current member.
    pub fn open_message(&self, message: &GroupMessage) -> Result<&RealIdentity, AuthError> {
        let share = PublicShare::from_bytes(&message.eph_share).ok_or(AuthError::Malformed)?;
        let key = self.opening_secret.agree(&share, b"vc-group-open");
        let nonce = [0u8; 12];
        let tag_bytes =
            aead_open(&key.0, &nonce, &message.sealed_tag).ok_or(AuthError::Malformed)?;
        if tag_bytes.len() != 8 {
            return Err(AuthError::Malformed);
        }
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&tag_bytes);
        let tag = MemberTag(u64::from_be_bytes(arr));
        self.members.get(&tag).ok_or(AuthError::Unknown)
    }
}

/// Verifier-side check: constant cost, no CRL. Anyone holding the group
/// public key can run this.
///
/// # Errors
///
/// Returns the specific [`AuthError`] that failed.
pub fn verify(
    message: &GroupMessage,
    group_key: &VerifyingKey,
    current_epoch: u32,
    now: SimTime,
    replay_window: vc_sim::time::SimDuration,
) -> Result<(), AuthError> {
    if message.epoch != current_epoch {
        // Old-epoch signatures are exactly how revoked members get excluded.
        return Err(AuthError::Expired);
    }
    if message.sent_at > now || now.saturating_since(message.sent_at) > replay_window {
        return Err(AuthError::Replayed);
    }
    if !group_key.verify(&message.signed_bytes(), &message.signature) {
        return Err(AuthError::BadSignature);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::node::VehicleId;
    use vc_sim::time::SimDuration;

    fn window() -> SimDuration {
        SimDuration::from_secs(5)
    }

    fn setup() -> (GroupCoordinator, MemberCredential, MemberCredential) {
        let mut coord = GroupCoordinator::new(GroupId(1), b"group-1");
        let alice = coord.admit(RealIdentity::for_vehicle(VehicleId(1)));
        let bob = coord.admit(RealIdentity::for_vehicle(VehicleId(2)));
        (coord, alice, bob)
    }

    #[test]
    fn member_message_verifies() {
        let (coord, alice, _) = setup();
        let now = SimTime::from_secs(1);
        let msg = alice.sign(b"road slippery", now, 42);
        assert_eq!(verify(&msg, &coord.group_public_key(), coord.epoch(), now, window()), Ok(()));
    }

    #[test]
    fn outsider_cannot_forge() {
        let (coord, _, _) = setup();
        let outsider_key = SigningKey::from_seed(b"outsider");
        let now = SimTime::from_secs(1);
        // Build a message signed by a non-member key.
        let mut msg = {
            let mut other = GroupCoordinator::new(GroupId(2), b"other-group");
            let cred = other.admit(RealIdentity::for_vehicle(VehicleId(9)));
            cred.sign(b"fake", now, 1)
        };
        msg.group = coord.id();
        msg.epoch = coord.epoch();
        msg.signature = outsider_key.sign(&[1, 2, 3]);
        assert_eq!(
            verify(&msg, &coord.group_public_key(), coord.epoch(), now, window()),
            Err(AuthError::BadSignature)
        );
    }

    #[test]
    fn coordinator_opens_to_real_identity() {
        let (coord, alice, bob) = setup();
        let now = SimTime::from_secs(1);
        let m1 = alice.sign(b"a", now, 7);
        let m2 = bob.sign(b"b", now, 8);
        assert_eq!(coord.open_message(&m1).unwrap().0, "VIN-00000001");
        assert_eq!(coord.open_message(&m2).unwrap().0, "VIN-00000002");
    }

    #[test]
    fn members_cannot_open_each_other() {
        // A member holds the group key but not the opening secret; the best
        // it can try is decrypting with its own credential material, which
        // fails. We model this by checking a *different* coordinator cannot
        // open (same capability class as a member).
        let (_, alice, _) = setup();
        let other = GroupCoordinator::new(GroupId(3), b"not-the-coordinator");
        let msg = alice.sign(b"secret", SimTime::from_secs(1), 9);
        assert!(other.open_message(&msg).is_err());
    }

    #[test]
    fn messages_are_unlinkable_without_trapdoor() {
        // Two messages from the same member carry different sealed tags and
        // shares: no stable identifier beyond the group id.
        let (_, alice, _) = setup();
        let m1 = alice.sign(b"x", SimTime::from_secs(1), 1);
        let m2 = alice.sign(b"x", SimTime::from_secs(2), 2);
        assert_ne!(m1.sealed_tag, m2.sealed_tag);
        assert_ne!(m1.eph_share, m2.eph_share);
        assert_eq!(m1.group, m2.group);
    }

    #[test]
    fn revocation_rotates_epoch_and_invalidates_old_credentials() {
        let (mut coord, alice, bob) = setup();
        let now = SimTime::from_secs(1);
        let fresh = coord.revoke(alice.tag());
        assert_eq!(coord.member_count(), 1);
        assert_eq!(fresh.len(), 1);
        // Alice's old credential now signs for a stale epoch.
        let stale = alice.sign(b"still here?", now, 3);
        assert_eq!(
            verify(&stale, &coord.group_public_key(), coord.epoch(), now, window()),
            Err(AuthError::Expired)
        );
        // Bob's old credential is stale too; his refreshed one works.
        let bob_stale = bob.sign(b"hello", now, 4);
        assert_eq!(
            verify(&bob_stale, &coord.group_public_key(), coord.epoch(), now, window()),
            Err(AuthError::Expired)
        );
        let bob_fresh = &fresh[0];
        let ok = bob_fresh.sign(b"hello", now, 5);
        assert_eq!(verify(&ok, &coord.group_public_key(), coord.epoch(), now, window()), Ok(()));
    }

    #[test]
    fn replay_rejected() {
        let (coord, alice, _) = setup();
        let sent = SimTime::from_secs(1);
        let msg = alice.sign(b"m", sent, 1);
        let later = SimTime::from_secs(100);
        assert_eq!(
            verify(&msg, &coord.group_public_key(), coord.epoch(), later, window()),
            Err(AuthError::Replayed)
        );
    }

    #[test]
    fn tampered_payload_rejected() {
        let (coord, alice, _) = setup();
        let now = SimTime::from_secs(1);
        let mut msg = alice.sign(b"original", now, 1);
        msg.payload = b"tampered".to_vec();
        assert_eq!(
            verify(&msg, &coord.group_public_key(), coord.epoch(), now, window()),
            Err(AuthError::BadSignature)
        );
    }

    #[test]
    fn tampered_sealed_tag_rejected_at_signature() {
        let (coord, alice, _) = setup();
        let now = SimTime::from_secs(1);
        let mut msg = alice.sign(b"m", now, 1);
        msg.sealed_tag[0] ^= 1;
        // The tag is under the signature, so verification fails before opening.
        assert_eq!(
            verify(&msg, &coord.group_public_key(), coord.epoch(), now, window()),
            Err(AuthError::BadSignature)
        );
        assert!(coord.open_message(&msg).is_err());
    }

    #[test]
    fn overhead_is_reported() {
        let (_, alice, _) = setup();
        let msg = alice.sign(b"m", SimTime::from_secs(1), 1);
        // 8 group + 4 epoch + 64 sig + sealed(8+32 tag) + 32 share + 8 ts
        assert_eq!(msg.auth_overhead_bytes(), 8 + 4 + 64 + 40 + 32 + 8);
    }
}
