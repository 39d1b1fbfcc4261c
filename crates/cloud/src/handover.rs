//! Encrypted task-checkpoint handover (paper §III-A).
//!
//! "A more interesting problem would be how the vehicle hand\[s\] over the
//! unfinished, **encrypted** task to some other vehicles in v-cloud
//! environments without bring\[ing\] too much overhead."
//!
//! A departing host serializes its partial task state into a
//! [`Checkpoint`], seals it to the receiving host's public share
//! (DH-derived key + authenticated encryption), and ships it. Only the
//! designated receiver can open it; any in-transit tampering is detected.
//! The [`Scheduler`](crate::scheduler::Scheduler) models the *cost* of this
//! transfer; this module is the mechanism itself.

use vc_crypto::chacha20::{open as aead_open, seal as aead_seal};
use vc_crypto::dh::{EphemeralSecret, PublicShare};
use vc_sim::node::VehicleId;

use crate::task::TaskId;

/// A partial execution state worth preserving across hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The task being handed over.
    pub task: TaskId,
    /// Work already completed, GFLOP.
    pub done_gflop: f64,
    /// Opaque serialized task state (model weights, partial sums, …).
    pub state: Vec<u8>,
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 + 4 + self.state.len());
        out.extend_from_slice(&self.task.0.to_be_bytes());
        out.extend_from_slice(&self.done_gflop.to_be_bytes());
        out.extend_from_slice(&(self.state.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.state);
        out
    }

    fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        if bytes.len() < 20 {
            return None;
        }
        let task = TaskId(u64::from_be_bytes(bytes[0..8].try_into().ok()?));
        let done_gflop = f64::from_be_bytes(bytes[8..16].try_into().ok()?);
        let len = u32::from_be_bytes(bytes[16..20].try_into().ok()?) as usize;
        if bytes.len() != 20 + len || !done_gflop.is_finite() || done_gflop < 0.0 {
            return None;
        }
        Some(Checkpoint { task, done_gflop, state: bytes[20..].to_vec() })
    }
}

/// A checkpoint sealed to one receiving host.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedCheckpoint {
    /// The task (cleartext routing metadata).
    pub task: TaskId,
    /// Departing host.
    pub from: VehicleId,
    /// Designated receiver.
    pub to: VehicleId,
    /// Sender's ephemeral DH share.
    pub eph_share: [u8; 32],
    /// The encrypted, authenticated checkpoint body.
    pub sealed: Vec<u8>,
}

impl SealedCheckpoint {
    /// Wire size in bytes (what the scheduler charges the network).
    pub fn wire_len(&self) -> usize {
        8 + 4 + 4 + 32 + self.sealed.len()
    }
}

/// Seals `checkpoint` from `from` to the holder of `recipient_share`.
/// `entropy` seeds the per-transfer ephemeral key (pass RNG output).
pub fn seal_checkpoint(
    checkpoint: &Checkpoint,
    from: VehicleId,
    to: VehicleId,
    recipient_share: &PublicShare,
    entropy: u64,
) -> SealedCheckpoint {
    let mut seed = entropy.to_be_bytes().to_vec();
    seed.extend_from_slice(&from.0.to_be_bytes());
    seed.extend_from_slice(&to.0.to_be_bytes());
    seed.extend_from_slice(&checkpoint.task.0.to_be_bytes());
    let eph = EphemeralSecret::from_seed(&seed);
    let key = eph.agree(recipient_share, b"vc-checkpoint");
    let sealed = aead_seal(&key.0, &[0u8; 12], &checkpoint.encode());
    SealedCheckpoint {
        task: checkpoint.task,
        from,
        to,
        eph_share: eph.public_share().to_bytes(),
        sealed,
    }
}

/// Opens a sealed checkpoint with the recipient's long-term DH secret.
/// Returns `None` on wrong recipient, tampering, or a malformed body.
pub fn open_checkpoint(
    sealed: &SealedCheckpoint,
    recipient_secret: &EphemeralSecret,
) -> Option<Checkpoint> {
    let share = PublicShare::from_bytes(&sealed.eph_share)?;
    let key = recipient_secret.agree(&share, b"vc-checkpoint");
    let plaintext = aead_open(&key.0, &[0u8; 12], &sealed.sealed)?;
    let checkpoint = Checkpoint::decode(&plaintext)?;
    // The cleartext routing header must match the sealed content.
    if checkpoint.task != sealed.task {
        return None;
    }
    Some(checkpoint)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint() -> Checkpoint {
        Checkpoint { task: TaskId(7), done_gflop: 123.5, state: vec![1, 2, 3, 4, 5] }
    }

    fn recipient(seed: u8) -> EphemeralSecret {
        EphemeralSecret::from_seed(&[seed, 0xCC])
    }

    #[test]
    fn roundtrip() {
        let rx = recipient(1);
        let sealed =
            seal_checkpoint(&checkpoint(), VehicleId(1), VehicleId(2), &rx.public_share(), 42);
        let opened = open_checkpoint(&sealed, &rx).unwrap();
        assert_eq!(opened, checkpoint());
        assert!(sealed.wire_len() > 5 + 32);
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let rx = recipient(1);
        let thief = recipient(2);
        let sealed =
            seal_checkpoint(&checkpoint(), VehicleId(1), VehicleId(2), &rx.public_share(), 42);
        assert_eq!(open_checkpoint(&sealed, &thief), None);
    }

    #[test]
    fn tampered_body_detected() {
        let rx = recipient(1);
        let mut sealed =
            seal_checkpoint(&checkpoint(), VehicleId(1), VehicleId(2), &rx.public_share(), 42);
        sealed.sealed[0] ^= 1;
        assert_eq!(open_checkpoint(&sealed, &rx), None);
    }

    #[test]
    fn relabelled_task_header_detected() {
        // A relay rewrites the cleartext task id to smuggle the state into a
        // different task slot: must fail on the header/content cross-check.
        let rx = recipient(1);
        let mut sealed =
            seal_checkpoint(&checkpoint(), VehicleId(1), VehicleId(2), &rx.public_share(), 42);
        sealed.task = TaskId(99);
        assert_eq!(open_checkpoint(&sealed, &rx), None);
    }

    #[test]
    fn empty_state_roundtrips() {
        let rx = recipient(3);
        let cp = Checkpoint { task: TaskId(0), done_gflop: 0.0, state: vec![] };
        let sealed = seal_checkpoint(&cp, VehicleId(5), VehicleId(6), &rx.public_share(), 1);
        assert_eq!(open_checkpoint(&sealed, &rx).unwrap(), cp);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(Checkpoint::decode(&[]), None);
        assert_eq!(Checkpoint::decode(&[0u8; 19]), None);
        // Length field lies about the state length.
        let mut bytes = checkpoint().encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Checkpoint::decode(&bytes), None);
        // Negative / non-finite progress.
        let mut bad = checkpoint();
        bad.done_gflop = f64::NAN;
        assert_eq!(Checkpoint::decode(&bad.encode()), None);
    }

    #[test]
    fn distinct_transfers_distinct_ciphertexts() {
        let rx = recipient(1);
        let a = seal_checkpoint(&checkpoint(), VehicleId(1), VehicleId(2), &rx.public_share(), 1);
        let b = seal_checkpoint(&checkpoint(), VehicleId(1), VehicleId(2), &rx.public_share(), 2);
        assert_ne!(a.sealed, b.sealed, "fresh ephemeral per transfer");
        assert!(open_checkpoint(&a, &rx).is_some());
        assert!(open_checkpoint(&b, &rx).is_some());
    }
}
