//! Privacy-preserving lending incentives (paper §IV-B/§IV-C, after Kong et
//! al. \[17\] "a secure and privacy-preserving incentive framework for
//! vehicular cloud on the road" and \[18\]).
//!
//! Vehicles lend compute/storage only if lending pays. The bank (TA-run,
//! consulted offline like every authority here) issues **credit notes** to
//! pseudonyms against verified work receipts; notes transfer between
//! pseudonyms by endorsement (so a vehicle can spend under a different
//! pseudonym than it earned under — unlinkability across the earn/spend
//! boundary); double spending is caught at redemption by serial.

use std::collections::BTreeSet;
use vc_auth::pseudonym::PseudonymId;
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_crypto::sha256::{sha256_parts, Digest};

/// A transferable credit note.
#[derive(Debug, Clone, PartialEq)]
pub struct CreditNote {
    /// Unique serial (double-spend handle).
    pub serial: u64,
    /// Credit amount.
    pub amount: u32,
    /// The pseudonym key currently entitled to spend it.
    pub holder: VerifyingKey,
    /// Bank signature over (serial, amount, original holder).
    pub bank_signature: Signature,
    /// Endorsement chain: each entry transfers to a new holder key, signed
    /// by the previous holder.
    pub endorsements: Vec<Endorsement>,
    /// The first holder the bank issued to (anchor of the chain).
    original: VerifyingKey,
}

/// One transfer link.
#[derive(Debug, Clone, PartialEq)]
pub struct Endorsement {
    /// The new holder.
    pub to: VerifyingKey,
    /// Signature by the previous holder over (note digest so far, to).
    pub signature: Signature,
}

fn issue_bytes(serial: u64, amount: u32, holder: &VerifyingKey) -> Vec<u8> {
    let mut out = b"vc-credit-issue".to_vec();
    out.extend_from_slice(&serial.to_be_bytes());
    out.extend_from_slice(&amount.to_be_bytes());
    out.extend_from_slice(&holder.to_bytes());
    out
}

fn chain_digest(note: &CreditNote, upto: usize) -> Digest {
    let mut parts: Vec<Vec<u8>> =
        vec![issue_bytes(note.serial, note.amount, &original_holder(note))];
    for e in &note.endorsements[..upto] {
        let mut b = e.to.to_bytes().to_vec();
        b.extend_from_slice(&e.signature.to_bytes());
        parts.push(b);
    }
    let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
    sha256_parts(&refs)
}

fn original_holder(note: &CreditNote) -> VerifyingKey {
    // The holder field tracks the CURRENT holder; the original is the first
    // link's signer, recoverable only by walking backwards — so we store it
    // implicitly: with no endorsements, holder IS the original.
    if note.endorsements.is_empty() {
        note.holder
    } else {
        note.original
    }
}

// To keep the original holder recoverable we carry it explicitly.
impl CreditNote {
    /// The first holder the bank issued to.
    pub(crate) fn issued_to(&self) -> VerifyingKey {
        original_holder(self)
    }
}

/// Why a note failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditError {
    /// The bank signature is invalid.
    BadIssue,
    /// An endorsement signature is invalid.
    BadEndorsement,
    /// The serial was already redeemed.
    DoubleSpend,
    /// The spender is not the current holder.
    NotHolder,
}

impl std::fmt::Display for CreditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CreditError::BadIssue => "bank signature invalid",
            CreditError::BadEndorsement => "endorsement invalid",
            CreditError::DoubleSpend => "serial already redeemed",
            CreditError::NotHolder => "spender does not hold the note",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CreditError {}

/// The credit bank.
#[derive(Debug)]
pub struct CreditBank {
    key: SigningKey,
    next_serial: u64,
    redeemed: BTreeSet<u64>,
    /// Total credit issued (auditing).
    pub issued_total: u64,
}

impl CreditBank {
    /// Creates a bank from seed material.
    pub fn new(seed: &[u8]) -> Self {
        CreditBank {
            key: SigningKey::from_seed(seed),
            next_serial: 1,
            redeemed: BTreeSet::new(),
            issued_total: 0,
        }
    }

    /// The bank's public key (vehicles verify notes offline against it).
    pub fn public_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// Issues a note of `amount` to the holder of `holder` (typically upon a
    /// verified [`ResultReceipt`](crate::verify::ResultReceipt); the link is
    /// policy at the broker, not enforced here). `_earner` is recorded for
    /// audit symmetry with the pseudonym escrow.
    pub fn issue(&mut self, holder: VerifyingKey, amount: u32, _earner: PseudonymId) -> CreditNote {
        let serial = self.next_serial;
        self.next_serial += 1;
        self.issued_total += amount as u64;
        let bank_signature = self.key.sign(&issue_bytes(serial, amount, &holder));
        CreditNote {
            serial,
            amount,
            holder,
            bank_signature,
            endorsements: Vec::new(),
            original: holder,
        }
    }

    /// Validates a note offline (no spend): bank signature + endorsement
    /// chain + current holder consistency.
    ///
    /// # Errors
    ///
    /// See [`CreditError`].
    pub fn validate(&self, note: &CreditNote) -> Result<(), CreditError> {
        if !self
            .public_key()
            .verify(&issue_bytes(note.serial, note.amount, &note.issued_to()), &note.bank_signature)
        {
            return Err(CreditError::BadIssue);
        }
        let mut current = note.issued_to();
        for (i, e) in note.endorsements.iter().enumerate() {
            let digest = chain_digest(note, i);
            let mut body = b"vc-credit-endorse".to_vec();
            body.extend_from_slice(&digest);
            body.extend_from_slice(&e.to.to_bytes());
            if !current.verify(&body, &e.signature) {
                return Err(CreditError::BadEndorsement);
            }
            current = e.to;
        }
        if current != note.holder {
            return Err(CreditError::NotHolder);
        }
        Ok(())
    }

    /// Redeems a note: validates, checks the serial, marks it spent.
    ///
    /// # Errors
    ///
    /// See [`CreditError`].
    pub fn redeem(&mut self, note: &CreditNote) -> Result<u32, CreditError> {
        self.validate(note)?;
        if !self.redeemed.insert(note.serial) {
            return Err(CreditError::DoubleSpend);
        }
        Ok(note.amount)
    }
}

/// Holder-side transfer: endorses the note to `to` with the holder's key.
///
/// # Errors
///
/// [`CreditError::NotHolder`] when `holder_key` does not match the note's
/// current holder.
pub fn transfer(
    note: &CreditNote,
    holder_key: &SigningKey,
    to: VerifyingKey,
) -> Result<CreditNote, CreditError> {
    if holder_key.verifying_key() != note.holder {
        return Err(CreditError::NotHolder);
    }
    let digest = chain_digest(note, note.endorsements.len());
    let mut body = b"vc-credit-endorse".to_vec();
    body.extend_from_slice(&digest);
    body.extend_from_slice(&to.to_bytes());
    let signature = holder_key.sign(&body);
    let mut out = note.clone();
    out.endorsements.push(Endorsement { to, signature });
    out.holder = to;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> (SigningKey, SigningKey) {
        (SigningKey::from_seed(b"earn-pseudonym"), SigningKey::from_seed(b"spend-pseudonym"))
    }

    #[test]
    fn issue_validate_redeem() {
        let mut bank = CreditBank::new(b"bank");
        let (earner, _) = keys();
        let note = bank.issue(earner.verifying_key(), 50, PseudonymId(1));
        assert_eq!(bank.validate(&note), Ok(()));
        assert_eq!(bank.redeem(&note), Ok(50));
        assert_eq!(bank.issued_total, 50);
    }

    #[test]
    fn double_spend_rejected() {
        let mut bank = CreditBank::new(b"bank");
        let (earner, _) = keys();
        let note = bank.issue(earner.verifying_key(), 10, PseudonymId(1));
        assert_eq!(bank.redeem(&note), Ok(10));
        assert_eq!(bank.redeem(&note), Err(CreditError::DoubleSpend));
    }

    #[test]
    fn transfer_changes_spender() {
        let mut bank = CreditBank::new(b"bank");
        let (earner, spender) = keys();
        let note = bank.issue(earner.verifying_key(), 25, PseudonymId(1));
        let moved = transfer(&note, &earner, spender.verifying_key()).unwrap();
        assert_eq!(bank.validate(&moved), Ok(()));
        assert_eq!(moved.holder, spender.verifying_key());
        assert_eq!(bank.redeem(&moved), Ok(25));
        // The original (pre-transfer) copy is the same serial: spent.
        assert_eq!(bank.redeem(&note), Err(CreditError::DoubleSpend));
    }

    #[test]
    fn multi_hop_transfer_chain() {
        let mut bank = CreditBank::new(b"bank");
        let a = SigningKey::from_seed(b"a");
        let b = SigningKey::from_seed(b"b");
        let c = SigningKey::from_seed(b"c");
        let note = bank.issue(a.verifying_key(), 5, PseudonymId(1));
        let n2 = transfer(&note, &a, b.verifying_key()).unwrap();
        let n3 = transfer(&n2, &b, c.verifying_key()).unwrap();
        assert_eq!(bank.validate(&n3), Ok(()));
        assert_eq!(n3.endorsements.len(), 2);
        assert_eq!(bank.redeem(&n3), Ok(5));
    }

    #[test]
    fn non_holder_cannot_transfer() {
        let mut bank = CreditBank::new(b"bank");
        let (earner, _) = keys();
        let thief = SigningKey::from_seed(b"thief");
        let note = bank.issue(earner.verifying_key(), 5, PseudonymId(1));
        assert_eq!(
            transfer(&note, &thief, thief.verifying_key()).unwrap_err(),
            CreditError::NotHolder
        );
        let _ = bank;
    }

    #[test]
    fn forged_note_and_forged_endorsement_rejected() {
        let mut bank = CreditBank::new(b"bank");
        let rogue_bank = CreditBank::new(b"rogue");
        let (earner, spender) = keys();
        // A note "issued" by a rogue bank.
        let mut rogue = rogue_bank;
        let fake = rogue.issue(earner.verifying_key(), 1000, PseudonymId(1));
        assert_eq!(bank.validate(&fake), Err(CreditError::BadIssue));
        // A real note with a forged endorsement.
        let note = bank.issue(earner.verifying_key(), 10, PseudonymId(1));
        let mut forged = note.clone();
        let thief = SigningKey::from_seed(b"thief");
        let digest = chain_digest(&forged, 0);
        let mut body = b"vc-credit-endorse".to_vec();
        body.extend_from_slice(&digest);
        body.extend_from_slice(&thief.verifying_key().to_bytes());
        forged
            .endorsements
            .push(Endorsement { to: thief.verifying_key(), signature: thief.sign(&body) });
        forged.holder = thief.verifying_key();
        assert_eq!(bank.validate(&forged), Err(CreditError::BadEndorsement));
        let _ = spender;
    }

    #[test]
    fn tampered_amount_rejected() {
        let mut bank = CreditBank::new(b"bank");
        let (earner, _) = keys();
        let mut note = bank.issue(earner.verifying_key(), 10, PseudonymId(1));
        note.amount = 10_000;
        assert_eq!(bank.validate(&note), Err(CreditError::BadIssue));
    }
}
