//! Pseudonym-based authentication (paper §IV-B.1, Fig. 5 left).
//!
//! Each vehicle is provisioned with a **pool of pseudonym certificates** at
//! registration. A message is signed under the *current* pseudonym's key and
//! carries the certificate; the verifier checks the TA's signature on the
//! certificate, the message signature, the validity window, and scans the
//! certificate revocation list (CRL).
//!
//! The two drawbacks Fig. 5 calls out are deliberately reproduced so E4 can
//! measure them: (1) per-message overhead is high (full cert + two
//! signatures + CRL scan whose cost grows linearly with revocations), and
//! (2) privacy is *conditional* — the TA keeps the pseudonym→identity map,
//! and an eavesdropper can link all messages sent under one pseudonym
//! between rotations.

use crate::identity::{AuthError, RealIdentity, TrustedAuthority};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, PoisonError};
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_crypto::sha256::{compress_lanes, sha256_parts};
use vc_sim::time::SimTime;

/// Identifier of a pseudonym certificate (random-looking, TA-issued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PseudonymId(pub u64);

/// A per-vehicle linkage seed, published on the CRL when the vehicle is
/// revoked (SCMS-style): one CRL entry revokes the vehicle's *entire*
/// pseudonym pool, but checking a certificate against it costs one keyed
/// hash per entry — the linear, per-message CRL cost Fig. 5 complains
/// about. A verifier pays that hash through [`crl_matches`] (≈ 90 ns per
/// entry, sixteen entries per kernel call); [`LinkageSeed::linkage_value`]
/// is the one-at-a-time form (≈ 300 ns) that issuance uses and the scan is
/// tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkageSeed(pub [u8; 16]);

/// Domain-separation prefix of the linkage-value hash.
const LINKAGE_DOMAIN: &[u8; 10] = b"vc-linkage";

impl LinkageSeed {
    /// Derives the (truncated) linkage value a certificate with this seed
    /// carries: the first 8 bytes of
    /// `SHA-256("vc-linkage" ‖ seed ‖ cert_id)`.
    pub fn linkage_value(&self, cert: PseudonymId) -> [u8; 8] {
        let digest = sha256_parts(&[LINKAGE_DOMAIN, &self.0, &cert.0.to_be_bytes()]);
        let mut out = [0u8; 8];
        out.copy_from_slice(&digest[..8]);
        out
    }
}

/// CRL entries hashed per kernel call. Measured, not tunable: 4 and 8 lanes
/// leave the 4-wide SSE2 units waiting on the round's dependency chain, and
/// 32 are no stable win for twice the stack (table in docs/CRYPTO.md).
const SCAN_LANES: usize = 16;

/// The CRL scan: whether the certificate `(id, linkage_value)` belongs to
/// any of the revoked `seeds`, i.e. whether
/// `seed.linkage_value(id) == linkage_value` for some entry. Still one
/// keyed hash per entry, in list order — the linear cost Fig. 5 charges
/// pseudonym authentication with — but sixteen entries at a time through
/// [`compress_lanes`], at ≈ 90 ns per entry instead of the streaming
/// hasher's ≈ 300.
///
/// The 34-byte message `"vc-linkage" ‖ seed ‖ id` pads into a single
/// SHA-256 block in which only the seed's bytes 10..26 (words 2..=6) differ
/// between entries, so each group rewrites five words per lane of one
/// prepared block, and only the first two digest words are compared. A hit
/// ends the scan at its group; the `len % 16` tail goes through
/// [`LinkageSeed::linkage_value`].
pub fn crl_matches(seeds: &[LinkageSeed], id: PseudonymId, linkage_value: [u8; 8]) -> bool {
    const SEED_AT: usize = LINKAGE_DOMAIN.len();
    const ID_AT: usize = SEED_AT + 16;
    const END: usize = ID_AT + 8;
    // The words any seed byte falls in.
    const FIRST: usize = SEED_AT / 4;
    const LAST: usize = (ID_AT - 1) / 4;
    fn be_words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
        bytes.chunks_exact(4).map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
    }
    // The padded block every entry shares, seed bytes still zero.
    let mut message = [0u8; 64];
    message[..SEED_AT].copy_from_slice(LINKAGE_DOMAIN);
    message[ID_AT..END].copy_from_slice(&id.0.to_be_bytes());
    message[END] = 0x80;
    message[56..].copy_from_slice(&(8 * END as u64).to_be_bytes());
    let mut blocks = [[0u32; SCAN_LANES]; 16];
    for (word, shared) in blocks.iter_mut().zip(be_words(&message)) {
        *word = [shared; SCAN_LANES];
    }
    let want = u64::from_be_bytes(linkage_value);
    let (want0, want1) = ((want >> 32) as u32, want as u32);

    let groups = seeds.chunks_exact(SCAN_LANES);
    let tail = groups.remainder();
    for group in groups {
        for (lane, seed) in group.iter().enumerate() {
            message[SEED_AT..ID_AT].copy_from_slice(&seed.0);
            for (word, own) in blocks[FIRST..=LAST].iter_mut().zip(be_words(&message[4 * FIRST..]))
            {
                word[lane] = own;
            }
        }
        let digests = compress_lanes(&blocks);
        if (0..SCAN_LANES).any(|lane| digests[0][lane] == want0 && digests[1][lane] == want1) {
            return true;
        }
    }
    tail.iter().any(|seed| seed.linkage_value(id) == linkage_value)
}

/// A pseudonym certificate: binds a pseudonym id to a verification key under
/// the TA's signature, with a validity window.
#[derive(Debug, Clone, PartialEq)]
pub struct PseudonymCert {
    /// The pseudonym identifier (what the air interface reveals).
    pub id: PseudonymId,
    /// The pseudonym's verification key.
    pub key: VerifyingKey,
    /// The linkage value tying this cert to its (hidden) vehicle seed.
    pub linkage_value: [u8; 8],
    /// First instant at which the certificate is valid.
    pub valid_from: SimTime,
    /// Expiry instant.
    pub valid_until: SimTime,
    /// TA signature over the above.
    pub ta_signature: Signature,
}

impl PseudonymCert {
    fn signed_bytes(
        id: PseudonymId,
        key: &VerifyingKey,
        linkage_value: &[u8; 8],
        from: SimTime,
        until: SimTime,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 32 + 8 + 16);
        out.extend_from_slice(&id.0.to_be_bytes());
        out.extend_from_slice(&key.to_bytes());
        out.extend_from_slice(linkage_value);
        out.extend_from_slice(&from.as_micros().to_be_bytes());
        out.extend_from_slice(&until.as_micros().to_be_bytes());
        out
    }

    /// Serialized size on the wire, bytes.
    pub const WIRE_LEN: usize = 8 + 32 + 8 + 16 + 64;
}

/// A message authenticated under a pseudonym.
#[derive(Debug, Clone)]
pub struct PseudonymMessage {
    /// The attached certificate.
    pub cert: PseudonymCert,
    /// Signature over `payload || timestamp` under the pseudonym key.
    pub signature: Signature,
    /// Claimed send time (replay defense pairs this with a window).
    pub sent_at: SimTime,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl PseudonymMessage {
    /// Bytes of authentication overhead this message carries.
    pub fn auth_overhead_bytes(&self) -> usize {
        PseudonymCert::WIRE_LEN + 64 + 8
    }
}

/// The vehicle-side pseudonym wallet: the provisioned pool plus rotation
/// state.
#[derive(Debug)]
pub struct PseudonymWallet {
    real_identity: RealIdentity,
    certs: Vec<PseudonymCert>,
    keys: Vec<SigningKey>,
    current: usize,
}

impl PseudonymWallet {
    /// Number of pseudonyms remaining in the pool.
    pub fn pool_size(&self) -> usize {
        self.certs.len()
    }

    /// The pseudonym currently in use.
    pub fn current_pseudonym(&self) -> PseudonymId {
        self.certs[self.current].id
    }

    /// Rotates to the next pseudonym in the pool (wrapping). Rotation is the
    /// unlinkability lever: the more often a vehicle rotates, the shorter
    /// the window an eavesdropper can link.
    pub fn rotate(&mut self) {
        self.current = (self.current + 1) % self.certs.len();
    }

    /// Signs `payload` at `now` under the current pseudonym.
    pub fn sign(&self, payload: &[u8], now: SimTime) -> PseudonymMessage {
        let cert = self.certs[self.current].clone();
        let key = &self.keys[self.current];
        let mut to_sign = payload.to_vec();
        to_sign.extend_from_slice(&now.as_micros().to_be_bytes());
        PseudonymMessage {
            cert,
            signature: key.sign(&to_sign),
            sent_at: now,
            payload: payload.to_vec(),
        }
    }

    /// The real identity this wallet belongs to (vehicle-local knowledge,
    /// never transmitted).
    pub fn real_identity(&self) -> &RealIdentity {
        &self.real_identity
    }

    /// The certificate currently in use (what a peer would see on the air
    /// interface; session caches key on its pseudonym key).
    pub fn current_cert(&self) -> &PseudonymCert {
        &self.certs[self.current]
    }
}

/// The TA-side pseudonym registry: issuance, the pseudonym→identity escrow
/// map, and the CRL.
#[derive(Debug, Default)]
pub struct PseudonymRegistry {
    /// Escrow: pseudonym → real identity (what makes privacy *conditional*).
    escrow: BTreeMap<PseudonymId, RealIdentity>,
    /// Per-identity linkage seeds (published to the CRL on revocation).
    seeds: BTreeMap<RealIdentity, LinkageSeed>,
    /// The certificate revocation list, as distributed to vehicles, with
    /// the verdict memo every verifier reading it shares.
    crl: CrlFront,
    next_id: u64,
}

impl PseudonymRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PseudonymRegistry::default()
    }

    /// Issues a wallet of `pool_size` pseudonyms to a registered vehicle.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError::Unknown`] if the identity is not registered with
    /// the TA, or [`AuthError::Revoked`] if it is revoked.
    pub fn issue_wallet(
        &mut self,
        ta: &TrustedAuthority,
        identity: &RealIdentity,
        pool_size: usize,
        valid_from: SimTime,
        valid_until: SimTime,
        key_seed: &[u8],
    ) -> Result<PseudonymWallet, AuthError> {
        if !ta.is_registered(identity) {
            return Err(AuthError::Unknown);
        }
        if ta.is_revoked(identity) {
            return Err(AuthError::Revoked);
        }
        // One linkage seed per vehicle, derived at first issuance.
        let seed = *self.seeds.entry(identity.clone()).or_insert_with(|| {
            let digest = sha256_parts(&[b"vc-linkage-seed", identity.0.as_bytes()]);
            let mut s = [0u8; 16];
            s.copy_from_slice(&digest[..16]);
            LinkageSeed(s)
        });
        let mut certs = Vec::with_capacity(pool_size);
        let mut keys = Vec::with_capacity(pool_size);
        for i in 0..pool_size {
            let id = PseudonymId(self.next_id);
            self.next_id += 1;
            let mut kseed = key_seed.to_vec();
            kseed.extend_from_slice(&i.to_be_bytes());
            kseed.extend_from_slice(&id.0.to_be_bytes());
            let sk = SigningKey::from_seed(&kseed);
            let vk = sk.verifying_key();
            let linkage_value = seed.linkage_value(id);
            let body =
                PseudonymCert::signed_bytes(id, &vk, &linkage_value, valid_from, valid_until);
            let ta_signature = ta.signing_key().sign(&body);
            certs.push(PseudonymCert {
                id,
                key: vk,
                linkage_value,
                valid_from,
                valid_until,
                ta_signature,
            });
            keys.push(sk);
            self.escrow.insert(id, identity.clone());
        }
        Ok(PseudonymWallet { real_identity: identity.clone(), certs, keys, current: 0 })
    }

    /// Revokes an identity by publishing its linkage seed: one CRL entry
    /// kills the vehicle's entire pseudonym pool, but a check now pays one
    /// keyed hash *per CRL entry* — the cost E4 measures. The seed lands in
    /// the sorted, deduped list, and a new seed clears the CRL's verdict
    /// memo, so no verdict memoized before the revocation survives it.
    pub fn revoke_identity(&mut self, identity: &RealIdentity) {
        if let Some(&seed) = self.seeds.get(identity) {
            self.crl.insert(seed);
        }
    }

    /// The CRL as currently distributed, sorted by seed bytes (the scan
    /// outcome is order-independent, so sorting changes no verdict). It
    /// derefs to the seed slice; [`verify_with_front`] and
    /// [`CrlFront::is_revoked_cert`] answer through its shared memo.
    pub fn crl(&self) -> &CrlFront {
        &self.crl
    }

    /// Load-testing hook: injects a synthetic revoked seed without issuing
    /// wallets (used by the CRL-scaling benchmarks; not part of the
    /// protocol). Same path as [`PseudonymRegistry::revoke_identity`].
    pub fn inject_revoked_seed(&mut self, seed: LinkageSeed) {
        self.crl.insert(seed);
    }

    /// The linkage seed issued to `identity`, for tests that revoke it by
    /// injection.
    #[cfg(test)]
    pub(crate) fn seed_of(&self, identity: &RealIdentity) -> LinkageSeed {
        self.seeds[identity]
    }

    /// Audit interface: opens a pseudonym to the real identity (dispute
    /// resolution — the "conditional" in conditional privacy).
    pub fn audit_open(&self, pseudonym: PseudonymId) -> Option<&RealIdentity> {
        self.escrow.get(&pseudonym)
    }

    /// Number of pseudonyms ever issued.
    pub fn issued_count(&self) -> usize {
        self.escrow.len()
    }
}

/// The five verifier-side checks shared by [`verify`] and
/// [`verify_with_front`], which differ only in how step 3 answers "does this
/// certificate match a revoked seed?". Check order is the error precedence.
fn verify_checks(
    message: &PseudonymMessage,
    ta_key: &VerifyingKey,
    is_revoked: impl FnOnce(&PseudonymCert) -> bool,
    now: SimTime,
    replay_window: vc_sim::time::SimDuration,
) -> Result<(), AuthError> {
    // 1. Validity window.
    if now < message.cert.valid_from || now > message.cert.valid_until {
        return Err(AuthError::Expired);
    }
    // 2. Replay window on the claimed timestamp.
    if message.sent_at > now || now.saturating_since(message.sent_at) > replay_window {
        return Err(AuthError::Replayed);
    }
    // 3. Revocation.
    if is_revoked(&message.cert) {
        return Err(AuthError::Revoked);
    }
    // 4. TA signature over the certificate.
    let body = PseudonymCert::signed_bytes(
        message.cert.id,
        &message.cert.key,
        &message.cert.linkage_value,
        message.cert.valid_from,
        message.cert.valid_until,
    );
    if !ta_key.verify(&body, &message.cert.ta_signature) {
        return Err(AuthError::BadCredential);
    }
    // 5. Message signature under the pseudonym key.
    let mut to_check = message.payload.clone();
    to_check.extend_from_slice(&message.sent_at.as_micros().to_be_bytes());
    if !message.cert.key.verify(&to_check, &message.signature) {
        return Err(AuthError::BadSignature);
    }
    Ok(())
}

/// Verifier-side check. This is what every receiving vehicle runs per
/// message; its cost (two signature verifications, ≈ 21 µs, plus a linear
/// CRL scan through [`crl_matches`], ≈ 90 ns per revoked vehicle — 0.95 ms
/// at 10 000) is the protocol's verify-side price.
///
/// # Errors
///
/// Returns the specific [`AuthError`] that failed.
pub fn verify(
    message: &PseudonymMessage,
    ta_key: &VerifyingKey,
    crl: &[LinkageSeed],
    now: SimTime,
    replay_window: vc_sim::time::SimDuration,
) -> Result<(), AuthError> {
    // CRL scan — one keyed hash per revoked vehicle, as in deployed
    // linkage-value CRLs. This is the linear cost the paper calls
    // "time-consuming" for huge revocation pools.
    let scan = |cert: &PseudonymCert| crl_matches(crl, cert.id, cert.linkage_value);
    verify_checks(message, ta_key, scan, now, replay_window)
}

/// Memoized scan verdicts, keyed by certificate `(id, linkage_value)`.
type VerdictMemo = BTreeMap<(PseudonymId, [u8; 8]), bool>;

/// The CRL with a memo in front: a sorted, deduped seed list and a bounded
/// memo of per-certificate revocation verdicts, so each *distinct*
/// certificate pays the linear linkage-value scan at most once.
/// [`PseudonymRegistry::crl`] hands one out, so every verifier reading the
/// registry — both sides of every handshake included — shares its memo.
///
/// The front is a pure cache: [`verify_with_front`] returns exactly what
/// [`verify`] returns against `CrlFront::seeds()`. The linkage-value CRL
/// match is a keyed hash per entry (≈ 90 ns each through [`crl_matches`])
/// — sorting alone cannot answer "is this cert revoked?", so the front
/// memoizes scan verdicts keyed by `(PseudonymId, linkage_value)` instead.
///
/// Readers take `&CrlFront`: the memo sits behind a [`Mutex`], and a
/// poisoned lock is recovered rather than propagated (every memo entry is a
/// finished scan verdict, so a panic elsewhere cannot leave a wrong one).
/// Seeds change only through `&mut self`, which clears the memo whenever a
/// seed is new, so no reader ever sees a verdict older than the seeds. The
/// front derefs to its seed slice, for the linear [`verify`] and
/// [`crl_matches`].
#[derive(Debug)]
pub struct CrlFront {
    /// Sorted, deduped CRL seeds.
    seeds: Vec<LinkageSeed>,
    /// Memoized per-certificate scan verdicts.
    memo: Mutex<VerdictMemo>,
    /// Memo capacity; the memo is cleared (deterministically) when full.
    memo_cap: usize,
}

impl CrlFront {
    /// Default bound on memoized certificate verdicts (~48 B each).
    pub const DEFAULT_MEMO_CAP: usize = 4096;

    /// Builds a front over a CRL snapshot. The input need not be sorted;
    /// the front sorts and dedupes its own copy.
    pub fn new(crl: &[LinkageSeed]) -> Self {
        let mut seeds = crl.to_vec();
        seeds.sort_unstable();
        seeds.dedup();
        CrlFront { seeds, memo: Mutex::default(), memo_cap: Self::DEFAULT_MEMO_CAP }
    }

    /// The sorted, deduped seeds this front answers for.
    pub fn seeds(&self) -> &[LinkageSeed] {
        &self.seeds
    }

    /// Adds a revoked seed, keeping the list sorted and deduped. A seed
    /// that is new clears the memo: a certificate memoized as unrevoked may
    /// match it.
    fn insert(&mut self, seed: LinkageSeed) {
        if let Err(pos) = self.seeds.binary_search(&seed) {
            self.seeds.insert(pos, seed);
            self.memo.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    fn memo(&self) -> MutexGuard<'_, VerdictMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a certificate `(id, linkage_value)` matches any revoked seed.
    /// First sighting of a certificate pays the full linear scan (the same
    /// [`crl_matches`] as [`verify`]), outside the lock; repeats are one
    /// BTreeMap lookup.
    pub fn is_revoked_cert(&self, id: PseudonymId, linkage_value: [u8; 8]) -> bool {
        if let Some(&hit) = self.memo().get(&(id, linkage_value)) {
            return hit;
        }
        let hit = crl_matches(&self.seeds, id, linkage_value);
        let mut memo = self.memo();
        if memo.len() >= self.memo_cap {
            // Bounded and deterministic: drop the whole memo rather than
            // tracking recency. Refill cost is one scan per live cert.
            memo.clear();
        }
        memo.insert((id, linkage_value), hit);
        hit
    }

    /// Number of memoized certificate verdicts (observability hook).
    pub fn memo_len(&self) -> usize {
        self.memo().len()
    }
}

impl Default for CrlFront {
    fn default() -> Self {
        CrlFront::new(&[])
    }
}

/// A clone carries the memo as it stands; later fills of either copy stay
/// in that copy.
impl Clone for CrlFront {
    fn clone(&self) -> Self {
        CrlFront {
            seeds: self.seeds.clone(),
            memo: Mutex::new(self.memo().clone()),
            memo_cap: self.memo_cap,
        }
    }
}

impl Deref for CrlFront {
    type Target = [LinkageSeed];

    fn deref(&self) -> &[LinkageSeed] {
        &self.seeds
    }
}

impl vc_obs::MemSize for CrlFront {
    fn mem_bytes(&self) -> u64 {
        (self.seeds.capacity() * std::mem::size_of::<LinkageSeed>()
            + self.memo_len() * (std::mem::size_of::<(PseudonymId, [u8; 8])>() + 1)) as u64
    }
}

/// [`verify`] with the CRL scan routed through a [`CrlFront`]. Returns
/// exactly what `verify(message, ta_key, front.seeds(), now, replay_window)`
/// would: same checks, same order, same error. The only difference is cost —
/// repeat certificates skip the linear linkage scan.
///
/// # Errors
///
/// Returns the specific [`AuthError`] that failed.
pub fn verify_with_front(
    message: &PseudonymMessage,
    ta_key: &VerifyingKey,
    front: &CrlFront,
    now: SimTime,
    replay_window: vc_sim::time::SimDuration,
) -> Result<(), AuthError> {
    // Memoized CRL verdict (first sighting pays the same linear scan).
    let memoized = |cert: &PseudonymCert| front.is_revoked_cert(cert.id, cert.linkage_value);
    verify_checks(message, ta_key, memoized, now, replay_window)
}

impl vc_obs::MemSize for PseudonymId {
    fn mem_bytes(&self) -> u64 {
        0
    }
}

impl vc_obs::MemSize for LinkageSeed {
    fn mem_bytes(&self) -> u64 {
        0
    }
}

impl vc_obs::MemSize for PseudonymCert {
    // Ids, keys, linkage values, and signatures are all inline.
    fn mem_bytes(&self) -> u64 {
        0
    }
}

impl vc_obs::MemSize for PseudonymWallet {
    fn mem_bytes(&self) -> u64 {
        (self.certs.capacity() * std::mem::size_of::<PseudonymCert>()) as u64
            + (self.keys.capacity() * std::mem::size_of::<SigningKey>()) as u64
            + self.real_identity.mem_bytes()
    }
}

impl vc_obs::MemSize for PseudonymRegistry {
    fn mem_bytes(&self) -> u64 {
        self.escrow.mem_bytes() + self.seeds.mem_bytes() + self.crl.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::node::VehicleId;
    use vc_sim::time::SimDuration;

    fn setup() -> (TrustedAuthority, PseudonymRegistry, PseudonymWallet) {
        let mut ta = TrustedAuthority::new(b"ta");
        let mut reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(1));
        ta.register(id.clone(), VehicleId(1));
        let wallet = reg
            .issue_wallet(&ta, &id, 5, SimTime::ZERO, SimTime::from_secs(3600), b"v1-seed")
            .unwrap();
        (ta, reg, wallet)
    }

    fn window() -> SimDuration {
        SimDuration::from_secs(5)
    }

    #[test]
    fn wallet_and_registry_footprints_track_pool_and_crl() {
        use vc_obs::MemSize;
        let (_ta, reg, wallet) = setup();
        let wallet_bytes = wallet.mem_bytes();
        let reg_bytes = reg.mem_bytes();
        assert!(wallet_bytes > 0 && reg_bytes > 0);
        // A bigger pool and a revocation both grow the measured footprint.
        let mut ta = TrustedAuthority::new(b"ta2");
        let mut big_reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(id.clone(), VehicleId(2));
        let big = big_reg
            .issue_wallet(&ta, &id, 50, SimTime::ZERO, SimTime::from_secs(3600), b"v2-seed")
            .unwrap();
        assert!(big.mem_bytes() > wallet_bytes);
        let before = big_reg.mem_bytes();
        big_reg.revoke_identity(&id);
        assert!(big_reg.mem_bytes() > before, "CRL entry must register");
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (ta, reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", now);
        assert_eq!(verify(&msg, &ta.public_key(), reg.crl(), now, window()), Ok(()));
    }

    #[test]
    fn unregistered_vehicle_cannot_get_wallet() {
        let ta = TrustedAuthority::new(b"ta");
        let mut reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(9));
        let err =
            reg.issue_wallet(&ta, &id, 3, SimTime::ZERO, SimTime::from_secs(10), b"s").unwrap_err();
        assert_eq!(err, AuthError::Unknown);
    }

    #[test]
    fn revoked_vehicle_cannot_get_wallet() {
        let mut ta = TrustedAuthority::new(b"ta");
        let mut reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(id.clone(), VehicleId(2));
        ta.revoke(&id);
        let err =
            reg.issue_wallet(&ta, &id, 3, SimTime::ZERO, SimTime::from_secs(10), b"s").unwrap_err();
        assert_eq!(err, AuthError::Revoked);
    }

    #[test]
    fn tampered_payload_rejected() {
        let (ta, reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let mut msg = wallet.sign(b"beacon", now);
        msg.payload = b"forged".to_vec();
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), now, window()),
            Err(AuthError::BadSignature)
        );
    }

    #[test]
    fn forged_cert_rejected() {
        let (ta, reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let mut msg = wallet.sign(b"beacon", now);
        // Extend own validity without TA blessing.
        msg.cert.valid_until = SimTime::from_secs(999_999);
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), now, window()),
            Err(AuthError::BadCredential)
        );
    }

    #[test]
    fn expired_cert_rejected() {
        let (ta, reg, wallet) = setup();
        let late = SimTime::from_secs(4000);
        let msg = wallet.sign(b"beacon", late);
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), late, window()),
            Err(AuthError::Expired)
        );
    }

    #[test]
    fn replayed_message_rejected() {
        let (ta, reg, wallet) = setup();
        let sent = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", sent);
        // Replay 30 s later: outside the 5 s window.
        let later = SimTime::from_secs(40);
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), later, window()),
            Err(AuthError::Replayed)
        );
        // Claimed future timestamp also rejected.
        let early = SimTime::from_secs(5);
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), early, window()),
            Err(AuthError::Replayed)
        );
    }

    #[test]
    fn revocation_hits_all_pseudonyms_of_identity() {
        let (ta, mut reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", now);
        reg.revoke_identity(wallet.real_identity());
        assert_eq!(reg.crl().len(), 1, "one linkage seed revokes the whole pool");
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), now, window()),
            Err(AuthError::Revoked)
        );
    }

    #[test]
    fn rotation_changes_observable_id_but_stays_valid() {
        let (ta, reg, mut wallet) = setup();
        let now = SimTime::from_secs(10);
        let before = wallet.current_pseudonym();
        let m1 = wallet.sign(b"a", now);
        wallet.rotate();
        let after = wallet.current_pseudonym();
        let m2 = wallet.sign(b"b", now);
        assert_ne!(before, after);
        assert_ne!(m1.cert.id, m2.cert.id);
        assert_eq!(verify(&m2, &ta.public_key(), reg.crl(), now, window()), Ok(()));
        // Rotation wraps around the pool.
        for _ in 0..5 {
            wallet.rotate();
        }
        assert_eq!(wallet.current_pseudonym(), after);
    }

    #[test]
    fn other_vehicles_unaffected_by_revocation() {
        let (ta, mut reg, wallet) = setup();
        // A second vehicle.
        let mut ta2 = ta;
        let id2 = RealIdentity::for_vehicle(VehicleId(2));
        ta2.register(id2.clone(), VehicleId(2));
        let wallet2 = reg
            .issue_wallet(&ta2, &id2, 5, SimTime::ZERO, SimTime::from_secs(3600), b"v2-seed")
            .unwrap();
        reg.revoke_identity(wallet.real_identity());
        let now = SimTime::from_secs(10);
        let msg2 = wallet2.sign(b"still fine", now);
        assert_eq!(verify(&msg2, &ta2.public_key(), reg.crl(), now, window()), Ok(()));
    }

    #[test]
    fn injected_seeds_grow_crl_without_matching() {
        let (ta, mut reg, wallet) = setup();
        for i in 0..100u64 {
            let mut s = [0u8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            reg.inject_revoked_seed(LinkageSeed(s));
        }
        assert_eq!(reg.crl().len(), 100);
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"x", now);
        assert_eq!(verify(&msg, &ta.public_key(), reg.crl(), now, window()), Ok(()));
    }

    #[test]
    fn crl_stays_sorted_and_deduped() {
        let (_ta, mut reg, wallet) = setup();
        reg.revoke_identity(wallet.real_identity());
        reg.revoke_identity(wallet.real_identity());
        assert_eq!(reg.crl().len(), 1, "double revocation must not duplicate");
        for i in [7u64, 3, 9, 3, 1] {
            let mut s = [0u8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            reg.inject_revoked_seed(LinkageSeed(s));
        }
        let crl = reg.crl();
        assert_eq!(crl.len(), 5, "dedup across injections");
        assert!(crl.windows(2).all(|w| w[0] < w[1]), "sorted order maintained");
    }

    #[test]
    fn verify_with_front_matches_verify_all_outcomes() {
        let (ta, mut reg, wallet) = setup();
        // A second, revoked vehicle to exercise the Revoked arm.
        let mut ta2 = TrustedAuthority::new(b"ta");
        let id2 = RealIdentity::for_vehicle(VehicleId(2));
        ta2.register(wallet.real_identity().clone(), VehicleId(1));
        ta2.register(id2.clone(), VehicleId(2));
        let wallet2 = reg
            .issue_wallet(&ta2, &id2, 5, SimTime::ZERO, SimTime::from_secs(3600), b"v2-seed")
            .unwrap();
        reg.revoke_identity(&id2);

        let now = SimTime::from_secs(10);
        let good = wallet.sign(b"ok", now);
        let revoked = wallet2.sign(b"revoked", now);
        let mut forged_cert = wallet.sign(b"cert", now);
        forged_cert.cert.valid_until = SimTime::from_secs(999_999);
        let mut forged_payload = wallet.sign(b"payload", now);
        forged_payload.payload = b"tampered".to_vec();
        let expired = wallet.sign(b"late", SimTime::from_secs(4000));
        let replayed = wallet.sign(b"old", SimTime::from_secs(1));

        let front = CrlFront::new(reg.crl());
        let cases: Vec<(&PseudonymMessage, SimTime)> = vec![
            (&good, now),
            (&revoked, now),
            (&forged_cert, now),
            (&forged_payload, now),
            (&expired, SimTime::from_secs(4000)),
            (&replayed, now),
        ];
        for (msg, at) in cases {
            let slow = verify(msg, &ta.public_key(), front.seeds(), at, window());
            // Twice: first pass fills the memo, second exercises the hit path.
            for _ in 0..2 {
                let fast = verify_with_front(msg, &ta.public_key(), &front, at, window());
                assert_eq!(fast, slow);
            }
        }
        assert!(front.memo_len() > 0, "verdicts were memoized");
    }

    #[test]
    fn revocation_lands_through_a_warm_memo() {
        let (ta, mut reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", now);
        assert_eq!(verify_with_front(&msg, &ta.public_key(), reg.crl(), now, window()), Ok(()));
        assert_eq!(reg.crl().memo_len(), 1, "the memo holds the certificate as unrevoked");
        reg.revoke_identity(wallet.real_identity());
        assert_eq!(reg.crl().memo_len(), 0, "a new seed clears the memo");
        assert_eq!(
            verify_with_front(&msg, &ta.public_key(), reg.crl(), now, window()),
            Err(AuthError::Revoked)
        );
    }

    #[test]
    fn injected_seed_lands_through_a_warm_memo() {
        let (ta, mut reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", now);
        assert_eq!(verify_with_front(&msg, &ta.public_key(), reg.crl(), now, window()), Ok(()));
        let seed = reg.seed_of(wallet.real_identity());
        reg.inject_revoked_seed(seed);
        assert_eq!(
            verify_with_front(&msg, &ta.public_key(), reg.crl(), now, window()),
            Err(AuthError::Revoked)
        );
        // Re-injecting a listed seed keeps the memo; a new one empties it.
        assert_eq!(reg.crl().memo_len(), 1);
        reg.inject_revoked_seed(seed);
        reg.revoke_identity(wallet.real_identity());
        assert_eq!(reg.crl().memo_len(), 1, "a duplicate seed leaves the memo alone");
        reg.inject_revoked_seed(LinkageSeed([0xAB; 16]));
        assert_eq!(reg.crl().memo_len(), 0, "a new seed empties the memo");
        assert_eq!(reg.crl().len(), 2);
    }

    #[test]
    fn front_clone_carries_the_memo_but_fills_stay_apart() {
        let seeds = [LinkageSeed([7u8; 16])];
        let front = CrlFront::new(&seeds);
        assert!(!front.is_revoked_cert(PseudonymId(1), [0u8; 8]));
        let copy = front.clone();
        assert_eq!(copy.memo_len(), 1, "the clone carries the memo");
        assert!(!copy.is_revoked_cert(PseudonymId(2), [0u8; 8]));
        assert_eq!((front.memo_len(), copy.memo_len()), (1, 2));
        assert!(!front.is_revoked_cert(PseudonymId(3), [0u8; 8]));
        assert!(!front.is_revoked_cert(PseudonymId(4), [0u8; 8]));
        assert_eq!((front.memo_len(), copy.memo_len()), (3, 2));
    }

    #[test]
    fn front_memo_clears_at_capacity_without_changing_verdicts() {
        let seeds = vec![LinkageSeed([7u8; 16])];
        let mut front = CrlFront::new(&seeds);
        front.memo_cap = 4;
        for i in 0..64u64 {
            let id = PseudonymId(i);
            let lv = seeds[0].linkage_value(id);
            assert!(front.is_revoked_cert(id, lv), "matching linkage value is revoked");
            assert!(!front.is_revoked_cert(id, [0u8; 8]), "mismatched value is not");
            assert!(front.memo_len() <= 4, "memo stays bounded");
        }
    }

    #[test]
    fn current_cert_tracks_rotation() {
        let (_ta, _reg, mut wallet) = setup();
        let before = wallet.current_cert().id;
        assert_eq!(before, wallet.current_pseudonym());
        wallet.rotate();
        assert_eq!(wallet.current_cert().id, wallet.current_pseudonym());
        assert_ne!(wallet.current_cert().id, before);
    }

    #[test]
    fn audit_open_maps_to_real_identity() {
        let (_, reg, wallet) = setup();
        let opened = reg.audit_open(wallet.current_pseudonym()).unwrap();
        assert_eq!(opened, wallet.real_identity());
        assert_eq!(reg.audit_open(PseudonymId(999_999)), None);
    }

    #[test]
    fn overhead_accounting() {
        let (_, _, wallet) = setup();
        let msg = wallet.sign(b"x", SimTime::from_secs(1));
        assert_eq!(msg.auth_overhead_bytes(), PseudonymCert::WIRE_LEN + 64 + 8);
        assert_eq!(PseudonymCert::WIRE_LEN, 128);
    }
}
