//! Pseudonym-based authentication (paper §IV-B.1, Fig. 5 left).
//!
//! Each vehicle is provisioned with a **pool of pseudonym certificates** at
//! registration. A message is signed under the *current* pseudonym's key and
//! carries the certificate; the verifier checks the TA's signature on the
//! certificate, the message signature, the validity window, and checks the
//! certificate against the revocation list (CRL).
//!
//! Revocation follows IEEE 1609.2.1's linkage values: the CRL lists one seed
//! per revoked vehicle, and a certificate carries `lv(i, j) = PRF(seed, i, j)`
//! for its validity period `i` and its index `j` in that period. Fig. 5's
//! complaint — every check scans "the huge pool of revoked certificates" —
//! is what [`crl_matches`] still computes, one keyed hash per CRL entry. A
//! verifier instead expands the CRL once per index ([`CrlFront`]): the first
//! certificate at `(i, j)` it sees costs every seed's value at `(i, j)`,
//! held in a compact filter, and each later first sighting at that index
//! costs one filter probe. Only a filter hit pays the linear scan, which
//! confirms it exactly.
//!
//! The other drawback Fig. 5 calls out is reproduced as is: privacy is
//! *conditional* — the TA keeps the pseudonym→identity map, and an
//! eavesdropper can link all messages sent under one pseudonym between
//! rotations.

use crate::identity::{AuthError, RealIdentity, TrustedAuthority};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_crypto::sha256::{compress_lanes, sha256_parts};
use vc_sim::time::{SimDuration, SimTime};

/// `J`: the most certificates one vehicle holds for one linkage period.
/// [`PseudonymRegistry::issue_wallet`] refuses any request past it, so a
/// verifier expands each revoked seed into at most this many values per
/// period. `vc_cloud`'s pipeline issues wallets of 16, the largest pool of
/// any caller.
pub const CERTS_PER_PERIOD: usize = 16;

/// Length of a linkage period `i` (one week, as in SCMS deployments).
pub const LINKAGE_PERIOD: SimDuration = SimDuration::from_secs(7 * 86_400);

/// Identifier of a pseudonym certificate (random-looking, TA-issued). The
/// TA gives one vehicle's certificates for one period ids that differ mod
/// [`CERTS_PER_PERIOD`], so `id % J` is the certificate's index `j`: the
/// verifier derives it from signed bytes, and no byte on the wire carries
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PseudonymId(pub u64);

/// Where a linkage value sits in its vehicle's issue: the validity period
/// `i` and the index `j` within that period, the `(i, j)` of `lv(i, j)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkageIndex {
    /// The linkage period, `valid_from / LINKAGE_PERIOD`.
    pub period: u32,
    /// The certificate's index within the period, below [`CERTS_PER_PERIOD`].
    pub j: u8,
}

impl LinkageIndex {
    /// The index of certificate `id` valid from `valid_from`.
    fn of(id: PseudonymId, valid_from: SimTime) -> LinkageIndex {
        LinkageIndex { period: period_of(valid_from), j: (id.0 % CERTS_PER_PERIOD as u64) as u8 }
    }

    /// The 8 bytes the linkage hash takes after the seed: `i ‖ j`, each a
    /// big-endian `u32`.
    fn to_bytes(self) -> [u8; 8] {
        ((u64::from(self.period) << 32) | u64::from(self.j)).to_be_bytes()
    }
}

/// The linkage period `t` falls in.
fn period_of(t: SimTime) -> u32 {
    let period = t.as_micros() / LINKAGE_PERIOD.as_micros();
    u32::try_from(period).expect("SimTime spans fewer than 2^32 weeks")
}

/// A per-vehicle linkage seed, published on the CRL when the vehicle is
/// revoked (SCMS-style): one CRL entry revokes the vehicle's *entire*
/// pseudonym pool. Checking a certificate against the list one entry at a
/// time costs one keyed hash per entry ([`crl_matches`], ≈ 32 ns each on an
/// AVX-512F CPU); [`CrlFront`] pays that once per index `(i, j)` instead.
/// [`LinkageSeed::linkage_value`] is the one-at-a-time form (≈ 300 ns) that
/// issuance uses and both are tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkageSeed(pub [u8; 16]);

/// Domain-separation prefix of the linkage-value hash.
const LINKAGE_DOMAIN: &[u8; 10] = b"vc-linkage";

impl LinkageSeed {
    /// Derives the (truncated) linkage value `lv(i, j)` of the certificate
    /// at `at`: the first 8 bytes of `SHA-256("vc-linkage" ‖ seed ‖ i ‖ j)`.
    pub fn linkage_value(&self, at: LinkageIndex) -> [u8; 8] {
        let digest = sha256_parts(&[LINKAGE_DOMAIN, &self.0, &at.to_bytes()]);
        let mut out = [0u8; 8];
        out.copy_from_slice(&digest[..8]);
        out
    }
}

/// CRL entries hashed per kernel call. Measured per CPU tier, not tunable:
/// fewer lanes leave the SSE2 build waiting on the round's dependency chain;
/// under AVX-512F 16, 32 and 64 lanes cost the same, and AVX2 is flat from 8
/// to 16 and slower past it (table in docs/CRYPTO.md).
const SCAN_LANES: usize = 16;

/// Every seed's linkage value at `at`, in list order, as the big-endian
/// `u64` of its 8 bytes, until `stop` returns true; returns whether it did.
/// One keyed hash per entry, sixteen entries at a time through
/// [`compress_lanes`], at ≈ 32 ns per entry on an AVX-512F CPU (≈ 60 with
/// AVX2, ≈ 105 on baseline SSE2) instead of the streaming hasher's ≈ 300.
///
/// The 34-byte message `"vc-linkage" ‖ seed ‖ i ‖ j` pads into a single
/// SHA-256 block in which only the seed's bytes 10..26 (words 2..=6) differ
/// between entries, so each group rewrites five words per lane of one
/// prepared block, and only the first two digest words are read. `stop`
/// ends the scan at its group; the `len % 16` tail goes through
/// [`LinkageSeed::linkage_value`].
fn linkage_values(
    seeds: &[LinkageSeed],
    at: LinkageIndex,
    mut stop: impl FnMut(u64) -> bool,
) -> bool {
    const SEED_AT: usize = LINKAGE_DOMAIN.len();
    const INDEX_AT: usize = SEED_AT + 16;
    const END: usize = INDEX_AT + 8;
    // The words any seed byte falls in.
    const FIRST: usize = SEED_AT / 4;
    const LAST: usize = (INDEX_AT - 1) / 4;
    fn be_words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
        bytes.chunks_exact(4).map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
    }
    // The padded block every entry shares, seed bytes still zero.
    let mut message = [0u8; 64];
    message[..SEED_AT].copy_from_slice(LINKAGE_DOMAIN);
    message[INDEX_AT..END].copy_from_slice(&at.to_bytes());
    message[END] = 0x80;
    message[56..].copy_from_slice(&(8 * END as u64).to_be_bytes());
    let mut blocks = [[0u32; SCAN_LANES]; 16];
    for (word, shared) in blocks.iter_mut().zip(be_words(&message)) {
        *word = [shared; SCAN_LANES];
    }

    let groups = seeds.chunks_exact(SCAN_LANES);
    let tail = groups.remainder();
    for group in groups {
        for (lane, seed) in group.iter().enumerate() {
            message[SEED_AT..INDEX_AT].copy_from_slice(&seed.0);
            for (word, own) in blocks[FIRST..=LAST].iter_mut().zip(be_words(&message[4 * FIRST..]))
            {
                word[lane] = own;
            }
        }
        let digests = compress_lanes(&blocks);
        let value = |lane: usize| (u64::from(digests[0][lane]) << 32) | u64::from(digests[1][lane]);
        if (0..SCAN_LANES).any(|lane| stop(value(lane))) {
            return true;
        }
    }
    tail.iter().any(|seed| stop(u64::from_be_bytes(seed.linkage_value(at))))
}

/// The exact CRL check: whether the certificate at `at` with
/// `linkage_value` belongs to any of the revoked `seeds`, i.e. whether
/// `seed.linkage_value(at) == linkage_value` for some entry. One keyed hash
/// per entry, in list order, until a match — the linear cost Fig. 5 charges
/// pseudonym authentication with. [`CrlFront`] runs it only to confirm a
/// filter hit.
pub fn crl_matches(seeds: &[LinkageSeed], at: LinkageIndex, linkage_value: [u8; 8]) -> bool {
    let want = u64::from_be_bytes(linkage_value);
    linkage_values(seeds, at, |value| value == want)
}

/// One index's expansion of the CRL: a blocked Bloom filter over every
/// revoked seed's linkage value at one `(i, j)`, `FILTER_BITS` bits per
/// value. Each value sets `FILTER_PROBES` bits of one 64-byte block, so an
/// insert or a probe touches one cache line; ≈ 2.4 % of values not in the
/// set are false hits. A miss is a definite "not revoked"; a hit is only a
/// candidate, which [`crl_matches`] confirms.
///
/// The block and the bits are taken from the value's first seven bytes,
/// which are already uniform hash output: a value that differs from a
/// listed one only in its last byte is always a filter hit, so the exact
/// confirmation is exercised by construction (E10's near-miss row).
#[derive(Debug)]
struct LinkageFilter {
    blocks: Vec<FilterBlock>,
}

/// One cache line of filter bits.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct FilterBlock([u64; 8]);

/// Filter bits per expanded linkage value.
const FILTER_BITS: usize = 8;
/// Bits set per value, all in one block: the false-hit optimum for 8 bits
/// per value is 5.5.
const FILTER_PROBES: usize = 5;

impl LinkageFilter {
    /// Expands every seed into its value at `at`: `|CRL|` linkage hashes.
    fn expand(seeds: &[LinkageSeed], at: LinkageIndex) -> LinkageFilter {
        let _f = vc_obs::profile::frame("auth.crl.expand");
        let blocks = (seeds.len() * FILTER_BITS).div_ceil(512).max(1);
        let mut filter = LinkageFilter { blocks: vec![FilterBlock::default(); blocks] };
        linkage_values(seeds, at, |value| {
            let (block, bits) = filter.slot(value);
            for bit in bits {
                filter.blocks[block].0[bit / 64] |= 1 << (bit % 64);
            }
            false
        });
        filter
    }

    /// The block of `value` and its bits in the block: the block from the
    /// key's top 32 bits by a multiply-shift, the bits by double hashing
    /// over its low 18.
    fn slot(&self, value: u64) -> (usize, impl Iterator<Item = usize>) {
        let key = value >> 8;
        let block = ((key >> 24) * self.blocks.len() as u64) >> 32;
        let (h1, h2) = (key as usize & 511, (key >> 9) as usize & 511 | 1);
        (block as usize, (0..FILTER_PROBES).map(move |p| (h1 + p * h2) & 511))
    }

    /// Whether `linkage_value` may be one of the expanded values.
    fn may_contain(&self, linkage_value: [u8; 8]) -> bool {
        let (block, mut bits) = self.slot(u64::from_be_bytes(linkage_value));
        bits.all(|bit| self.blocks[block].0[bit / 64] & (1 << (bit % 64)) != 0)
    }
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
    pub(crate) const WIRE_LEN: usize = 8 + 32 + 8 + 16 + 64;

    /// The `(i, j)` this certificate's linkage value is computed at: the
    /// period of `valid_from` and the index its id carries.
    pub fn linkage_index(&self) -> LinkageIndex {
        LinkageIndex::of(self.id, self.valid_from)
    }
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
        let _sign = vc_obs::profile::frame("auth.pseudonym.sign");
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
    pub(crate) fn current_cert(&self) -> &PseudonymCert {
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
    /// Per identity and linkage period: the indices `j` (ids mod `J`) its
    /// certificates hold, one bit each.
    issued: BTreeMap<(RealIdentity, u32), u16>,
    /// The certificate revocation list, as distributed to vehicles, with
    /// the expansions and verdict memo every verifier reading it shares.
    crl: CrlFront,
    /// The next id to consider for issuance.
    next_id: u64,
}

impl PseudonymRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PseudonymRegistry::default()
    }

    /// Issues a wallet of `pool_size` pseudonyms to a registered vehicle,
    /// valid from `valid_from`. Ids are handed out in order, skipping any
    /// whose index `j = id % J` the vehicle already holds in that linkage
    /// period (so a vehicle's first wallet of a period takes consecutive
    /// ids).
    ///
    /// # Errors
    ///
    /// Returns [`AuthError::Unknown`] if the identity is not registered with
    /// the TA, [`AuthError::Revoked`] if it is revoked, or
    /// [`AuthError::PoolExhausted`] if the request would take the vehicle
    /// past [`CERTS_PER_PERIOD`] certificates in the period.
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
        let held = self.issued.entry((identity.clone(), period_of(valid_from))).or_default();
        if pool_size > CERTS_PER_PERIOD - held.count_ones() as usize {
            return Err(AuthError::PoolExhausted);
        }
        let mut certs = Vec::with_capacity(pool_size);
        let mut keys = Vec::with_capacity(pool_size);
        for i in 0..pool_size {
            while *held & (1 << (self.next_id % CERTS_PER_PERIOD as u64)) != 0 {
                self.next_id += 1;
            }
            let id = PseudonymId(self.next_id);
            self.next_id += 1;
            *held |= 1 << (id.0 % CERTS_PER_PERIOD as u64);
            let mut kseed = key_seed.to_vec();
            kseed.extend_from_slice(&i.to_be_bytes());
            kseed.extend_from_slice(&id.0.to_be_bytes());
            let sk = SigningKey::from_seed(&kseed);
            let vk = sk.verifying_key();
            let linkage_value = seed.linkage_value(LinkageIndex::of(id, valid_from));
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
    /// kills the vehicle's entire pseudonym pool, in every period. A check
    /// against the list pays one keyed hash per CRL entry ([`crl_matches`],
    /// the cost E4's linear row counts); a [`CrlFront`] pays `J` per entry
    /// once per period instead. The seed lands in the sorted, deduped list,
    /// and a new seed drops the CRL's expansions and verdict memo, so no
    /// verdict from before the revocation survives it.
    pub fn revoke_identity(&mut self, identity: &RealIdentity) {
        if let Some(&seed) = self.seeds.get(identity) {
            self.crl.insert(seed);
        }
    }

    /// The CRL as currently distributed, sorted by seed bytes (the scan
    /// outcome is order-independent, so sorting changes no verdict). It
    /// derefs to the seed slice; [`verify_with_front`] and
    /// [`CrlFront::is_revoked`] answer through its shared expansions and
    /// memo.
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
}

/// The five verifier-side checks, with step 3's "does this certificate
/// match a revoked seed?" left to the caller. Check order is the error
/// precedence. [`verify_with_front`] answers step 3 through a [`CrlFront`];
/// the test suite's linear oracle answers it with [`crl_matches`].
pub fn verify_checks(
    message: &PseudonymMessage,
    ta_key: &VerifyingKey,
    is_revoked: impl FnOnce(&PseudonymCert) -> bool,
    now: SimTime,
    replay_window: SimDuration,
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

/// What a [`CrlFront`] has learned from its seeds: the expanded indices,
/// the memoized verdicts, and how many exact scans it has run.
#[derive(Debug, Clone, Default)]
struct Learned {
    /// Per-index filters, of at most [`CrlFront::HELD_PERIODS`] periods; a
    /// clone shares them.
    filters: BTreeMap<LinkageIndex, Arc<LinkageFilter>>,
    /// Verdicts by certificate `(i, j, linkage_value)`.
    memo: BTreeMap<(LinkageIndex, [u8; 8]), bool>,
    /// Exact [`crl_matches`] scans run: filter hits, and certificates of a
    /// period older than every held one.
    exact_scans: u64,
}

impl Learned {
    /// The filter for `at`, expanding it if its period is held or newer
    /// than the oldest held one (whose filters it then replaces at the
    /// cap). `None` for a period older than every held one: such a
    /// certificate pays the exact scan rather than evict a newer period, so
    /// no sequence of certificates can make a front expand an index twice.
    fn filter(&mut self, seeds: &[LinkageSeed], at: LinkageIndex) -> Option<Arc<LinkageFilter>> {
        if let Some(filter) = self.filters.get(&at) {
            return Some(Arc::clone(filter));
        }
        let mut periods: Vec<u32> = self.filters.keys().map(|held| held.period).collect();
        periods.dedup();
        if !periods.contains(&at.period) && periods.len() >= CrlFront::HELD_PERIODS {
            if at.period < periods[0] {
                return None;
            }
            self.filters.retain(|held, _| held.period != periods[0]);
        }
        let filter = Arc::new(LinkageFilter::expand(seeds, at));
        self.filters.insert(at, Arc::clone(&filter));
        Some(filter)
    }
}

/// The CRL as a verifier holds it: a sorted, deduped seed list, expanded
/// lazily once per linkage index `(i, j)` into a compact filter, with a
/// bounded memo of per-certificate verdicts in front.
/// [`PseudonymRegistry::crl`] hands one out, so every verifier reading the
/// registry — both sides of every handshake included — shares its
/// expansions and memo.
///
/// The first certificate at an index the front sees expands every seed into
/// its value at that index: `|CRL|` hashes through [`compress_lanes`]
/// (≈ 0.3 ms for 10 000 seeds on an AVX-512F CPU, ≈ 1 ms on SSE2) into a
/// Bloom filter of one byte per value (≈ 10 KB). A period costs at most `J`
/// such expansions, `|CRL| × J` hashes and bytes. After that a first
/// sighting at the index is one filter probe. A miss is a definite "not
/// revoked"; a hit (≈ 2.4 % of unrevoked certificates) is confirmed by one
/// exact [`crl_matches`] scan at the certificate's `(i, j)`, so every
/// verdict is exactly the linear scan's: [`verify_with_front`] returns what
/// [`verify_checks`] returns with [`crl_matches`] answering step 3. At most
/// two periods stay expanded: a certificate of a newer one replaces the
/// oldest period's filters, and one of an older period pays the exact scan
/// instead of evicting a newer one.
///
/// Readers take `&CrlFront`: what it has learned sits behind a [`Mutex`],
/// and a poisoned lock is recovered rather than propagated (every filter
/// and memo entry is finished before it is stored, so a panic elsewhere
/// cannot leave a wrong one). Seeds change only through `&mut self`, which
/// drops the expansions and the memo whenever a seed is new, so no reader
/// ever sees a verdict older than the seeds. The front derefs to its seed
/// slice, for [`crl_matches`].
#[derive(Debug)]
pub struct CrlFront {
    /// Sorted, deduped CRL seeds; a clone shares them until either copy
    /// inserts.
    seeds: Arc<Vec<LinkageSeed>>,
    learned: Mutex<Learned>,
    /// Memo capacity; the memo is cleared (deterministically) when full.
    memo_cap: usize,
}

impl CrlFront {
    /// Default bound on memoized certificate verdicts (~48 B each).
    pub(crate) const DEFAULT_MEMO_CAP: usize = 4096;

    /// Periods whose expansion a front keeps: the current one and the one
    /// before it, for certificates that straddle a period boundary.
    const HELD_PERIODS: usize = 2;

    /// Builds a front over a CRL snapshot. The input need not be sorted;
    /// the front sorts and dedupes its own copy. Nothing is expanded until
    /// the first lookup.
    pub fn new(crl: &[LinkageSeed]) -> Self {
        let mut seeds = crl.to_vec();
        seeds.sort_unstable();
        seeds.dedup();
        CrlFront {
            seeds: Arc::new(seeds),
            learned: Mutex::default(),
            memo_cap: Self::DEFAULT_MEMO_CAP,
        }
    }

    /// The sorted, deduped seeds this front answers for.
    pub fn seeds(&self) -> &[LinkageSeed] {
        &self.seeds
    }

    /// Adds a revoked seed, keeping the list sorted and deduped. A seed
    /// that is new drops the expansions and the memo: a certificate they
    /// hold as unrevoked may match it.
    fn insert(&mut self, seed: LinkageSeed) {
        if let Err(pos) = self.seeds.binary_search(&seed) {
            Arc::make_mut(&mut self.seeds).insert(pos, seed);
            let learned = self.learned.get_mut().unwrap_or_else(PoisonError::into_inner);
            learned.filters.clear();
            learned.memo.clear();
        }
    }

    fn learned(&self) -> MutexGuard<'_, Learned> {
        self.learned.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the certificate at `at` with `linkage_value` matches any
    /// revoked seed: exactly [`crl_matches`]`(self.seeds(), at,
    /// linkage_value)`. A repeat is one memo lookup; a first sighting
    /// probes the filter of its index (expanding the index if this is its
    /// first) and runs the exact scan only on a filter hit, outside the
    /// lock.
    pub fn is_revoked(&self, at: LinkageIndex, linkage_value: [u8; 8]) -> bool {
        let filter = {
            let mut learned = self.learned();
            if let Some(&hit) = learned.memo.get(&(at, linkage_value)) {
                return hit;
            }
            learned.filter(&self.seeds, at)
        };
        let candidate = filter.is_none_or(|filter| filter.may_contain(linkage_value));
        let hit = candidate && crl_matches(&self.seeds, at, linkage_value);
        let mut learned = self.learned();
        learned.exact_scans += candidate as u64;
        if learned.memo.len() >= self.memo_cap {
            // Bounded and deterministic: drop the whole memo rather than
            // tracking recency. Refill cost is one probe per live cert.
            learned.memo.clear();
        }
        learned.memo.insert((at, linkage_value), hit);
        hit
    }

    /// Number of memoized certificate verdicts: it grows by one per first
    /// sighting (observability hook).
    pub fn memo_len(&self) -> usize {
        self.learned().memo.len()
    }

    /// Exact [`crl_matches`] scans this front has run, each `|CRL|` hashes
    /// (observability hook: E4 and E10 count them).
    pub fn exact_scans(&self) -> u64 {
        self.learned().exact_scans
    }
}

impl Default for CrlFront {
    fn default() -> Self {
        CrlFront::new(&[])
    }
}

/// A clone carries the memo as it stands and shares the seeds and the
/// expanded filters, so it costs no more for a long CRL than for a short
/// one; later fills, expansions and inserts of either copy stay in that
/// copy.
impl Clone for CrlFront {
    fn clone(&self) -> Self {
        CrlFront {
            seeds: Arc::clone(&self.seeds),
            learned: Mutex::new(self.learned().clone()),
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

/// Bytes held: the seeds, the memo, and every held filter (seeds and
/// filters shared with a clone count in each).
impl vc_obs::MemSize for CrlFront {
    fn mem_bytes(&self) -> u64 {
        let learned = self.learned();
        let filters: usize = learned.filters.values().map(|f| f.blocks.capacity() * 64).sum();
        let memo = learned.memo.len() * (std::mem::size_of::<(LinkageIndex, [u8; 8])>() + 1);
        (self.seeds.capacity() * std::mem::size_of::<LinkageSeed>() + memo + filters) as u64
    }
}

/// Verifies a pseudonym-signed message, checking revocation through a
/// [`CrlFront`]. Returns exactly what [`verify_checks`] returns with
/// [`crl_matches`] over `front.seeds()` answering step 3: same checks, same
/// order, same error. Its cost is two signature verifications (≈ 21 µs)
/// plus, for a certificate the front has not seen, one filter probe.
///
/// # Errors
///
/// Returns the specific [`AuthError`] that failed.
pub fn verify_with_front(
    message: &PseudonymMessage,
    ta_key: &VerifyingKey,
    front: &CrlFront,
    now: SimTime,
    replay_window: SimDuration,
) -> Result<(), AuthError> {
    let _f = vc_obs::profile::frame("auth.pseudonym.verify");
    let revoked = |cert: &PseudonymCert| front.is_revoked(cert.linkage_index(), cert.linkage_value);
    verify_checks(message, ta_key, revoked, now, replay_window)
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
        self.escrow.mem_bytes()
            + self.seeds.mem_bytes()
            + self.issued.mem_bytes()
            + self.crl.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::node::VehicleId;

    /// The linear verifier: the five checks with every CRL entry hashed.
    fn verify(
        message: &PseudonymMessage,
        ta_key: &VerifyingKey,
        crl: &[LinkageSeed],
        now: SimTime,
        replay_window: SimDuration,
    ) -> Result<(), AuthError> {
        let scan =
            |cert: &PseudonymCert| crl_matches(crl, cert.linkage_index(), cert.linkage_value);
        verify_checks(message, ta_key, scan, now, replay_window)
    }

    fn at(j: u8) -> LinkageIndex {
        LinkageIndex { period: 0, j }
    }

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
            .issue_wallet(&ta, &id, 16, SimTime::ZERO, SimTime::from_secs(3600), b"v2-seed")
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
        assert!(!front.is_revoked(at(1), [0u8; 8]));
        let copy = front.clone();
        assert_eq!(copy.memo_len(), 1, "the clone carries the memo");
        let shared = |a: &CrlFront, b: &CrlFront| {
            Arc::ptr_eq(&a.learned().filters[&at(1)], &b.learned().filters[&at(1)])
        };
        assert!(shared(&front, &copy), "the clone shares the expansion");
        assert!(!copy.is_revoked(at(2), [0u8; 8]));
        assert_eq!((front.memo_len(), copy.memo_len()), (1, 2));
        assert!(!front.is_revoked(at(3), [0u8; 8]));
        assert!(!front.is_revoked(at(4), [0u8; 8]));
        assert_eq!((front.memo_len(), copy.memo_len()), (3, 2));
    }

    #[test]
    fn front_memo_clears_at_capacity_without_changing_verdicts() {
        let seeds = vec![LinkageSeed([7u8; 16])];
        let mut front = CrlFront::new(&seeds);
        front.memo_cap = 4;
        for i in 0..64u32 {
            let at = LinkageIndex { period: i / 16, j: (i % 16) as u8 };
            let lv = seeds[0].linkage_value(at);
            assert!(front.is_revoked(at, lv), "matching linkage value is revoked");
            assert!(!front.is_revoked(at, [0u8; 8]), "mismatched value is not");
            assert!(front.memo_len() <= 4, "memo stays bounded");
        }
    }

    #[test]
    fn issue_refuses_past_j_certificates_per_period() {
        let mut ta = TrustedAuthority::new(b"ta");
        let mut reg = PseudonymRegistry::new();
        let (a, b) =
            (RealIdentity::for_vehicle(VehicleId(3)), RealIdentity::for_vehicle(VehicleId(4)));
        ta.register(a.clone(), VehicleId(3));
        ta.register(b.clone(), VehicleId(4));
        let week = LINKAGE_PERIOD.as_micros() / 1_000_000;
        let (p0, p1) = (SimTime::from_secs(10), SimTime::from_secs(week + 10));
        let until = SimTime::from_secs(3 * week);
        let mut issue = |id: &RealIdentity, pool, from| {
            reg.issue_wallet(&ta, id, pool, from, until, b"s")
                .map(|w| w.certs.iter().map(|c| (c.id.0, c.linkage_index())).collect::<Vec<_>>())
        };
        let issued = |ids: std::ops::Range<u64>, period| -> Vec<(u64, LinkageIndex)> {
            ids.map(|id| (id, LinkageIndex { period, j: (id % 16) as u8 })).collect()
        };
        assert_eq!(issue(&a, CERTS_PER_PERIOD + 1, p0), Err(AuthError::PoolExhausted));
        assert_eq!(issue(&a, 3, p0), Ok(issued(0..3, 0)));
        assert_eq!(issue(&b, 14, p0), Ok(issued(3..17, 0)));
        // Ids 17 and 18 would repeat a's j = 1 and 2: they are skipped.
        assert_eq!(issue(&a, 11, p0), Ok(issued(19..30, 0)));
        assert_eq!(issue(&a, 3, p0), Err(AuthError::PoolExhausted), "14 + 3 > J");
        assert_eq!(issue(&a, 2, p0), Ok(issued(30..32, 0)));
        assert_eq!(issue(&a, 1, p0), Err(AuthError::PoolExhausted));
        assert_eq!(issue(&a, CERTS_PER_PERIOD, p1), Ok(issued(32..48, 1)), "a new period");
    }

    #[test]
    fn issued_linkage_values_are_the_seed_at_the_certificate_index() {
        let (_ta, reg, mut wallet) = setup();
        let seed = reg.seed_of(wallet.real_identity());
        for _ in 0..wallet.pool_size() {
            let cert = wallet.current_cert();
            assert_eq!(cert.linkage_value, seed.linkage_value(cert.linkage_index()));
            wallet.rotate();
        }
    }

    #[test]
    fn near_miss_in_the_last_byte_is_a_filter_hit_the_scan_clears() {
        let seeds: Vec<LinkageSeed> = (0..40u8).map(|i| LinkageSeed([i; 16])).collect();
        let front = CrlFront::new(&seeds);
        for (k, seed) in seeds.iter().enumerate() {
            let at = at(k as u8 % 16);
            let lv = seed.linkage_value(at);
            let mut near = lv;
            near[7] ^= 1 + k as u8;
            let scans = front.exact_scans();
            assert!(!front.is_revoked(at, near), "a near miss is not revoked");
            assert_eq!(front.exact_scans(), scans + 1, "the filter hit, the scan cleared it");
            assert!(front.is_revoked(at, lv));
        }
    }

    #[test]
    fn filter_false_hits_stay_near_two_percent() {
        let seeds: Vec<LinkageSeed> = (0..1_000u32)
            .map(|i| LinkageSeed(sha256_parts(&[&i.to_be_bytes()])[..16].try_into().unwrap()))
            .collect();
        let at = LinkageIndex { period: 5, j: 9 };
        let filter = LinkageFilter::expand(&seeds, at);
        assert_eq!(
            filter.blocks.len() * 512,
            1_024 * FILTER_BITS,
            "8 bits a value, in whole blocks"
        );
        assert!(seeds.iter().all(|seed| filter.may_contain(seed.linkage_value(at))));
        let other = LinkageSeed([0xEE; 16]);
        let trials = 20_000u32;
        let hits = (0..trials)
            .filter(|&i| {
                let at = LinkageIndex { period: 1_000 + i / 16, j: (i % 16) as u8 };
                filter.may_contain(other.linkage_value(at))
            })
            .count();
        let rate = hits as f64 / f64::from(trials);
        assert!((0.01..0.035).contains(&rate), "false-hit rate {rate}");
    }

    #[test]
    fn front_holds_two_periods_and_scans_older_ones() {
        let seeds = [LinkageSeed([9u8; 16]), LinkageSeed([4u8; 16])];
        let front = CrlFront::new(&seeds);
        let probe = |period: u32| {
            let at = LinkageIndex { period, j: 3 };
            let lv = seeds[1].linkage_value(at);
            assert!(front.is_revoked(at, lv), "revoked in period {period}");
            let mut periods: Vec<u32> = front.learned().filters.keys().map(|k| k.period).collect();
            periods.dedup();
            periods
        };
        assert_eq!(probe(5), [5]);
        assert_eq!(probe(6), [5, 6]);
        assert_eq!(probe(4), [5, 6], "an older period is scanned, not expanded");
        assert_eq!(probe(9), [6, 9], "a newer period replaces the oldest");
        assert_eq!(probe(5), [6, 9]);
    }

    #[test]
    fn a_new_seed_drops_the_expansion() {
        let (ta, mut reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", now);
        reg.inject_revoked_seed(LinkageSeed([0x11; 16]));
        assert_eq!(verify_with_front(&msg, &ta.public_key(), reg.crl(), now, window()), Ok(()));
        assert_eq!(reg.crl().learned().filters.len(), 1, "the index is expanded");
        reg.revoke_identity(wallet.real_identity());
        assert!(reg.crl().learned().filters.is_empty(), "the revocation drops it");
        wallet_rotations_all_revoked(&ta, &reg, wallet, now);
    }

    fn wallet_rotations_all_revoked(
        ta: &TrustedAuthority,
        reg: &PseudonymRegistry,
        mut wallet: PseudonymWallet,
        now: SimTime,
    ) {
        for _ in 0..wallet.pool_size() {
            let msg = wallet.sign(b"beacon", now);
            let verdict = verify_with_front(&msg, &ta.public_key(), reg.crl(), now, window());
            assert_eq!(verdict, Err(AuthError::Revoked));
            wallet.rotate();
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
