//! Authenticated key agreement between two vehicles (paper §IV-B.2, after
//! Jiang et al. [13]: "integrated authentication and key agreement
//! framework").
//!
//! Two vehicles that have never met establish a session key over one round
//! trip, each authenticating the other through its pseudonym certificate —
//! no online TA, no RSU (paper §V-B: "the authentication procedure should
//! be carried out via pure vehicle-to-vehicle communication").
//!
//! ```text
//! A -> B:  HELLO  { cert_A, share_A, t_A, sig_A }
//! B -> A:  ACCEPT { cert_B, share_B, t_B, transcript-bound sig_B }
//! key = DH(share_A, share_B) bound to both certificates
//! ```
//!
//! Signing the DH share under the certified pseudonym key rules out the
//! classic man-in-the-middle share swap: an attacker cannot produce a valid
//! signature over its own share for either certified identity.

use crate::identity::AuthError;
use crate::pseudonym::{
    verify_with_front, CrlFront, LinkageIndex, PseudonymCert, PseudonymMessage, PseudonymWallet,
};
use std::collections::BTreeMap;
use vc_crypto::dh::{EphemeralSecret, PublicShare, SessionKey};
use vc_crypto::schnorr::VerifyingKey;
use vc_obs::Recorder;
use vc_sim::time::{SimDuration, SimTime};

/// The first handshake message (and, with `transcript` set, the second).
#[derive(Debug, Clone)]
pub struct HandshakeMessage {
    /// Pseudonym-authenticated envelope whose payload is the DH share
    /// (plus, for the responder, the initiator's share as transcript
    /// binding).
    pub envelope: PseudonymMessage,
}

fn hello_payload(share: &PublicShare) -> Vec<u8> {
    let mut out = b"vc-handshake-hello".to_vec();
    out.extend_from_slice(&share.to_bytes());
    out
}

fn accept_payload(responder_share: &PublicShare, initiator_share: &PublicShare) -> Vec<u8> {
    let mut out = b"vc-handshake-accept".to_vec();
    out.extend_from_slice(&responder_share.to_bytes());
    out.extend_from_slice(&initiator_share.to_bytes());
    out
}

fn extract_share(payload: &[u8], prefix: &[u8]) -> Option<PublicShare> {
    let rest = payload.strip_prefix(prefix)?;
    if rest.len() < 32 {
        return None;
    }
    let mut bytes = [0u8; 32];
    bytes.copy_from_slice(&rest[..32]);
    PublicShare::from_bytes(&bytes)
}

/// Initiator state between HELLO and ACCEPT.
pub struct Initiator {
    secret: EphemeralSecret,
    share: PublicShare,
}

impl Initiator {
    /// Produces the HELLO message. `entropy` seeds the ephemeral key.
    pub fn hello(
        wallet: &PseudonymWallet,
        now: SimTime,
        entropy: u64,
    ) -> (Initiator, HandshakeMessage) {
        let mut seed = b"handshake-init".to_vec();
        seed.extend_from_slice(&entropy.to_be_bytes());
        seed.extend_from_slice(&now.as_micros().to_be_bytes());
        let secret = EphemeralSecret::from_seed(&seed);
        let share = {
            let _f = vc_obs::profile::frame("crypto.basepow");
            secret.public_share()
        };
        let envelope = wallet.sign(&hello_payload(&share), now);
        (Initiator { secret, share }, HandshakeMessage { envelope })
    }

    /// Processes the responder's ACCEPT: authenticates it, checks the
    /// transcript binding, and derives the session key.
    ///
    /// # Errors
    ///
    /// Any [`AuthError`] from certificate/signature/replay checks, or
    /// [`AuthError::Malformed`] on a bad share or broken transcript binding.
    pub fn finish(
        self,
        accept: &HandshakeMessage,
        ta_key: &VerifyingKey,
        crl: &CrlFront,
        now: SimTime,
        window: SimDuration,
    ) -> Result<SessionKey, AuthError> {
        verify_with_front(&accept.envelope, ta_key, crl, now, window)?;
        let payload = &accept.envelope.payload;
        let responder_share =
            extract_share(payload, b"vc-handshake-accept").ok_or(AuthError::Malformed)?;
        // Transcript binding: the responder must have signed OUR share.
        let expected = accept_payload(&responder_share, &self.share);
        if payload != &expected {
            return Err(AuthError::Malformed);
        }
        Ok(self.secret.agree(&responder_share, b"vc-handshake-session"))
    }
}

/// Responder side: processes HELLO, emits ACCEPT, derives the key.
///
/// # Errors
///
/// Any [`AuthError`] from authenticating the HELLO.
pub fn respond(
    hello: &HandshakeMessage,
    wallet: &PseudonymWallet,
    ta_key: &VerifyingKey,
    crl: &CrlFront,
    now: SimTime,
    window: SimDuration,
    entropy: u64,
) -> Result<(SessionKey, HandshakeMessage), AuthError> {
    verify_with_front(&hello.envelope, ta_key, crl, now, window)?;
    let initiator_share = extract_share(&hello.envelope.payload, b"vc-handshake-hello")
        .ok_or(AuthError::Malformed)?;
    let mut seed = b"handshake-resp".to_vec();
    seed.extend_from_slice(&entropy.to_be_bytes());
    seed.extend_from_slice(&now.as_micros().to_be_bytes());
    let secret = EphemeralSecret::from_seed(&seed);
    let share = {
        let _f = vc_obs::profile::frame("crypto.basepow");
        secret.public_share()
    };
    let envelope = wallet.sign(&accept_payload(&share, &initiator_share), now);
    let key = secret.agree(&initiator_share, b"vc-handshake-session");
    Ok((key, HandshakeMessage { envelope }))
}

/// Environment an observed handshake runs in (trust anchors plus the
/// modeled one-hop V2V latency). Bundled so [`run_handshake_obs`] keeps a
/// small signature.
pub struct HandshakeObsParams<'a> {
    /// The trusted authority's verification key.
    pub ta_key: &'a VerifyingKey,
    /// The current revocation list; both sides check through its memo.
    pub crl: &'a CrlFront,
    /// Freshness window for message timestamps.
    pub window: SimDuration,
    /// Modeled one-hop V2V latency each handshake message costs. All
    /// latency in the trace is this modeled *sim* time, never wall time,
    /// so traces stay deterministic.
    pub hop: SimDuration,
}

// The CRL's memo is shared state; a registry and the parameters borrowing
// its CRL must still cross and be shared between threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<CrlFront>();
    send_sync::<crate::pseudonym::PseudonymRegistry>();
    send_sync::<HandshakeObsParams<'static>>();
};

/// Runs a complete initiator↔responder handshake with instrumentation:
/// an `auth`/`handshake` span covering the exchange plus one event per
/// protocol phase (`handshake.hello`, `handshake.accept`,
/// `handshake.finish`), each stamped with the modeled sim-time the phase
/// completes at (`start`, `start + hop`, `start + 2·hop`). Failures emit
/// `handshake.fail` with the failing phase before the error propagates.
///
/// # Errors
///
/// Any [`AuthError`] from either side of the exchange.
pub fn run_handshake_obs(
    a_wallet: &PseudonymWallet,
    b_wallet: &PseudonymWallet,
    params: &HandshakeObsParams<'_>,
    start: SimTime,
    entropy: u64,
    mut rec: Option<&mut Recorder>,
) -> Result<SessionKey, AuthError> {
    let _hs = vc_obs::profile::frame("auth.handshake");
    let span = rec.as_deref_mut().map(|r| r.span_begin(start, "auth", "handshake"));
    let fail = |rec: &mut Option<&mut Recorder>, at: SimTime, phase: &'static str, e: AuthError| {
        if let Some(r) = rec.as_deref_mut() {
            r.event(
                at,
                "auth",
                "handshake.fail",
                vec![("phase", phase.into()), ("error", format!("{e:?}").into())],
            );
            if let Some(id) = span {
                r.span_end(at, id);
            }
        }
        e
    };

    let (init, hello) = Initiator::hello(a_wallet, start, entropy);
    if let Some(r) = rec.as_deref_mut() {
        let bytes = hello.envelope.payload.len();
        r.event(start, "auth", "handshake.hello", vec![("payload_bytes", bytes.into())]);
    }

    let t_accept = start + params.hop;
    let (b_key, accept) = respond(
        &hello,
        b_wallet,
        params.ta_key,
        params.crl,
        t_accept,
        params.window,
        entropy.wrapping_add(1),
    )
    .map_err(|e| fail(&mut rec, t_accept, "accept", e))?;
    if let Some(r) = rec.as_deref_mut() {
        let bytes = accept.envelope.payload.len();
        r.event(t_accept, "auth", "handshake.accept", vec![("payload_bytes", bytes.into())]);
    }

    let t_finish = t_accept + params.hop;
    let a_key = init
        .finish(&accept, params.ta_key, params.crl, t_finish, params.window)
        .map_err(|e| fail(&mut rec, t_finish, "finish", e))?;
    debug_assert_eq!(a_key.0, b_key.0);
    if let Some(r) = rec {
        r.event(t_finish, "auth", "handshake.finish", Vec::new());
        if let Some(id) = span {
            r.span_end(t_finish, id);
        }
    }
    Ok(a_key)
}

/// One cached session with a peer pseudonym.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    key: SessionKey,
    established_at: SimTime,
    /// Expiry of the peer certificate the session was established under; a
    /// cached key never outlives the credential that authenticated it.
    cert_valid_until: SimTime,
    linkage: LinkageIndex,
    linkage_value: [u8; 8],
    /// Logical LRU stamp (monotone per cache; deterministic eviction order).
    last_used: u64,
}

/// An LRU session-key cache keyed by peer pseudonym key: vehicles that
/// re-encounter each other within the TTL reuse the established session key
/// and skip the DH exchange (two `base_pow` + two `pow` per side) entirely.
///
/// Three events end a cached session: TTL expiry, expiry of the peer
/// certificate it was established under, and revocation
/// ([`SessionCache::invalidate_revoked`], which callers invoke on every CRL
/// update). Eviction at capacity removes the least-recently-used entry,
/// tracked by a logical counter so behaviour is deterministic.
#[derive(Debug)]
pub struct SessionCache {
    entries: BTreeMap<[u8; 32], CacheEntry>,
    capacity: usize,
    ttl: SimDuration,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl SessionCache {
    /// Creates a cache holding at most `capacity` sessions, each reusable
    /// for `ttl` after establishment.
    pub fn new(capacity: usize, ttl: SimDuration) -> Self {
        assert!(capacity > 0, "session cache capacity must be positive");
        SessionCache { entries: BTreeMap::new(), capacity, ttl, stamp: 0, hits: 0, misses: 0 }
    }

    /// Number of live cached sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no sessions are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that returned a reusable key.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing reusable.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Returns the cached session key for the peer pseudonym key, if one
    /// exists and is still fresh (within TTL and the peer certificate's
    /// validity). Expired entries are dropped on sight.
    pub(crate) fn lookup(&mut self, peer_key: &[u8; 32], now: SimTime) -> Option<SessionKey> {
        if let Some(entry) = self.entries.get_mut(peer_key) {
            let fresh = now >= entry.established_at
                && now.saturating_since(entry.established_at) <= self.ttl
                && now <= entry.cert_valid_until;
            if fresh {
                self.stamp += 1;
                entry.last_used = self.stamp;
                self.hits += 1;
                return Some(entry.key);
            }
            self.entries.remove(peer_key);
        }
        self.misses += 1;
        None
    }

    /// Caches a freshly established session under the peer's certificate.
    /// At capacity, the least-recently-used entry is evicted first.
    pub fn insert(&mut self, peer_cert: &PseudonymCert, key: SessionKey, now: SimTime) {
        let peer_key = peer_cert.key.to_bytes();
        if !self.entries.contains_key(&peer_key) && self.entries.len() >= self.capacity {
            if let Some(victim) =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
            }
        }
        self.stamp += 1;
        self.entries.insert(
            peer_key,
            CacheEntry {
                key,
                established_at: now,
                cert_valid_until: peer_cert.valid_until,
                linkage: peer_cert.linkage_index(),
                linkage_value: peer_cert.linkage_value,
                last_used: self.stamp,
            },
        );
    }

    /// Drops every cached session whose peer certificate matches a revoked
    /// linkage seed. Callers invoke this on each CRL update so a revoked
    /// peer can never ride a cached key past its revocation. Costs one
    /// [`CrlFront::is_revoked`] per cached session: a filter probe for each
    /// certificate the front's memo does not yet hold.
    pub fn invalidate_revoked(&mut self, crl: &CrlFront) {
        self.entries.retain(|_, e| !crl.is_revoked(e.linkage, e.linkage_value));
    }
}

impl vc_obs::MemSize for SessionCache {
    fn mem_bytes(&self) -> u64 {
        (self.entries.len() * (32 + std::mem::size_of::<CacheEntry>())) as u64
    }
}

/// [`run_handshake_obs`] with session-key reuse: when both sides hold a
/// fresh cached session for the other's current pseudonym, the DH exchange
/// is skipped and the cached key returned (`resumed == true`, one
/// `auth`/`handshake.resume` event, zero modeled hops). Otherwise the full
/// observed handshake runs and both caches learn the new session.
///
/// Resumption is only sound while revocation is propagated into the caches:
/// callers must run [`SessionCache::invalidate_revoked`] on every CRL
/// update, after which a revoked peer falls back to the full handshake and
/// fails there with [`AuthError::Revoked`].
///
/// # Errors
///
/// Any [`AuthError`] from the underlying handshake (cache misses only).
#[allow(clippy::too_many_arguments)]
pub fn run_handshake_cached(
    a_wallet: &PseudonymWallet,
    b_wallet: &PseudonymWallet,
    a_cache: &mut SessionCache,
    b_cache: &mut SessionCache,
    params: &HandshakeObsParams<'_>,
    start: SimTime,
    entropy: u64,
    mut rec: Option<&mut Recorder>,
) -> Result<(SessionKey, bool), AuthError> {
    let a_peer = b_wallet.current_cert().key.to_bytes();
    let b_peer = a_wallet.current_cert().key.to_bytes();
    if let (Some(ka), Some(kb)) = (a_cache.lookup(&a_peer, start), b_cache.lookup(&b_peer, start)) {
        if ka == kb {
            if let Some(r) = rec.as_deref_mut() {
                r.event(start, "auth", "handshake.resume", Vec::new());
            }
            return Ok((ka, true));
        }
    }
    let key = run_handshake_obs(a_wallet, b_wallet, params, start, entropy, rec)?;
    let established = start + params.hop + params.hop;
    a_cache.insert(b_wallet.current_cert(), key, established);
    b_cache.insert(a_wallet.current_cert(), key, established);
    Ok((key, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{RealIdentity, TrustedAuthority};
    use crate::pseudonym::PseudonymRegistry;
    use vc_sim::node::VehicleId;

    struct Net {
        ta: TrustedAuthority,
        registry: PseudonymRegistry,
        alice: PseudonymWallet,
        bob: PseudonymWallet,
    }

    fn setup() -> Net {
        let mut ta = TrustedAuthority::new(b"hs-ta");
        let mut registry = PseudonymRegistry::new();
        let a_id = RealIdentity::for_vehicle(VehicleId(1));
        let b_id = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(a_id.clone(), VehicleId(1));
        ta.register(b_id.clone(), VehicleId(2));
        let alice = registry
            .issue_wallet(&ta, &a_id, 4, SimTime::ZERO, SimTime::from_secs(10_000), b"a")
            .unwrap();
        let bob = registry
            .issue_wallet(&ta, &b_id, 4, SimTime::ZERO, SimTime::from_secs(10_000), b"b")
            .unwrap();
        Net { ta, registry, alice, bob }
    }

    fn window() -> SimDuration {
        SimDuration::from_secs(5)
    }

    #[test]
    fn both_sides_derive_same_key() {
        let net = setup();
        let now = SimTime::from_secs(10);
        let (init, hello) = Initiator::hello(&net.alice, now, 1);
        let (bob_key, accept) =
            respond(&hello, &net.bob, &net.ta.public_key(), net.registry.crl(), now, window(), 2)
                .unwrap();
        let alice_key =
            init.finish(&accept, &net.ta.public_key(), net.registry.crl(), now, window()).unwrap();
        assert_eq!(alice_key.0, bob_key.0);
    }

    #[test]
    fn unauthenticated_hello_rejected() {
        let net = setup();
        let foreign_ta = TrustedAuthority::new(b"foreign");
        let now = SimTime::from_secs(10);
        let (_, hello) = Initiator::hello(&net.alice, now, 1);
        let err = respond(
            &hello,
            &net.bob,
            &foreign_ta.public_key(),
            net.registry.crl(),
            now,
            window(),
            2,
        )
        .unwrap_err();
        assert_eq!(err, AuthError::BadCredential);
    }

    #[test]
    fn mitm_share_swap_detected() {
        // Mallory intercepts HELLO, substitutes her own share, and forwards.
        // She cannot re-sign under Alice's certified pseudonym key, so the
        // tampered envelope fails signature verification at Bob.
        let net = setup();
        let now = SimTime::from_secs(10);
        let (_, mut hello) = Initiator::hello(&net.alice, now, 1);
        let mallory = EphemeralSecret::from_seed(b"mallory");
        hello.envelope.payload = hello_payload(&mallory.public_share());
        let err =
            respond(&hello, &net.bob, &net.ta.public_key(), net.registry.crl(), now, window(), 2)
                .unwrap_err();
        assert_eq!(err, AuthError::BadSignature);
    }

    #[test]
    fn accept_transcript_binding_detected() {
        // Mallory relays Bob's ACCEPT from a DIFFERENT handshake (signed over
        // someone else's initiator share): Alice must refuse it.
        let net = setup();
        let now = SimTime::from_secs(10);
        let (init_a, _hello_a) = Initiator::hello(&net.alice, now, 1);
        // A second handshake initiated by Mallory's wallet... use Alice's
        // wallet with different entropy to get a distinct share.
        let (_, hello_other) = Initiator::hello(&net.alice, now, 99);
        let (_, accept_other) = respond(
            &hello_other,
            &net.bob,
            &net.ta.public_key(),
            net.registry.crl(),
            now,
            window(),
            2,
        )
        .unwrap();
        // Alice (session A) receives the ACCEPT for session OTHER.
        let err = init_a
            .finish(&accept_other, &net.ta.public_key(), net.registry.crl(), now, window())
            .unwrap_err();
        assert_eq!(err, AuthError::Malformed);
    }

    #[test]
    fn revoked_peer_cannot_handshake() {
        let mut net = setup();
        let now = SimTime::from_secs(10);
        net.registry.revoke_identity(net.alice.real_identity());
        let (_, hello) = Initiator::hello(&net.alice, now, 1);
        let err =
            respond(&hello, &net.bob, &net.ta.public_key(), net.registry.crl(), now, window(), 2)
                .unwrap_err();
        assert_eq!(err, AuthError::Revoked);
    }

    #[test]
    fn revocation_lands_on_both_sides_through_a_warm_memo() {
        for inject in [false, true] {
            let mut net = setup();
            let now = SimTime::from_secs(10);
            let ta_key = net.ta.public_key();
            let (init, hello) = Initiator::hello(&net.alice, now, 1);
            let (_, accept) =
                respond(&hello, &net.bob, &ta_key, net.registry.crl(), now, window(), 2).unwrap();
            init.finish(&accept, &ta_key, net.registry.crl(), now, window()).unwrap();
            assert_eq!(net.registry.crl().memo_len(), 2, "both certificates memoized unrevoked");
            for identity in [net.alice.real_identity(), net.bob.real_identity()] {
                if inject {
                    let seed = net.registry.seed_of(identity);
                    net.registry.inject_revoked_seed(seed);
                } else {
                    net.registry.revoke_identity(identity);
                }
            }
            let err = respond(&hello, &net.bob, &ta_key, net.registry.crl(), now, window(), 2)
                .unwrap_err();
            assert_eq!(err, AuthError::Revoked, "responder, inject = {inject}");
            // `hello` is deterministic in its inputs: the same initiator
            // state, so the same ACCEPT still binds to it.
            let (init, _) = Initiator::hello(&net.alice, now, 1);
            let err = init.finish(&accept, &ta_key, net.registry.crl(), now, window()).unwrap_err();
            assert_eq!(err, AuthError::Revoked, "initiator, inject = {inject}");
        }
    }

    #[test]
    fn full_handshakes_scan_each_certificate_once() {
        let net = setup();
        let params = HandshakeObsParams {
            ta_key: &net.ta.public_key(),
            crl: net.registry.crl(),
            window: window(),
            hop: SimDuration::from_millis(3),
        };
        assert_eq!(net.registry.crl().memo_len(), 0);
        run_handshake_obs(&net.alice, &net.bob, &params, SimTime::from_secs(10), 7, None).unwrap();
        assert_eq!(net.registry.crl().memo_len(), 2, "one verdict per side's certificate");
        let (mut ca, mut cb) = caches();
        let t1 = SimTime::from_secs(20);
        let (_, resumed) =
            run_handshake_cached(&net.alice, &net.bob, &mut ca, &mut cb, &params, t1, 8, None)
                .unwrap();
        assert!(!resumed, "empty caches run the full handshake");
        assert_eq!(net.registry.crl().memo_len(), 2, "both sides hit the memo");
    }

    #[test]
    fn observed_handshake_spans_and_phases() {
        use vc_sim::time::SimDuration;

        let net = setup();
        let params = HandshakeObsParams {
            ta_key: &net.ta.public_key(),
            crl: net.registry.crl(),
            window: window(),
            hop: SimDuration::from_millis(3),
        };
        let mut rec = Recorder::new();
        let start = SimTime::from_secs(10);
        let key =
            run_handshake_obs(&net.alice, &net.bob, &params, start, 7, Some(&mut rec)).unwrap();
        assert!(!key.0.iter().all(|&b| b == 0));
        assert_eq!(rec.hub().counter("auth.handshake.hello"), 1);
        assert_eq!(rec.hub().counter("auth.handshake.accept"), 1);
        assert_eq!(rec.hub().counter("auth.handshake.finish"), 1);
        assert_eq!(rec.hub().counter("auth.handshake.fail"), 0);
        // The span covers both modeled hops.
        let hist = rec.hub().histogram("auth.handshake.us").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), Some(6000.0));
        assert_eq!(rec.open_spans(), 0);
        // The no-probe path derives the same key: tracing is behaviourally
        // inert.
        let silent = run_handshake_obs(&net.alice, &net.bob, &params, start, 7, None).unwrap();
        assert_eq!(silent.0, key.0);
    }

    #[test]
    fn observed_handshake_failure_emits_phase() {
        use vc_sim::time::SimDuration;

        let mut net = setup();
        net.registry.revoke_identity(net.alice.real_identity());
        let params = HandshakeObsParams {
            ta_key: &net.ta.public_key(),
            crl: net.registry.crl(),
            window: window(),
            hop: SimDuration::from_millis(3),
        };
        let mut rec = Recorder::new();
        let err = run_handshake_obs(
            &net.alice,
            &net.bob,
            &params,
            SimTime::from_secs(10),
            7,
            Some(&mut rec),
        )
        .unwrap_err();
        assert_eq!(err, AuthError::Revoked);
        assert_eq!(rec.hub().counter("auth.handshake.fail"), 1);
        assert_eq!(rec.hub().counter("auth.handshake.accept"), 0);
        // The span still closes on failure.
        assert_eq!(rec.open_spans(), 0);
        let fail = rec.events().find(|e| e.kind == "handshake.fail").unwrap();
        assert!(fail
            .fields
            .iter()
            .any(|(k, v)| *k == "phase" && *v == vc_obs::Value::Str("accept".into())));
    }

    fn caches() -> (SessionCache, SessionCache) {
        (
            SessionCache::new(16, SimDuration::from_secs(600)),
            SessionCache::new(16, SimDuration::from_secs(600)),
        )
    }

    #[test]
    fn cached_handshake_resumes_within_ttl() {
        let net = setup();
        let params = HandshakeObsParams {
            ta_key: &net.ta.public_key(),
            crl: net.registry.crl(),
            window: window(),
            hop: SimDuration::from_millis(3),
        };
        let (mut ca, mut cb) = caches();
        let mut rec = Recorder::new();
        let t0 = SimTime::from_secs(10);
        let (k1, resumed1) = run_handshake_cached(
            &net.alice,
            &net.bob,
            &mut ca,
            &mut cb,
            &params,
            t0,
            7,
            Some(&mut rec),
        )
        .unwrap();
        assert!(!resumed1, "first encounter runs the full handshake");
        // Re-encounter 60 s later: both caches hit, DH skipped.
        let t1 = SimTime::from_secs(70);
        let (k2, resumed2) = run_handshake_cached(
            &net.alice,
            &net.bob,
            &mut ca,
            &mut cb,
            &params,
            t1,
            8,
            Some(&mut rec),
        )
        .unwrap();
        assert!(resumed2);
        assert_eq!(k1.0, k2.0, "resumed session reuses the established key");
        assert_eq!(rec.hub().counter("auth.handshake.resume"), 1);
        assert_eq!(rec.hub().counter("auth.handshake.hello"), 1, "only one full exchange");
        assert_eq!(ca.hits(), 1);
        assert_eq!(cb.hits(), 1);
    }

    #[test]
    fn cached_handshake_expires_after_ttl() {
        let net = setup();
        let params = HandshakeObsParams {
            ta_key: &net.ta.public_key(),
            crl: net.registry.crl(),
            window: window(),
            hop: SimDuration::from_millis(3),
        };
        let mut ca = SessionCache::new(4, SimDuration::from_secs(30));
        let mut cb = SessionCache::new(4, SimDuration::from_secs(30));
        let t0 = SimTime::from_secs(10);
        let (_, r1) =
            run_handshake_cached(&net.alice, &net.bob, &mut ca, &mut cb, &params, t0, 7, None)
                .unwrap();
        assert!(!r1);
        // 60 s later the 30 s TTL has lapsed: full handshake again.
        let t1 = SimTime::from_secs(70);
        let (_, r2) =
            run_handshake_cached(&net.alice, &net.bob, &mut ca, &mut cb, &params, t1, 8, None)
                .unwrap();
        assert!(!r2, "expired entry must not resume");
        assert_eq!(ca.len(), 1, "re-established session replaces the stale one");
    }

    #[test]
    fn revocation_invalidates_cached_sessions() {
        let mut net = setup();
        let params = HandshakeObsParams {
            ta_key: &net.ta.public_key(),
            crl: net.registry.crl(),
            window: window(),
            hop: SimDuration::from_millis(3),
        };
        let (mut ca, mut cb) = caches();
        let t0 = SimTime::from_secs(10);
        run_handshake_cached(&net.alice, &net.bob, &mut ca, &mut cb, &params, t0, 7, None).unwrap();
        assert_eq!(ca.len(), 1);
        // Alice is revoked; Bob propagates the CRL update into his cache.
        net.registry.revoke_identity(net.alice.real_identity());
        cb.invalidate_revoked(net.registry.crl());
        assert_eq!(cb.len(), 0, "revoked peer's session dropped");
        ca.invalidate_revoked(net.registry.crl());
        assert_eq!(ca.len(), 1, "Bob is not revoked; Alice keeps his session");
        // The re-encounter cannot resume (Bob's side misses) and the full
        // handshake now fails on the CRL.
        let fresh_params = HandshakeObsParams {
            ta_key: &net.ta.public_key(),
            crl: net.registry.crl(),
            window: window(),
            hop: SimDuration::from_millis(3),
        };
        let err = run_handshake_cached(
            &net.alice,
            &net.bob,
            &mut ca,
            &mut cb,
            &fresh_params,
            SimTime::from_secs(20),
            8,
            None,
        )
        .unwrap_err();
        assert_eq!(err, AuthError::Revoked);
    }

    #[test]
    fn session_cache_lru_eviction_is_deterministic() {
        let net = setup();
        let mut cache = SessionCache::new(2, SimDuration::from_secs(600));
        let now = SimTime::from_secs(1);
        let key = SessionKey([9u8; 32]);
        // Three distinct peer certs from Bob's pool.
        let mut bob = net.bob;
        let c0 = bob.current_cert().clone();
        bob.rotate();
        let c1 = bob.current_cert().clone();
        bob.rotate();
        let c2 = bob.current_cert().clone();
        cache.insert(&c0, key, now);
        cache.insert(&c1, key, now);
        // Touch c0 so c1 becomes the LRU victim.
        assert!(cache.lookup(&c0.key.to_bytes(), SimTime::from_secs(2)).is_some());
        cache.insert(&c2, key, now);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&c1.key.to_bytes(), SimTime::from_secs(2)).is_none());
        assert!(cache.lookup(&c0.key.to_bytes(), SimTime::from_secs(2)).is_some());
        assert!(cache.lookup(&c2.key.to_bytes(), SimTime::from_secs(2)).is_some());
    }

    #[test]
    fn session_cache_respects_cert_expiry() {
        let net = setup();
        let mut cache = SessionCache::new(4, SimDuration::from_secs(1_000_000));
        let cert = net.alice.current_cert().clone();
        cache.insert(&cert, SessionKey([1u8; 32]), SimTime::from_secs(1));
        // Cert expires at 10_000 s (see setup); a later lookup must miss
        // even though the TTL is enormous.
        assert!(cache.lookup(&cert.key.to_bytes(), SimTime::from_secs(10_001)).is_none());
        assert_eq!(cache.len(), 0, "expired entry dropped on sight");
    }

    #[test]
    fn derived_key_encrypts_traffic() {
        use vc_crypto::chacha20::{open, seal};
        let net = setup();
        let now = SimTime::from_secs(10);
        let (init, hello) = Initiator::hello(&net.alice, now, 1);
        let (bob_key, accept) =
            respond(&hello, &net.bob, &net.ta.public_key(), net.registry.crl(), now, window(), 2)
                .unwrap();
        let alice_key =
            init.finish(&accept, &net.ta.public_key(), net.registry.crl(), now, window()).unwrap();
        let sealed = seal(&alice_key.0, &[0u8; 12], b"co-operative merge plan");
        assert_eq!(open(&bob_key.0, &[0u8; 12], &sealed).unwrap(), b"co-operative merge plan");
    }
}
