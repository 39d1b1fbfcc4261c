//! Secure beaconing: the periodic signed heartbeats that make neighbor
//! discovery trustworthy.
//!
//! Every VANET protocol in this workspace rests on "who is around me and
//! where are they going" — which an attacker can poison unless beacons are
//! authenticated (paper §III-B: position/kinematics claims feed safety
//! decisions). A [`SignedBeacon`] binds sender id, kinematics, and a
//! timestamp under a signature; a [`BeaconStore`] keeps only verified,
//! fresh beacons and ages them out, yielding the *verified* neighbor view.
//!
//! In the full stack the signing key is a pseudonym key from `vc-auth`; this
//! module is deliberately agnostic: it takes any Schnorr key pair, so the
//! three authentication schemes plug in unchanged.

use std::collections::BTreeMap;
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};

/// The beacon payload: who, where, how fast, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beacon {
    /// Sender (pseudonymous id in the full stack).
    pub sender: VehicleId,
    /// Claimed position.
    pub pos: Point,
    /// Claimed velocity.
    pub vel: Point,
    /// Claimed send time.
    pub sent_at: SimTime,
}

impl Beacon {
    fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 32 + 8);
        out.extend_from_slice(&self.sender.0.to_be_bytes());
        out.extend_from_slice(&self.pos.x.to_be_bytes());
        out.extend_from_slice(&self.pos.y.to_be_bytes());
        out.extend_from_slice(&self.vel.x.to_be_bytes());
        out.extend_from_slice(&self.vel.y.to_be_bytes());
        out.extend_from_slice(&self.sent_at.as_micros().to_be_bytes());
        out
    }
}

/// A beacon plus its sender signature.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedBeacon {
    /// The payload.
    pub beacon: Beacon,
    /// Signature under the sender's (pseudonym) key.
    pub signature: Signature,
}

/// Signs a beacon.
pub fn sign_beacon(beacon: Beacon, key: &SigningKey) -> SignedBeacon {
    SignedBeacon { signature: key.sign(&beacon.bytes()), beacon }
}

/// Verifies a beacon's signature (freshness is the store's job).
pub fn verify_beacon(signed: &SignedBeacon, key: &VerifyingKey) -> bool {
    key.verify(&signed.beacon.bytes(), &signed.signature)
}

/// Why a beacon was rejected by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconReject {
    /// The signature did not verify.
    BadSignature,
    /// Timestamp outside the freshness window (stale or future).
    Stale,
    /// Older than a beacon already held from this sender.
    Superseded,
}

/// Per-vehicle store of verified, fresh neighbor beacons.
#[derive(Debug, Clone)]
pub struct BeaconStore {
    freshness: SimDuration,
    entries: BTreeMap<VehicleId, Beacon>,
}

impl BeaconStore {
    /// Creates a store that trusts beacons for `freshness` after sending
    /// (1 s is the DSRC-style default at 10 Hz beaconing).
    pub fn new(freshness: SimDuration) -> Self {
        BeaconStore { freshness, entries: BTreeMap::new() }
    }

    /// Ingests a received beacon: verifies the signature against the
    /// sender's key, checks freshness, and keeps it if newer than what is
    /// held.
    ///
    /// # Errors
    ///
    /// Returns the specific [`BeaconReject`] on refusal.
    pub fn ingest(
        &mut self,
        signed: &SignedBeacon,
        sender_key: &VerifyingKey,
        now: SimTime,
    ) -> Result<(), BeaconReject> {
        if !verify_beacon(signed, sender_key) {
            return Err(BeaconReject::BadSignature);
        }
        self.admit(signed.beacon, now)
    }

    /// Batched [`BeaconStore::ingest`] over one reception window: all
    /// signatures are checked in a single random-linear-combination batch
    /// ([`vc_crypto::schnorr::verify_batch`]), then freshness and
    /// supersession run sequentially in slice order against the evolving
    /// store. Per-beacon verdicts — and the final store state — are
    /// identical to calling `ingest` on each pair in order; only the
    /// signature cost changes (one shared ~250-squaring chain plus ~120
    /// multiplies per beacon instead of ~390 multiplies each).
    pub fn ingest_batch(
        &mut self,
        batch: &[(SignedBeacon, VerifyingKey)],
        now: SimTime,
    ) -> Vec<Result<(), BeaconReject>> {
        let _f = vc_obs::profile::frame("auth.verify.batch");
        let bodies: Vec<Vec<u8>> = batch.iter().map(|(sb, _)| sb.beacon.bytes()).collect();
        let items: Vec<(&[u8], VerifyingKey, Signature)> = batch
            .iter()
            .zip(&bodies)
            .map(|((sb, key), body)| (body.as_slice(), *key, sb.signature))
            .collect();
        // `bad` is ascending (attribution enumerates in order).
        let bad =
            vc_crypto::schnorr::verify_batch(&items, b"vc-beacon-batch").err().unwrap_or_default();
        batch
            .iter()
            .enumerate()
            .map(|(i, (signed, _))| {
                if bad.binary_search(&i).is_ok() {
                    return Err(BeaconReject::BadSignature);
                }
                self.admit(signed.beacon, now)
            })
            .collect()
    }

    /// The admission rule both ingest paths apply to a beacon whose
    /// signature verified: it must fall inside the freshness window and be
    /// newer than what is held from its sender.
    fn admit(&mut self, b: Beacon, now: SimTime) -> Result<(), BeaconReject> {
        if b.sent_at > now || now.saturating_since(b.sent_at) > self.freshness {
            return Err(BeaconReject::Stale);
        }
        match self.entries.get(&b.sender) {
            Some(held) if held.sent_at >= b.sent_at => Err(BeaconReject::Superseded),
            _ => {
                self.entries.insert(b.sender, b);
                Ok(())
            }
        }
    }

    /// Evicts beacons that have aged past the freshness window.
    pub fn evict_stale(&mut self, now: SimTime) {
        let freshness = self.freshness;
        self.entries.retain(|_, b| now.saturating_since(b.sent_at) <= freshness);
    }

    /// Verified neighbors (by most recent beacon), id order.
    pub fn neighbors(&self) -> Vec<VehicleId> {
        self.entries.keys().copied().collect()
    }

    /// The freshest beacon from a neighbor.
    pub fn beacon_of(&self, id: VehicleId) -> Option<&Beacon> {
        self.entries.get(&id)
    }

    /// Number of tracked neighbors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no neighbor is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon(sender: u32, t: u64) -> Beacon {
        Beacon {
            sender: VehicleId(sender),
            pos: Point::new(10.0, 20.0),
            vel: Point::new(5.0, 0.0),
            sent_at: SimTime::from_secs(t),
        }
    }

    fn key(i: u8) -> SigningKey {
        SigningKey::from_seed(&[i, 0xBE, 0xAC])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let k = key(1);
        let sb = sign_beacon(beacon(1, 10), &k);
        assert!(verify_beacon(&sb, &k.verifying_key()));
        assert!(!verify_beacon(&sb, &key(2).verifying_key()));
    }

    #[test]
    fn forged_kinematics_detected() {
        let k = key(1);
        let mut sb = sign_beacon(beacon(1, 10), &k);
        sb.beacon.pos = Point::new(999.0, 999.0); // teleport the claim
        assert!(!verify_beacon(&sb, &k.verifying_key()));
    }

    #[test]
    fn store_accepts_fresh_rejects_stale_and_future() {
        let k = key(1);
        let mut store = BeaconStore::new(SimDuration::from_secs(1));
        let now = SimTime::from_secs(10);
        let fresh = sign_beacon(beacon(1, 10), &k);
        assert_eq!(store.ingest(&fresh, &k.verifying_key(), now), Ok(()));
        let stale = sign_beacon(beacon(1, 5), &k);
        assert_eq!(store.ingest(&stale, &k.verifying_key(), now), Err(BeaconReject::Stale));
        let future = sign_beacon(beacon(1, 20), &k);
        assert_eq!(store.ingest(&future, &k.verifying_key(), now), Err(BeaconReject::Stale));
    }

    #[test]
    fn store_rejects_bad_signature() {
        let mut store = BeaconStore::new(SimDuration::from_secs(1));
        let sb = sign_beacon(beacon(1, 10), &key(1));
        assert_eq!(
            store.ingest(&sb, &key(2).verifying_key(), SimTime::from_secs(10)),
            Err(BeaconReject::BadSignature)
        );
        assert!(store.is_empty());
    }

    #[test]
    fn newer_beacon_supersedes_older_not_vice_versa() {
        let k = key(1);
        let mut store = BeaconStore::new(SimDuration::from_secs(100));
        let now = SimTime::from_secs(50);
        store.ingest(&sign_beacon(beacon(1, 40), &k), &k.verifying_key(), now).unwrap();
        // A replayed older beacon (still in window) must not roll back state.
        assert_eq!(
            store.ingest(&sign_beacon(beacon(1, 30), &k), &k.verifying_key(), now),
            Err(BeaconReject::Superseded)
        );
        store.ingest(&sign_beacon(beacon(1, 45), &k), &k.verifying_key(), now).unwrap();
        assert_eq!(store.beacon_of(VehicleId(1)).unwrap().sent_at, SimTime::from_secs(45));
    }

    #[test]
    fn eviction_ages_out_neighbors() {
        let k1 = key(1);
        let k2 = key(2);
        let mut store = BeaconStore::new(SimDuration::from_secs(1));
        store
            .ingest(&sign_beacon(beacon(1, 10), &k1), &k1.verifying_key(), SimTime::from_secs(10))
            .unwrap();
        store
            .ingest(&sign_beacon(beacon(2, 11), &k2), &k2.verifying_key(), SimTime::from_secs(11))
            .unwrap();
        assert_eq!(store.len(), 2);
        store.evict_stale(SimTime::from_secs(11).saturating_add(SimDuration::from_millis(500)));
        assert_eq!(store.neighbors(), vec![VehicleId(2)], "v1's beacon aged out");
    }

    #[test]
    fn ingest_batch_matches_sequential_ingest() {
        let now = SimTime::from_secs(50);
        // A mixed window: valid beacons from three senders, one forged
        // signature, one stale, one intra-batch supersession pair.
        let mut batch: Vec<(SignedBeacon, VerifyingKey)> = Vec::new();
        for i in 1..=3u32 {
            let k = key(i as u8);
            batch.push((sign_beacon(beacon(i, 50), &k), k.verifying_key()));
        }
        let forged = {
            let mut sb = sign_beacon(beacon(4, 50), &key(4));
            sb.beacon.pos = Point::new(777.0, 0.0);
            sb
        };
        batch.push((forged, key(4).verifying_key()));
        batch.push((sign_beacon(beacon(5, 10), &key(5)), key(5).verifying_key())); // stale
        batch.push((sign_beacon(beacon(1, 49), &key(1)), key(1).verifying_key())); // superseded

        let mut batched = BeaconStore::new(SimDuration::from_secs(5));
        let got = batched.ingest_batch(&batch, now);

        let mut sequential = BeaconStore::new(SimDuration::from_secs(5));
        let want: Vec<_> = batch.iter().map(|(sb, k)| sequential.ingest(sb, k, now)).collect();
        assert_eq!(got, want);
        assert_eq!(got[3], Err(BeaconReject::BadSignature));
        assert_eq!(got[4], Err(BeaconReject::Stale));
        assert_eq!(got[5], Err(BeaconReject::Superseded));
        assert_eq!(batched.neighbors(), sequential.neighbors());
        for id in batched.neighbors() {
            assert_eq!(batched.beacon_of(id), sequential.beacon_of(id));
        }
    }

    #[test]
    fn ingest_batch_empty_and_all_valid() {
        let mut store = BeaconStore::new(SimDuration::from_secs(1));
        assert!(store.ingest_batch(&[], SimTime::from_secs(1)).is_empty());
        let now = SimTime::from_secs(10);
        let batch: Vec<(SignedBeacon, VerifyingKey)> = (1..=8u32)
            .map(|i| {
                let k = key(i as u8);
                (sign_beacon(beacon(i, 10), &k), k.verifying_key())
            })
            .collect();
        let got = store.ingest_batch(&batch, now);
        assert!(got.iter().all(|r| r.is_ok()));
        assert_eq!(store.len(), 8);
    }
}
