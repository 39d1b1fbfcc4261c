//! `beacon-auth`: one op is one reception window, with no simulator at all.
//! Senders sign beacons and the receiver batch-verifies them; two
//! pseudonym-signed hellos are checked against a 10 000-entry CRL behind a
//! `CrlFront`; one pair of vehicles runs a session-cached handshake.
//!
//! `vc_crypto`/`vc_auth` do all the work here, and each layer is used two
//! ways side by side — sign beside verify, valid batch beside forged
//! fallback, cold CRL lookup beside memoised, full handshake beside resume —
//! so a gain for one use that costs the other shows.

use vc_auth::handshake::{run_handshake_cached, HandshakeObsParams, SessionCache};
use vc_auth::identity::{AuthError, RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{
    verify_with_front, CrlFront, LinkageSeed, PseudonymRegistry, PseudonymWallet,
};
use vc_crypto::schnorr::{SigningKey, VerifyingKey};
use vc_net::beacon::{sign_beacon, Beacon, BeaconReject, BeaconStore, SignedBeacon};
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};

use crate::harness::{mix, Cfg, Driven, Fnv, Lane, Layer, Sizes, Tracer, Workload};

struct Dims {
    crl: usize,
    warmup: u64,
    horizon: u64,
}

const FULL: Dims = Dims { crl: 10_000, warmup: 32, horizon: 320 };
const SMOKE: Dims = Dims { crl: 1_000, warmup: 8, horizon: 200 };

fn dims(smoke: bool) -> &'static Dims {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

const SENDERS: u64 = 64;
/// Beacons per window: E5's contact-window sizes, in turn.
const DENSITIES: [u64; 4] = [8, 16, 32, 64];
const WALLETS: u64 = 32;
/// The last two wallets are revoked; hellos and handshakes of the others
/// must pass.
const GOOD: u64 = WALLETS - 2;
const CERTS: u64 = 8;
/// One window in this many carries exactly one forged beacon.
const FORGED_EVERY: u64 = 8;
/// One window in this many gets its second hello from a revoked wallet.
const REVOKED_EVERY: u64 = 16;
/// Not-yet-seen certificates the good wallets hold besides their current
/// one; when all have been shown the receiver takes a fresh CRL front.
const COLD_SUPPLY: u64 = GOOD * (CERTS - 1);
const SESSION_SLOTS: usize = 16;
/// Six handshakes in ten repeat a pair of the last [`RECENT`] windows, whose
/// session is still cached; the rest take a random pair. Sessions live for
/// 20 windows, so the resumed share is steady from the warm-up on instead of
/// creeping up as the caches fill.
const REPEAT_TENTHS: u64 = 6;
const RECENT: u64 = 8;
const SESSION_TTL: SimDuration = SimDuration::from_secs(2);
/// 10 Hz windows.
const WINDOW_US: u64 = 100_000;
const FRESHNESS: SimDuration = SimDuration::from_secs(1);

/// Everything about window `i` that the seed decides.
struct Plan {
    density: u64,
    first_sender: u64,
    /// Position in the window of the forged beacon, if it has one.
    forged: Option<u64>,
    warm_wallet: u64,
    /// `(wallet, rotations to a certificate the receiver has not seen)`, or
    /// the revoked wallet whose hello must be refused.
    second_hello: Result<(u64, u64), u64>,
    refresh_front: bool,
    pair: (u64, u64),
}

fn plan(seed: u64, i: u64) -> Plan {
    let density = DENSITIES[(i % 4) as usize];
    let block = i / FORGED_EVERY;
    let forged =
        (mix(seed, block, 1) % FORGED_EVERY == i % FORGED_EVERY).then(|| mix(seed, i, 2) % density);
    let cold = i % COLD_SUPPLY;
    let second_hello = if i % REVOKED_EVERY == REVOKED_EVERY - 1 {
        Err(GOOD + (i / REVOKED_EVERY) % (WALLETS - GOOD))
    } else {
        Ok((cold % GOOD, 1 + cold / GOOD))
    };
    let mut drawn = i;
    while drawn >= RECENT && mix(seed, drawn, 5) % 10 < REPEAT_TENTHS {
        drawn -= 1 + mix(seed, drawn, 6) % RECENT;
    }
    let a = mix(seed, drawn, 7) % GOOD;
    let b = (a + 1 + mix(seed, drawn, 8) % (GOOD - 1)) % GOOD;
    Plan {
        density,
        first_sender: mix(seed, i, 3) % SENDERS,
        forged,
        warm_wallet: mix(seed, i, 4) % GOOD,
        second_hello,
        refresh_front: cold == 0 && i > 0,
        pair: (a, b),
    }
}

#[derive(Default)]
struct Counts {
    beacons_valid: u64,
    accepted: u64,
    forged_windows: u64,
    culprit_exact: u64,
    verifies: u64,
    memo_hits: u64,
    revoked_hellos: u64,
    revoked_rejected: u64,
    handshakes: u64,
    resumed: u64,
}

pub struct BeaconAuth {
    seed: u64,
    ta_key: VerifyingKey,
    registry: PseudonymRegistry,
    wallets: Vec<PseudonymWallet>,
    caches: Vec<SessionCache>,
    pristine_front: CrlFront,
    keys: Vec<SigningKey>,
    vkeys: Vec<VerifyingKey>,
    counts: Counts,
}

impl Workload for BeaconAuth {
    const NAME: &'static str = "beacon-auth";

    fn sizes(smoke: bool) -> Sizes {
        let d = dims(smoke);
        Sizes {
            warmup: d.warmup,
            horizon: d.horizon,
            desc: format!(
                "senders={SENDERS} densities={DENSITIES:?} wallets={WALLETS}x{CERTS} revoked={} \
                 crl={} forged=1/{FORGED_EVERY} revoked_hello=1/{REVOKED_EVERY} \
                 session_slots={SESSION_SLOTS} session_ttl=2s repeat_pair={REPEAT_TENTHS}/10",
                WALLETS - GOOD,
                d.crl
            ),
        }
    }

    fn plan_hash(seed: u64, _smoke: bool, i: u64) -> u64 {
        let p = plan(seed, i);
        let (hello_a, hello_b) = match p.second_hello {
            Ok((wallet, rotations)) => (wallet, rotations),
            Err(revoked) => (revoked, 0),
        };
        Fnv::new()
            .words([p.density, p.first_sender, p.forged.map_or(u64::MAX, |f| f), p.warm_wallet])
            .words([hello_a, hello_b, p.refresh_front as u64, p.pair.0, p.pair.1])
            .0
    }

    fn setup(cfg: &Cfg, _sizes: &Sizes, tr: &mut Tracer) -> BeaconAuth {
        let d = dims(cfg.smoke);
        let seed_bytes = cfg.seed.to_be_bytes();
        let mut ta = TrustedAuthority::new(&[&b"vcbench-ta-"[..], &seed_bytes].concat());
        let mut registry = PseudonymRegistry::new();
        let identities: Vec<RealIdentity> =
            (0..WALLETS as u32).map(|v| RealIdentity::for_vehicle(VehicleId(v))).collect();
        let wallets: Vec<PseudonymWallet> = identities
            .iter()
            .zip(0u32..)
            .map(|(identity, v)| {
                ta.register(identity.clone(), VehicleId(v));
                let key_seed = [&seed_bytes[..], &v.to_be_bytes()].concat();
                registry
                    .issue_wallet(
                        &ta,
                        identity,
                        CERTS as usize,
                        SimTime::ZERO,
                        SimTime::from_secs(10_000_000),
                        &key_seed,
                    )
                    .expect("a registered, unrevoked identity gets a wallet")
            })
            .collect();
        for identity in &identities[GOOD as usize..] {
            registry.revoke_identity(identity);
        }
        let mut pad = 0u64;
        while registry.crl().len() < d.crl {
            let (hi, lo) = (mix(cfg.seed, pad, 10), mix(cfg.seed, pad, 11));
            registry.inject_revoked_seed(LinkageSeed(
                [hi.to_be_bytes(), lo.to_be_bytes()].concat().try_into().expect("16 bytes"),
            ));
            pad += 1;
        }
        let pristine_front = CrlFront::new(registry.crl());

        let mut keys = Vec::new();
        let mut vkeys = Vec::new();
        for s in 0..SENDERS {
            let (key, vkey) = tr.span("crypto.keygen", 1, || {
                let key = SigningKey::from_seed(
                    &[&b"sender"[..], &seed_bytes, &s.to_be_bytes()].concat(),
                );
                let vkey = key.verifying_key();
                (key, vkey)
            });
            vkeys.push(vkey);
            keys.push(key);
        }
        BeaconAuth {
            seed: cfg.seed,
            ta_key: ta.public_key(),
            registry,
            wallets,
            caches: (0..GOOD).map(|_| SessionCache::new(SESSION_SLOTS, SESSION_TTL)).collect(),
            pristine_front,
            keys,
            vkeys,
            counts: Counts::default(),
        }
    }

    fn lanes(&mut self) -> Vec<Lane<'_>> {
        let BeaconAuth {
            seed,
            ta_key,
            registry,
            wallets,
            caches,
            pristine_front,
            keys,
            vkeys,
            counts,
        } = self;
        let seed = *seed;
        let mut front = pristine_front.clone();
        let mut store = BeaconStore::new(FRESHNESS);
        let mut window: Vec<(SignedBeacon, VerifyingKey)> = Vec::with_capacity(64);
        let replay_window = SimDuration::from_secs(5);

        vec![Box::new(move |i, tr| {
            let p = plan(seed, i);
            let now = SimTime::from_micros(10_000_000 + i * WINDOW_US);
            let mut out = Fnv::new();
            let mut wrong = Vec::new();

            // Beacons: every sender signs, the receiver verifies the window.
            window.clear();
            for k in 0..p.density {
                let s = (p.first_sender + k) % SENDERS;
                let beacon = Beacon {
                    sender: VehicleId(s as u32),
                    pos: Point::new(s as f64 * 7.0, i as f64 * 0.5),
                    vel: Point::new(13.9, 0.0),
                    sent_at: now,
                };
                let key = &keys[s as usize];
                let mut signed = tr.span("crypto.sign", 1, || sign_beacon(beacon, key));
                if p.forged == Some(k) {
                    signed.beacon.pos = Point::new(-1.0, -1.0);
                }
                window.push((signed, vkeys[s as usize]));
            }
            let name =
                if p.forged.is_some() { "net.beacon.ingest.forged" } else { "net.beacon.ingest" };
            let verdicts = tr.span(name, p.density as u32, || store.ingest_batch(&window, now));
            tr.span("net.beacon.evict", 1, || store.evict_stale(now));
            let bad: Vec<u64> = (0..p.density).filter(|&k| verdicts[k as usize].is_err()).collect();
            match p.forged {
                None => {
                    counts.beacons_valid += p.density;
                    counts.accepted += p.density - bad.len() as u64;
                    if !bad.is_empty() {
                        wrong.push(format!("valid beacons {bad:?} rejected"));
                    }
                }
                Some(k) => {
                    counts.forged_windows += 1;
                    let exact =
                        bad == [k] && verdicts[k as usize] == Err(BeaconReject::BadSignature);
                    counts.culprit_exact += exact as u64;
                    if !exact {
                        wrong.push(format!("forged beacon {k} attributed to {bad:?}"));
                    }
                }
            }
            out.words(bad).word(store.len() as u64);

            // Hellos: one under a certificate the receiver has seen, one
            // under a fresh certificate or from a revoked wallet.
            if p.refresh_front {
                front = tr.span("auth.crl.refresh", 1, || pristine_front.clone());
            }
            let payload = i.to_be_bytes();
            let mut hello =
                |wallet: u64, rotations: u64, expect: Result<(), AuthError>, tr: &mut Tracer| {
                    let w = &mut wallets[wallet as usize];
                    (0..rotations).for_each(|_| w.rotate());
                    let msg = tr.span("auth.pseudonym.sign", 1, || w.sign(&payload, now));
                    (0..(CERTS - rotations) % CERTS).for_each(|_| w.rotate());
                    let memo_before = front.memo_len();
                    let verdict = tr.span_by(1, || {
                        let verdict =
                            verify_with_front(&msg, ta_key, &mut front, now, replay_window);
                        let name = match (&verdict, front.memo_len() > memo_before) {
                            (Err(AuthError::Revoked), _) => "auth.pseudonym.verify.revoked",
                            (_, true) => "auth.pseudonym.verify.cold",
                            (_, false) => "auth.pseudonym.verify.warm",
                        };
                        (name, verdict)
                    });
                    counts.verifies += 1;
                    counts.memo_hits += (front.memo_len() == memo_before) as u64;
                    if verdict != expect {
                        wrong.push(format!(
                            "hello of wallet {wallet}: {verdict:?}, expected {expect:?}"
                        ));
                    }
                    verdict.is_ok() as u64
                };
            let first = hello(p.warm_wallet, 0, Ok(()), tr);
            let second = match p.second_hello {
                Ok((wallet, rotations)) => hello(wallet, rotations, Ok(()), tr),
                Err(revoked) => {
                    counts.revoked_hellos += 1;
                    let passed = hello(revoked, 0, Err(AuthError::Revoked), tr);
                    counts.revoked_rejected += 1 - passed;
                    passed
                }
            };
            out.words([first, second]);

            // Handshake between two vehicles that may hold a session.
            let (a, b) = (p.pair.0 as usize, p.pair.1 as usize);
            let (lo, hi) = caches.split_at_mut(a.max(b));
            let (cache_a, cache_b) =
                if a < b { (&mut lo[a], &mut hi[0]) } else { (&mut hi[0], &mut lo[b]) };
            let params = HandshakeObsParams {
                ta_key,
                crl: registry.crl(),
                window: replay_window,
                hop: SimDuration::from_millis(2),
            };
            let (wa, wb) = (&wallets[a], &wallets[b]);
            let shaken = tr.span_by(1, || {
                let r = run_handshake_cached(
                    wa,
                    wb,
                    cache_a,
                    cache_b,
                    &params,
                    now,
                    mix(seed, i, 9),
                    None,
                );
                let name = match r {
                    Ok((_, true)) => "auth.handshake.resume",
                    _ => "auth.handshake.full",
                };
                (name, r)
            });
            counts.handshakes += 1;
            match shaken {
                Ok((key, resumed)) => {
                    counts.resumed += resumed as u64;
                    out.word(resumed as u64).words(key.0.chunks(8).map(|c| {
                        u64::from_be_bytes(c.try_into().expect("session keys are 32 bytes"))
                    }));
                }
                Err(e) => wrong.push(format!("handshake {a}<->{b}: {e:?}")),
            }

            if wrong.is_empty() {
                Ok(out.0)
            } else {
                Err(wrong.join("; "))
            }
        })]
    }

    fn finish(self, run: &Driven, layer: &mut Layer) -> Vec<String> {
        let c = &self.counts;
        let share = |num: u64, den: u64| num as f64 / den as f64;
        layer.set("crypto.sign.us", run.us_per_call("crypto.sign"));
        layer.set("crypto.keygen.us", run.us_per_call("crypto.keygen"));
        layer.set("net.beacon.ingest_us_per_beacon", run.us_per_item("net.beacon.ingest"));
        layer.set("net.beacon.accepted_share", share(c.accepted, c.beacons_valid));
        layer.set("net.beacon.fallback_us_per_beacon", run.us_per_item("net.beacon.ingest.forged"));
        layer.set("net.beacon.culprit_exact_share", share(c.culprit_exact, c.forged_windows));
        layer.set("auth.pseudonym.sign_us", run.us_per_call("auth.pseudonym.sign"));
        layer.set("auth.pseudonym.verify_cold_us", run.us_per_call("auth.pseudonym.verify.cold"));
        layer.set("auth.pseudonym.verify_warm_us", run.us_per_call("auth.pseudonym.verify.warm"));
        layer.set("auth.crl.memo_hit_share", share(c.memo_hits, c.verifies));
        layer.set("auth.revoked.rejected_share", share(c.revoked_rejected, c.revoked_hellos));
        layer.set("auth.handshake.full_ms", run.us_per_call("auth.handshake.full") / 1e3);
        layer.set("auth.handshake.resume_us", run.us_per_call("auth.handshake.resume"));
        layer.set("auth.handshake.resume_share", share(c.resumed, c.handshakes));
        Vec::new()
    }
}
