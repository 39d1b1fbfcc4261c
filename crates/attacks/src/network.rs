//! Network-layer attacks from the paper's §III threat list: replay,
//! impersonation, man-in-the-middle tampering, eavesdropping, message
//! suppression, and DoS flooding.
//!
//! Each scenario runs with the defense stack [`Defense::Off`] (an
//! unauthenticated/unencrypted baseline network) or [`Defense::On`] (the
//! vc-auth/vc-crypto stack), returning the adversary's success rate. E10
//! prints the resulting matrix.

use crate::outcome::{AttackOutcome, Defense};
use vc_auth::identity::RealIdentity;
use vc_auth::pseudonym::{PseudonymRegistry, PseudonymWallet};
use vc_auth::replay::{ReplayGuard, ReplayVerdict};
use vc_crypto::chacha20::{open, seal};
use vc_crypto::schnorr::SigningKey;
use vc_crypto::sha256::sha256;
use vc_sim::node::VehicleId;
use vc_sim::rng::SimRng;
use vc_sim::time::{SimDuration, SimTime};

fn provisioned_wallet(
    seed: u64,
) -> (vc_auth::identity::TrustedAuthority, PseudonymRegistry, PseudonymWallet) {
    let mut ta = vc_auth::identity::TrustedAuthority::new(b"attack-ta");
    let mut reg = PseudonymRegistry::new();
    let id = RealIdentity::for_vehicle(VehicleId(seed as u32));
    ta.register(id.clone(), VehicleId(seed as u32));
    let wallet = reg
        .issue_wallet(&ta, &id, 4, SimTime::ZERO, SimTime::from_secs(100_000), &seed.to_be_bytes())
        .expect("provisioning succeeds");
    (ta, reg, wallet)
}

/// Replay: the adversary captures valid messages and re-broadcasts them
/// later. Defense: signature + timestamp window + nonce cache.
pub fn replay_attack(defense: Defense, trials: usize, rng: &mut SimRng) -> AttackOutcome {
    let (ta, reg, wallet) = provisioned_wallet(1);
    let window = SimDuration::from_secs(5);
    let mut guard = ReplayGuard::new(window, 1024);
    let mut outcome = AttackOutcome::new();
    for i in 0..trials {
        let sent = SimTime::from_secs(10 + i as u64 * 20);
        let msg = wallet.sign(format!("beacon {i}").as_bytes(), sent);
        // Victim accepts the original…
        let digest = sha256(&[&msg.payload[..], &msg.signature.to_bytes()[..]].concat());
        let _ = guard.check(digest, msg.sent_at, sent);
        // …adversary replays it `delay` seconds later.
        let delay = if rng.chance(0.5) { 2 } else { 30 };
        let later = sent + SimDuration::from_secs(delay);
        let success = match defense {
            Defense::Off => {
                // Baseline victim checks only the signature: replays of valid
                // messages always pass.
                vc_auth::pseudonym::verify_with_front(
                    &msg,
                    &ta.public_key(),
                    reg.crl(),
                    later,
                    SimDuration::from_secs(1_000_000),
                )
                .is_ok()
            }
            Defense::On => {
                let sig_ok = vc_auth::pseudonym::verify_with_front(
                    &msg,
                    &ta.public_key(),
                    reg.crl(),
                    later,
                    window,
                )
                .is_ok();
                sig_ok && guard.check(digest, msg.sent_at, later) == ReplayVerdict::Fresh
            }
        };
        outcome.record(success);
    }
    outcome
}

/// Impersonation: the adversary fabricates messages claiming another
/// vehicle's pseudonym without holding its key. Defense: signatures.
pub fn impersonation_attack(defense: Defense, trials: usize) -> AttackOutcome {
    let (ta, reg, wallet) = provisioned_wallet(2);
    let attacker_key = SigningKey::from_seed(b"attacker");
    let now = SimTime::from_secs(10);
    let mut outcome = AttackOutcome::new();
    for i in 0..trials {
        // Start from a legitimate message, swap payload + signature.
        let mut forged = wallet.sign(b"placeholder", now);
        forged.payload = format!("emergency brake NOW {i}").into_bytes();
        let mut to_sign = forged.payload.clone();
        to_sign.extend_from_slice(&now.as_micros().to_be_bytes());
        forged.signature = attacker_key.sign(&to_sign);
        let success = match defense {
            // Baseline victim trusts any well-formed frame.
            Defense::Off => true,
            Defense::On => vc_auth::pseudonym::verify_with_front(
                &forged,
                &ta.public_key(),
                reg.crl(),
                now,
                SimDuration::from_secs(5),
            )
            .is_ok(),
        };
        outcome.record(success);
    }
    outcome
}

/// Man-in-the-middle tampering: a relay alters payload bytes in transit.
/// Defense: end-to-end signatures.
pub fn mitm_tamper_attack(defense: Defense, trials: usize, rng: &mut SimRng) -> AttackOutcome {
    let (ta, reg, wallet) = provisioned_wallet(3);
    let now = SimTime::from_secs(10);
    let mut outcome = AttackOutcome::new();
    for i in 0..trials {
        let mut msg = wallet.sign(format!("speed=13.2 heading=NE seq={i}").as_bytes(), now);
        // Relay flips a byte (e.g. turns "13.2" into "93.2").
        let idx = rng.index(msg.payload.len());
        msg.payload[idx] ^= 0x40;
        let success = match defense {
            Defense::Off => true,
            Defense::On => vc_auth::pseudonym::verify_with_front(
                &msg,
                &ta.public_key(),
                reg.crl(),
                now,
                SimDuration::from_secs(5),
            )
            .is_ok(),
        };
        outcome.record(success);
    }
    outcome
}

/// Eavesdropping: a bystander reads payloads off the air. Defense: session
/// encryption (sealed payloads).
pub fn eavesdrop_attack(defense: Defense, trials: usize, rng: &mut SimRng) -> AttackOutcome {
    let key = {
        let a = vc_crypto::dh::EphemeralSecret::from_seed(b"a");
        let b = vc_crypto::dh::EphemeralSecret::from_seed(b"b");
        a.agree(&b.public_share(), b"payload")
    };
    let mut outcome = AttackOutcome::new();
    for i in 0..trials {
        let secret = format!("driver-biometrics frame {i} entropy {}", rng.next_u64());
        let on_air = match defense {
            Defense::Off => secret.clone().into_bytes(),
            Defense::On => {
                let mut nonce = [0u8; 12];
                nonce[..8].copy_from_slice(&(i as u64).to_be_bytes());
                seal(&key.0, &nonce, secret.as_bytes())
            }
        };
        // The adversary "reads" whatever is on the air; success = the secret
        // is recoverable without the key.
        let success = match defense {
            Defense::Off => on_air == secret.as_bytes(),
            Defense::On => {
                // Try opening with a guessed key.
                let guess = [0u8; 32];
                let mut nonce = [0u8; 12];
                nonce[..8].copy_from_slice(&(i as u64).to_be_bytes());
                open(&guess, &nonce, &on_air).is_some()
            }
        };
        outcome.record(success);
    }
    outcome
}

/// Message suppression: the adversary controls a fraction of relay nodes
/// that silently drop packets. Defense: redundant (epidemic) forwarding vs
/// a single-path protocol. Success = a packet the victim should have
/// received was suppressed.
pub fn suppression_attack(
    defense: Defense,
    attacker_fraction: f64,
    trials: usize,
    rng: &mut SimRng,
) -> AttackOutcome {
    let mut outcome = AttackOutcome::new();
    // Abstract relay field: a packet needs `hops` relays to reach the victim.
    // Single-path: one fixed chain; epidemic: 3 independent chains.
    let hops = 4;
    let paths = match defense {
        Defense::Off => 1,
        Defense::On => 3,
    };
    for _ in 0..trials {
        let mut delivered = false;
        for _ in 0..paths {
            let clean = (0..hops).all(|_| !rng.chance(attacker_fraction));
            if clean {
                delivered = true;
                break;
            }
        }
        outcome.record(!delivered);
    }
    outcome
}

/// Message delay: hostile relays hold time-critical messages just long
/// enough to miss their deadline (paper §III: "by delaying or suppressing
/// messages, attackers may hold critical information from the legitimate
/// receivers"). Defense: redundant forwarding — the fastest clean path
/// wins. Success = the message arrives after its deadline on every path.
pub fn delay_attack(
    defense: Defense,
    attacker_fraction: f64,
    trials: usize,
    rng: &mut SimRng,
) -> AttackOutcome {
    let mut outcome = AttackOutcome::new();
    let hops = 4;
    let paths = match defense {
        Defense::Off => 1,
        Defense::On => 3,
    };
    // Budget: a safety message must arrive within 500 ms; a clean hop takes
    // ~20 ms, a hostile hop adds a 400-1000 ms hold.
    let deadline_ms = 500.0;
    for _ in 0..trials {
        let mut best_latency = f64::INFINITY;
        for _ in 0..paths {
            let mut latency = 0.0;
            for _ in 0..hops {
                latency += rng.range_f64(10.0, 30.0);
                if rng.chance(attacker_fraction) {
                    latency += rng.range_f64(400.0, 1000.0);
                }
            }
            best_latency = best_latency.min(latency);
        }
        outcome.record(best_latency > deadline_ms);
    }
    outcome
}

/// DoS flooding: the adversary sends junk at the verifier to exhaust its
/// signature-checking budget. Defense: cheap pre-filters (timestamp window,
/// certificate expiry, then signatures) so junk is rejected before the
/// expensive checks. Success = a junk message consumed an expensive
/// verification slot.
pub fn dos_flood_attack(defense: Defense, trials: usize, rng: &mut SimRng) -> AttackOutcome {
    let (ta, reg, wallet) = provisioned_wallet(4);
    let now = SimTime::from_secs(50);
    let mut outcome = AttackOutcome::new();
    for i in 0..trials {
        // Junk: a stale-timestamped or expired-cert message (cheap to make).
        let mut junk = wallet.sign(format!("junk {i}").as_bytes(), SimTime::from_secs(1));
        if rng.chance(0.5) {
            junk.cert.valid_until = SimTime::from_secs(2);
        }
        let expensive_work = match defense {
            Defense::Off => {
                // Naive verifier: signature check first — always burns the
                // expensive operation.
                let _ = vc_auth::pseudonym::verify_with_front(
                    &junk,
                    &ta.public_key(),
                    reg.crl(),
                    now,
                    SimDuration::from_secs(1_000_000),
                );
                true
            }
            Defense::On => {
                // Pre-filter: timestamp window and expiry are O(1) compares;
                // only survivors reach signature verification.
                let fresh = junk.sent_at <= now
                    && now.saturating_since(junk.sent_at) <= SimDuration::from_secs(5);
                let valid_window = now >= junk.cert.valid_from && now <= junk.cert.valid_until;
                if fresh && valid_window {
                    let _ = vc_auth::pseudonym::verify_with_front(
                        &junk,
                        &ta.public_key(),
                        reg.crl(),
                        now,
                        SimDuration::from_secs(5),
                    );
                    true
                } else {
                    false
                }
            }
        };
        outcome.record(expensive_work);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(1234)
    }

    #[test]
    fn replay_defended_vs_undefended() {
        let mut r = rng();
        let off = replay_attack(Defense::Off, 100, &mut r);
        let on = replay_attack(Defense::On, 100, &mut r);
        assert!(off.rate() > 0.9, "undefended replay mostly succeeds: {off}");
        assert_eq!(on.successes, 0, "defended replay never succeeds: {on}");
    }

    #[test]
    fn impersonation_blocked_by_signatures() {
        let off = impersonation_attack(Defense::Off, 50);
        let on = impersonation_attack(Defense::On, 50);
        assert_eq!(off.rate(), 1.0);
        assert_eq!(on.successes, 0);
    }

    #[test]
    fn mitm_blocked_by_signatures() {
        let mut r = rng();
        let off = mitm_tamper_attack(Defense::Off, 50, &mut r);
        let on = mitm_tamper_attack(Defense::On, 50, &mut r);
        assert_eq!(off.rate(), 1.0);
        assert_eq!(on.successes, 0);
    }

    #[test]
    fn eavesdrop_blocked_by_encryption() {
        let mut r = rng();
        let off = eavesdrop_attack(Defense::Off, 50, &mut r);
        let on = eavesdrop_attack(Defense::On, 50, &mut r);
        assert_eq!(off.rate(), 1.0);
        assert_eq!(on.successes, 0);
    }

    #[test]
    fn suppression_mitigated_by_redundancy() {
        let mut r = rng();
        let off = suppression_attack(Defense::Off, 0.2, 2000, &mut r);
        let on = suppression_attack(Defense::On, 0.2, 2000, &mut r);
        assert!(off.rate() > on.rate() * 2.0, "off {off} vs on {on}");
    }

    #[test]
    fn delay_mitigated_by_redundancy() {
        let mut r = rng();
        let off = delay_attack(Defense::Off, 0.3, 2000, &mut r);
        let on = delay_attack(Defense::On, 0.3, 2000, &mut r);
        assert!(off.rate() > 0.5, "single path misses deadlines often: {off}");
        // 3 paths at p(clean path)=0.7^4 cut misses from ~75% to ~(1-0.24)^3≈44%.
        assert!(on.rate() < off.rate() * 0.7, "redundancy helps: {on} vs {off}");
    }

    #[test]
    fn delay_attack_harmless_without_attackers() {
        let mut r = rng();
        let clean = delay_attack(Defense::Off, 0.0, 500, &mut r);
        assert_eq!(clean.successes, 0, "clean hops always meet the 500ms budget");
    }

    #[test]
    fn dos_prefilter_cuts_expensive_work() {
        let mut r = rng();
        let off = dos_flood_attack(Defense::Off, 200, &mut r);
        let on = dos_flood_attack(Defense::On, 200, &mut r);
        assert_eq!(off.rate(), 1.0, "naive verifier burns a signature per junk");
        assert_eq!(on.successes, 0, "prefilter rejects all stale junk");
    }
}
