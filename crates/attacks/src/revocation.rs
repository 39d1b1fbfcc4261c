//! Attacks on revocation by per-period linkage values (IEEE 1609.2.1): a
//! certificate carries `lv(i, j)` for its period `i` and index `j`, and a
//! verifier's [`CrlFront`] expands the CRL once per index `(i, j)` into a
//! compact filter whose hits an exact scan confirms. Each adversary goes after one
//! step of that path — the period boundary, the expansion a revocation
//! lands after, the `J` bound the expansion relies on, and the filter's
//! false hits.
//!
//! [`Defense::Off`] is a verifier or issuer without the step under attack;
//! [`Defense::On`] is the vc-auth stack. E10 prints the matrix.

use crate::outcome::{AttackOutcome, Defense};
use vc_auth::identity::{AuthError, RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{
    crl_matches, verify_checks, verify_with_front, CrlFront, LinkageSeed, PseudonymMessage,
    PseudonymRegistry, PseudonymWallet, CERTS_PER_PERIOD, LINKAGE_PERIOD,
};
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};

/// Revoked seeds of other vehicles on every CRL here, so the filter and
/// the exact scan run over a list of realistic shape.
const CRL_PAD: u64 = 256;

const WINDOW: SimDuration = SimDuration::from_secs(5);

/// The start of linkage period `period`.
fn period_start(period: u64) -> SimTime {
    SimTime::from_micros(period * LINKAGE_PERIOD.as_micros())
}

/// A TA and a registry whose CRL holds [`CRL_PAD`] other vehicles' seeds,
/// with `vehicle` registered.
fn registry(vehicle: u32) -> (TrustedAuthority, PseudonymRegistry, RealIdentity) {
    let mut ta = TrustedAuthority::new(b"revocation-attack-ta");
    let mut reg = PseudonymRegistry::new();
    for i in 0..CRL_PAD {
        let mut seed = [0x5Au8; 16];
        seed[8..].copy_from_slice(&i.to_be_bytes());
        reg.inject_revoked_seed(LinkageSeed(seed));
    }
    let id = RealIdentity::for_vehicle(VehicleId(vehicle));
    ta.register(id.clone(), VehicleId(vehicle));
    (ta, reg, id)
}

/// `wallet`'s next message at `now`, rotating after signing.
fn next_message(wallet: &mut PseudonymWallet, trial: usize, now: SimTime) -> PseudonymMessage {
    let msg = wallet.sign(format!("beacon {trial}").as_bytes(), now);
    wallet.rotate();
    msg
}

/// A verifier that skips the revocation step.
fn accepts_without_crl(msg: &PseudonymMessage, ta: &TrustedAuthority, now: SimTime) -> bool {
    verify_checks(msg, &ta.public_key(), |_| false, now, WINDOW).is_ok()
}

/// A revoked vehicle whose certificates straddle a period boundary: one
/// wallet valid from just before it, one from just after, both still valid
/// when it signs, alternately, right after the boundary. The verifier's
/// front expands both periods. Success: a message is accepted.
pub fn period_boundary_attack(defense: Defense, trials: usize) -> AttackOutcome {
    let (ta, mut reg, id) = registry(1);
    let boundary = period_start(3);
    let until = boundary + SimDuration::from_secs(3_600);
    let before = boundary - SimDuration::from_secs(60);
    let mut wallets = [(before, b"old"), (boundary, b"new")].map(|(from, seed)| {
        reg.issue_wallet(&ta, &id, 4, from, until, seed).expect("a registered vehicle")
    });
    reg.revoke_identity(&id);
    let now = boundary + SimDuration::from_secs(10);
    let mut outcome = AttackOutcome::new();
    for trial in 0..trials {
        let msg = next_message(&mut wallets[trial % 2], trial, now);
        outcome.record(match defense {
            Defense::Off => accepts_without_crl(&msg, &ta, now),
            Defense::On => {
                verify_with_front(&msg, &ta.public_key(), reg.crl(), now, WINDOW).is_ok()
            }
        });
    }
    outcome
}

/// A revocation landing mid-period, after the verifier's front has expanded
/// the period's indices and memoized the vehicle's certificates as
/// unrevoked. The
/// vehicle keeps signing under those certificates and fresh ones. Off: the
/// verifier keeps the front it held before the revocation. Success: a
/// message is accepted after the revocation.
pub fn mid_period_revocation_attack(defense: Defense, trials: usize) -> AttackOutcome {
    let (ta, mut reg, id) = registry(2);
    let from = period_start(5);
    let until = from + SimDuration::from_secs(86_400);
    let mut wallet =
        reg.issue_wallet(&ta, &id, 8, from, until, b"w").expect("a registered vehicle");
    let now = from + SimDuration::from_secs(600);
    // Half the pool is seen before the revocation: expanded and memoized.
    for trial in 0..wallet.pool_size() / 2 {
        let msg = next_message(&mut wallet, trial, now);
        verify_with_front(&msg, &ta.public_key(), reg.crl(), now, WINDOW).expect("not yet revoked");
    }
    let stale = reg.crl().clone();
    reg.revoke_identity(&id);
    let front = match defense {
        Defense::Off => &stale,
        Defense::On => reg.crl(),
    };
    let mut outcome = AttackOutcome::new();
    for trial in 0..trials {
        let msg = next_message(&mut wallet, trial, now);
        outcome.record(verify_with_front(&msg, &ta.public_key(), front, now, WINDOW).is_ok());
    }
    outcome
}

/// A vehicle asks for `J + 1` certificates in one period — in one request,
/// or as `J` and then one more — so that its last certificate's index lies
/// outside the `J` values every verifier expands. Off: an issuer without
/// the bound grants every request. Success: the `(J + 1)`-th certificate
/// is issued.
pub fn pool_overdraw_attack(defense: Defense, trials: usize) -> AttackOutcome {
    let (ta, mut reg, id) = registry(3);
    let mut outcome = AttackOutcome::new();
    for trial in 0..trials {
        let from = period_start(trial as u64);
        let until = from + SimDuration::from_secs(3_600);
        let mut issue = |pool| reg.issue_wallet(&ta, &id, pool, from, until, b"w").map(|_| ());
        let overdrawn = if trial % 2 == 0 {
            issue(CERTS_PER_PERIOD + 1)
        } else {
            issue(CERTS_PER_PERIOD).and_then(|()| issue(1))
        };
        outcome.record(match defense {
            Defense::Off => true,
            Defense::On => {
                assert_eq!(overdrawn, Err(AuthError::PoolExhausted), "issuer bound");
                false
            }
        });
    }
    outcome
}

/// A linkage value equal to a revoked vehicle's in 7 of its 8 bytes: the
/// revoked vehicle's certificate with the last byte of its linkage value
/// changed. The filter keys on the first seven bytes, so every such value
/// is a filter hit. Off: a verifier that takes a filter hit as a
/// revocation. Success: the verdict differs from the exact linear scan's
/// (which finds no seed for the changed value).
pub fn near_miss_linkage_attack(defense: Defense, trials: usize) -> AttackOutcome {
    let (ta, mut reg, id) = registry(4);
    let from = period_start(7);
    let until = from + SimDuration::from_secs(3_600);
    let mut wallet =
        reg.issue_wallet(&ta, &id, 16, from, until, b"w").expect("a registered vehicle");
    reg.revoke_identity(&id);
    let now = from + SimDuration::from_secs(60);
    let front = CrlFront::new(reg.crl());
    let mut outcome = AttackOutcome::new();
    for trial in 0..trials {
        let mut msg = next_message(&mut wallet, trial, now);
        msg.cert.linkage_value[7] ^= 1 + (trial % 255) as u8;
        let listed = crl_matches(&front, msg.cert.linkage_index(), msg.cert.linkage_value);
        let scans = front.exact_scans();
        let verdict = verify_with_front(&msg, &ta.public_key(), &front, now, WINDOW);
        let revoked = match defense {
            Defense::Off => front.exact_scans() > scans,
            Defense::On => verdict == Err(AuthError::Revoked),
        };
        outcome.record(revoked != listed);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_revocation_step_holds_and_each_baseline_falls() {
        let attacks: [fn(Defense, usize) -> AttackOutcome; 4] = [
            period_boundary_attack,
            mid_period_revocation_attack,
            pool_overdraw_attack,
            near_miss_linkage_attack,
        ];
        for attack in attacks {
            assert_eq!(attack(Defense::On, 24).successes, 0);
            assert_eq!(attack(Defense::Off, 24).successes, 24);
        }
    }
}
