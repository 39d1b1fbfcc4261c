//! # vc-attacks — the paper's §III threat list, executable
//!
//! Every attack class the paper enumerates, implemented as a measurable
//! scenario with the defense stack toggled off/on:
//!
//! * [`network`] — replay, impersonation, MITM tampering, eavesdropping,
//!   message delay/suppression, DoS flooding
//! * [`application`] — false-data injection ("data disruption") and Sybil
//!   amplification against the trust layer
//! * [`privacy`] — movement tracking / pseudonym linking and traffic-flow
//!   analysis
//! * [`revocation`] — the per-period linkage-value CRL: a period boundary,
//!   a revocation after the period's expansion, a pool past `J`, and a
//!   near-miss linkage value
//!
//! Experiment E10 prints the attack-vs-defense success matrix; E4 uses
//! [`privacy::tracking_accuracy`] for Fig. 5's privacy comparison.
//!
//! ## Example
//!
//! ```
//! use vc_attacks::prelude::*;
//! use vc_sim::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from(7);
//! let undefended = replay_attack(Defense::Off, 50, &mut rng);
//! let defended = replay_attack(Defense::On, 50, &mut rng);
//! assert!(undefended.rate() > defended.rate());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod application;
pub mod network;
pub mod outcome;
pub mod privacy;
pub mod revocation;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::application::{false_data_attack, sybil_attack};
    pub use crate::network::{
        delay_attack, dos_flood_attack, eavesdrop_attack, impersonation_attack, mitm_tamper_attack,
        replay_attack, suppression_attack,
    };
    pub use crate::outcome::{AttackOutcome, Defense};
    pub use crate::privacy::{tracking_accuracy, traffic_analysis_accuracy, IdScheme};
    pub use crate::revocation::{
        mid_period_revocation_attack, near_miss_linkage_attack, period_boundary_attack,
        pool_overdraw_attack,
    };
}
