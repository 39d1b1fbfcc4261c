//! # vcloud — vehicular cloud orchestration, security, and dependability
//!
//! A full Rust implementation of the vehicular-cloud system envisioned in
//! *"From Autonomous Vehicles to Vehicular Clouds: Challenges of Management,
//! Security and Dependability"* (Kang, Lin, Bertino, Tonguz — ICDCS 2019):
//! the VANET simulation substrate, clustering and routing, a from-scratch
//! cryptographic stack, the three v-cloud architectures, privacy-preserving
//! authentication and access control, real-time trustworthiness assessment,
//! and an executable adversary suite.
//!
//! This facade crate re-exports the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sim`] | tick kernel (virtual clock, deterministic RNG), road networks, mobility, radio |
//! | [`net`] | beaconing, clustering, moving zones, routing protocols |
//! | [`crypto`] | SHA-256, HMAC, U256, Schnorr, DH, ChaCha20, Merkle |
//! | [`auth`] | pseudonym / group / hybrid authentication, tokens, replay |
//! | [`access`] | context policies, attribute credentials, sticky packages |
//! | [`trust`] | event classification and content validators |
//! | [`cloud`] | tasks, scheduling, handover, replication, architectures |
//! | [`attacks`] | the paper's §III threat list, executable |
//!
//! ## Quickstart
//!
//! ```
//! use vcloud::prelude::*;
//!
//! // Assemble a dynamic vehicular cloud on an urban scenario and run a job.
//! let mut builder = ScenarioBuilder::new();
//! builder.seed(7).vehicles(30);
//! let mut cloud = CloudSim::new(
//!     builder.urban_with_rsus(),
//!     ArchitectureKind::Dynamic,
//!     SchedulerConfig::default(),
//!     Kinematic,
//! );
//! cloud.submit_batch(5, 50.0, None);
//! cloud.run_ticks(200, None);
//! assert!(cloud.scheduler().stats().completed > 0);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! experiment harness that regenerates every table in EXPERIMENTS.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vc_access as access;
pub use vc_attacks as attacks;
pub use vc_auth as auth;
pub use vc_cloud as cloud;
pub use vc_crypto as crypto;
pub use vc_net as net;
pub use vc_service as service;
pub use vc_sim as sim;
pub use vc_trust as trust;

/// One-stop import of the commonly used types across all crates.
pub mod prelude {
    pub use vc_access::prelude::*;
    pub use vc_attacks::prelude::*;
    pub use vc_auth::prelude::*;
    pub use vc_cloud::prelude::*;
    pub use vc_crypto::prelude::*;
    pub use vc_net::prelude::*;
    pub use vc_sim::prelude::*;
    pub use vc_trust::prelude::*;
}
