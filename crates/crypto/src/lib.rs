//! # vc-crypto — from-scratch cryptographic substrate
//!
//! All the cryptography the vehicular-cloud protocols build on, implemented
//! from first principles in this workspace (DESIGN.md rationale: realistic
//! protocol *costs and structure*, not production hardening):
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (verified against standard vectors)
//! * [`hmac`] — HMAC-SHA-256 and HKDF (RFC 2104 / 5869)
//! * [`u256`] — 256-bit integer with modular arithmetic: a division-based
//!   reference and the Montgomery context the group runs on
//! * [`group`] — a fixed 256-bit safe-prime discrete-log group
//! * [`schnorr`] — Schnorr signatures with deterministic nonces
//! * [`dh`] — Diffie–Hellman key agreement with HKDF session keys
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439) plus an
//!   encrypt-then-MAC `seal`/`open` pair
//! * [`merkle`] — domain-separated Merkle trees for chunked file integrity
//!
//! **Security note:** the discrete-log group is a 256-bit safe prime — far
//! below production strength for finite-field DLP — chosen so experiments
//! have real (not mocked) asymmetric-crypto cost structure at tractable
//! speed. A deployment would swap in an elliptic-curve group.
//!
//! The fast paths (Montgomery multiplication for `p` and `q`, fixed-base
//! window table, windowed Straus exponentiation, batch Schnorr verification)
//! are result-identical to the retained division-based square-and-multiply
//! references, which the property suite and the committed `results/` tables
//! hold them to (see docs/CRYPTO.md).
//!
//! ## Example
//!
//! ```
//! use vc_crypto::schnorr::SigningKey;
//! let key = SigningKey::from_seed(b"vehicle-42");
//! let sig = key.sign(b"hello v-cloud");
//! assert!(key.verifying_key().verify(b"hello v-cloud", &sig));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chacha20;
pub mod dh;
pub mod group;
pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod schnorr;
pub mod sha256;
pub mod u256;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::chacha20::{open, seal};
    pub use crate::dh::{EphemeralSecret, PublicShare, SessionKey};
    pub use crate::group::{multi_exp, Element, Scalar};
    pub use crate::hmac::{hkdf, hmac_sha256};
    pub use crate::merkle::{MerkleProof, MerkleTree};
    pub use crate::schnorr::{verify_batch, Signature, SigningKey, VerifyingKey};
    pub use crate::sha256::{sha256, Digest};
    pub use crate::u256::U256;
}
