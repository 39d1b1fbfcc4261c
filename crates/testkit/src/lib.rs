//! # vc-testkit — the in-tree test and benchmark harness
//!
//! Every crate in this workspace must build and test **offline**: the
//! dependability story of the reproduction (deterministic behaviour under
//! adversarial conditions) is only credible when the measurement harness
//! itself is reproducible, and a harness that depends on registry crates and
//! network availability is neither. `vc-testkit` therefore replaces the four
//! registry crates such a workspace leans on:
//!
//! - [`prop`](mod@prop) — a seeded property-testing harness (replaces `proptest`).
//!   Cases are generated from the simulator's own deterministic
//!   [`vc_sim::rng::SimRng`], so a failing case is reproducible from the
//!   printed seed alone. Failures are shrunk with a bounded greedy pass.
//! - [`bench`](mod@bench) — a micro-benchmark harness (replaces `criterion`): warmup,
//!   fixed iteration batches, median/p95 wall-clock, and a `BENCH_*.json`
//!   artifact per suite.
//! - [`json`] — a small hand-rolled JSON writer (replaces `serde_json`) used
//!   by the bench harness and the experiment table generator.
//! - [`cli`] — a table-driven flag parser (replaces `clap`) for every binary
//!   and bench target: a flag the selected mode does not read is an error.
//!
//! See `docs/TESTKIT.md` at the repository root for a usage tour.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The `prop!` doctest shows real call-site usage, which requires `#[test]`
// on each property (the macro forwards the attribute onto the generated fn).
#![allow(clippy::test_attr_in_doctest)]

pub mod bench;
pub mod cli;
pub mod json;
pub mod prop;
