//! # vc-service — the simulator as a long-lived multi-tenant scenario service
//!
//! The paper's vehicular cloud is not a batch job: it is infrastructure
//! that *stays up* while many tenants submit work. This crate packages the
//! workspace's deterministic simulation core behind that operational shape:
//!
//! * [`job`] — the scenario catalog and the single deterministic job
//!   runner shared by every entry point (daemon workers, the in-process
//!   `experiments --job` mode, and tests).
//! * [`supervisor`] — a bounded [`std::thread`] worker pool with explicit
//!   job lifecycle (queued → running → done/failed/cancelled),
//!   reject-with-backpressure admission, per-job observability state, and
//!   graceful drain.
//! * [`server`] — the `vcloudd` TCP daemon: length-prefixed
//!   [`vc_net::svc`] frames over loopback, a fixed pool of connection
//!   handlers with per-connection deadlines, results streamed in chunks.
//! * [`client`] — a blocking client for the wire protocol.
//! * [`loadgen`] — the `vcload` open/closed-loop load generator with
//!   latency histograms ([`vc_obs::Quantiles`]) and a
//!   deterministic-schema JSON report.
//!
//! ## The determinism contract
//!
//! A job's RESULT payload — stats JSON, trace bytes (when requested), and
//! the FNV-1a checksum over both — is **byte-identical** to running the
//! same `(scenario, seed, ticks, flags)` in-process via [`job::run_job`],
//! regardless of concurrent load, worker-pool size, or submission order.
//! Tenants never share observability state: each job gets its
//! own [`vc_obs::Recorder`]; only wall-clock [`vc_net::svc::JobTimes`]
//! (never part of the checksum) reflect what else the daemon was doing.
//!
//! ```
//! use vc_service::job::{run_job, JobSpec};
//!
//! let spec = JobSpec { scenario: "urban-epidemic".into(), seed: 7, ticks: 40, flags: 0 };
//! let a = run_job(&spec, None).unwrap();
//! let b = run_job(&spec, None).unwrap();
//! assert_eq!(a.checksum, b.checksum);
//! assert_eq!(a.stats, b.stats);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod job;
pub mod loadgen;
pub mod server;
pub mod supervisor;

pub use client::{Client, JobResult};
pub use job::{run_job, JobError, JobOutput, JobSpec};
pub use server::{Server, ServerConfig};
pub use supervisor::{Supervisor, SupervisorConfig};
