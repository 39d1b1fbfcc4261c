//! # vc-cloud — vehicular cloud orchestration
//!
//! The paper's primary subject: pooling the under-utilized resources of
//! vehicles into clouds, across the three architectures of Fig. 4, with the
//! management machinery §III-A/§V-A calls for:
//!
//! * [`task`] / [`scheduler`] — divisible compute tasks, placement against
//!   duration-of-stay estimates, progress, deadlines, departures
//! * [`stay`] — pessimistic / optimistic / kinematic stay estimators (E6)
//! * [`replication`] — Merkle-committed file replication & repair (E7)
//! * [`arch`] — stationary, infrastructure-based, and dynamic clouds over a
//!   live scenario (E2/E3)
//! * [`emergency`] — operating modes and V2V gossip mode switching (E3)
//! * [`pipeline`] — Fig. 3's secure question chain wired end to end
//!
//! ## Example
//!
//! ```
//! use vc_cloud::prelude::*;
//! use vc_sim::scenario::ScenarioBuilder;
//!
//! let mut b = ScenarioBuilder::new();
//! b.seed(1).vehicles(20);
//! let mut cloud = CloudSim::new(
//!     b.parking_lot(),
//!     ArchitectureKind::Stationary,
//!     SchedulerConfig::default(),
//!     Kinematic,
//! );
//! cloud.submit_batch(5, 50.0, None);
//! cloud.run_ticks(100, None);
//! assert_eq!(cloud.scheduler().stats().completed, 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod directory;
pub mod emergency;
pub mod handover;
pub mod incentive;
pub mod jobs;
pub mod offload;
pub mod pipeline;
pub mod replication;
pub mod scheduler;
pub mod stay;
pub mod task;
pub mod verify;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::arch::{hosts_of, membership, ArchitectureKind, CloudSim, Membership};
    pub use crate::directory::{Requirement, Reservation, ResourceDirectory};
    pub use crate::emergency::{ModeManager, OperatingMode};
    pub use crate::handover::{open_checkpoint, seal_checkpoint, Checkpoint, SealedCheckpoint};
    pub use crate::incentive::{
        transfer as credit_transfer, CreditBank, CreditError, CreditNote, Endorsement,
    };
    pub use crate::jobs::{Aggregation, Job, JobError, JobId, JobManager, JobResult};
    pub use crate::offload::{
        decide as offload_decide, expected_latency, OffloadContext, OffloadTarget, OffloadTask,
    };
    pub use crate::pipeline::{PipelineError, SecurePipeline, VehicleCredentials};
    pub use crate::replication::{
        analytic_availability, FileId, PlacementStrategy, ReplicaHost, ReplicatedFile,
        ReplicationManager,
    };
    pub use crate::scheduler::{
        HandoverPolicy, HostInfo, PlacementPolicy, Scheduler, SchedulerConfig, SchedulerStats,
    };
    pub use crate::stay::{HostDynamics, Kinematic, Optimistic, Pessimistic, StayEstimator};
    pub use crate::task::{TaskId, TaskRecord, TaskSpec, TaskStatus};
    pub use crate::verify::{adjudicate, honest_digest, Adjudication, ResultReceipt};
}
