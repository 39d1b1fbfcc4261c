//! Compute tasks and their lifecycle in a vehicular cloud.
//!
//! Tasks are divisible units of work (GFLOP) with data movement costs and
//! optional deadlines. Their lifecycle reflects the paper's §III-A concerns:
//! a task may be queued, running on a lender vehicle, handed over when the
//! host leaves, requeued from scratch, completed, or expired.

use vc_sim::node::{SaeLevel, VehicleId};
use vc_sim::time::SimTime;

/// Identifier of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// Immutable description of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// This task's id.
    pub id: TaskId,
    /// Total compute work, GFLOP.
    pub work_gflop: f64,
    /// Input payload to ship to the host, MB.
    pub input_mb: f64,
    /// Output payload to ship back, MB.
    pub output_mb: f64,
    /// Optional completion deadline.
    pub deadline: Option<SimTime>,
    /// Minimum SAE automation level of the host (paper §V-A: "if the
    /// automation level \[is\] suitable for receiving this task").
    pub min_automation: SaeLevel,
}

impl TaskSpec {
    /// A simple compute-only task.
    pub fn compute(id: TaskId, work_gflop: f64) -> TaskSpec {
        TaskSpec {
            id,
            work_gflop,
            input_mb: 1.0,
            output_mb: 0.5,
            deadline: None,
            min_automation: SaeLevel::L3,
        }
    }
}

/// Live status of a task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskStatus {
    /// Waiting for a host.
    Queued,
    /// Running on a host with some completed work.
    Running {
        /// The lender vehicle executing the task.
        host: VehicleId,
        /// Work completed so far, GFLOP.
        done_gflop: f64,
    },
    /// Finished.
    Completed {
        /// Completion instant.
        at: SimTime,
    },
    /// Deadline passed before completion.
    Expired,
}

/// A task plus its mutable status and accounting.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// The immutable spec.
    pub spec: TaskSpec,
    /// Current status.
    pub status: TaskStatus,
    /// When the task was submitted.
    pub submitted_at: SimTime,
    /// Number of times the task was handed over between hosts.
    pub handovers: u32,
    /// Work lost to drop-and-recompute, GFLOP.
    pub recomputed_gflop: f64,
}

impl TaskRecord {
    /// Creates a freshly queued record.
    pub fn new(spec: TaskSpec, submitted_at: SimTime) -> TaskRecord {
        TaskRecord {
            spec,
            status: TaskStatus::Queued,
            submitted_at,
            handovers: 0,
            recomputed_gflop: 0.0,
        }
    }

    /// Remaining work, GFLOP.
    pub fn remaining_gflop(&self) -> f64 {
        match &self.status {
            TaskStatus::Running { done_gflop, .. } => (self.spec.work_gflop - done_gflop).max(0.0),
            TaskStatus::Completed { .. } => 0.0,
            _ => self.spec.work_gflop,
        }
    }

    /// `true` when the task still needs placement or execution.
    pub fn is_live(&self) -> bool {
        matches!(self.status, TaskStatus::Queued | TaskStatus::Running { .. })
    }

    /// `true` once completed.
    pub fn is_completed(&self) -> bool {
        matches!(self.status, TaskStatus::Completed { .. })
    }

    /// Turnaround time if completed.
    pub fn turnaround(&self) -> Option<vc_sim::time::SimDuration> {
        match self.status {
            TaskStatus::Completed { at } => Some(at.saturating_since(self.submitted_at)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_work_through_lifecycle() {
        let mut rec = TaskRecord::new(TaskSpec::compute(TaskId(1), 100.0), SimTime::ZERO);
        assert_eq!(rec.remaining_gflop(), 100.0);
        assert!(rec.is_live());
        rec.status = TaskStatus::Running { host: VehicleId(3), done_gflop: 30.0 };
        assert_eq!(rec.remaining_gflop(), 70.0);
        rec.status = TaskStatus::Completed { at: SimTime::from_secs(9) };
        assert_eq!(rec.remaining_gflop(), 0.0);
        assert!(rec.is_completed());
        assert!(!rec.is_live());
        assert_eq!(rec.turnaround().unwrap().as_secs_f64(), 9.0);
    }

    #[test]
    fn expired_is_not_live() {
        let mut rec = TaskRecord::new(TaskSpec::compute(TaskId(1), 10.0), SimTime::ZERO);
        rec.status = TaskStatus::Expired;
        assert!(!rec.is_live());
        assert_eq!(rec.turnaround(), None);
        assert_eq!(rec.remaining_gflop(), 10.0);
    }

    #[test]
    fn done_beyond_total_clamps() {
        let mut rec = TaskRecord::new(TaskSpec::compute(TaskId(1), 10.0), SimTime::ZERO);
        rec.status = TaskStatus::Running { host: VehicleId(0), done_gflop: 15.0 };
        assert_eq!(rec.remaining_gflop(), 0.0);
    }
}
