//! The v-cloud task scheduler: placement, progress, expiry, and departure
//! handling.
//!
//! Implements the §III-A decision loop: place queued tasks on lender hosts
//! whose *estimated* duration of stay covers the task's remaining runtime,
//! advance running tasks, and react when a host leaves mid-task — either
//! dropping the work (the conventional-cloud reflex the paper criticizes)
//! or handing the checkpoint over to another host.

use crate::task::{TaskId, TaskRecord, TaskSpec, TaskStatus};
use std::collections::{BTreeMap, BTreeSet};
use vc_sim::node::{SaeLevel, VehicleId};
use vc_sim::time::SimTime;

/// A candidate host as the scheduler sees it this tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostInfo {
    /// The lender vehicle.
    pub id: VehicleId,
    /// Lendable compute, GFLOPS.
    pub cpu_gflops: f64,
    /// SAE automation level.
    pub automation: SaeLevel,
    /// Estimated remaining stay, seconds (an *estimate* — reality may differ).
    pub stay_estimate_s: f64,
}

/// How queued tasks pick among eligible hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// First eligible host in id order.
    FirstFit,
    /// Host with the longest estimated stay first.
    MostStable,
    /// Fastest eligible host first.
    FastestCpu,
}

/// What happens to a running task when its host departs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverPolicy {
    /// Discard progress and requeue from zero (wastes recomputation — the
    /// behaviour §III-A says conventional clouds get away with).
    Drop,
    /// Ship an encrypted checkpoint to a new host, preserving progress.
    Handover,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Departure policy.
    pub handover: HandoverPolicy,
    /// Safety factor on stay estimates (place only when
    /// `stay >= runtime * safety`).
    pub stay_safety: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            placement: PlacementPolicy::MostStable,
            handover: HandoverPolicy::Handover,
            stay_safety: 1.0,
        }
    }
}

/// Cumulative scheduler statistics.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Tasks completed.
    pub completed: u64,
    /// Tasks expired past deadline.
    pub expired: u64,
    /// Successful checkpoint handovers.
    pub handovers: u64,
    /// Work lost and redone due to drops, GFLOP.
    pub recomputed_gflop: f64,
    /// Data moved for inputs/outputs/checkpoints, MB.
    pub network_mb: f64,
    /// Work actually executed, GFLOP (includes recomputation).
    pub executed_gflop: f64,
    /// Capacity offered over time, GFLOP (Σ cpu × dt over online hosts).
    pub offered_gflop: f64,
    /// Sum of turnaround times of completed tasks, seconds.
    pub turnaround_sum_s: f64,
}

impl SchedulerStats {
    /// Utilization: executed work over offered capacity, `[0, 1]`-ish
    /// (recomputation can push the numerator up, never above offered).
    pub fn utilization(&self) -> f64 {
        if self.offered_gflop == 0.0 {
            0.0
        } else {
            self.executed_gflop / self.offered_gflop
        }
    }

    /// Mean turnaround of completed tasks, seconds.
    pub fn mean_turnaround_s(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.turnaround_sum_s / self.completed as f64
        }
    }
}

/// The scheduler.
///
/// Every record ever submitted stays readable in `tasks`; a tick walks only
/// the live ones, which are exactly the ids in `queued` plus the values of
/// `assignments`.
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    tasks: BTreeMap<TaskId, TaskRecord>,
    /// Tasks waiting for a host, in the order placement serves them.
    queued: BTreeSet<TaskId>,
    /// host → task running on it.
    assignments: BTreeMap<VehicleId, TaskId>,
    stats: SchedulerStats,
    /// Assignments the latest tick made, by placement or handover, that
    /// were still in place when it ended.
    placed: usize,
    /// This tick's unassigned hosts (reused buffer).
    free: Vec<HostInfo>,
}

impl Scheduler {
    /// Creates a scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            config,
            tasks: BTreeMap::new(),
            queued: BTreeSet::new(),
            assignments: BTreeMap::new(),
            stats: SchedulerStats::default(),
            placed: 0,
            free: Vec::new(),
        }
    }

    /// Submits a task. Submitting an id again replaces its record; a host
    /// that was running the old one is freed.
    pub fn submit(&mut self, spec: TaskSpec, now: SimTime) {
        let id = spec.id;
        if let Some(old) = self.tasks.insert(id, TaskRecord::new(spec, now)) {
            if let TaskStatus::Running { host, .. } = old.status {
                self.assignments.remove(&host);
            }
        }
        self.queued.insert(id);
    }

    /// All task records (inspection).
    pub fn tasks(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.values()
    }

    /// One record by id.
    pub fn task(&self, id: TaskId) -> Option<&TaskRecord> {
        self.tasks.get(&id)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Number of live (queued or running) tasks.
    pub fn live_tasks(&self) -> usize {
        self.queued.len() + self.assignments.len()
    }

    /// Advances the scheduler by `dt` seconds given this tick's host set.
    /// Hosts absent from `hosts` are treated as departed; of two entries
    /// with one id the later counts. Costs O(hosts + live tasks), however
    /// many tasks have finished.
    ///
    /// With a recorder attached, emits `cloud` scheduler events:
    /// `sched.place` (new or moved assignments), `sched.complete`,
    /// `sched.handover`, `sched.expire`, and `sched.requeue` (progress lost
    /// to a drop), plus `cloud.sched.live` and `cloud.sched.running` gauges.
    /// The scheduler is RNG-free, so recording changes nothing else.
    pub fn tick(
        &mut self,
        now: SimTime,
        dt: f64,
        hosts: &[HostInfo],
        rec: Option<&mut vc_obs::Recorder>,
    ) {
        let Some(rec) = rec else {
            self.advance(now, dt, hosts);
            return;
        };
        let before = self.stats.clone();
        self.advance(now, dt, hosts);
        if self.placed > 0 {
            rec.event(now, "cloud", "sched.place", vec![("tasks", self.placed.into())]);
        }
        let completed = self.stats.completed - before.completed;
        if completed > 0 {
            rec.event(now, "cloud", "sched.complete", vec![("tasks", completed.into())]);
        }
        let handovers = self.stats.handovers - before.handovers;
        if handovers > 0 {
            rec.event(now, "cloud", "sched.handover", vec![("tasks", handovers.into())]);
        }
        let expired = self.stats.expired - before.expired;
        if expired > 0 {
            rec.event(now, "cloud", "sched.expire", vec![("tasks", expired.into())]);
        }
        let recomputed = self.stats.recomputed_gflop - before.recomputed_gflop;
        if recomputed > 0.0 {
            rec.event(now, "cloud", "sched.requeue", vec![("lost_gflop", recomputed.into())]);
        }
        rec.hub_mut().gauge_set("cloud.sched.live", self.live_tasks() as f64);
        rec.hub_mut().gauge_set("cloud.sched.running", self.assignments.len() as f64);
    }

    /// The unrecorded body of [`Scheduler::tick`].
    fn advance(&mut self, now: SimTime, dt: f64, hosts: &[HostInfo]) {
        self.stats.offered_gflop += hosts.iter().map(|h| h.cpu_gflops).sum::<f64>() * dt;

        // Every phase looks hosts up by id, in id order. A membership comes
        // in that order already; anything else is sorted into a copy.
        let sorted;
        let hosts = if hosts.windows(2).all(|w| w[0].id < w[1].id) {
            hosts
        } else {
            sorted = by_id(hosts);
            &sorted
        };
        let moved = self.handle_departures(hosts);
        self.progress_running(now, dt, hosts);
        self.expire_overdue(now);
        self.placed = self.place_queued(hosts);
        // A handed-over task that also finished this tick left no assignment.
        self.placed += moved
            .iter()
            .filter(|&&(host, task)| self.assignments.get(&host) == Some(&task))
            .count();
    }

    /// Takes every task off a host that left and hands it over or requeues
    /// it; returns the handovers made as `(new host, task)`.
    fn handle_departures(&mut self, hosts: &[HostInfo]) -> Vec<(VehicleId, TaskId)> {
        let mut departed: Vec<TaskId> = Vec::new();
        self.assignments.retain(|&host, &mut task| {
            let present = find(hosts, host).is_some();
            if !present {
                departed.push(task);
            }
            present
        });
        let mut moved = Vec::new();
        if departed.is_empty() {
            return moved;
        }
        let config = self.config;
        if config.handover == HandoverPolicy::Handover {
            self.fill_free(hosts);
        }
        for task_id in departed {
            let record = self.tasks.get_mut(&task_id).expect("assigned task exists");
            let done = match record.status {
                TaskStatus::Running { done_gflop, .. } => done_gflop,
                _ => 0.0,
            };
            // Find a free eligible host to receive the checkpoint.
            let spec = &record.spec;
            let target = match config.handover {
                HandoverPolicy::Drop => None,
                HandoverPolicy::Handover => self
                    .free
                    .iter()
                    .position(|h| eligible(h, spec, spec.work_gflop - done, config.stay_safety)),
            };
            match target {
                Some(idx) => {
                    let host = self.free.remove(idx).id;
                    // Checkpoint = remaining input + progress state
                    // (modeled as half the input size).
                    self.stats.network_mb += spec.input_mb * 0.5 + spec.input_mb;
                    record.status = TaskStatus::Running { host, done_gflop: done };
                    record.handovers += 1;
                    self.stats.handovers += 1;
                    self.assignments.insert(host, task_id);
                    moved.push((host, task_id));
                }
                None => {
                    // Dropped, or nobody to hand to: progress dies with the
                    // host and the input is re-shipped on the next placement.
                    record.recomputed_gflop += done;
                    self.stats.recomputed_gflop += done;
                    record.status = TaskStatus::Queued;
                    self.queued.insert(task_id);
                }
            }
        }
        moved
    }

    fn progress_running(&mut self, now: SimTime, dt: f64, hosts: &[HostInfo]) {
        let Scheduler { tasks, assignments, stats, .. } = self;
        // In host order: the f64 sums below depend on it.
        assignments.retain(|&host, task_id| {
            let record = tasks.get_mut(task_id).expect("assigned task exists");
            let TaskStatus::Running { done_gflop, .. } = record.status else {
                return true;
            };
            let cpu = find(hosts, host).map_or(0.0, |h| h.cpu_gflops);
            let advance = (cpu * dt).min(record.spec.work_gflop - done_gflop);
            stats.executed_gflop += advance;
            let new_done = done_gflop + advance;
            let finished = new_done >= record.spec.work_gflop - 1e-9;
            if finished {
                record.status = TaskStatus::Completed { at: now };
                stats.completed += 1;
                stats.network_mb += record.spec.output_mb;
                stats.turnaround_sum_s += now.saturating_since(record.submitted_at).as_secs_f64();
            } else {
                record.status = TaskStatus::Running { host, done_gflop: new_done };
            }
            !finished
        });
    }

    fn expire_overdue(&mut self, now: SimTime) {
        let Scheduler { tasks, queued, assignments, stats, .. } = self;
        let mut overdue = |id: &TaskId| {
            let record = tasks.get_mut(id).expect("live task exists");
            let late = record.spec.deadline.is_some_and(|deadline| now > deadline);
            if late {
                record.status = TaskStatus::Expired;
                stats.expired += 1;
            }
            late
        };
        queued.retain(|id| !overdue(id));
        assignments.retain(|_, id| !overdue(id));
    }

    /// Places queued tasks, lowest id first, each on the first eligible
    /// free host in policy order; returns how many it placed.
    fn place_queued(&mut self, hosts: &[HostInfo]) -> usize {
        let _place = vc_obs::profile::frame("sched.place");
        if self.queued.is_empty() {
            return 0;
        }
        self.fill_free(hosts);
        // Ids are distinct, so each order is total and the unstable sort
        // (which, unlike the stable one, allocates nothing) is deterministic.
        match self.config.placement {
            PlacementPolicy::FirstFit => {}
            PlacementPolicy::MostStable => self.free.sort_unstable_by(|a, b| {
                b.stay_estimate_s
                    .partial_cmp(&a.stay_estimate_s)
                    .expect("finite stays")
                    .then(a.id.cmp(&b.id))
            }),
            PlacementPolicy::FastestCpu => self.free.sort_unstable_by(|a, b| {
                b.cpu_gflops.partial_cmp(&a.cpu_gflops).expect("finite").then(a.id.cmp(&b.id))
            }),
        }
        let Scheduler { tasks, queued, assignments, stats, free, config, .. } = self;
        let mut placed = 0;
        queued.retain(|task_id| {
            if free.is_empty() {
                return true;
            }
            let record = tasks.get_mut(task_id).expect("queued task exists");
            let remaining = record.remaining_gflop();
            let Some(idx) =
                free.iter().position(|h| eligible(h, &record.spec, remaining, config.stay_safety))
            else {
                return true;
            };
            let host = free.remove(idx).id;
            record.status =
                TaskStatus::Running { host, done_gflop: record.spec.work_gflop - remaining };
            stats.network_mb += record.spec.input_mb;
            assignments.insert(host, *task_id);
            placed += 1;
            false
        });
        placed
    }

    /// Refills `free` with the hosts nothing runs on, ascending by id.
    fn fill_free(&mut self, hosts: &[HostInfo]) {
        self.free.clear();
        let mut busy = self.assignments.keys().peekable();
        for host in hosts {
            while busy.next_if(|&&b| b < host.id).is_some() {}
            if busy.peek() != Some(&&host.id) {
                self.free.push(*host);
            }
        }
    }
}

/// `hosts` ascending by id; of two entries with one id the later survives.
fn by_id(hosts: &[HostInfo]) -> Vec<HostInfo> {
    let mut sorted = hosts.to_vec();
    sorted.sort_by_key(|h| h.id);
    sorted.dedup_by(|later, kept| {
        let same = later.id == kept.id;
        if same {
            *kept = *later;
        }
        same
    });
    sorted
}

/// The entry for `id` in `hosts`, which ascend by id.
fn find(hosts: &[HostInfo], id: VehicleId) -> Option<&HostInfo> {
    hosts.binary_search_by_key(&id, |h| h.id).ok().map(|i| &hosts[i])
}

/// Is this host allowed to take this task, per automation floor and stay
/// estimate vs remaining runtime?
fn eligible(host: &HostInfo, spec: &TaskSpec, remaining_gflop: f64, safety: f64) -> bool {
    if host.automation < spec.min_automation {
        return false;
    }
    if host.cpu_gflops <= 0.0 {
        return false;
    }
    let runtime = remaining_gflop / host.cpu_gflops;
    host.stay_estimate_s >= runtime * safety
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(id: u32, cpu: f64, stay: f64) -> HostInfo {
        HostInfo {
            id: VehicleId(id),
            cpu_gflops: cpu,
            automation: SaeLevel::L4,
            stay_estimate_s: stay,
        }
    }

    fn spec(id: u64, work: f64) -> TaskSpec {
        TaskSpec::compute(TaskId(id), work)
    }

    fn run(sched: &mut Scheduler, hosts: &[HostInfo], ticks: usize, dt: f64) -> SimTime {
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            now += vc_sim::time::SimDuration::from_secs_f64(dt);
            sched.tick(now, dt, hosts, None);
        }
        now
    }

    #[test]
    fn single_task_completes() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 100.0), SimTime::ZERO);
        let hosts = [host(0, 50.0, 1000.0)];
        run(&mut s, &hosts, 10, 1.0);
        assert_eq!(s.stats().completed, 1);
        assert!(s.task(TaskId(1)).unwrap().is_completed());
        // 100 GFLOP at 50 GFLOPS = 2 s of work + 1 tick placement lag.
        let t = s.task(TaskId(1)).unwrap().turnaround().unwrap().as_secs_f64();
        assert!(t <= 4.0, "turnaround {t}");
    }

    #[test]
    fn placement_respects_automation_floor() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut sp = spec(1, 10.0);
        sp.min_automation = SaeLevel::L5;
        s.submit(sp, SimTime::ZERO);
        let hosts = [HostInfo { automation: SaeLevel::L3, ..host(0, 100.0, 1000.0) }];
        run(&mut s, &hosts, 5, 1.0);
        assert_eq!(s.stats().completed, 0, "L3 host must not take an L5 task");
    }

    #[test]
    fn placement_respects_stay_estimate() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 1000.0), SimTime::ZERO); // 100 s on this host
        let hosts = [host(0, 10.0, 30.0)]; // claims to stay only 30 s
        run(&mut s, &hosts, 5, 1.0);
        assert_eq!(s.live_tasks(), 1);
        assert_eq!(s.stats().completed, 0, "stay too short, never placed");
    }

    #[test]
    fn most_stable_placement_prefers_long_stay() {
        let config =
            SchedulerConfig { placement: PlacementPolicy::MostStable, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 10.0), SimTime::ZERO);
        let hosts = [host(0, 100.0, 50.0), host(1, 100.0, 500.0)];
        s.tick(SimTime::from_secs(1), 1.0, &hosts, None);
        match s.task(TaskId(1)).unwrap().status {
            TaskStatus::Running { host: h, .. } => assert_eq!(h, VehicleId(1)),
            ref other => panic!("expected running, got {other:?}"),
        }
    }

    #[test]
    fn fastest_cpu_placement() {
        let config =
            SchedulerConfig { placement: PlacementPolicy::FastestCpu, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 10.0), SimTime::ZERO);
        let hosts = [host(0, 50.0, 1000.0), host(1, 200.0, 1000.0)];
        s.tick(SimTime::from_secs(1), 1.0, &hosts, None);
        if let TaskStatus::Running { host: h, .. } = s.task(TaskId(1)).unwrap().status {
            assert_eq!(h, VehicleId(1));
        } else {
            panic!("not running");
        }
    }

    #[test]
    fn drop_policy_loses_progress() {
        let config = SchedulerConfig { handover: HandoverPolicy::Drop, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 100.0), SimTime::ZERO);
        let both = [host(0, 10.0, 1000.0)];
        // Run 5 s: ~40 GFLOP done (first tick places, 4 ticks execute).
        run(&mut s, &both, 5, 1.0);
        // Host 0 departs; nothing remains.
        s.tick(SimTime::from_secs(6), 1.0, &[], None);
        let rec = s.task(TaskId(1)).unwrap();
        assert_eq!(rec.status, TaskStatus::Queued);
        assert!(rec.recomputed_gflop > 0.0, "progress was lost");
        assert!(s.stats().recomputed_gflop > 0.0);
        assert_eq!(s.stats().handovers, 0);
    }

    #[test]
    fn handover_policy_preserves_progress() {
        let config = SchedulerConfig { handover: HandoverPolicy::Handover, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 100.0), SimTime::ZERO);
        let before = [host(0, 10.0, 1000.0), host(1, 10.0, 1000.0)];
        run(&mut s, &before, 5, 1.0);
        // Host 0 departs, host 1 remains free → checkpoint moves.
        let after = [host(1, 10.0, 1000.0)];
        s.tick(SimTime::from_secs(6), 1.0, &after, None);
        let rec = s.task(TaskId(1)).unwrap();
        if let TaskStatus::Running { host: h, done_gflop } = rec.status {
            assert_eq!(h, VehicleId(1));
            assert!(done_gflop > 0.0, "progress preserved");
        } else {
            panic!("expected running after handover, got {:?}", rec.status);
        }
        assert_eq!(s.stats().handovers, 1);
        assert_eq!(rec.recomputed_gflop, 0.0);
    }

    #[test]
    fn handover_falls_back_to_drop_without_target() {
        let config = SchedulerConfig { handover: HandoverPolicy::Handover, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 100.0), SimTime::ZERO);
        run(&mut s, &[host(0, 10.0, 1000.0)], 5, 1.0);
        s.tick(SimTime::from_secs(6), 1.0, &[], None);
        let rec = s.task(TaskId(1)).unwrap();
        assert_eq!(rec.status, TaskStatus::Queued);
        assert!(rec.recomputed_gflop > 0.0);
    }

    #[test]
    fn deadline_expiry() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut sp = spec(1, 10_000.0);
        sp.deadline = Some(SimTime::from_secs(3));
        s.submit(sp, SimTime::ZERO);
        run(&mut s, &[host(0, 10.0, 10_000.0)], 10, 1.0);
        assert_eq!(s.stats().expired, 1);
        assert_eq!(s.task(TaskId(1)).unwrap().status, TaskStatus::Expired);
        // Host freed for other work.
        s.submit(spec(2, 10.0), SimTime::from_secs(10));
        let mut now = SimTime::from_secs(10);
        for _ in 0..5 {
            now += vc_sim::time::SimDuration::from_secs(1);
            s.tick(now, 1.0, &[host(0, 10.0, 10_000.0)], None);
        }
        assert_eq!(s.stats().completed, 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 50.0), SimTime::ZERO);
        run(&mut s, &[host(0, 10.0, 1000.0)], 10, 1.0);
        let st = s.stats();
        assert_eq!(st.completed, 1);
        assert!((st.executed_gflop - 50.0).abs() < 1e-6);
        assert!((st.offered_gflop - 100.0).abs() < 1e-6);
        assert!((st.utilization() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn one_task_per_host() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 1000.0), SimTime::ZERO);
        s.submit(spec(2, 1000.0), SimTime::ZERO);
        s.tick(SimTime::from_secs(1), 1.0, &[host(0, 10.0, 10_000.0)], None);
        let running = s.tasks().filter(|t| matches!(t.status, TaskStatus::Running { .. })).count();
        assert_eq!(running, 1, "a host runs one task at a time");
    }

    #[test]
    fn resubmitting_a_running_id_frees_its_host() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 1000.0), SimTime::ZERO);
        let hosts = [host(0, 10.0, 10_000.0)];
        run(&mut s, &hosts, 2, 1.0);
        assert!(matches!(s.task(TaskId(1)).unwrap().status, TaskStatus::Running { .. }));
        s.submit(spec(1, 20.0), SimTime::from_secs(2));
        assert_eq!(s.task(TaskId(1)).unwrap().status, TaskStatus::Queued);
        assert_eq!(s.live_tasks(), 1, "one record, queued, and no assignment left behind");
        run(&mut s, &hosts, 4, 1.0);
        assert_eq!(s.stats().completed, 1);
        assert_eq!(s.live_tasks(), 0);
    }

    #[test]
    fn recorded_tick_matches_plain_and_emits_lifecycle_events() {
        let mk = || {
            let mut s = Scheduler::new(SchedulerConfig::default());
            s.submit(spec(1, 50.0), SimTime::ZERO);
            s
        };
        let hosts = [host(0, 10.0, 1000.0)];
        let mut plain = mk();
        run(&mut plain, &hosts, 10, 1.0);

        let mut recorded = mk();
        let mut rec = vc_obs::Recorder::new();
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += vc_sim::time::SimDuration::from_secs(1);
            recorded.tick(now, 1.0, &hosts, Some(&mut rec));
        }
        assert_eq!(recorded.stats().completed, plain.stats().completed);
        assert_eq!(rec.hub().counter("cloud.sched.place"), 1);
        assert_eq!(rec.hub().counter("cloud.sched.complete"), 1);
        assert_eq!(rec.hub().gauge("cloud.sched.live"), Some(0.0));
    }

    #[test]
    fn network_accounting_includes_io() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 10.0), SimTime::ZERO);
        run(&mut s, &[host(0, 100.0, 1000.0)], 3, 1.0);
        // input 1.0 MB + output 0.5 MB
        assert!((s.stats().network_mb - 1.5).abs() < 1e-9);
    }
}
