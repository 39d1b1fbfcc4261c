//! Property-based tests for scheduler conservation laws and replication.

use vc_cloud::prelude::*;
use vc_sim::node::{SaeLevel, VehicleId};
use vc_sim::rng::SimRng;
use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::prop::strategy::{any_u64, any_u8, from_fn, vec, FromFn};
use vc_testkit::{prop, prop_assert, prop_assert_eq, prop_assume};

fn hosts_strategy() -> FromFn<impl Fn(&mut SimRng) -> Vec<HostInfo>> {
    from_fn(|rng| {
        let n = rng.range_u64(1, 12) as usize;
        (0..n)
            .map(|i| HostInfo {
                id: VehicleId(i as u32),
                cpu_gflops: rng.range_f64(10.0, 200.0),
                automation: SaeLevel::L4,
                stay_estimate_s: rng.range_f64(5.0, 500.0),
            })
            .collect()
    })
}

/// The scheduler as it stood before its queued and running indices — a
/// `BTreeMap` of hosts built every tick, the free list recomputed for each
/// departed host, every record ever submitted walked by expiry and by
/// placement, `tick_obs` diffing a clone of the assignments — kept verbatim
/// as the oracle the production scheduler is compared against.
mod reference {
    use std::collections::BTreeMap;
    use vc_cloud::prelude::*;
    use vc_sim::node::VehicleId;
    use vc_sim::time::SimTime;

    #[derive(Debug)]
    pub struct Scheduler {
        config: SchedulerConfig,
        tasks: BTreeMap<TaskId, TaskRecord>,
        /// host → task running on it.
        assignments: BTreeMap<VehicleId, TaskId>,
        stats: SchedulerStats,
    }

    impl Scheduler {
        /// Creates a scheduler.
        pub fn new(config: SchedulerConfig) -> Self {
            Scheduler {
                config,
                tasks: BTreeMap::new(),
                assignments: BTreeMap::new(),
                stats: SchedulerStats::default(),
            }
        }

        /// Submits a task.
        pub fn submit(&mut self, spec: TaskSpec, now: SimTime) {
            self.tasks.insert(spec.id, TaskRecord::new(spec, now));
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
            self.tasks.values().filter(|t| t.is_live()).count()
        }

        /// Advances like [`Scheduler::tick`] and emits `cloud` scheduler events
        /// to the recorder: `sched.place` (new or moved assignments),
        /// `sched.complete`, `sched.handover`, `sched.expire`, and
        /// `sched.requeue` (progress lost to a drop), plus `cloud.sched.live`
        /// and `cloud.sched.running` gauges. The scheduler is RNG-free, so the
        /// probed path is behaviourally identical to the plain one.
        pub fn tick_obs(
            &mut self,
            now: SimTime,
            dt: f64,
            hosts: &[HostInfo],
            rec: Option<&mut vc_obs::Recorder>,
        ) {
            let Some(rec) = rec else {
                self.tick(now, dt, hosts);
                return;
            };
            let assignments_before = self.assignments.clone();
            let before = self.stats.clone();
            self.tick(now, dt, hosts);
            let placed = self
                .assignments
                .iter()
                .filter(|(host, task)| assignments_before.get(host) != Some(task))
                .count();
            if placed > 0 {
                rec.event(now, "cloud", "sched.place", vec![("tasks", placed.into())]);
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

        /// Advances the scheduler by `dt` seconds given this tick's host set.
        /// Hosts absent from `hosts` are treated as departed.
        pub fn tick(&mut self, now: SimTime, dt: f64, hosts: &[HostInfo]) {
            let host_map: BTreeMap<VehicleId, HostInfo> =
                hosts.iter().map(|h| (h.id, *h)).collect();
            self.stats.offered_gflop += hosts.iter().map(|h| h.cpu_gflops).sum::<f64>() * dt;

            self.handle_departures(&host_map);
            self.progress_running(now, dt, &host_map);
            self.expire_overdue(now);
            self.place_queued(&host_map);
        }

        fn handle_departures(&mut self, host_map: &BTreeMap<VehicleId, HostInfo>) {
            let departed: Vec<(VehicleId, TaskId)> = self
                .assignments
                .iter()
                .filter(|(host, _)| !host_map.contains_key(host))
                .map(|(h, t)| (*h, *t))
                .collect();
            for (host, task_id) in departed {
                self.assignments.remove(&host);
                let config = self.config;
                let free = self.free_hosts(host_map);
                let record = self.tasks.get_mut(&task_id).expect("assigned task exists");
                let done = match record.status {
                    TaskStatus::Running { done_gflop, .. } => done_gflop,
                    _ => 0.0,
                };
                match config.handover {
                    HandoverPolicy::Drop => {
                        record.recomputed_gflop += done;
                        self.stats.recomputed_gflop += done;
                        record.status = TaskStatus::Queued;
                        // Input must be re-shipped on the next placement.
                    }
                    HandoverPolicy::Handover => {
                        // Find a free eligible host to receive the checkpoint.
                        let spec = record.spec.clone();
                        let target = free.into_iter().find(|h| {
                            eligible(h, &spec, spec.work_gflop - done, config.stay_safety)
                        });
                        match target {
                            Some(h) => {
                                // Checkpoint = remaining input + progress state
                                // (modeled as half the input size).
                                self.stats.network_mb += spec.input_mb * 0.5 + spec.input_mb;
                                record.status =
                                    TaskStatus::Running { host: h.id, done_gflop: done };
                                record.handovers += 1;
                                self.stats.handovers += 1;
                                self.assignments.insert(h.id, task_id);
                            }
                            None => {
                                // Nobody to hand to: progress dies with the host.
                                record.recomputed_gflop += done;
                                self.stats.recomputed_gflop += done;
                                record.status = TaskStatus::Queued;
                            }
                        }
                    }
                }
            }
        }

        fn progress_running(
            &mut self,
            now: SimTime,
            dt: f64,
            host_map: &BTreeMap<VehicleId, HostInfo>,
        ) {
            let running: Vec<TaskId> = self.assignments.values().copied().collect();
            for task_id in running {
                let record = self.tasks.get_mut(&task_id).expect("assigned task exists");
                if let TaskStatus::Running { host, done_gflop } = record.status {
                    let cpu = host_map.get(&host).map_or(0.0, |h| h.cpu_gflops);
                    let advance = (cpu * dt).min(record.spec.work_gflop - done_gflop);
                    self.stats.executed_gflop += advance;
                    let new_done = done_gflop + advance;
                    if new_done >= record.spec.work_gflop - 1e-9 {
                        record.status = TaskStatus::Completed { at: now };
                        self.stats.completed += 1;
                        self.stats.network_mb += record.spec.output_mb;
                        self.stats.turnaround_sum_s +=
                            now.saturating_since(record.submitted_at).as_secs_f64();
                        self.assignments.remove(&host);
                    } else {
                        record.status = TaskStatus::Running { host, done_gflop: new_done };
                    }
                }
            }
        }

        fn expire_overdue(&mut self, now: SimTime) {
            let mut freed: Vec<VehicleId> = Vec::new();
            for record in self.tasks.values_mut() {
                if !record.is_live() {
                    continue;
                }
                if let Some(deadline) = record.spec.deadline {
                    if now > deadline {
                        if let TaskStatus::Running { host, .. } = record.status {
                            freed.push(host);
                        }
                        record.status = TaskStatus::Expired;
                        self.stats.expired += 1;
                    }
                }
            }
            for host in freed {
                self.assignments.remove(&host);
            }
        }

        fn place_queued(&mut self, host_map: &BTreeMap<VehicleId, HostInfo>) {
            let _place = vc_obs::profile::frame("sched.place");
            let mut free = self.free_hosts(host_map);
            match self.config.placement {
                PlacementPolicy::FirstFit => free.sort_by_key(|h| h.id),
                PlacementPolicy::MostStable => free.sort_by(|a, b| {
                    b.stay_estimate_s
                        .partial_cmp(&a.stay_estimate_s)
                        .expect("finite stays")
                        .then(a.id.cmp(&b.id))
                }),
                PlacementPolicy::FastestCpu => free.sort_by(|a, b| {
                    b.cpu_gflops.partial_cmp(&a.cpu_gflops).expect("finite").then(a.id.cmp(&b.id))
                }),
            }
            let queued: Vec<TaskId> = self
                .tasks
                .values()
                .filter(|t| matches!(t.status, TaskStatus::Queued))
                .map(|t| t.spec.id)
                .collect();
            let safety = self.config.stay_safety;
            for task_id in queued {
                let record = self.tasks.get_mut(&task_id).expect("queued task exists");
                let remaining = record.remaining_gflop();
                let Some(idx) =
                    free.iter().position(|h| eligible(h, &record.spec, remaining, safety))
                else {
                    continue;
                };
                let host = free.remove(idx);
                record.status = TaskStatus::Running {
                    host: host.id,
                    done_gflop: record.spec.work_gflop - remaining,
                };
                self.stats.network_mb += record.spec.input_mb;
                self.assignments.insert(host.id, task_id);
            }
        }

        fn free_hosts(&self, host_map: &BTreeMap<VehicleId, HostInfo>) -> Vec<HostInfo> {
            host_map.values().filter(|h| !self.assignments.contains_key(&h.id)).copied().collect()
        }
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
}

/// One scheduler run: who is present and what is submitted on each tick.
#[derive(Debug, Clone)]
struct Churn {
    /// The host pool; ids are spread out and not in order, two entries may
    /// share one, and one host cannot compute.
    pool: Vec<HostInfo>,
    /// Per tick: the pool indices present, in the order they are offered.
    present: Vec<Vec<usize>>,
    /// Per tick: the tasks submitted before it.
    submits: Vec<Vec<TaskSpec>>,
}

/// A value in `lo..hi`, half the time one of five round ones, so hosts tie
/// on stay and on speed and the id has to break the tie.
fn pick(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    if rng.chance(0.5) {
        lo + (hi - lo) * rng.index(5) as f64 / 5.0
    } else {
        rng.range_f64(lo, hi)
    }
}

fn churn() -> FromFn<impl Fn(&mut SimRng) -> Churn> {
    from_fn(|rng| {
        let levels = [SaeLevel::L3, SaeLevel::L4, SaeLevel::L5];
        let n = rng.range_u64(1, 14) as usize;
        let mut pool: Vec<HostInfo> = (0..n)
            .map(|i| HostInfo {
                id: VehicleId((i as u32 * 37 + 5) % 101),
                cpu_gflops: if i == 3 { 0.0 } else { pick(rng, 10.0, 200.0) },
                automation: levels[rng.index(3)],
                stay_estimate_s: pick(rng, 1.0, 120.0),
            })
            .collect();
        if n > 6 && rng.chance(0.3) {
            pool[5].id = pool[1].id;
        }
        let ticks = rng.range_u64(5, 60) as usize;
        // Half the runs offer hosts in ascending id order, as a membership
        // does; the rest in pool order, which is not sorted.
        let ascending = rng.chance(0.5) && pool[n.min(6) - 1].id != pool[n.min(2) - 1].id;
        let stay_prob = rng.range_f64(0.5, 1.0);
        let present = (0..ticks)
            .map(|_| {
                let mut here: Vec<usize> = (0..n).filter(|_| rng.chance(stay_prob)).collect();
                if ascending {
                    here.sort_by_key(|&i| pool[i].id);
                }
                here
            })
            .collect();
        let mut next_id = 0;
        let submits = (0..ticks)
            .map(|t| {
                let burst = if t == 0 || rng.chance(0.2) { rng.range_u64(0, 8) } else { 0 };
                (0..burst)
                    .map(|_| {
                        // Ids mostly ascend; some land below ones already queued.
                        next_id += 3;
                        let id = TaskId(if rng.chance(0.2) { next_id - 2 } else { next_id });
                        let mut spec = TaskSpec::compute(id, rng.range_f64(5.0, 1500.0));
                        spec.min_automation = levels[rng.index(3)];
                        spec.input_mb = rng.range_f64(0.1, 9.0);
                        spec.output_mb = rng.range_f64(0.1, 9.0);
                        if rng.chance(0.4) {
                            spec.deadline =
                                Some(SimTime::from_secs(t as u64 + rng.range_u64(0, 25)));
                        }
                        spec
                    })
                    .collect()
            })
            .collect();
        Churn { pool, present, submits }
    })
}

/// The events a recorder holds, as comparable text.
fn events(rec: &vc_obs::Recorder) -> Vec<String> {
    rec.events().map(|e| format!("{e:?}")).collect()
}

prop! {
    #![cases(64)]

    // Conservation: every submitted task is exactly one of queued, running,
    // completed, expired — and executed work never exceeds offered capacity.
    #[test]
    fn scheduler_conserves_tasks(
        hosts in hosts_strategy(),
        works in vec(10.0f64..2000.0, 1..20),
        churn_seed in any_u64(),
        ticks in 10usize..80,
    ) {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        for (i, w) in works.iter().enumerate() {
            sched.submit(TaskSpec::compute(TaskId(i as u64), *w), SimTime::ZERO);
        }
        let mut rng = SimRng::seed_from(churn_seed);
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            now += SimDuration::from_secs(1);
            // Random churn: each host present with 80% probability.
            let present: Vec<HostInfo> =
                hosts.iter().filter(|_| rng.chance(0.8)).copied().collect();
            sched.tick(now, 1.0, &present, None);
        }
        let mut queued = 0u64;
        let mut running = 0u64;
        let mut completed = 0u64;
        let mut expired = 0u64;
        for t in sched.tasks() {
            match t.status {
                TaskStatus::Queued => queued += 1,
                TaskStatus::Running { .. } => running += 1,
                TaskStatus::Completed { .. } => completed += 1,
                TaskStatus::Expired => expired += 1,
            }
        }
        prop_assert_eq!(queued + running + completed + expired, works.len() as u64);
        prop_assert_eq!(completed, sched.stats().completed);
        let stats = sched.stats();
        prop_assert!(stats.executed_gflop <= stats.offered_gflop + 1e-6,
            "executed {} > offered {}", stats.executed_gflop, stats.offered_gflop);
        // Completed tasks really did their work.
        let total_completed_work: f64 = sched
            .tasks()
            .filter(|t| t.is_completed())
            .map(|t| t.spec.work_gflop)
            .sum();
        prop_assert!(stats.executed_gflop + 1e-6 >= total_completed_work);
    }

    // The indexed scheduler is the old one made cheaper, nothing else: after
    // every tick the statistics are bit-equal (their f64 sums are order
    // sensitive), every task has the same status and accounting, and a
    // recorder hears the same events — under host churn, all placement and
    // departure policies, deadlines, automation floors and mid-run submits.
    #[test]
    fn scheduler_matches_reference(run in churn(), safety in 0.5f64..2.0) {
        let placements =
            [PlacementPolicy::FirstFit, PlacementPolicy::MostStable, PlacementPolicy::FastestCpu];
        for placement in placements {
            for handover in [HandoverPolicy::Drop, HandoverPolicy::Handover] {
                let config = SchedulerConfig { placement, handover, stay_safety: safety };
                let mut sched = Scheduler::new(config);
                let mut want = reference::Scheduler::new(config);
                let (mut rec, mut want_rec) = (vc_obs::Recorder::new(), vc_obs::Recorder::new());
                let mut now = SimTime::ZERO;
                for (t, (present, submits)) in run.present.iter().zip(&run.submits).enumerate() {
                    for spec in submits {
                        sched.submit(spec.clone(), now);
                        want.submit(spec.clone(), now);
                    }
                    now += SimDuration::from_secs(1);
                    let hosts: Vec<HostInfo> = present.iter().map(|&i| run.pool[i]).collect();
                    // Recorded and plain ticks alternate; both must agree.
                    let recorded = t % 3 != 0;
                    sched.tick(now, 1.0, &hosts, recorded.then_some(&mut rec));
                    want.tick_obs(now, 1.0, &hosts, recorded.then_some(&mut want_rec));

                    let (got, exp) = (sched.stats(), want.stats());
                    prop_assert_eq!(
                        (got.completed, got.expired, got.handovers),
                        (exp.completed, exp.expired, exp.handovers),
                        "counts at tick {} under {:?}", t, config
                    );
                    let bits = |s: &SchedulerStats| [
                        s.recomputed_gflop, s.network_mb, s.executed_gflop,
                        s.offered_gflop, s.turnaround_sum_s,
                    ].map(f64::to_bits);
                    prop_assert_eq!(bits(got), bits(exp), "sums at tick {} under {:?}", t, config);
                    prop_assert_eq!(sched.live_tasks(), want.live_tasks());
                    prop_assert_eq!(sched.tasks().count(), want.tasks().count());
                    for (a, b) in sched.tasks().zip(want.tasks()) {
                        prop_assert_eq!(a.spec.id, b.spec.id);
                        prop_assert_eq!(&a.status, &b.status, "task {:?} at tick {}", a.spec.id, t);
                        prop_assert_eq!(a.handovers, b.handovers);
                        prop_assert_eq!(a.recomputed_gflop.to_bits(), b.recomputed_gflop.to_bits());
                        prop_assert_eq!(
                            sched.task(a.spec.id).map(|r| &r.status),
                            want.task(a.spec.id).map(|r| &r.status)
                        );
                    }
                }
                prop_assert_eq!(events(&rec), events(&want_rec), "events under {:?}", config);
            }
        }
    }

    // Running tasks always sit on hosts from the current set, one per host.
    #[test]
    fn one_task_per_host_invariant(
        hosts in hosts_strategy(),
        n_tasks in 1usize..30,
        ticks in 1usize..30,
    ) {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        for i in 0..n_tasks {
            sched.submit(TaskSpec::compute(TaskId(i as u64), 500.0), SimTime::ZERO);
        }
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            now += SimDuration::from_secs(1);
            sched.tick(now, 1.0, &hosts, None);
            let mut seen = std::collections::BTreeSet::new();
            for t in sched.tasks() {
                if let TaskStatus::Running { host, .. } = t.status {
                    prop_assert!(hosts.iter().any(|h| h.id == host));
                    prop_assert!(seen.insert(host), "host {host} runs two tasks");
                }
            }
        }
    }

    // Replication: holders are always distinct, bounded by the candidate
    // pool, and repair never exceeds the target.
    #[test]
    fn replication_bounds(
        pool in 1usize..40,
        replicas in 1usize..10,
        content in vec(any_u8(), 1..2048),
        seed in any_u64(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let hosts: Vec<ReplicaHost> = (0..pool)
            .map(|i| ReplicaHost { id: VehicleId(i as u32), stay_estimate_s: (i as f64) * 7.0 })
            .collect();
        let mut mgr = ReplicationManager::new();
        for strategy in [PlacementStrategy::Random, PlacementStrategy::StabilityRanked] {
            let fid = FileId(strategy as u64);
            let file = mgr.publish(fid, &content, replicas, &hosts, strategy, &mut rng);
            prop_assert!(file.holders.len() <= replicas.min(pool));
            let mut distinct = file.holders.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), file.holders.len(), "duplicate holders");
            // Repair to target never overshoots.
            mgr.repair(fid, replicas, &|_| true, &hosts, strategy, &mut rng);
            prop_assert!(mgr.file(fid).unwrap().holders.len() <= replicas.min(pool));
        }
    }

    // Stay estimation: the kinematic exit time is consistent — simulating
    // the straight-line motion exits the disk within ~the predicted time.
    #[test]
    fn kinematic_exit_time_is_accurate(
        px in -90.0f64..90.0, py in -90.0f64..90.0,
        vx in -30.0f64..30.0, vy in -30.0f64..30.0,
    ) {
        use vc_cloud::stay::time_to_exit_disk;
        use vc_sim::geom::Point;
        let pos = Point::new(px, py);
        let vel = Point::new(vx, vy);
        prop_assume!(pos.norm() < 100.0);
        prop_assume!(vel.norm() > 0.5);
        let t = time_to_exit_disk(pos, vel, Point::new(0.0, 0.0), 100.0);
        if t < 3600.0 {
            let before = pos + vel * (t - 0.01).max(0.0);
            let after = pos + vel * (t + 0.01);
            prop_assert!(before.norm() <= 100.0 + 1.0, "inside just before exit");
            prop_assert!(after.norm() >= 100.0 - 1.0, "outside just after exit");
        }
    }
}
