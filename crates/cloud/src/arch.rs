//! The three vehicular-cloud architectures (paper Fig. 4) and the cloud
//! simulation driver.
//!
//! * **Stationary** — parked vehicles form a datacenter-like pool (4(a)).
//! * **Infrastructure-based** — membership is whoever an online RSU covers;
//!   the RSU coordinates (4(b)).
//! * **Dynamic** — self-organized clusters elect a broker vehicle via the
//!   clustering layer; membership is the broker's cluster (4(c)).
//!
//! The same scheduler runs over all three; what differs is *who is a member
//! right now* and *how long each member is expected to stay* — which is
//! exactly what experiments E2/E3 compare.

use crate::scheduler::{HostInfo, Scheduler, SchedulerConfig};
use crate::stay::{HostDynamics, StayEstimator};
use crate::task::{TaskId, TaskSpec};
use vc_net::cluster::{ClusterConfig, Clustering};
use vc_net::world::WorldView;
use vc_sim::geom::{Point, SpatialGrid};
use vc_sim::mobility::Mobility;
use vc_sim::node::VehicleId;
use vc_sim::radio::NeighborTable;
use vc_sim::scenario::Scenario;
use vc_sim::time::{SimDuration, SimTime};

/// Which Fig. 4 architecture a cloud runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchitectureKind {
    /// Parked-vehicle datacenter.
    Stationary,
    /// RSU-coordinated membership.
    InfrastructureBased,
    /// Self-organized broker-led cluster.
    Dynamic,
}

impl std::fmt::Display for ArchitectureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ArchitectureKind::Stationary => "stationary",
            ArchitectureKind::InfrastructureBased => "infrastructure",
            ArchitectureKind::Dynamic => "dynamic",
        };
        f.write_str(s)
    }
}

/// The current membership of a cloud.
#[derive(Debug, Clone, Default)]
pub struct Membership {
    /// Member vehicles.
    pub members: Vec<VehicleId>,
    /// The coordinating broker (None when an RSU coordinates).
    pub broker: Option<VehicleId>,
    /// Geometric center of the group (for stay estimation).
    pub center: Point,
    /// Radius within which members remain reachable.
    pub radius: f64,
}

/// The buffers behind the dynamic architecture's membership: the neighbor
/// table, its grid and the clustering, all rebuilt in place, so a per-tick
/// caller stops allocating once they have grown to the fleet.
struct DynamicScratch {
    neighbors: NeighborTable,
    grid: SpatialGrid,
    clustering: Clustering,
}

impl DynamicScratch {
    fn new(scenario: &Scenario) -> Self {
        DynamicScratch {
            neighbors: NeighborTable::new(),
            grid: SpatialGrid::new(scenario.channel.range_m.max(1.0)),
            clustering: Clustering::default(),
        }
    }
}

/// Computes the current membership for an architecture over a scenario.
pub fn membership(kind: ArchitectureKind, scenario: &Scenario) -> Membership {
    let mut out = Membership::default();
    membership_into(kind, scenario, &mut DynamicScratch::new(scenario), &mut out);
    out
}

/// [`membership`] into caller-owned buffers.
fn membership_into(
    kind: ArchitectureKind,
    scenario: &Scenario,
    scratch: &mut DynamicScratch,
    out: &mut Membership,
) {
    let fleet = &scenario.fleet;
    out.members.clear();
    // Sized for the fleet, not for this tick's cloud, so a growing cloud
    // never reallocates.
    out.members.reserve(fleet.len());
    match kind {
        ArchitectureKind::Stationary => {
            out.members.extend(
                fleet
                    .vehicles()
                    .iter()
                    .filter(|v| {
                        fleet.is_online(v.id()) && matches!(v.mobility, Mobility::Parked { .. })
                    })
                    .map(|v| v.id()),
            );
            out.broker = out.members.first().copied();
            out.radius = 1_000.0;
        }
        ArchitectureKind::InfrastructureBased => {
            out.members.extend(
                fleet
                    .vehicles()
                    .iter()
                    .filter(|v| {
                        fleet.is_online(v.id())
                            && scenario.rsus.covering(fleet.pos(v.id())).is_some()
                    })
                    .map(|v| v.id()),
            );
            out.broker = None;
            out.radius = 350.0;
        }
        ArchitectureKind::Dynamic => {
            let DynamicScratch { neighbors, grid, clustering } = scratch;
            {
                let _grid = vc_obs::profile::frame("grid.query");
                scenario.neighbor_table_into(neighbors, grid);
            }
            let world = WorldView {
                positions: fleet.positions(),
                velocities: fleet.velocities(),
                online: fleet.online_flags(),
                neighbors,
            };
            let cfg = ClusterConfig::multi_hop();
            clustering.reform(&world, &cfg);
            // The cloud is the largest cluster; its head is the broker.
            out.broker = clustering
                .heads()
                .max_by_key(|&h| (clustering.members(h).len(), std::cmp::Reverse(h)));
            out.radius = match out.broker {
                Some(head) => {
                    out.members.extend_from_slice(clustering.members(head));
                    scenario.channel.range_m * cfg.max_hops as f64
                }
                None => 0.0,
            };
        }
    }
    out.center = centroid(scenario, &out.members);
}

fn centroid(scenario: &Scenario, members: &[VehicleId]) -> Point {
    if members.is_empty() {
        return Point::new(0.0, 0.0);
    }
    let sum = members.iter().fold(Point::new(0.0, 0.0), |acc, &id| acc + scenario.fleet.pos(id));
    sum / members.len() as f64
}

/// Converts a membership into scheduler host descriptors using the given
/// stay estimator.
pub fn hosts_of(
    scenario: &Scenario,
    membership: &Membership,
    estimator: &dyn StayEstimator,
) -> Vec<HostInfo> {
    let mut hosts = Vec::new();
    hosts_into(scenario, membership, estimator, &mut hosts);
    hosts
}

/// [`hosts_of`] into a caller-owned buffer.
fn hosts_into(
    scenario: &Scenario,
    membership: &Membership,
    estimator: &dyn StayEstimator,
    out: &mut Vec<HostInfo>,
) {
    out.clear();
    out.reserve(scenario.fleet.len());
    out.extend(membership.members.iter().map(|&id| {
        let v = scenario.fleet.vehicle(id);
        let dynamics = HostDynamics {
            pos: scenario.fleet.pos(id),
            vel: scenario.fleet.velocity(id),
            group_center: membership.center,
            group_radius: membership.radius,
            parked: matches!(v.mobility, Mobility::Parked { .. }),
        };
        HostInfo {
            id,
            cpu_gflops: v.profile.resources.cpu_gflops,
            automation: v.profile.automation,
            stay_estimate_s: estimator.estimate(&dynamics),
        }
    }));
}

/// A full cloud simulation: scenario + architecture + scheduler.
pub struct CloudSim<E: StayEstimator> {
    /// The underlying world (public for failure injection in experiments).
    pub scenario: Scenario,
    kind: ArchitectureKind,
    scheduler: Scheduler,
    estimator: E,
    now: SimTime,
    next_task: u64,
    scratch: DynamicScratch,
    /// This tick's membership and the hosts made from it, refilled in place.
    membership: Membership,
    hosts: Vec<HostInfo>,
}

impl<E: StayEstimator> CloudSim<E> {
    /// Creates a cloud simulation.
    pub fn new(
        scenario: Scenario,
        kind: ArchitectureKind,
        config: SchedulerConfig,
        estimator: E,
    ) -> Self {
        CloudSim {
            scratch: DynamicScratch::new(&scenario),
            scenario,
            kind,
            scheduler: Scheduler::new(config),
            estimator,
            now: SimTime::ZERO,
            next_task: 0,
            membership: Membership::default(),
            hosts: Vec::new(),
        }
    }

    /// The architecture this cloud runs.
    pub fn kind(&self) -> ArchitectureKind {
        self.kind
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Submits `n` identical compute tasks, returning their ids.
    pub fn submit_batch(
        &mut self,
        n: usize,
        work_gflop: f64,
        deadline: Option<SimDuration>,
    ) -> Vec<TaskId> {
        (0..n)
            .map(|_| {
                let id = TaskId(self.next_task);
                self.next_task += 1;
                let mut spec = TaskSpec::compute(id, work_gflop);
                spec.deadline = deadline.map(|d| self.now + d);
                self.scheduler.submit(spec, self.now);
                id
            })
            .collect()
    }

    /// Advances the world and the scheduler one step.
    pub fn tick(&mut self) {
        self.tick_obs(None);
    }

    /// One tick, recorded when `rec` is attached (see [`CloudSim::run_ticks`]).
    fn tick_obs(&mut self, mut rec: Option<&mut vc_obs::Recorder>) {
        let _tick = vc_obs::profile::frame("cloud.tick");
        vc_obs::tick_scenario(&mut self.scenario, self.now, vc_obs::reborrow(&mut rec));
        self.now += SimDuration::from_secs_f64(self.scenario.dt);
        {
            let _membership = vc_obs::profile::frame("cloud.membership");
            membership_into(self.kind, &self.scenario, &mut self.scratch, &mut self.membership);
        }
        {
            let _hosts = vc_obs::profile::frame("cloud.hosts");
            hosts_into(&self.scenario, &self.membership, &self.estimator, &mut self.hosts);
        }
        let membership = &self.membership;
        if let Some(r) = vc_obs::reborrow(&mut rec) {
            r.event(
                self.now,
                "cloud",
                "membership",
                vec![
                    ("members", membership.members.len().into()),
                    ("broker", membership.broker.is_some().into()),
                ],
            );
            r.hub_mut().gauge_set("cloud.membership.size", membership.members.len() as f64);
        }
        self.scheduler.tick(self.now, self.scenario.dt, &self.hosts, rec);
    }

    /// Runs `n` ticks. With a recorder attached each tick emits the world's
    /// `sim`/`tick` event, a `cloud`/`membership` event with the member
    /// count and broker presence, and the scheduler's lifecycle events; the
    /// run is the same with or without it.
    pub fn run_ticks(&mut self, n: usize, mut rec: Option<&mut vc_obs::Recorder>) {
        for _ in 0..n {
            self.tick_obs(vc_obs::reborrow(&mut rec));
        }
    }

    /// The scheduler (statistics, task states).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Current membership snapshot.
    pub fn membership(&self) -> Membership {
        membership(self.kind, &self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stay::Kinematic;
    use vc_sim::scenario::ScenarioBuilder;

    fn builder(seed: u64, n: usize) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::new();
        b.seed(seed).vehicles(n);
        b
    }

    #[test]
    fn stationary_membership_is_whole_lot() {
        let s = builder(1, 20).parking_lot();
        let m = membership(ArchitectureKind::Stationary, &s);
        assert_eq!(m.members.len(), 20);
        assert!(m.broker.is_some());
    }

    #[test]
    fn infrastructure_membership_requires_coverage() {
        let mut s = builder(2, 30).urban_with_rsus();
        let m = membership(ArchitectureKind::InfrastructureBased, &s);
        assert!(!m.members.is_empty(), "urban grid has RSU coverage");
        assert_eq!(m.broker, None);
        // Kill all RSUs: membership collapses.
        let mut rng = vc_sim::rng::SimRng::seed_from(9);
        s.rsus.fail_fraction(1.0, &mut rng);
        let m2 = membership(ArchitectureKind::InfrastructureBased, &s);
        assert!(m2.members.is_empty());
    }

    #[test]
    fn dynamic_membership_elects_broker() {
        let s = builder(3, 30).highway_no_infra();
        let m = membership(ArchitectureKind::Dynamic, &s);
        assert!(!m.members.is_empty());
        let broker = m.broker.expect("cluster head elected");
        assert!(m.members.contains(&broker));
    }

    #[test]
    fn stationary_cloud_completes_tasks() {
        let scenario = builder(4, 30).parking_lot();
        let mut sim = CloudSim::new(
            scenario,
            ArchitectureKind::Stationary,
            SchedulerConfig::default(),
            Kinematic,
        );
        sim.submit_batch(10, 50.0, None);
        sim.run_ticks(100, None);
        assert_eq!(sim.scheduler().stats().completed, 10);
    }

    #[test]
    fn dynamic_cloud_completes_tasks_under_churn() {
        let scenario = builder(5, 40).urban_with_rsus();
        let mut sim = CloudSim::new(
            scenario,
            ArchitectureKind::Dynamic,
            SchedulerConfig::default(),
            Kinematic,
        );
        sim.submit_batch(10, 30.0, None);
        sim.run_ticks(300, None);
        let stats = sim.scheduler().stats();
        assert!(stats.completed >= 5, "only {} completed", stats.completed);
    }

    #[test]
    fn infrastructure_cloud_stops_when_rsus_die() {
        let scenario = builder(6, 40).urban_with_rsus();
        let mut sim = CloudSim::new(
            scenario,
            ArchitectureKind::InfrastructureBased,
            SchedulerConfig::default(),
            Kinematic,
        );
        sim.submit_batch(50, 2000.0, None);
        sim.run_ticks(20, None);
        let mid = sim.scheduler().stats().completed;
        // Disaster: all RSUs fail.
        let mut rng = vc_sim::rng::SimRng::seed_from(7);
        sim.scenario.rsus.fail_fraction(1.0, &mut rng);
        sim.run_ticks(50, None);
        // No further capacity is offered once coverage is gone: live tasks stall.
        let m = sim.membership();
        assert!(m.members.is_empty());
        let _ = mid;
        assert!(sim.scheduler().live_tasks() > 0, "big tasks cannot finish without members");
    }

    #[test]
    fn deterministic_cloud_runs() {
        let run = |seed| {
            let scenario = builder(seed, 25).urban_with_rsus();
            let mut sim = CloudSim::new(
                scenario,
                ArchitectureKind::Dynamic,
                SchedulerConfig::default(),
                Kinematic,
            );
            sim.submit_batch(8, 40.0, None);
            sim.run_ticks(150, None);
            sim.scheduler().stats().completed
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn instrumented_cloud_run_matches_plain() {
        let mk = || {
            let scenario = builder(5, 40).urban_with_rsus();
            let mut sim = CloudSim::new(
                scenario,
                ArchitectureKind::Dynamic,
                SchedulerConfig::default(),
                Kinematic,
            );
            sim.submit_batch(10, 30.0, None);
            sim
        };
        let mut plain = mk();
        plain.run_ticks(120, None);
        let mut recorded = mk();
        let mut rec = vc_obs::Recorder::new();
        recorded.run_ticks(120, Some(&mut rec));
        assert_eq!(
            recorded.scheduler().stats().completed,
            plain.scheduler().stats().completed,
            "tracing must not perturb the run"
        );
        assert_eq!(rec.hub().counter("cloud.membership"), 120);
        assert_eq!(rec.hub().counter("sim.tick"), 120);
        assert!(rec.hub().counter("cloud.sched.place") > 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ArchitectureKind::Stationary.to_string(), "stationary");
        assert_eq!(ArchitectureKind::InfrastructureBased.to_string(), "infrastructure");
        assert_eq!(ArchitectureKind::Dynamic.to_string(), "dynamic");
    }
}
