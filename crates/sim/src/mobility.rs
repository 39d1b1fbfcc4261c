//! Mobility models and the fleet container.
//!
//! Three regimes cover the paper's three v-cloud architectures (Fig. 4):
//! parked fleets (stationary clouds), urban waypoint traffic over a road grid
//! (infrastructure-based clouds around RSUs), and highway cruising (dynamic
//! clouds with the highest churn). All models advance in fixed `dt` steps
//! driven by the kernel and are deterministic given the seed.
//!
//! Per-vehicle state is stored struct-of-arrays in [`Fleet`] (positions,
//! velocities, online flags, and RNG streams in parallel vectors) so the
//! per-tick hot loop batches cache-friendly. Every vehicle owns a persistent
//! RNG stream forked from the construction seed and writes only its own
//! slots, so a step's result does not depend on the order — or, in
//! [`Fleet::step_sharded`], the thread — in which vehicles are advanced.

use crate::geom::Point;
use crate::node::{Kinematics, VehicleId, VehicleProfile};
use crate::rng::SimRng;
use crate::roadnet::{NodeId, RoadNetwork};

/// How a vehicle moves.
#[derive(Debug, Clone)]
pub enum Mobility {
    /// Parked at a fixed spot (stationary v-cloud member).
    Parked {
        /// Parking position.
        pos: Point,
    },
    /// Follows shortest paths between random intersections of a road network,
    /// pausing briefly at intersections (urban traffic).
    Waypoint(WaypointState),
    /// Cruises back and forth along a highway corridor with speed jitter.
    Cruise(CruiseState),
}

/// State for [`Mobility::Waypoint`].
#[derive(Debug, Clone)]
pub struct WaypointState {
    /// Remaining nodes on the current path (next leg target is `path[leg]`).
    pub path: Vec<NodeId>,
    /// Index of the node we are driving toward.
    pub leg: usize,
    /// Meters progressed along the current leg.
    pub progress_m: f64,
    /// Per-vehicle speed factor relative to the limit (e.g. 0.9..1.1).
    pub speed_factor: f64,
    /// Seconds of pause left at an intersection (traffic-light dwell).
    pub pause_s: f64,
}

/// State for [`Mobility::Cruise`].
#[derive(Debug, Clone)]
pub struct CruiseState {
    /// Offset along the corridor, meters.
    pub offset_m: f64,
    /// +1 east-bound, -1 west-bound.
    pub direction: f64,
    /// Current speed, m/s.
    pub speed: f64,
    /// Desired speed, m/s.
    pub desired_speed: f64,
    /// Corridor length, meters.
    pub corridor_m: f64,
    /// Lateral lane offset, meters.
    pub lane_y: f64,
}

/// IDM (Intelligent Driver Model) car-following parameters used on the
/// highway: followers brake for slower leaders, so platoons emerge — the
/// kinematic coherence moving-zone clustering exploits.
#[derive(Debug, Clone, Copy)]
pub struct IdmParams {
    /// Maximum acceleration, m/s².
    pub a_max: f64,
    /// Comfortable deceleration, m/s².
    pub b_comfort: f64,
    /// Standstill minimum gap, m.
    pub s0: f64,
    /// Desired time headway, s.
    pub headway_s: f64,
}

impl Default for IdmParams {
    fn default() -> Self {
        IdmParams { a_max: 1.5, b_comfort: 2.0, s0: 5.0, headway_s: 1.5 }
    }
}

/// IDM acceleration for a vehicle at speed `v` (desired `v0`) with a leader
/// `gap` meters ahead moving at `v_leader` (`None` = free road).
pub fn idm_acceleration(v: f64, v0: f64, leader: Option<(f64, f64)>, p: &IdmParams) -> f64 {
    let free = 1.0 - (v / v0.max(0.1)).powi(4);
    match leader {
        None => p.a_max * free,
        Some((gap, v_leader)) => {
            let dv = v - v_leader;
            let s_star = p.s0 + v * p.headway_s + v * dv / (2.0 * (p.a_max * p.b_comfort).sqrt());
            let interaction = (s_star / gap.max(0.5)).powi(2);
            p.a_max * (free - interaction)
        }
    }
}

/// A vehicle: static profile and mobility model. Live kinematic state
/// (position, velocity, online flag) lives struct-of-arrays in the [`Fleet`].
#[derive(Debug, Clone)]
pub struct Vehicle {
    /// Static profile (id, automation, resources).
    pub profile: VehicleProfile,
    /// Mobility model and its state.
    pub mobility: Mobility,
}

impl Vehicle {
    /// Creates a vehicle from a profile and mobility model.
    pub fn new(profile: VehicleProfile, mobility: Mobility) -> Self {
        Vehicle { profile, mobility }
    }

    /// This vehicle's id.
    pub fn id(&self) -> VehicleId {
        self.profile.id
    }
}

/// A collection of vehicles advanced together over a shared road network.
///
/// Kinematic state is stored struct-of-arrays: `positions()`,
/// `velocities()`, and `online_flags()` expose the dense per-vehicle vectors
/// directly (no copies), indexed by vehicle id.
///
/// ```
/// use vc_sim::prelude::*;
/// let net = RoadNetwork::grid(4, 4, 100.0, 13.9);
/// let mut rng = SimRng::seed_from(1);
/// let mut fleet = Fleet::urban(&net, 20, &mut rng);
/// fleet.step(0.1, &net);
/// assert_eq!(fleet.len(), 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    vehicles: Vec<Vehicle>,
    pos: Vec<Point>,
    vel: Vec<Point>,
    online: Vec<bool>,
    /// One persistent RNG stream per vehicle, forked at construction. All
    /// mobility randomness (pauses, path choice, driver noise) draws from the
    /// vehicle's own stream, which is what makes the sharded step bitwise
    /// equal to the sequential one.
    rngs: Vec<SimRng>,
    /// Reused IDM leader-lookup scratch: `(lane key, fleet index, offset,
    /// speed)` rows, sorted in place each step. Keeping the buffers on the
    /// fleet makes the steady-state tick allocation-free (asserted by the
    /// bench crate's memcheck tests).
    lane_scratch: Vec<((i8, i64), usize, f64, f64)>,
    /// Reused per-vehicle leader output for [`Fleet::step_sharded`].
    leaders: Vec<Option<(f64, f64)>>,
}

impl Fleet {
    /// Creates an empty fleet.
    pub fn new() -> Self {
        Fleet::default()
    }

    /// Adds a vehicle, initialising its position from the mobility model and
    /// forking its persistent RNG stream off `rng`, keyed by the vehicle id.
    /// Returns the id.
    pub fn push(&mut self, v: Vehicle, net: &RoadNetwork, rng: &mut SimRng) -> VehicleId {
        let id = v.id();
        debug_assert_eq!(id.0 as usize, self.vehicles.len(), "vehicle ids must be dense");
        let pos = match &v.mobility {
            Mobility::Parked { pos } => *pos,
            Mobility::Waypoint(w) => {
                let node = if w.leg > 0 { w.path[w.leg - 1] } else { w.path[0] };
                net.pos(node)
            }
            Mobility::Cruise(c) => Point::new(c.offset_m, c.lane_y),
        };
        self.vehicles.push(v);
        self.pos.push(pos);
        self.vel.push(Point::new(0.0, 0.0));
        self.online.push(true);
        self.rngs.push(rng.fork(u64::from(id.0)));
        id
    }

    /// Number of vehicles (online or not).
    pub fn len(&self) -> usize {
        self.vehicles.len()
    }

    /// `true` when the fleet has no vehicles.
    pub fn is_empty(&self) -> bool {
        self.vehicles.is_empty()
    }

    /// All vehicles.
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// The vehicle with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn vehicle(&self, id: VehicleId) -> &Vehicle {
        &self.vehicles[id.0 as usize]
    }

    /// Positions of all vehicles in id order (offline vehicles included).
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    /// Velocities of all vehicles in id order.
    pub fn velocities(&self) -> &[Point] {
        &self.vel
    }

    /// Online flags of all vehicles in id order.
    pub fn online_flags(&self) -> &[bool] {
        &self.online
    }

    /// Position of one vehicle.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn pos(&self, id: VehicleId) -> Point {
        self.pos[id.0 as usize]
    }

    /// Velocity of one vehicle.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn velocity(&self, id: VehicleId) -> Point {
        self.vel[id.0 as usize]
    }

    /// Whether one vehicle is online.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn is_online(&self, id: VehicleId) -> bool {
        self.online[id.0 as usize]
    }

    /// Switches one vehicle on or off (offline vehicles freeze in place).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_online(&mut self, id: VehicleId, online: bool) {
        self.online[id.0 as usize] = online;
    }

    /// Ids of online vehicles.
    pub fn online_ids(&self) -> Vec<VehicleId> {
        (0..self.vehicles.len()).filter(|&i| self.online[i]).map(|i| VehicleId(i as u32)).collect()
    }

    /// Number of online vehicles.
    pub fn online_count(&self) -> usize {
        self.online.iter().filter(|&&o| o).count()
    }

    /// Deep heap bytes owned by the fleet: the SoA slabs (by capacity —
    /// the memory actually reserved), per-vehicle waypoint paths, and the
    /// reused stepping scratch. Derived purely from capacities and
    /// lengths, so structurally identical fleets report identical bytes
    /// regardless of allocator — which lets the `mem.fleet.bytes` gauge
    /// ride in the byte-compared deterministic time-series (`vc_obs::mem`).
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let paths: usize = self
            .vehicles
            .iter()
            .map(|v| match &v.mobility {
                Mobility::Waypoint(w) => w.path.capacity() * size_of::<NodeId>(),
                _ => 0,
            })
            .sum();
        (self.vehicles.capacity() * size_of::<Vehicle>()
            + paths
            + self.pos.capacity() * size_of::<Point>()
            + self.vel.capacity() * size_of::<Point>()
            + self.online.capacity()
            + self.rngs.capacity() * size_of::<SimRng>()
            + self.lane_scratch.capacity() * size_of::<((i8, i64), usize, f64, f64)>()
            + self.leaders.capacity() * size_of::<Option<(f64, f64)>>()) as u64
    }

    /// Advances every online vehicle by `dt` seconds on the calling
    /// thread. Cruising vehicles follow IDM car-following against the
    /// leader in their lane.
    pub fn step(&mut self, dt: f64, net: &RoadNetwork) {
        self.step_sharded(dt, net, 1);
    }

    /// [`Fleet::step`] with an explicit shard count. Results are bitwise
    /// identical for every `shards` value: each vehicle draws only from its
    /// own RNG stream and writes only its own state slot, so the partition
    /// is invisible.
    pub fn step_sharded(&mut self, dt: f64, net: &RoadNetwork, shards: usize) {
        self.lane_leaders();
        let idm = IdmParams::default();
        let n = self.vehicles.len();
        let Fleet { vehicles, pos, vel, online, rngs, lane_scratch: _, leaders } = self;
        let leaders: &[Option<(f64, f64)>] = leaders;
        // At most one shard per 512 vehicles: fanning out a smaller chunk
        // costs more than it saves. A fleet that collapses to one shard (an
        // empty one included) steps inline and allocates nothing.
        let chunks = shards.clamp(1, n.div_ceil(512).max(1));
        if chunks == 1 {
            for i in 0..n {
                if online[i] {
                    step_one(
                        &mut vehicles[i],
                        &mut pos[i],
                        &mut vel[i],
                        &mut rngs[i],
                        leaders[i],
                        &idm,
                        dt,
                        net,
                    );
                }
            }
            return;
        }
        let online: &[bool] = online;
        std::thread::scope(|scope| {
            let mut veh_rest: &mut [Vehicle] = vehicles;
            let mut pos_rest: &mut [Point] = pos;
            let mut vel_rest: &mut [Point] = vel;
            let mut rng_rest: &mut [SimRng] = rngs;
            let mut start = 0;
            for chunk in 0..chunks {
                // Contiguous near-equal chunks: the first `n % chunks` get one more.
                let len = n / chunks + usize::from(chunk < n % chunks);
                let (veh_chunk, vr) = veh_rest.split_at_mut(len);
                let (pos_chunk, pr) = pos_rest.split_at_mut(len);
                let (vel_chunk, lr) = vel_rest.split_at_mut(len);
                let (rng_chunk, rr) = rng_rest.split_at_mut(len);
                (veh_rest, pos_rest, vel_rest, rng_rest) = (vr, pr, lr, rr);
                scope.spawn(move || {
                    for k in 0..len {
                        let i = start + k;
                        if online[i] {
                            step_one(
                                &mut veh_chunk[k],
                                &mut pos_chunk[k],
                                &mut vel_chunk[k],
                                &mut rng_chunk[k],
                                leaders[i],
                                &idm,
                                dt,
                                net,
                            );
                        }
                    }
                });
                start += len;
            }
        });
    }

    /// IDM leader lookup: for each online cruiser, fills `self.leaders`
    /// with the (gap, leader speed) pair of the next vehicle ahead in its
    /// (direction, lane); `None` everywhere else. Deterministic and
    /// shard-count independent — this read-only pass runs on the
    /// coordinator before the shards fan out.
    ///
    /// Runs entirely in the fleet's reused scratch buffers: one flat row
    /// vector ordered by an in-place unstable sort whose comparator is a
    /// *total* order (lane key, travel order within the lane, fleet index),
    /// so the result is the unique sorted permutation — bitwise identical
    /// to the former per-lane stable sort, without its per-step
    /// `BTreeMap`/`Vec` churn.
    fn lane_leaders(&mut self) {
        self.lane_scratch.clear();
        for (i, v) in self.vehicles.iter().enumerate() {
            if !self.online[i] {
                continue;
            }
            if let Mobility::Cruise(c) = &v.mobility {
                let key = (c.direction as i8, (c.lane_y * 2.0).round() as i64);
                self.lane_scratch.push((key, i, c.offset_m, c.speed));
            }
        }
        self.lane_scratch.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| {
                // Travel order: ascending offset east-bound, descending
                // west-bound; fleet index breaks exact-offset ties the way
                // the old stable sort did.
                let ord = a.2.partial_cmp(&b.2).expect("finite offsets");
                let ord = if a.0 .0 > 0 { ord } else { ord.reverse() };
                ord.then(a.1.cmp(&b.1))
            })
        });
        self.leaders.clear();
        self.leaders.resize(self.vehicles.len(), None);
        for w in self.lane_scratch.windows(2) {
            let (follower, leader) = (&w[0], &w[1]);
            if follower.0 != leader.0 {
                continue; // lane boundary
            }
            let gap = (leader.2 - follower.2).abs();
            self.leaders[follower.1] = Some((gap, leader.3));
        }
    }

    /// Builds an urban fleet of `n` waypoint vehicles on `net`.
    ///
    /// # Panics
    ///
    /// Panics if the network has no intersections.
    pub fn urban(net: &RoadNetwork, n: usize, rng: &mut SimRng) -> Fleet {
        let mut fleet = Fleet::new();
        for i in 0..n {
            let profile = random_profile(VehicleId(i as u32), rng);
            let mobility = Mobility::Waypoint(new_waypoint(net, rng));
            fleet.push(Vehicle::new(profile, mobility), net, rng);
        }
        fleet
    }

    /// Builds a highway fleet of `n` cruising vehicles on a corridor of
    /// `corridor_m` meters.
    pub fn highway(corridor_m: f64, n: usize, net: &RoadNetwork, rng: &mut SimRng) -> Fleet {
        let mut fleet = Fleet::new();
        for i in 0..n {
            let profile = random_profile(VehicleId(i as u32), rng);
            let desired = rng.range_f64(25.0, 36.0);
            let direction = if rng.chance(0.5) { 1.0 } else { -1.0 };
            // Two discrete lanes per direction; east-bound lanes on +y.
            let lane_y = direction * if rng.chance(0.5) { 1.5 } else { 4.5 };
            let mobility = Mobility::Cruise(CruiseState {
                offset_m: rng.range_f64(0.0, corridor_m),
                direction,
                speed: desired,
                desired_speed: desired,
                corridor_m,
                lane_y,
            });
            fleet.push(Vehicle::new(profile, mobility), net, rng);
        }
        fleet
    }

    /// Builds a parked fleet of `n` vehicles laid out in rows (a parking lot
    /// anchored at `origin` with 5 m pitch, 20 per row).
    pub fn parking_lot(origin: Point, n: usize, net: &RoadNetwork, rng: &mut SimRng) -> Fleet {
        let mut fleet = Fleet::new();
        for i in 0..n {
            let profile = random_profile(VehicleId(i as u32), rng);
            let row = i / 20;
            let col = i % 20;
            let pos = origin + Point::new(col as f64 * 5.0, row as f64 * 8.0);
            fleet.push(Vehicle::new(profile, Mobility::Parked { pos }), net, rng);
        }
        fleet
    }
}

/// Advances one vehicle. Touches only that vehicle's state slots and RNG
/// stream — the unit of work the shard workers execute.
#[allow(clippy::too_many_arguments)]
fn step_one(
    v: &mut Vehicle,
    pos: &mut Point,
    vel: &mut Point,
    rng: &mut SimRng,
    leader: Option<(f64, f64)>,
    idm: &IdmParams,
    dt: f64,
    net: &RoadNetwork,
) {
    let mut kin = Kinematics { pos: *pos, velocity: *vel };
    match &mut v.mobility {
        Mobility::Parked { pos: spot } => {
            kin = Kinematics { pos: *spot, velocity: Point::new(0.0, 0.0) };
        }
        Mobility::Waypoint(w) => step_waypoint(w, &mut kin, dt, net, rng),
        Mobility::Cruise(c) => step_cruise(c, &mut kin, dt, leader, idm, rng),
    }
    *pos = kin.pos;
    *vel = kin.velocity;
}

/// Draws a plausible vehicle profile: mostly L2–L4, occasional L5.
pub(crate) fn random_profile(id: VehicleId, rng: &mut SimRng) -> VehicleProfile {
    use crate::node::{Resources, SaeLevel};
    let automation = match rng.range_u64(0, 10) {
        0..=2 => SaeLevel::L2,
        3..=6 => SaeLevel::L3,
        7..=8 => SaeLevel::L4,
        _ => SaeLevel::L5,
    };
    let resources = if automation >= SaeLevel::L4 {
        Resources::high_end()
    } else if rng.chance(0.5) {
        Resources { cpu_gflops: 80.0, storage_gb: 256.0, sensors: crate::node::SensorSuite::FULL }
    } else {
        Resources::modest()
    };
    VehicleProfile::new(id, automation, resources)
}

/// Creates fresh waypoint state with a random path of at least two nodes.
fn new_waypoint(net: &RoadNetwork, rng: &mut SimRng) -> WaypointState {
    let start = net.random_node(rng).expect("network has intersections");
    let path = random_path_from(net, start, rng);
    WaypointState {
        path,
        leg: 1,
        progress_m: 0.0,
        speed_factor: rng.range_f64(0.85, 1.15),
        pause_s: 0.0,
    }
}

fn random_path_from(net: &RoadNetwork, start: NodeId, rng: &mut SimRng) -> Vec<NodeId> {
    // Try a few random destinations until one is reachable and non-trivial.
    for _ in 0..16 {
        let dest = net.random_node(rng).expect("network has intersections");
        if dest == start {
            continue;
        }
        if let Some(path) = net.shortest_path(start, dest) {
            if path.len() >= 2 {
                return path;
            }
        }
    }
    // Degenerate network: stay put on a self-path.
    vec![start, start]
}

fn step_waypoint(
    w: &mut WaypointState,
    kin: &mut Kinematics,
    dt: f64,
    net: &RoadNetwork,
    rng: &mut SimRng,
) {
    let mut remaining = dt;
    while remaining > 0.0 {
        if w.pause_s > 0.0 {
            let pause = w.pause_s.min(remaining);
            w.pause_s -= pause;
            remaining -= pause;
            kin.velocity = Point::new(0.0, 0.0);
            continue;
        }
        if w.leg >= w.path.len() {
            // Path finished: choose a new destination from here.
            let here = *w.path.last().expect("path non-empty");
            w.path = random_path_from(net, here, rng);
            w.leg = 1;
            w.progress_m = 0.0;
        }
        let from = w.path[w.leg - 1];
        let to = w.path[w.leg];
        if from == to {
            // Degenerate stay-put path.
            kin.pos = net.pos(from);
            kin.velocity = Point::new(0.0, 0.0);
            return;
        }
        let a = net.pos(from);
        let b = net.pos(to);
        let leg_len = a.distance(b);
        let speed_limit = net.road_between(from, to).map_or(13.9, |rid| net.road(rid).speed_limit);
        let speed = speed_limit * w.speed_factor;
        let step_m = speed * remaining;
        if w.progress_m + step_m < leg_len {
            w.progress_m += step_m;
            let dir = (b - a).normalized();
            kin.pos = a + dir * w.progress_m;
            kin.velocity = dir * speed;
            remaining = 0.0;
        } else {
            // Arrive at the intersection; consume proportional time, maybe dwell.
            let travel_m = leg_len - w.progress_m;
            let travel_s = if speed > 0.0 { travel_m / speed } else { remaining };
            remaining = (remaining - travel_s).max(0.0);
            kin.pos = b;
            let dir = (b - a).normalized();
            kin.velocity = dir * speed;
            w.leg += 1;
            w.progress_m = 0.0;
            if rng.chance(0.3) {
                w.pause_s = rng.range_f64(1.0, 8.0);
            }
        }
    }
}

fn step_cruise(
    c: &mut CruiseState,
    kin: &mut Kinematics,
    dt: f64,
    leader: Option<(f64, f64)>,
    idm: &IdmParams,
    rng: &mut SimRng,
) {
    // IDM car-following plus small driver noise.
    let accel = idm_acceleration(c.speed, c.desired_speed, leader, idm);
    c.speed = (c.speed + accel * dt + rng.normal(0.0, 0.15) * dt.sqrt()).clamp(0.0, 40.0);
    c.offset_m += c.direction * c.speed * dt;
    // Bounce at corridor ends (vehicles leave and re-enter in reality; a
    // bounce keeps density constant which the experiments want).
    if c.offset_m < 0.0 {
        c.offset_m = -c.offset_m;
        c.direction = 1.0;
        c.lane_y = c.lane_y.abs(); // re-enter in the east-bound carriageway
    } else if c.offset_m > c.corridor_m {
        c.offset_m = 2.0 * c.corridor_m - c.offset_m;
        c.direction = -1.0;
        c.lane_y = -c.lane_y.abs();
    }
    kin.pos = Point::new(c.offset_m, c.lane_y);
    kin.velocity = Point::new(c.direction * c.speed, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SaeLevel;

    fn grid() -> RoadNetwork {
        RoadNetwork::grid(5, 5, 100.0, 13.9)
    }

    #[test]
    fn parked_vehicles_do_not_move() {
        let net = grid();
        let mut rng = SimRng::seed_from(1);
        let mut fleet = Fleet::parking_lot(Point::new(0.0, 0.0), 10, &net, &mut rng);
        let before = fleet.positions().to_vec();
        for _ in 0..50 {
            fleet.step(1.0, &net);
        }
        assert_eq!(fleet.positions(), before);
    }

    #[test]
    fn urban_vehicles_move_and_stay_near_roads() {
        let net = grid();
        let mut rng = SimRng::seed_from(2);
        let mut fleet = Fleet::urban(&net, 15, &mut rng);
        let before = fleet.positions().to_vec();
        for _ in 0..100 {
            fleet.step(0.5, &net);
        }
        let after = fleet.positions().to_vec();
        let moved = before.iter().zip(&after).filter(|(a, b)| a.distance(**b) > 1.0).count();
        assert!(moved > 10, "only {moved} vehicles moved");
        // All positions must remain within the (inflated) grid bounding box.
        for p in &after {
            assert!(p.x >= -1.0 && p.x <= 401.0 && p.y >= -1.0 && p.y <= 401.0, "escaped: {p}");
        }
    }

    #[test]
    fn urban_speed_is_bounded_by_limit() {
        let net = grid();
        let mut rng = SimRng::seed_from(3);
        let mut fleet = Fleet::urban(&net, 10, &mut rng);
        for _ in 0..50 {
            fleet.step(0.1, &net);
            for v in fleet.vehicles() {
                assert!(fleet.velocity(v.id()).norm() <= 13.9 * 1.15 + 1e-9);
            }
        }
    }

    #[test]
    fn cruise_stays_in_corridor_and_keeps_density() {
        let net = RoadNetwork::highway(2000.0, 3, 33.3);
        let mut rng = SimRng::seed_from(4);
        let mut fleet = Fleet::highway(2000.0, 20, &net, &mut rng);
        for _ in 0..500 {
            fleet.step(0.5, &net);
        }
        for v in fleet.vehicles() {
            let p = fleet.pos(v.id());
            assert!(p.x >= -1.0 && p.x <= 2001.0, "left corridor: {p}");
            let s = fleet.velocity(v.id()).norm();
            assert!((0.0..=40.0).contains(&s), "speed out of band: {s}");
        }
    }

    #[test]
    fn idm_free_road_converges_to_desired_speed() {
        let p = IdmParams::default();
        let mut v = 10.0;
        for _ in 0..600 {
            v += idm_acceleration(v, 30.0, None, &p) * 0.1;
        }
        assert!((v - 30.0).abs() < 0.5, "converged to {v}");
    }

    #[test]
    fn idm_brakes_for_close_leader() {
        let p = IdmParams::default();
        // 30 m/s with a stopped leader 20 m ahead: hard braking.
        let a = idm_acceleration(30.0, 30.0, Some((20.0, 0.0)), &p);
        assert!(a < -3.0, "braking accel {a}");
        // A distant leader at matching speed: nearly free-road behaviour.
        let a_far = idm_acceleration(30.0, 30.0, Some((500.0, 30.0)), &p);
        assert!(a_far > -0.1, "same-speed distant leader barely matters: {a_far}");
    }

    #[test]
    fn followers_do_not_drive_through_leaders() {
        // Controlled two-vehicle lane: a fast follower behind a slow leader.
        let net = RoadNetwork::highway(5000.0, 2, 33.3);
        let mut fleet = Fleet::new();
        let mut rng = SimRng::seed_from(8);
        let mk = |id: u32, offset: f64, desired: f64| {
            let profile = VehicleProfile::new(
                VehicleId(id),
                crate::node::SaeLevel::L4,
                crate::node::Resources::modest(),
            );
            Vehicle::new(
                profile,
                Mobility::Cruise(CruiseState {
                    offset_m: offset,
                    direction: 1.0,
                    speed: desired,
                    desired_speed: desired,
                    corridor_m: 5000.0,
                    lane_y: 1.5,
                }),
            )
        };
        fleet.push(mk(0, 100.0, 35.0), &net, &mut rng); // fast follower
        fleet.push(mk(1, 160.0, 18.0), &net, &mut rng); // slow leader
        for _ in 0..600 {
            fleet.step(0.1, &net);
            let f = fleet.pos(VehicleId(0)).x;
            let l = fleet.pos(VehicleId(1)).x;
            assert!(l - f > 1.0, "follower overran leader: follower {f}, leader {l}");
        }
        // The follower has settled near the leader's speed (a platoon).
        let vf = fleet.velocity(VehicleId(0)).norm();
        assert!((vf - 18.0).abs() < 3.0, "follower platooned at {vf} m/s");
    }

    #[test]
    fn offline_vehicles_freeze() {
        let net = grid();
        let mut rng = SimRng::seed_from(5);
        let mut fleet = Fleet::urban(&net, 5, &mut rng);
        for _ in 0..10 {
            fleet.step(0.5, &net);
        }
        let id = VehicleId(0);
        fleet.set_online(id, false);
        let frozen = fleet.pos(id);
        for _ in 0..10 {
            fleet.step(0.5, &net);
        }
        assert_eq!(fleet.pos(id), frozen);
        assert_eq!(fleet.online_ids().len(), 4);
        assert_eq!(fleet.online_count(), 4);
        assert!(!fleet.is_online(id));
    }

    #[test]
    fn deterministic_given_seed() {
        let net = grid();
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let mut fleet = Fleet::urban(&net, 10, &mut rng);
            for _ in 0..100 {
                fleet.step(0.5, &net);
            }
            fleet.positions().to_vec()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p, q);
        }
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn sharded_step_is_bitwise_equal_to_sequential() {
        // The tentpole invariant, pinned at unit level: any shard count
        // yields bit-identical positions and velocities, in every regime.
        let net = grid();
        let hwy = RoadNetwork::highway(2000.0, 3, 33.3);
        // Enough vehicles that the plan genuinely fans out (over
        // 512 vehicles per shard at 2 shards).
        type MakeFleet = fn(&RoadNetwork, &mut SimRng) -> Fleet;
        let build: [(&RoadNetwork, MakeFleet); 2] = [
            (&net, |net, rng| Fleet::urban(net, 1200, rng)),
            (&hwy, |net, rng| Fleet::highway(2000.0, 1200, net, rng)),
        ];
        for (net, make) in build {
            let mut seq_rng = SimRng::seed_from(77);
            let mut sequential = make(net, &mut seq_rng);
            for _ in 0..20 {
                sequential.step_sharded(0.5, net, 1);
            }
            for shards in [2usize, 3, 8] {
                let mut rng = SimRng::seed_from(77);
                let mut sharded = make(net, &mut rng);
                for _ in 0..20 {
                    sharded.step_sharded(0.5, net, shards);
                }
                for i in 0..sequential.len() {
                    let id = VehicleId(i as u32);
                    assert_eq!(
                        sequential.pos(id).x.to_bits(),
                        sharded.pos(id).x.to_bits(),
                        "x diverged at {shards} shards"
                    );
                    assert_eq!(
                        sequential.velocity(id).y.to_bits(),
                        sharded.velocity(id).y.to_bits(),
                        "vy diverged at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn heap_bytes_is_deterministic_and_shard_invariant() {
        let hwy = RoadNetwork::highway(2000.0, 3, 33.3);
        let n = 1200;
        assert!(n > 512, "test must exercise the fan-out (one shard per 512 vehicles)");
        let build = || {
            let mut rng = SimRng::seed_from(9);
            Fleet::highway(2000.0, n, &hwy, &mut rng)
        };
        let mut a = build();
        let mut b = build();
        assert!(a.heap_bytes() > 0);
        assert_eq!(a.heap_bytes(), b.heap_bytes());
        // Stepping with different shard counts must leave the reported
        // footprint identical (the gauge rides in byte-compared output).
        for _ in 0..30 {
            a.step_sharded(0.5, &hwy, 1);
            b.step_sharded(0.5, &hwy, 4);
        }
        assert_eq!(a.heap_bytes(), b.heap_bytes());
    }

    #[test]
    fn random_profiles_cover_levels() {
        let mut rng = SimRng::seed_from(6);
        let mut seen_high = false;
        let mut seen_low = false;
        for i in 0..200 {
            let p = random_profile(VehicleId(i), &mut rng);
            seen_high |= p.automation >= SaeLevel::L4;
            seen_low |= p.automation <= SaeLevel::L2;
        }
        assert!(seen_high && seen_low);
    }

    #[test]
    fn waypoint_regenerates_path_on_arrival() {
        let net = grid();
        let mut rng = SimRng::seed_from(7);
        let mut fleet = Fleet::urban(&net, 1, &mut rng);
        // Run long enough to finish several paths; must never panic and keep moving.
        let mut total_moved = 0.0;
        let mut last = fleet.positions()[0];
        for _ in 0..2000 {
            fleet.step(0.5, &net);
            let now = fleet.positions()[0];
            total_moved += last.distance(now);
            last = now;
        }
        assert!(total_moved > 1000.0, "vehicle stalled, moved {total_moved}m");
    }
}
