//! `city-secure`: one op is one tick of a secure-beacon city — a packet is
//! injected, `NetSim<ClusterRouting>` runs one round over the whole fleet
//! (mobility, neighbor rebuild, clustering, radio, merge), and two fixed
//! receivers each verify the signed beacons of their nearest vehicles.
//!
//! The only workload where large-fleet `vc_sim`/`vc_net` cost does most of
//! the work, with enough crypto that a crypto gain still shows.

use vc_crypto::schnorr::{SigningKey, VerifyingKey};
use vc_net::beacon::{sign_beacon, Beacon, BeaconStore, SignedBeacon};
use vc_net::cluster::{form_clusters, ClusterConfig};
use vc_net::netsim::NetSim;
use vc_net::routing::ClusterRouting;
use vc_net::world::WorldView;
use vc_sim::geom::SpatialGrid;
use vc_sim::mobility::Fleet;
use vc_sim::node::VehicleId;
use vc_sim::radio::{Channel, NeighborTable};
use vc_sim::roadnet::RoadNetwork;
use vc_sim::scenario::{Scenario, ScenarioBuilder};
use vc_sim::time::{SimDuration, SimTime};

use crate::harness::{mix, Cfg, Driven, Fnv, Lane, Layer, Sizes, Tracer, Workload};

struct Dims {
    vehicles: usize,
    /// Intersections per side of the square road grid, 200 m apart.
    grid: usize,
    warmup: u64,
    horizon: u64,
}

/// 78 vehicles per km² at both sizes, so a reception window looks the same.
const FULL: Dims = Dims { vehicles: 10_000, grid: 57, warmup: 8, horizon: 200 };
const SMOKE: Dims = Dims { vehicles: 200, grid: 8, warmup: 2, horizon: 200 };

fn dims(smoke: bool) -> &'static Dims {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

const DT: f64 = 0.5;
const PACKET_BYTES: usize = 256;
const RECEIVERS: u64 = 1;
/// Beacons per receiver per tick: its nearest vehicles (about what lies
/// within 300 m at this density). A fixed count, not a radius, so the crypto
/// work per tick is the same on every seed.
const WINDOW: usize = 28;
/// In a traced run the shadow calls are made on every this-many-th tick.
const SHADOW_EVERY: u64 = 8;

fn endpoints(seed: u64, vehicles: usize, i: u64) -> (VehicleId, VehicleId) {
    let n = vehicles as u64;
    let src = mix(seed, i, 1) % n;
    let dst = mix(seed, i, 2) % n;
    let dst = if dst == src { (dst + 1) % n } else { dst };
    (VehicleId(src as u32), VehicleId(dst as u32))
}

/// Simulated counters as they stand when the last fixed op ends.
#[derive(Default)]
struct AtHorizon {
    transmissions: u64,
    delivered: u64,
    mean_degree: f64,
}

pub struct City {
    seed: u64,
    last_fixed: u64,
    scenario: Scenario,
    keys: Vec<SigningKey>,
    vkeys: Vec<VerifyingKey>,
    at_horizon: AtHorizon,
    beacons: u64,
    accepted: u64,
}

impl Workload for City {
    const NAME: &'static str = "city-secure";

    fn sizes(smoke: bool) -> Sizes {
        let d = dims(smoke);
        Sizes {
            warmup: d.warmup,
            horizon: d.horizon,
            desc: format!(
                "vehicles={} grid={}x{}x200m dt={DT} receivers={RECEIVERS} window={WINDOW} \
                 packet={PACKET_BYTES}B routing=cluster",
                d.vehicles, d.grid, d.grid
            ),
        }
    }

    fn plan_hash(seed: u64, smoke: bool, i: u64) -> u64 {
        let (src, dst) = endpoints(seed, dims(smoke).vehicles, i);
        Fnv::new().words([src.0 as u64, dst.0 as u64]).0
    }

    fn setup(cfg: &Cfg, sizes: &Sizes, tr: &mut Tracer) -> City {
        let d = dims(cfg.smoke);
        // Start from the preset and replace only what this workload sizes,
        // so a field added to `Scenario` does not break the harness.
        let mut scenario = ScenarioBuilder::new().seed(cfg.seed).dt(DT).urban_with_rsus();
        scenario.roadnet = RoadNetwork::grid(d.grid, d.grid, 200.0, 13.9);
        scenario.fleet = Fleet::urban(&scenario.roadnet, d.vehicles, &mut scenario.rng);
        scenario.channel = Channel::dsrc();
        // Pinned: two shards measured slower and noisier than one on the
        // two-core hosts this runs on; the question lives in a per-layer row.
        scenario.shards = 1;

        let mut keys = Vec::with_capacity(d.vehicles);
        let mut vkeys = Vec::with_capacity(d.vehicles);
        for v in 0..d.vehicles as u64 {
            // The secret is a hash of the seed; the public key is the cost.
            let (key, vkey) = tr.span("crypto.keygen", 1, || {
                let key =
                    SigningKey::from_seed(&[cfg.seed.to_be_bytes(), v.to_be_bytes()].concat());
                let vkey = key.verifying_key();
                (key, vkey)
            });
            vkeys.push(vkey);
            keys.push(key);
        }
        City {
            seed: cfg.seed,
            last_fixed: sizes.last_fixed(),
            scenario,
            keys,
            vkeys,
            at_horizon: AtHorizon::default(),
            beacons: 0,
            accepted: 0,
        }
    }

    fn lanes(&mut self) -> Vec<Lane<'_>> {
        let City { seed, last_fixed, scenario, keys, vkeys, at_horizon, beacons, accepted } = self;
        let (seed, last_fixed) = (*seed, *last_fixed);
        let vehicles = keys.len();
        let receivers: Vec<VehicleId> =
            (0..RECEIVERS).map(|r| VehicleId((mix(seed, r, 3) % vehicles as u64) as u32)).collect();
        let mut stores: Vec<BeaconStore> =
            receivers.iter().map(|_| BeaconStore::new(SimDuration::from_secs(1))).collect();
        let mut sim = NetSim::new(scenario, ClusterRouting::new());
        let mut nearest: Vec<(f64, u32)> = Vec::with_capacity(vehicles);
        let mut window: Vec<(SignedBeacon, VerifyingKey)> = Vec::with_capacity(WINDOW);
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(Channel::dsrc().range_m);
        let cluster_cfg = ClusterConfig::multi_hop();

        vec![Box::new(move |i, tr| {
            let (src, dst) = endpoints(seed, vehicles, i);
            tr.span("net.send", 1, || sim.send(src, dst, PACKET_BYTES));
            tr.span("net.round", 1, || sim.run_rounds(1));
            let now = SimTime::from_secs_f64((i + 1) as f64 * DT);

            let mut all_accepted = true;
            for (receiver, store) in receivers.iter().zip(&mut stores) {
                // The receiver's reception window, picked by the harness.
                let fleet = &sim.scenario_mut().fleet;
                let here = fleet.pos(*receiver);
                nearest.clear();
                nearest.extend(
                    fleet
                        .positions()
                        .iter()
                        .enumerate()
                        .map(|(v, p)| (p.distance_sq(here), v as u32)),
                );
                nearest.select_nth_unstable_by(WINDOW, |a, b| a.partial_cmp(b).expect("finite"));
                nearest.truncate(WINDOW);
                nearest.sort_unstable_by_key(|&(_, v)| v);

                window.clear();
                for &(_, v) in nearest.iter() {
                    let sender = VehicleId(v);
                    let beacon = Beacon {
                        sender,
                        pos: fleet.pos(sender),
                        vel: fleet.velocity(sender),
                        sent_at: now,
                    };
                    let key = &keys[v as usize];
                    let signed = tr.span("crypto.sign", 1, || sign_beacon(beacon, key));
                    window.push((signed, vkeys[v as usize]));
                }
                let verdicts = tr
                    .span("net.beacon.ingest", WINDOW as u32, || store.ingest_batch(&window, now));
                tr.span("net.beacon.evict", 1, || store.evict_stale(now));
                let ok = verdicts.iter().filter(|v| v.is_ok()).count();
                *beacons += WINDOW as u64;
                *accepted += ok as u64;
                all_accepted &= ok == WINDOW;
            }

            // Layers only reachable inside `run_rounds`: the same public
            // function, on the state the round just left, as a shadow call.
            if tr.on() && i.is_multiple_of(SHADOW_EVERY) {
                let scenario = &*sim.scenario_mut();
                for (name, shards) in [("sim.mobility.step", 1), ("sim.mobility.step.2", 2)] {
                    let mut fleet = scenario.fleet.clone();
                    tr.shadow(name, || fleet.step_sharded(DT, &scenario.roadnet, shards));
                }
                tr.shadow("sim.neighbor.rebuild", || {
                    scenario.neighbor_table_into(&mut table, &mut grid)
                });
                let world = WorldView {
                    positions: scenario.fleet.positions(),
                    velocities: scenario.fleet.velocities(),
                    online: scenario.fleet.online_flags(),
                    neighbors: &table,
                };
                tr.shadow("net.cluster.form", || form_clusters(&world, &cluster_cfg));
                if i <= last_fixed {
                    at_horizon.mean_degree = table.mean_degree();
                }
            }

            let stats = sim.stats();
            if i == last_fixed {
                at_horizon.transmissions = stats.transmissions;
                at_horizon.delivered = stats.delivered;
            }
            let (sent, delivered, transmissions) =
                (stats.sent, stats.delivered, stats.transmissions);
            let live = sim.live_copies() as u64;
            let fleet = &sim.scenario_mut().fleet;
            let state = fleet.positions().iter().fold(0u64, |acc, p| {
                (acc.rotate_left(5) ^ p.x.to_bits()).rotate_left(5) ^ p.y.to_bits()
            });
            if !all_accepted {
                return Err("a valid beacon was rejected".into());
            }
            let held: u64 = stores.iter().map(|s| s.len() as u64).sum();
            Ok(Fnv::new().words([sent, delivered, transmissions, live, state, held]).0)
        })]
    }

    fn finish(self, run: &Driven, layer: &mut Layer) -> Vec<String> {
        let ms = |name: &str| run.us_per_call(name) / 1e3;
        let (step, step2) = (ms("sim.mobility.step"), ms("sim.mobility.step.2"));
        let (rebuild, form, round) =
            (ms("sim.neighbor.rebuild"), ms("net.cluster.form"), ms("net.round"));
        layer.set("sim.mobility.step_ms", step);
        layer.set("sim.shard.step_speedup_2", step / step2);
        layer.set("sim.neighbor.rebuild_ms", rebuild);
        layer.set("sim.neighbor.mean_degree", self.at_horizon.mean_degree);
        layer.set("net.cluster.form_ms", form);
        layer.set("net.round.ms", round);
        layer.set("net.round.rest_ms", round - step - rebuild - form);
        layer.set("net.round.transmissions", self.at_horizon.transmissions as f64);
        layer.set("net.round.delivered", self.at_horizon.delivered as f64);
        layer.set("crypto.sign.us", run.us_per_call("crypto.sign"));
        layer.set("crypto.keygen.us", run.us_per_call("crypto.keygen"));
        layer.set("net.beacon.ingest_us_per_beacon", run.us_per_item("net.beacon.ingest"));
        layer.set("net.beacon.accepted_share", self.accepted as f64 / self.beacons as f64);
        Vec::new()
    }
}
