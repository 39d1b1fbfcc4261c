//! Steady-state allocation checks.
//!
//! This test binary installs the counting allocator (`vc_obs::mem`) and
//! enforces three classes of guarantee:
//!
//! * the allocator's own per-thread counters rise on allocation;
//! * the simulator's per-tick hot loops — `Fleet::step_sharded`,
//!   `NetSim::round`, the neighbor-table rebuild + cluster re-formation
//!   inside it, and the dynamic `CloudSim::tick` built on the same two —
//!   allocate **nothing** once their scratch buffers are warm and the
//!   single-shard plan collapses to an inline loop;
//! * the JSONL export allocates per call, not per event.
//!
//! Zero-alloc assertions use [`AllocScope`], which reads *thread-local*
//! counters, so they are immune to allocation by concurrent test threads.

use vc_cloud::arch::{ArchitectureKind, CloudSim};
use vc_cloud::scheduler::SchedulerConfig;
use vc_cloud::stay::Kinematic;
use vc_net::netsim::NetSim;
use vc_net::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol};
use vc_net::world::WorldView;
use vc_obs::mem::AllocScope;
use vc_obs::Recorder;
use vc_sim::prelude::*;

vc_obs::counting_allocator!();

const BIG: usize = 8 * 1024 * 1024;

#[test]
fn allocator_counts_rise_on_allocation() {
    let scope = AllocScope::start();
    let block: Vec<u8> = Vec::with_capacity(BIG);
    drop(block);
    let delta = scope.finish();

    assert!(delta.allocs >= 1, "thread-local alloc count must rise");
    assert!(delta.bytes >= BIG as u64, "thread-local bytes must cover the block");
}

#[test]
fn fleet_step_sharded_steady_state_allocates_nothing() {
    let mut rng = SimRng::seed_from(11);
    let corridor = 3_000.0;
    let net = RoadNetwork::highway(corridor, 4, 33.3);
    let mut fleet = Fleet::highway(corridor, 256, &net, &mut rng);
    // Warm-up: grow the lane scratch / leader buffers to their plateau.
    for _ in 0..20 {
        fleet.step_sharded(0.5, &net, 1);
    }
    let scope = AllocScope::start();
    for _ in 0..50 {
        fleet.step_sharded(0.5, &net, 1);
    }
    let delta = scope.finish();
    assert_eq!(
        (delta.allocs, delta.bytes),
        (0, 0),
        "single-shard fleet stepping must be allocation-free after warm-up"
    );
}

#[test]
fn netsim_round_steady_state_allocates_nothing() {
    let mut scenario = ScenarioBuilder::new().seed(7).vehicles(64).parking_lot();
    let mut sim = NetSim::new(&mut scenario, GreedyGeo);
    sim.send_random_pairs(8, 128, None);
    // Warm-up: the dense lot delivers everything within a few rounds, and
    // the grid / neighbor-table / snapshot buffers reach their plateau.
    // What is measured is therefore the round of an *empty* network —
    // mobility and the table rebuild; the next test has packets in flight.
    sim.run_rounds(4);
    assert_eq!(sim.live_copies(), 0, "warm-up must deliver every packet");

    let scope = AllocScope::start();
    sim.run_rounds(8);
    let delta = scope.finish();
    assert_eq!((delta.allocs, delta.bytes), (0, 0), "idle rounds must be allocation-free");
}

#[test]
fn netsim_round_with_copies_in_flight_allocates_nothing() {
    // The traffic of a `vcloudd` epidemic job — 40 vehicles, 24 packets —
    // flooding towards a vehicle that is offline, so nothing is delivered
    // and the window covers the whole spread: each round asks the protocol
    // about every live copy and records an outcome and its attempts for it,
    // into buffers the sim keeps. (A `Vec` of next hops and one of attempts
    // per copy, and three more per round, made 2 189 allocations in a
    // 256-tick job.) On a highway, because urban waypoint mobility plans a
    // fresh path, which allocates, whenever a vehicle arrives.
    let mut scenario = ScenarioBuilder::new().seed(11).vehicles(40).highway_no_infra();
    let (first_sink, sink) = (VehicleId(38), VehicleId(39));
    scenario.fleet.set_online(first_sink, false);
    scenario.fleet.set_online(sink, false);
    let mut sim = NetSim::new(&mut scenario, Epidemic);
    let flood = |sim: &mut NetSim<'_, Epidemic>, packets, to| {
        for src in 0..packets {
            sim.send(VehicleId(src), to, 256);
        }
    };
    // Warm-up: a flood a third larger, once through, so every buffer has
    // seen more than it will hold in the window; its sink then comes online
    // just long enough to take delivery, which retires every copy.
    flood(&mut sim, 32, first_sink);
    sim.run_rounds(96);
    sim.scenario_mut().fleet.set_online(first_sink, true);
    sim.run_rounds(32);
    assert_eq!(sim.live_copies(), 0, "the warm-up flood must be delivered");
    sim.scenario_mut().fleet.set_online(first_sink, false);
    flood(&mut sim, 24, sink);
    // The first round after a send grows the per-packet delivery snapshot.
    sim.run_rounds(1);
    let transmissions = sim.stats().transmissions;

    let scope = AllocScope::start();
    sim.run_rounds(64);
    let delta = scope.finish();
    // Copies only ever descend from copies, so some were live all along.
    assert!(sim.live_copies() > 24 * 8, "{} copies in flight", sim.live_copies());
    assert!(sim.stats().transmissions > transmissions + 24 * 8);
    assert_eq!(
        (delta.allocs, delta.bytes),
        (0, 0),
        "rounds with copies in flight must be allocation-free after warm-up"
    );
}

#[test]
fn neighbor_rebuild_and_cluster_reform_steady_state_allocate_nothing() {
    // 2 000 vehicles at city density, every one of them thrown up to a full
    // 300 m cell away from its base each iteration: vehicles change cells,
    // the bounding box moves, cells that were empty fill up, and the number
    // of clusters drifts. (The hash grid this replaced allocated a bucket on
    // every first visit to a cell.) Then the same with the 40 vehicles of a
    // `vcloudd` job, whose rows are one-word bit rows and whose grid is
    // never built. Neither fleet is ever found where the last scan saw it,
    // so every rebuild is a scan and no candidate store is allocated.
    for (n, extent) in [(2_000, 5_000.0), (40, 1_500.0)] {
        let mut rng = SimRng::seed_from(13);
        let base: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.range_f64(0.0, extent), rng.range_f64(0.0, extent)))
            .collect();
        let velocities: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.range_f64(-6.0, 6.0), rng.range_f64(-6.0, 6.0)))
            .collect();
        let online: Vec<bool> = (0..n).map(|i| i % 11 != 0).collect();
        let mut positions = base.clone();
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(300.0);
        let (mut cluster, mut mozo) = (ClusterRouting::new(), MozoRouting::new());
        let mut iterate = |rounds: usize| {
            for _ in 0..rounds {
                for (p, b) in positions.iter_mut().zip(&base) {
                    *p =
                        *b + Point::new(rng.range_f64(-300.0, 300.0), rng.range_f64(-300.0, 300.0));
                }
                let scans = table.scans();
                table.rebuild(&mut grid, &positions, &online, 300.0);
                assert_eq!(table.scans(), scans + 1, "a teleporting fleet is scanned every call");
                let world = WorldView {
                    positions: &positions,
                    velocities: &velocities,
                    online: &online,
                    neighbors: &table,
                };
                // `begin_round` is the in-place re-formation `NetSim::round`
                // runs.
                cluster.begin_round(&world);
                mozo.begin_round(&world);
            }
        };
        // Warm-up: the neighbor table's flat storage finds its high-water
        // mark; everything else is sized by the fleet on the first round.
        iterate(12);
        let scope = AllocScope::start();
        iterate(12);
        let delta = scope.finish();
        assert!(cluster.clustering().cluster_count() > 1 && mozo.zones().cluster_count() > 1);
        assert_eq!(
            (delta.allocs, delta.bytes),
            (0, 0),
            "rebuild + re-formation of {n} vehicles must be allocation-free after warm-up"
        );
    }
}

#[test]
fn drifting_fleet_rebuild_steady_state_allocates_nothing() {
    // 3 000 vehicles at city density, each 6 m further along its own heading
    // every call: the table scans, refilters the scan's candidates four
    // times (6, 12, 18 and 24 m from where it saw the fleet), and gathers
    // them afresh on the fifth. The candidate total differs from scan to
    // scan; the store's headroom absorbs that.
    let n = 3_000;
    let mut rng = SimRng::seed_from(13);
    let mut positions: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, 6_000.0), rng.range_f64(0.0, 6_000.0)))
        .collect();
    let steps: Vec<Point> = (0..n)
        .map(|_| {
            let turn = rng.range_f64(0.0, std::f64::consts::TAU);
            Point::new(turn.cos(), turn.sin()) * 6.0
        })
        .collect();
    let online: Vec<bool> = (0..n).map(|i| i % 11 != 0).collect();
    let mut table = NeighborTable::new();
    let mut grid = SpatialGrid::new(300.0);
    let mut iterate = |calls: usize| {
        for _ in 0..calls {
            for (p, &step) in positions.iter_mut().zip(&steps) {
                *p = *p + step;
            }
            table.rebuild(&mut grid, &positions, &online, 300.0);
        }
        table.scans()
    };
    // Warm-up: the plain scan, then four cycles.
    let warm = iterate(21);
    let scope = AllocScope::start();
    let scans = iterate(15) - warm;
    let delta = scope.finish();
    assert_eq!(scans, 3, "three scan cycles of five calls");
    assert_eq!(
        (delta.allocs, delta.bytes),
        (0, 0),
        "scans and refilters of a drifting fleet must be allocation-free after warm-up"
    );
}

#[test]
fn dense_fleet_matrix_rebuild_steady_state_allocates_nothing() {
    // The dynamic cloud's density: 1 000 vehicles on 1 km², mean degree
    // about 210, each 7 m further along its own heading every call. The
    // first rebuild is a plain scan; every one after it is a matrix scan,
    // and the second grows the matrix, which the rest reuse.
    let n = 1_000;
    let mut rng = SimRng::seed_from(29);
    let mut positions: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, 1_000.0), rng.range_f64(0.0, 1_000.0)))
        .collect();
    let steps: Vec<Point> = (0..n)
        .map(|_| {
            let turn = rng.range_f64(0.0, std::f64::consts::TAU);
            Point::new(turn.cos(), turn.sin()) * 7.0
        })
        .collect();
    let online: Vec<bool> = (0..n).map(|i| i % 11 != 0).collect();
    let mut table = NeighborTable::new();
    let mut grid = SpatialGrid::new(300.0);
    let mut iterate = |calls: usize| {
        for _ in 0..calls {
            for (p, &step) in positions.iter_mut().zip(&steps) {
                *p = *p + step;
            }
            table.rebuild(&mut grid, &positions, &online, 300.0);
        }
        table.scans()
    };
    assert_eq!(iterate(2), 2);
    let scope = AllocScope::start();
    let scans = iterate(20);
    let delta = scope.finish();
    assert_eq!(scans, 22, "a dense table is scanned every call");
    assert!(table.mean_degree() > 100.0, "mean degree {}", table.mean_degree());
    assert_eq!(
        (delta.allocs, delta.bytes),
        (0, 0),
        "matrix scans of a dense fleet must be allocation-free after the first two rebuilds"
    );
}

#[test]
fn jsonl_export_allocates_per_call_not_per_event() {
    // A traced `urban-epidemic` job's last 1 000 events, written into a
    // buffer that already has the room: what is left is the one line
    // buffer and its few doublings. (Building a `Json` tree per event made
    // more than ten allocations for each of them.)
    let mut scenario = ScenarioBuilder::new().seed(11).vehicles(40).urban_with_rsus();
    let mut sim = NetSim::new(&mut scenario, Epidemic);
    let mut rec = Recorder::ring(1_000);
    sim.send_random_pairs(24, 256, Some(&mut rec));
    sim.run_rounds_obs(256, Some(&mut rec));
    assert_eq!(rec.len(), 1_000);
    let mut out = Vec::with_capacity(1 << 20);
    let scope = AllocScope::start();
    rec.write_jsonl(&mut out).expect("Vec<u8> write cannot fail");
    let delta = scope.finish();
    assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), 1_001, "events and the trailer");
    assert!(out.len() < 1 << 20, "the sink must not have grown");
    assert!(delta.allocs <= 8, "{} allocations for 1 000 events", delta.allocs);
}

#[test]
fn dynamic_cloud_tick_with_idle_scheduler_allocates_nothing() {
    // The Fig. 4(c) cloud over dense traffic: every tick rebuilds the
    // neighbor table (bit rows out of the matrix scan, kept as they are),
    // re-forms the clustering over them word by word,
    // picks the broker's cluster and refills the host list. A highway,
    // because urban waypoint mobility plans a fresh path (which allocates)
    // whenever a vehicle arrives, and that is not the cloud's doing.
    let scenario = ScenarioBuilder::new().seed(9).vehicles(1_000).highway_no_infra();
    let mut cloud =
        CloudSim::new(scenario, ArchitectureKind::Dynamic, SchedulerConfig::default(), Kinematic);
    // Warm-up: the table's flat storage and the member and host buffers
    // find their high-water marks as the fleet mixes.
    cloud.run_ticks(60, None);
    let scope = AllocScope::start();
    cloud.run_ticks(60, None);
    let delta = scope.finish();
    assert!(cloud.membership().members.len() > 100, "the cloud must have formed");
    assert_eq!(
        (delta.allocs, delta.bytes),
        (0, 0),
        "a dynamic cloud tick with nothing to schedule must be allocation-free after warm-up"
    );
}

#[test]
fn sharded_stepping_matches_single_shard_under_counting_allocator() {
    // The counting allocator sits under every thread the shard fan-out
    // spawns; this exercises that path and re-checks determinism under it.
    let build = || {
        let mut rng = SimRng::seed_from(3);
        let net = RoadNetwork::highway(2_000.0, 4, 33.3);
        (Fleet::highway(2_000.0, 600, &net, &mut rng), net)
    };
    let (mut a, net_a) = build();
    let (mut b, net_b) = build();
    for _ in 0..10 {
        a.step_sharded(0.5, &net_a, 1);
        b.step_sharded(0.5, &net_b, 4);
    }
    let pa: Vec<(u64, u64)> =
        a.positions().iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
    let pb: Vec<(u64, u64)> =
        b.positions().iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
    assert_eq!(pa, pb, "shard count must not change trajectories");
}
