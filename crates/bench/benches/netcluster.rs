//! Micro-benches for clustering, routing rounds and the dynamic cloud's
//! tick — the per-round cost basis of experiments E8 and E2.

use vc_cloud::arch::{ArchitectureKind, CloudSim};
use vc_cloud::scheduler::SchedulerConfig;
use vc_cloud::stay::Kinematic;
use vc_net::cluster::{form_clusters, maintain_clusters, ClusterConfig};
use vc_net::netsim::NetSim;
use vc_net::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol};
use vc_net::world::WorldView;
use vc_sim::geom::Point;
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::scenario::ScenarioBuilder;
use vc_testkit::bench::{black_box, Suite};

struct Snapshot {
    positions: Vec<Point>,
    velocities: Vec<Point>,
    online: Vec<bool>,
    table: NeighborTable,
}

/// `n` vehicles uniform over a square of side `extent` meters.
fn snapshot(n: usize, extent: f64) -> Snapshot {
    let mut rng = SimRng::seed_from(7);
    let positions: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, extent), rng.range_f64(0.0, extent)))
        .collect();
    let velocities: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0)))
        .collect();
    let online = vec![true; n];
    let table = NeighborTable::build(&positions, &online, 300.0);
    Snapshot { positions, velocities, online, table }
}

fn routing_rounds<P: RoutingProtocol>(proto: P) -> u64 {
    let mut builder = ScenarioBuilder::new();
    builder.seed(3).vehicles(60);
    let mut scenario = builder.urban_with_rsus();
    let mut sim = NetSim::new(&mut scenario, proto);
    sim.send_random_pairs(10, 256);
    sim.run_rounds(20);
    sim.stats().delivered
}

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns (diffed by benchdiff when both sides have them).
vc_obs::counting_allocator!();

fn main() {
    vc_obs::mem::register_bench_probe();
    let mut suite = Suite::new("netcluster");

    // ---- neighbor table construction ----
    for n in [50usize, 200, 800] {
        let snap = snapshot(n, 1200.0);
        suite.bench(&format!("neighbor_table/build/{n}"), || {
            NeighborTable::build(black_box(&snap.positions), &snap.online, 300.0)
        });
    }

    // ---- cluster formation ----
    // The small fleets share one 1.2 km square; the 10 000-vehicle one is a
    // city at 78 vehicles per km² (mean degree about 22), where per-call
    // and per-head allocation used to dominate.
    for (n, extent) in [(50usize, 1200.0), (200, 1200.0), (10_000, 11_300.0)] {
        let snap = snapshot(n, extent);
        let world = WorldView {
            positions: &snap.positions,
            velocities: &snap.velocities,
            online: &snap.online,
            neighbors: &snap.table,
        };
        suite.bench(&format!("clustering/form/multi_hop/{n}"), || {
            form_clusters(black_box(&world), &ClusterConfig::multi_hop())
        });
        suite.bench(&format!("clustering/form/moving_zone/{n}"), || {
            form_clusters(black_box(&world), &ClusterConfig::moving_zone())
        });
        if n == 10_000 {
            let previous = form_clusters(&world, &ClusterConfig::multi_hop());
            suite.bench(&format!("clustering/maintain/{n}"), || {
                maintain_clusters(&previous, black_box(&world), &ClusterConfig::multi_hop(), 0.5)
            });
        }
    }

    // ---- one tick of the Fig. 4(c) dynamic cloud ----
    // `cloud-pipeline`'s fleet: 1 000 vehicles on the 1 km² urban grid, 25
    // tasks every fourth tick, so the scheduler has work in steady state.
    {
        let scenario = ScenarioBuilder::new().seed(42).vehicles(1_000).urban_with_rsus();
        let mut cloud = CloudSim::new(
            scenario,
            ArchitectureKind::Dynamic,
            SchedulerConfig::default(),
            Kinematic,
        );
        let mut tick = 0u64;
        suite.bench("cloud/tick/dynamic/1000", || {
            if tick.is_multiple_of(4) {
                cloud.submit_batch(25, 400.0, None);
            }
            tick += 1;
            cloud.tick();
            cloud.scheduler().stats().completed
        });
    }

    // ---- full routing rounds (20 rounds, 60 vehicles) ----
    suite.bench("routing/20_rounds_60_vehicles/epidemic", || black_box(routing_rounds(Epidemic)));
    suite.bench("routing/20_rounds_60_vehicles/greedy", || black_box(routing_rounds(GreedyGeo)));
    suite.bench("routing/20_rounds_60_vehicles/cluster", || {
        black_box(routing_rounds(ClusterRouting::new()))
    });
    suite.bench("routing/20_rounds_60_vehicles/mozo", || {
        black_box(routing_rounds(MozoRouting::new()))
    });

    suite.finish();
}
