//! Micro-benches for clustering, routing rounds and the dynamic cloud's
//! tick — the per-round cost basis of experiments E8 and E2 — plus the
//! cloud's checkpoint sealing and credit notes and the net layer's wire
//! encoding.

use vc_cloud::arch::{ArchitectureKind, CloudSim};
use vc_cloud::handover::{open_checkpoint, seal_checkpoint, Checkpoint};
use vc_cloud::incentive::{transfer, CreditBank};
use vc_cloud::scheduler::SchedulerConfig;
use vc_cloud::stay::Kinematic;
use vc_cloud::task::TaskId;
use vc_crypto::dh::EphemeralSecret;
use vc_crypto::schnorr::SigningKey;
use vc_net::cluster::{form_clusters, maintain_clusters, ClusterConfig};
use vc_net::netsim::NetSim;
use vc_net::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol};
use vc_net::world::WorldView;
use vc_sim::geom::{Point, SpatialGrid};
use vc_sim::node::VehicleId;
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
    sim.send_random_pairs(10, 256, None);
    sim.run_rounds(20);
    sim.stats().delivered
}

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns.
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

    // ---- both ends of the lazy election ----
    // `cloud-pipeline`'s fleet, where a tenth of the candidates are scored,
    // and the 40-vehicle urban and 48-vehicle highway catalogue fleets of
    // `svc-mix`, which take one bucket and score everyone. Each after 30
    // ticks of its own scenario, over the table a reused rebuild holds, as
    // the cloud's tick and `NetSim`'s round hold one: bit rows for all
    // three, the dense fleet's from the matrix scan.
    for (name, mut scenario, cfg) in [
        (
            "multi_hop/1000-dense",
            ScenarioBuilder::new().seed(42).vehicles(1_000).urban_with_rsus(),
            ClusterConfig::multi_hop(),
        ),
        (
            "multi_hop/40-urban",
            ScenarioBuilder::new().seed(42).vehicles(40).urban_with_rsus(),
            ClusterConfig::multi_hop(),
        ),
        (
            "moving_zone/48-highway",
            ScenarioBuilder::new().seed(42).vehicles(48).highway_no_infra(),
            ClusterConfig::moving_zone(),
        ),
    ] {
        scenario.run_ticks(30);
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(scenario.channel.range_m);
        for _ in 0..2 {
            scenario.neighbor_table_into(&mut table, &mut grid);
        }
        let world = WorldView {
            positions: scenario.fleet.positions(),
            velocities: scenario.fleet.velocities(),
            online: scenario.fleet.online_flags(),
            neighbors: &table,
        };
        suite.bench(&format!("clustering/form/{name}"), || form_clusters(black_box(&world), &cfg));
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

    // ---- checkpoint handover ----
    let rx = EphemeralSecret::from_seed(b"rx");
    let cp = Checkpoint { task: TaskId(1), done_gflop: 100.0, state: vec![0u8; 16_384] };
    let mut cp_entropy = 0u64;
    suite.bench("checkpoint/seal_16KiB", || {
        cp_entropy += 1;
        seal_checkpoint(black_box(&cp), VehicleId(1), VehicleId(2), &rx.public_share(), cp_entropy)
    });
    let sealed = seal_checkpoint(&cp, VehicleId(1), VehicleId(2), &rx.public_share(), 7);
    suite.bench("checkpoint/open_16KiB", || {
        open_checkpoint(black_box(&sealed), &rx).expect("opens")
    });

    // ---- credit notes ----
    let mut bank = CreditBank::new(b"bank");
    let earn = SigningKey::from_seed(b"earn");
    let spend = SigningKey::from_seed(b"spend");
    suite.bench("credit/issue", || {
        bank.issue(earn.verifying_key(), 10, vc_auth::pseudonym::PseudonymId(1))
    });
    let note = bank.issue(earn.verifying_key(), 10, vc_auth::pseudonym::PseudonymId(1));
    let moved = transfer(&note, &earn, spend.verifying_key()).unwrap();
    suite.bench("credit/validate_1_endorsement", || {
        bank.validate(black_box(&moved)).expect("valid")
    });

    // ---- wire encoding ----
    {
        use vc_net::beacon::{sign_beacon, Beacon};
        use vc_net::wire::{decode_beacon, encode_beacon};
        use vc_sim::time::SimTime;
        let key = SigningKey::from_seed(b"wire-bench");
        let sb = sign_beacon(
            Beacon {
                sender: VehicleId(1),
                pos: Point::new(1.0, 2.0),
                vel: Point::new(30.0, 0.0),
                sent_at: SimTime::from_secs(1),
            },
            &key,
        );
        suite.bench("wire/encode_beacon", || encode_beacon(black_box(&sb)));
        let frame = encode_beacon(&sb);
        suite.bench("wire/decode_beacon", || decode_beacon(black_box(&frame)).expect("decodes"));
    }

    suite.finish();
}
