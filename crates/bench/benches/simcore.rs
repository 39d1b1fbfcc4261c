//! Micro-benches for the simulation substrate: mobility stepping, RNG
//! draws.

use vc_sim::mobility::Fleet;
use vc_sim::rng::SimRng;
use vc_sim::roadnet::{NodeId, RoadNetwork};
use vc_testkit::bench::{black_box, Suite};

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns.
vc_obs::counting_allocator!();

fn main() {
    vc_obs::mem::register_bench_probe();
    let mut suite = Suite::new("simcore");

    // ---- mobility stepping ----
    for n in [50usize, 400] {
        let net = RoadNetwork::grid(8, 8, 150.0, 13.9);
        let mut rng = SimRng::seed_from(2);
        let mut fleet = Fleet::urban(&net, n, &mut rng);
        suite.bench_elems(&format!("fleet/step/{n}"), n as u64, || {
            fleet.step(0.5, &net);
            black_box(fleet.len())
        });
    }

    // ---- routing on the road graph ----
    let net = RoadNetwork::grid(20, 20, 100.0, 13.9);
    let from = net.intersections()[0].id;
    let to = net.intersections()[399].id;
    suite
        .bench("roadnet/shortest_path_20x20", || net.shortest_path(black_box(from), black_box(to)));
    // The `city-secure` grid: 64 seeded random pairs an iteration, the
    // routes trip planning asks for; corner to corner, the worst case, as
    // that route settles the whole grid; and the fleet it sets up, one
    // route per vehicle.
    let city = RoadNetwork::grid(57, 57, 200.0, 13.9);
    let mut rng = SimRng::seed_from(57);
    let nodes = city.intersections().len();
    let pairs: Vec<(NodeId, NodeId)> =
        (0..64).map(|_| (NodeId(rng.index(nodes)), NodeId(rng.index(nodes)))).collect();
    suite.bench_elems("roadnet/shortest_path_57x57/random", 64, || {
        for &(from, to) in &pairs {
            black_box(city.shortest_path(black_box(from), black_box(to)));
        }
    });
    let from = city.intersections()[0].id;
    let to = city.intersections()[57 * 57 - 1].id;
    suite.bench("roadnet/shortest_path_57x57", || {
        city.shortest_path(black_box(from), black_box(to))
    });
    suite.bench_elems("fleet/urban/10000", 10_000, || {
        black_box(Fleet::urban(&city, 10_000, &mut SimRng::seed_from(42)).len())
    });
    // That fleet's tick, warmed until 41 % of first trips have ended and a
    // tick plans ≈ 8 new routes, as `city-secure`'s ticks plan several.
    let mut fleet = Fleet::urban(&city, 10_000, &mut SimRng::seed_from(42));
    for _ in 0..1_000 {
        fleet.step(0.5, &city);
    }
    suite.bench_elems("fleet/step/city-10000", 10_000, || {
        fleet.step(0.5, &city);
        black_box(fleet.len())
    });

    // ---- rng ----
    let mut rng = SimRng::seed_from(3);
    suite.bench("rng/next_u64", || black_box(rng.next_u64()));
    let mut rng2 = SimRng::seed_from(3);
    suite.bench("rng/normal", || black_box(rng2.normal(0.0, 1.0)));

    suite.finish();
}
