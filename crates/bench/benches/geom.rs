//! Micro-benches for the geometry hot paths: the canyon's road test and
//! nearest-node queries through the spatial index, neighbor-table
//! construction and in-place rebuild, canyon LOS links, and a full
//! street-aware routing round.

use vc_net::netsim::NetSim;
use vc_net::routing::StreetAware;
use vc_sim::geom::{Point, SpatialGrid};
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::roadnet::RoadNetwork;
use vc_sim::scenario::{CanyonModel, ScenarioBuilder};
use vc_testkit::bench::{black_box, Suite};

fn probes(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<Point> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| Point::new(rng.range_f64(lo, hi), rng.range_f64(lo, hi))).collect()
}

/// Probe points hugging a horizontal corridor, as highway traffic does.
fn corridor_probes(n: usize, length: f64, seed: u64) -> Vec<Point> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|_| Point::new(rng.range_f64(-500.0, length + 500.0), rng.range_f64(-300.0, 300.0)))
        .collect()
}

fn positions(n: usize, extent: f64, seed: u64) -> Vec<Point> {
    probes(n, 0.0, extent, seed)
}

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns.
vc_obs::counting_allocator!();

fn main() {
    vc_obs::mem::register_bench_probe();
    let mut suite = Suite::new("geom");

    // ---- the canyon's road test and nearest-node through the road index ----
    // 24x24 urban grid: 576 intersections, 2208 directed segments.
    let grid_map = RoadNetwork::grid(24, 24, 100.0, 13.9);
    // 20 km highway corridor: degenerate (collinear) bounding box.
    let highway_map = RoadNetwork::highway(20_000.0, 64, 33.3);
    let grid_probes = probes(256, -200.0, 2500.0, 5);
    let hw_probes = corridor_probes(256, 20_000.0, 6);

    // A canyon link from a probe to itself, sampled once, is the road test
    // at that probe: is a road within the 18 m street half-width?
    for (name, map, probes) in [
        ("canyon_los/point/grid24", &grid_map, &grid_probes),
        ("canyon_los/point/highway", &highway_map, &hw_probes),
    ] {
        let mut canyon = ScenarioBuilder::new().vehicles(1).urban_canyon();
        canyon.roadnet = map.clone();
        canyon.canyon = Some(CanyonModel { samples: 1, ..CanyonModel::default() });
        suite.bench_elems(name, probes.len() as u64, || {
            probes.iter().map(|&p| canyon.los_factor(p, p)).sum::<f64>()
        });
    }
    suite.bench_elems("nearest_node/grid24/indexed", grid_probes.len() as u64, || {
        grid_probes.iter().filter_map(|&p| grid_map.nearest_node(p)).count()
    });

    // ---- neighbor table at scale: fresh build vs in-place rebuild ----
    // A rebuild over positions within 25 m of the last scan's may refilter
    // that scan's candidates, so what a row measures is set by how the fleet
    // moves between calls: `scan` alternates two fleets 30 m apart (a plain
    // scan every call), `refilter` never moves (candidates gathered before
    // the clock starts), `drift` moves every vehicle 8 m a call along its
    // own heading, there and back — the urban tick: one skin scan, then
    // three refilters, all four in one iteration. The 1 000-vehicle fleet's
    // rows are dense in the id space (degree 78 against 16 words), so every
    // rebuild after its first is a matrix scan whatever it does: its three
    // rows read the same, and `build/1000` (a fresh table, the plain scan)
    // is the one to set beside them.
    for n in [1_000usize, 10_000] {
        let extent = (n as f64).sqrt() * 60.0; // keep density roughly constant
        let pos = positions(n, extent, 7);
        let online = vec![true; n];
        suite.bench_elems(&format!("neighbor_table/build/{n}"), n as u64, || {
            NeighborTable::build(black_box(&pos), &online, 300.0)
        });
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(300.0);
        let shifted: Vec<Point> = pos.iter().map(|&p| p + Point::new(30.0, 0.0)).collect();
        let mut flip = false;
        suite.bench_elems(&format!("neighbor_table/scan/{n}"), n as u64, || {
            flip = !flip;
            let pos = if flip { &shifted } else { &pos };
            table.rebuild(&mut grid, black_box(pos), &online, 300.0);
            table.len()
        });
        for _ in 0..2 {
            table.rebuild(&mut grid, &pos, &online, 300.0);
        }
        suite.bench_elems(&format!("neighbor_table/refilter/{n}"), n as u64, || {
            table.rebuild(&mut grid, black_box(&pos), &online, 300.0);
            table.len()
        });
        let mut rng = SimRng::seed_from(8);
        let steps: Vec<Point> = (0..n)
            .map(|_| {
                let turn = rng.range_f64(0.0, std::f64::consts::TAU);
                Point::new(turn.cos(), turn.sin()) * 8.0
            })
            .collect();
        let mut moving = pos.clone();
        let mut call = 0u32;
        // Four calls an iteration — one whole cycle, so that a median over
        // iterations cannot land on the refilters alone.
        suite.bench_elems(&format!("neighbor_table/drift/{n}"), 4 * n as u64, || {
            for _ in 0..4 {
                let sign = if (call / 64).is_multiple_of(2) { 1.0 } else { -1.0 };
                call += 1;
                for (p, &step) in moving.iter_mut().zip(&steps) {
                    *p = *p + step * sign;
                }
                table.rebuild(&mut grid, black_box(&moving), &online, 300.0);
            }
            table.len()
        });
    }

    // The dynamic cloud's fleet: 1 000 vehicles on 1 km², mean degree about
    // 216, where rows are dense in the id space. `build` is a fresh table
    // each call — the plain scan, rows ordered by bitmap into CSR; `rebuild`
    // reuses one, so every call after the first is a matrix scan whose bit
    // rows are the table. `rebuild_guard.rs` holds the pair to a ratio.
    {
        let pos = positions(1_000, 1_000.0, 7);
        let online = vec![true; pos.len()];
        suite.bench_elems("neighbor_table/build/1000-dense", pos.len() as u64, || {
            NeighborTable::build(black_box(&pos), &online, 300.0)
        });
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(300.0);
        suite.bench_elems("neighbor_table/rebuild/1000-dense", pos.len() as u64, || {
            table.rebuild(&mut grid, black_box(&pos), &online, 300.0);
            table.len()
        });
    }

    // The fleets `vcloudd` runs: an id space of at most 64 is one bit row
    // per vehicle and never reaches the grid. `64-padded` is the same 64
    // vehicles with one offline 65th id, which sends them through the cell
    // list (their rows are dense, so after the first call the matrix scan).
    // `rebuild_guard.rs` holds the same pair to a ratio, each rebuilt into a
    // new table so the padded side is the per-row scan.
    {
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(300.0);
        for n in [40usize, 64] {
            let pos = positions(n, 1_000.0, 7);
            let online = vec![true; n];
            suite.bench_elems(&format!("neighbor_table/rebuild/{n}"), n as u64, || {
                table.rebuild(&mut grid, black_box(&pos), &online, 300.0);
                table.len()
            });
        }
        let mut pos = positions(64, 1_000.0, 7);
        pos.push(Point::new(0.0, 0.0));
        let mut online = vec![true; 64];
        online.push(false);
        suite.bench_elems("neighbor_table/rebuild/64-padded", 64, || {
            table.rebuild(&mut grid, black_box(&pos), &online, 300.0);
            table.len()
        });
    }

    // ---- canyon LOS link (the road test per sample) ----
    let mut builder = ScenarioBuilder::new();
    builder.seed(11).vehicles(10);
    let canyon = builder.urban_canyon();
    let endpoints = probes(128, 0.0, 1000.0, 9);
    suite.bench_elems("canyon_los/link", (endpoints.len() / 2) as u64, || {
        endpoints.chunks_exact(2).map(|ab| canyon.los_factor(ab[0], ab[1])).sum::<f64>()
    });

    // ---- full street-aware routing round over the canyon map ----
    suite.bench("routing/20_rounds_40_vehicles/street_aware", || {
        let mut b = ScenarioBuilder::new();
        b.seed(13).vehicles(40);
        let mut scenario = b.urban_canyon();
        let map = scenario.roadnet.clone();
        let mut sim = NetSim::new(&mut scenario, StreetAware::new(map));
        sim.send_random_pairs(10, 256, None);
        sim.run_rounds(20);
        sim.stats().delivered
    });

    suite.finish();
}
