//! Path guard for the small-fleet neighbor rebuild.
//!
//! A fleet whose id space fits one machine word (at most 64 ids) gets its
//! neighbor rows from an all-pairs pass into bit rows; a larger one goes
//! through the cell list. Both give the same table, so an edit that quietly
//! sent small fleets back through the grid would pass every functional test
//! while costing every `vcloudd` job a third of its run. This test times
//! the two bench entries `neighbor_table/rebuild/64` and
//! `neighbor_table/rebuild/64-padded` — the same 64 vehicles, the second
//! with one offline 65th id, which is all it takes to select the cell list —
//! in one process and compares them as a ratio, which no host speed enters.
//!
//! Measured on rustc 1.95: 0.31 (DESIGN.md, "Row ordering in the neighbor
//! table").
//!
//! A timing test, so it is ignored by default; the `bench-smoke` CI job
//! runs it optimised:
//! `cargo test --release -p vc-bench --test rebuild_guard -- --ignored`.

use std::hint::black_box;
use std::time::Instant;
use vc_sim::geom::{Point, SpatialGrid};
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;

/// Best-of-`reps` wall-clock nanoseconds of one call of `f`, each rep the
/// mean over `iters` calls.
fn best_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn sixty_four_vehicles_rebuild_in_at_most_seven_tenths_of_the_cell_list_time() {
    let mut rng = SimRng::seed_from(7);
    let mut positions: Vec<Point> = (0..64)
        .map(|_| Point::new(rng.range_f64(0.0, 1_000.0), rng.range_f64(0.0, 1_000.0)))
        .collect();
    let mut online = vec![true; 64];
    let mut table = NeighborTable::new();
    let mut grid = SpatialGrid::new(300.0);
    let mut time = |positions: &[Point], online: &[bool]| {
        best_ns(30, 2_000, || {
            table.rebuild(&mut grid, black_box(positions), online, 300.0);
            black_box(table.len());
        })
    };
    let small_ns = time(&positions, &online);
    positions.push(Point::new(0.0, 0.0));
    online.push(false);
    let padded_ns = time(&positions, &online);
    let ratio = small_ns / padded_ns;
    println!("64 ids {small_ns:.0} ns, 65 ids {padded_ns:.0} ns, ratio {ratio:.3}");
    assert!(
        ratio <= 0.7,
        "rebuilding 64 vehicles costs {small_ns:.0} ns against {padded_ns:.0} ns for the same \
         vehicles in a 65-id space ({ratio:.2}x): small fleets no longer take the bit-row path"
    );
}
