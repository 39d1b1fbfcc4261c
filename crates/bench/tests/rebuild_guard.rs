//! Path guards for the neighbor rebuild.
//!
//! A fleet whose id space fits one machine word (at most 64 ids) gets its
//! neighbor rows from an all-pairs pass into one-word bit rows, kept as the
//! table; a larger one goes through the cell list. Both give the same table, so an edit that quietly
//! sent small fleets back through the grid would pass every functional test
//! while costing every `vcloudd` job a third of its run. This test times
//! the fleets of the bench entries `neighbor_table/rebuild/64` and
//! `neighbor_table/rebuild/64-padded` — the same 64 vehicles, the second
//! with one offline 65th id, which is all it takes to select the cell list —
//! in one process and compares them as a ratio, which no host speed enters.
//! Each call rebuilds into a new table: a reused one over the dense 65-id
//! fleet would take the matrix scan from its second call on, while the
//! first rebuild of a table is the per-row scan on either side of 64 ids
//! had the bit rows gone, so the ratio would read about 1.
//!
//! Measured on rustc 1.95: 0.27–0.34, the new table's allocations on both
//! sides; 1.13 with the bit rows switched off (DESIGN.md, "Row ordering in
//! the neighbor table").
//!
//! The second guard is the same idea for the large sparse fleet. A table
//! rebuilt every tick over 10 000 vehicles that move 8 m a tick scans one
//! tick in four and refilters that scan's candidates on the other three;
//! an edit that broke the cadence (a limit compared the wrong way round, a
//! candidate store invalidated every call) would give the same rows at the
//! cost of a scan per tick. It times the bench entries
//! `neighbor_table/drift` and `neighbor_table/scan` at city density and
//! holds drift ÷ scan, per call, to 0.6.
//!
//! Measured on rustc 1.95: 0.28–0.36 (DESIGN.md, "Temporal coherence in the
//! neighbor table").
//!
//! The third is the dense fleet's. A table whose last rebuild came out dense
//! rebuilds through a bit matrix, every pair tested once, and keeps the
//! matrix as its rows, where a fresh table tests every pair from both ends
//! and orders each row on its own into ids; an edit that sent dense tables
//! back to the per-row scan (a density test compared the wrong way round, a
//! degree total cleared before it is read) would give the same rows at the
//! old cost. It times the bench entries
//! `neighbor_table/rebuild/1000-dense` and `neighbor_table/build/1000-dense`
//! — the dynamic cloud's 1 000 vehicles on 1 km² — and holds rebuild ÷
//! build to 0.75.
//!
//! Measured on rustc 1.95: 0.35–0.44, and up to 0.61 while the host is busy
//! (DESIGN.md, "Row ordering in the neighbor table").
//!
//! Timing tests, so they are ignored by default; the `bench-smoke` CI job
//! runs them optimised:
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
    let mut grid = SpatialGrid::new(300.0);
    let mut time = |positions: &[Point], online: &[bool]| {
        best_ns(30, 2_000, || {
            let mut table = NeighborTable::new();
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

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn a_drifting_city_rebuilds_in_at_most_six_tenths_of_the_scan_time() {
    // 80 vehicles per km², as `city-secure`: mean degree about 22.
    let n = 10_000;
    let mut rng = SimRng::seed_from(7);
    let base: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, 11_180.0), rng.range_f64(0.0, 11_180.0)))
        .collect();
    let steps: Vec<Point> = (0..n)
        .map(|_| {
            let turn = rng.range_f64(0.0, std::f64::consts::TAU);
            Point::new(turn.cos(), turn.sin()) * 8.0
        })
        .collect();
    let shifted: Vec<Point> = base.iter().map(|&p| p + Point::new(30.0, 0.0)).collect();
    let online = vec![true; n];
    let mut grid = SpatialGrid::new(300.0);

    // Two fleets 30 m apart, alternated: further than candidates last, so
    // every call is a plain scan.
    let mut table = NeighborTable::new();
    let mut flip = false;
    let scan_ns = best_ns(8, 8, || {
        flip = !flip;
        table.rebuild(&mut grid, black_box(if flip { &shifted } else { &base }), &online, 300.0);
        black_box(table.len());
    });
    assert_eq!(table.scans(), 64, "the scan side must scan every call");

    // 8 m a call along each vehicle's own heading, 32 calls out and 32 back.
    let mut table = NeighborTable::new();
    let mut moving = base.clone();
    let mut call = 0u32;
    let drift_ns = best_ns(8, 8, || {
        let sign = if (call / 32).is_multiple_of(2) { 1.0 } else { -1.0 };
        call += 1;
        for (p, &step) in moving.iter_mut().zip(&steps) {
            *p = *p + step * sign;
        }
        table.rebuild(&mut grid, black_box(&moving), &online, 300.0);
        black_box(table.len());
    });
    let scans = table.scans();
    let ratio = drift_ns / scan_ns;
    println!("scan {scan_ns:.0} ns, drift {drift_ns:.0} ns ({scans} scans in 64 calls), ratio {ratio:.3}");
    assert!(
        ratio <= 0.6,
        "a rebuild of a fleet drifting 8 m a call costs {drift_ns:.0} ns against {scan_ns:.0} ns \
         for a scan ({ratio:.2}x, {scans} scans in 64 calls): candidates are not being reused"
    );
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn a_dense_fleet_rebuilds_in_at_most_three_quarters_of_a_fresh_build() {
    let mut rng = SimRng::seed_from(7);
    let positions: Vec<Point> = (0..1_000)
        .map(|_| Point::new(rng.range_f64(0.0, 1_000.0), rng.range_f64(0.0, 1_000.0)))
        .collect();
    let online = vec![true; positions.len()];
    let build_ns = best_ns(10, 40, || {
        black_box(NeighborTable::build(black_box(&positions), &online, 300.0));
    });
    let mut table = NeighborTable::new();
    let mut grid = SpatialGrid::new(300.0);
    let rebuild_ns = best_ns(10, 40, || {
        table.rebuild(&mut grid, black_box(&positions), &online, 300.0);
        black_box(table.len());
    });
    assert!(table.mean_degree() > 150.0, "mean degree {}", table.mean_degree());
    let ratio = rebuild_ns / build_ns;
    println!("build {build_ns:.0} ns, rebuild {rebuild_ns:.0} ns, ratio {ratio:.3}");
    assert!(
        ratio <= 0.75,
        "rebuilding 1 000 dense vehicles costs {rebuild_ns:.0} ns against {build_ns:.0} ns for a \
         fresh table ({ratio:.2}x): dense tables no longer take the matrix scan"
    );
}
