//! Path guard for the waypoint step.
//!
//! A waypoint vehicle works out its leg's start, heading, length and speed
//! once, when the leg starts, and every later tick of the leg reads them
//! back. An edit that recomputed them each tick (a cache keyed so that it
//! never matches, or cleared on every call) would give bit-identical
//! positions and pass every functional test, at 1.6–2 times the cost of
//! `city-secure`'s mobility step. This test times the bench entries
//! `fleet/step/city-10000` (the 57×57 grid's 10 000 vehicles, warmed
//! 1 000 ticks so trips end and new ones are planned) and
//! `roadnet/shortest_path_57x57` in one process and holds their ratio,
//! which no host speed enters, to the bound below.
//!
//! Measured on rustc 1.95, 2-core Xeon, five alternating runs a side while
//! the host was busy (a route read 113–172 µs): 3.7–3.8 as built;
//! 7.2–7.8 with only the cache's key made never to match. The bound sits
//! halfway between the two. The ratio was 7.0–8.4 before trip planning
//! became a bounded search (DESIGN.md §5 "Path planning"): that search made
//! a city tick's new routes cheaper and this corner-to-corner route, which
//! settles the whole grid either way, dearer, so the bound of 10 that
//! separated 7.0–8.0 from 12.3–18.2 no longer caught the broken cache.
//! Timed one after the other instead of in turn, the two sides read
//! 5.0–9.7 and 8.5–10.8 on that host before the search changed, so the
//! sides take turns here.
//!
//! A timing test, so it is ignored by default; the `bench-smoke` CI job runs
//! it optimised:
//! `cargo test --release -p vc-bench --test mobility_guard -- --ignored`.

use std::hint::black_box;
use std::time::Instant;
use vc_sim::mobility::Fleet;
use vc_sim::rng::SimRng;
use vc_sim::roadnet::RoadNetwork;

/// Mean wall-clock nanoseconds of one call of `f` over `iters` calls.
fn mean_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[test]
#[ignore = "timing: run with --release (bench-smoke CI step)"]
fn a_city_tick_costs_at_most_five_and_a_half_routes() {
    let city = RoadNetwork::grid(57, 57, 200.0, 13.9);
    let from = city.intersections()[0].id;
    let to = city.intersections()[57 * 57 - 1].id;
    let mut fleet = Fleet::urban(&city, 10_000, &mut SimRng::seed_from(42));
    for _ in 0..1_000 {
        fleet.step(0.5, &city);
    }
    // Best of each side, the two timed in turn so a busy spell on the host
    // lands on both.
    let (mut route_ns, mut tick_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..30 {
        route_ns = route_ns.min(mean_ns(25, || {
            black_box(city.shortest_path(black_box(from), black_box(to)));
        }));
        tick_ns = tick_ns.min(mean_ns(10, || {
            fleet.step(0.5, &city);
            black_box(fleet.positions());
        }));
    }
    let ratio = tick_ns / route_ns;
    println!("route {route_ns:.0} ns, tick {tick_ns:.0} ns, ratio {ratio:.2}");
    assert!(
        ratio <= 5.5,
        "a 10 000-vehicle city tick costs {tick_ns:.0} ns against {route_ns:.0} ns for one \
         corner-to-corner route ({ratio:.1}x): legs are no longer worked out once"
    );
}
