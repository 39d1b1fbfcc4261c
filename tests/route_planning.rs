//! Integration: waypoint routes on the `city-secure` road grid.

use vcloud::net::svc::fnv1a64;
use vcloud::prelude::{Fleet, Mobility, RoadNetwork, SimRng};

/// FNV-1a over every vehicle's waypoint path (length, then node ids, each
/// a little-endian `u64`).
fn path_digest(fleet: &Fleet) -> u64 {
    let mut bytes = Vec::new();
    for v in fleet.vehicles() {
        let Mobility::Waypoint(w) = &v.mobility else { panic!("an urban fleet drives waypoints") };
        bytes.extend((w.path.len() as u64).to_le_bytes());
        for node in &w.path {
            bytes.extend((node.0 as u64).to_le_bytes());
        }
    }
    fnv1a64(&[&bytes])
}

/// A 57×57 grid has far more equal-cost routes than the 6×6 grids the
/// committed tables use, so it pins `RoadNetwork::shortest_path`'s
/// tie-breaking (pop order: cost, then the lower node id) where it is
/// exercised hardest. The digest is what the float-keyed reference Dijkstra
/// in `crates/sim/tests/props.rs` routes.
#[test]
fn city_grid_routes_are_pinned() {
    let net = RoadNetwork::grid(57, 57, 200.0, 13.9);
    let fleet = Fleet::urban(&net, 1_000, &mut SimRng::seed_from(42));
    assert_eq!(fleet.len(), 1_000);
    assert_eq!(path_digest(&fleet), 0x55b0_78fb_bd8c_1531);
}

/// The same fleet driven 600 steps of 0.5 s, past the end of the shorter
/// first trips (177 vehicles plan a second route), so leg geometry on
/// both trips enters the digest: FNV-1a over every vehicle's position and
/// velocity, as the bits of `x` then `y`, little-endian.
#[test]
fn city_grid_positions_are_pinned() {
    let net = RoadNetwork::grid(57, 57, 200.0, 13.9);
    let mut fleet = Fleet::urban(&net, 1_000, &mut SimRng::seed_from(42));
    for _ in 0..600 {
        fleet.step(0.5, &net);
    }
    let mut bytes = Vec::new();
    for p in fleet.positions().iter().chain(fleet.velocities()) {
        bytes.extend(p.x.to_bits().to_le_bytes());
        bytes.extend(p.y.to_bits().to_le_bytes());
    }
    assert_eq!(fnv1a64(&[&bytes]), 0x9c62_3b60_b6f8_f9fc);
}
