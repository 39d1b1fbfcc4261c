//! E18 — memory footprint scaling: bytes per vehicle by layer (extension;
//! paper §IV-A resource management: a vehicular cloud's host is a fleet of
//! embedded computers, so per-vehicle memory — not just CPU — bounds how
//! large a simulated (and eventually real) deployment can grow).
//!
//! Sweeps the fleet size (10k → 1M on a constant-density highway corridor,
//! 10k → 100k on a constant-density city grid) over a short GreedyGeo
//! routing workload and reports the deep heap footprint of each layer —
//! fleet + road network, network simulation state, and the observability
//! recorder — normalised to bytes per vehicle. Footprints come from
//! [`MemSize`]/`heap_bytes` (lengths and capacities only, never allocator
//! state), so every number is a pure function of build and seed.
//! Steady-state allocation-freedom of the inner loops is enforced
//! separately by the `memcheck` integration tests.

use crate::table::{f1, Table};
use vc_net::netsim::NetSim;
use vc_net::routing::GreedyGeo;
use vc_obs::{MemSize, Recorder};
use vc_sim::prelude::*;

/// A highway corridor sized to the fleet (~50 vehicles/km over 4 lanes) so
/// radio degree — and with it per-round cost and per-vehicle neighbor
/// state — stays flat while `n` scales 10k → 1M.
fn highway(seed: u64, n: usize) -> Scenario {
    let mut rng = SimRng::seed_from(seed);
    let corridor = (n as f64 * 20.0).max(1_000.0);
    let roadnet = RoadNetwork::highway(corridor, 4, 33.3);
    let fleet = Fleet::highway(corridor, n, &roadnet, &mut rng);
    Scenario {
        regime: Regime::Dynamic,
        roadnet,
        fleet,
        channel: Channel::dsrc(),
        rsus: RsuNetwork::new(),
        cellular: Cellular::unavailable(),
        canyon: None,
        seed,
        rng,
        dt: 0.5,
        shards: 1,
    }
}

/// A city sized to the fleet (~120 vehicles/km²). The road graph is capped
/// at 64×64 intersections, blocks widened to cover the same area, because
/// every vehicle's route is a Dijkstra over the whole graph: ≈ 48 µs a
/// vehicle for `Fleet::urban` on the 57×57 grid (`benches/simcore.rs`,
/// `fleet/urban/10000`, 2-core Xeon). A graph grown with the fleet would
/// make scenario construction quadratic in the fleet size.
fn city(seed: u64, n: usize) -> Scenario {
    let mut rng = SimRng::seed_from(seed);
    let side_m = (n as f64 / 120.0).sqrt().max(0.5) * 1000.0;
    let cells = ((side_m / 120.0).ceil() as usize).clamp(2, 64);
    let roadnet = RoadNetwork::grid(cells, cells, side_m / cells as f64, 13.9);
    let fleet = Fleet::urban(&roadnet, n, &mut rng);
    Scenario {
        regime: Regime::InfrastructureBased,
        roadnet,
        fleet,
        channel: Channel::dsrc(),
        rsus: RsuNetwork::new(),
        cellular: Cellular::healthy(),
        canyon: None,
        seed,
        rng,
        dt: 0.5,
        shards: 1,
    }
}

/// Deep per-layer footprint after a short instrumented routing run:
/// `(fleet + roadnet, net sim state, recorder)` in bytes. Derived from
/// capacities only, so the triple is deterministic.
fn footprint(base: &Scenario, rounds: usize) -> (u64, u64, u64) {
    let packets = (base.fleet.len() / 100).max(10);
    let mut scenario = base.clone();
    let mut sim = NetSim::new(&mut scenario, GreedyGeo);
    let mut rec = Recorder::ring(4096);
    sim.send_random_pairs(packets, 128, Some(&mut rec));
    sim.run_rounds_obs(rounds, Some(&mut rec));
    let fleet = sim.scenario_mut().fleet.heap_bytes() + sim.scenario_mut().roadnet.heap_bytes();
    let net = sim.heap_bytes();
    // Measure the recorder as a `--timeseries` run leaves it: with the
    // three footprint gauges in its hub. Their key strings and map entries
    // are part of what the `obs KB` column reports.
    let hub = rec.hub_mut();
    hub.gauge_set("mem.fleet.bytes", fleet as f64);
    hub.gauge_set("mem.net.bytes", net as f64);
    hub.gauge_set("mem.obs.bytes", 0.0);
    let obs = rec.mem_bytes();
    rec.hub_mut().gauge_set("mem.obs.bytes", obs as f64);
    (fleet, net, obs)
}

const MB: f64 = 1024.0 * 1024.0;

/// Runs E18.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut Recorder>) -> Table {
    let highway_sizes: &[usize] =
        if quick { &[1_000, 3_000] } else { &[10_000, 100_000, 1_000_000] };
    let city_sizes: &[usize] = if quick { &[1_000] } else { &[10_000, 100_000] };
    let rounds = 4;

    let mut table = Table::new(
        "E18",
        "memory footprint scaling: bytes per vehicle by layer",
        "§IV-A (resource management at fleet scale)",
        &["scenario", "vehicles", "fleet B/veh", "net B/veh", "obs KB", "total MB"],
    );

    let scenarios: Vec<(&str, Scenario)> = highway_sizes
        .iter()
        .map(|&n| ("highway", highway(seed, n)))
        .chain(city_sizes.iter().map(|&n| ("urban", city(seed, n))))
        .collect();

    for (kind, base) in &scenarios {
        let n = base.fleet.len();
        let (fleet, net, obs) = footprint(base, rounds);
        table.row(vec![
            (*kind).into(),
            n.to_string(),
            f1(fleet as f64 / n as f64),
            f1(net as f64 / n as f64),
            f1(obs as f64 / 1024.0),
            f1((fleet + net + obs) as f64 / MB),
        ]);
    }

    table.note(
        "fleet/net/obs columns are deep footprints from MemSize (capacities only, never \
         allocator state) and deterministic. steady-state zero-alloc guarantees for the round \
         loops are enforced by the memcheck tests",
    );
    table
}
