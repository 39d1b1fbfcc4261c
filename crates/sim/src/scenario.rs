//! Ready-made scenarios combining a road network, fleet, radio, and
//! infrastructure — one per regime the paper's Fig. 4 distinguishes.

use crate::geom::{Point, SpatialGrid};
use crate::mobility::Fleet;
use crate::radio::{Cellular, Channel, NeighborTable, RsuNetwork};
use crate::rng::SimRng;
use crate::roadnet::RoadNetwork;

/// Which of the paper's three v-cloud regimes a scenario models (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Parked vehicles in a lot — stationary v-cloud.
    Stationary,
    /// Urban traffic under RSU coverage — infrastructure-based v-cloud.
    InfrastructureBased,
    /// Highway / uncovered traffic, pure V2V — dynamic v-cloud.
    Dynamic,
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Regime::Stationary => "stationary",
            Regime::InfrastructureBased => "infrastructure",
            Regime::Dynamic => "dynamic",
        };
        f.write_str(s)
    }
}

/// Urban-canyon radio obstruction: buildings between streets block
/// non-line-of-sight links. A link is attenuated when any sample along it
/// strays farther than `street_half_width` from every road centerline —
/// i.e. the signal would have to pass through a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanyonModel {
    /// How far from a road centerline still counts as open street, meters.
    pub street_half_width: f64,
    /// Reception-probability multiplier for blocked links (0 = hard wall).
    pub attenuation: f64,
    /// Samples taken along the link (more = finer blocks, slower).
    pub samples: usize,
}

impl Default for CanyonModel {
    fn default() -> Self {
        CanyonModel { street_half_width: 18.0, attenuation: 0.15, samples: 4 }
    }
}

/// A fully assembled simulation world.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which regime this scenario models.
    pub regime: Regime,
    /// The road network.
    pub roadnet: RoadNetwork,
    /// The vehicles.
    pub fleet: Fleet,
    /// The V2V channel.
    pub channel: Channel,
    /// Deployed roadside units (may be empty).
    pub rsus: RsuNetwork,
    /// Cellular uplink state.
    pub cellular: Cellular,
    /// Optional urban-canyon obstruction model (None = open field).
    pub canyon: Option<CanyonModel>,
    /// The seed this scenario was built from. Kept alongside the (already
    /// advanced) RNG so derived deterministic machinery — e.g. the causal
    /// trace sampler — can key itself off the run's identity without
    /// consuming RNG state.
    pub seed: u64,
    /// Scenario RNG (already forked from the seed).
    pub rng: SimRng,
    /// Step size used by [`Scenario::tick`], seconds.
    pub dt: f64,
    /// Worker threads [`Scenario::tick`] hands to
    /// [`Fleet::step_sharded`]. Every preset says 1 (sequential); results
    /// are bitwise identical for every value — only wall-clock changes.
    pub shards: usize,
}

/// Builder for [`Scenario`] presets.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    seed: u64,
    vehicles: usize,
    dt: f64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// Starts a builder with 50 vehicles, seed 0, 0.5 s steps.
    pub fn new() -> Self {
        ScenarioBuilder { seed: 0, vehicles: 50, dt: 0.5 }
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the fleet size.
    pub fn vehicles(&mut self, n: usize) -> &mut Self {
        self.vehicles = n;
        self
    }

    /// Sets the mobility step, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn dt(&mut self, dt: f64) -> &mut Self {
        assert!(dt > 0.0, "dt must be positive");
        self.dt = dt;
        self
    }

    /// A long-term parking lot (airport datacenter, \[4\] in the paper):
    /// parked vehicles, one RSU gateway, healthy cellular.
    pub fn parking_lot(&self) -> Scenario {
        let mut rng = SimRng::seed_from(self.seed);
        let roadnet = RoadNetwork::grid(2, 2, 200.0, 8.0);
        let fleet = Fleet::parking_lot(Point::new(20.0, 20.0), self.vehicles, &roadnet, &mut rng);
        let mut rsus = RsuNetwork::new();
        rsus.add(Point::new(60.0, 40.0), 500.0);
        Scenario {
            regime: Regime::Stationary,
            roadnet,
            fleet,
            channel: Channel::dsrc(),
            rsus,
            cellular: Cellular::healthy(),
            canyon: None,
            seed: self.seed,
            rng,
            dt: self.dt,
            shards: 1,
        }
    }

    /// An urban grid with RSUs on every other corner and healthy cellular.
    pub fn urban_with_rsus(&self) -> Scenario {
        let mut rng = SimRng::seed_from(self.seed);
        let roadnet = RoadNetwork::grid(6, 6, 200.0, 13.9);
        let fleet = Fleet::urban(&roadnet, self.vehicles, &mut rng);
        let rsus = RsuNetwork::grid_deployment(1000.0, 1000.0, 400.0, 350.0);
        Scenario {
            regime: Regime::InfrastructureBased,
            roadnet,
            fleet,
            channel: Channel::dsrc(),
            rsus,
            cellular: Cellular::healthy(),
            canyon: None,
            seed: self.seed,
            rng,
            dt: self.dt,
            shards: 1,
        }
    }

    /// The urban grid with the canyon obstruction model enabled: buildings
    /// between streets block non-line-of-sight V2V links. The regime for the
    /// street-aware routing experiments (E14).
    pub fn urban_canyon(&self) -> Scenario {
        let mut s = self.urban_with_rsus();
        s.canyon = Some(CanyonModel::default());
        s
    }

    /// A highway corridor with no infrastructure at all: the dynamic v-cloud
    /// regime the paper calls "the most promising for handling emergency
    /// responses".
    pub fn highway_no_infra(&self) -> Scenario {
        let mut rng = SimRng::seed_from(self.seed);
        let corridor = 3000.0;
        let roadnet = RoadNetwork::highway(corridor, 4, 33.3);
        let fleet = Fleet::highway(corridor, self.vehicles, &roadnet, &mut rng);
        Scenario {
            regime: Regime::Dynamic,
            roadnet,
            fleet,
            channel: Channel::dsrc(),
            rsus: RsuNetwork::new(),
            cellular: Cellular::unavailable(),
            canyon: None,
            seed: self.seed,
            rng,
            dt: self.dt,
            shards: 1,
        }
    }

    /// Urban grid after a disaster: RSUs partly failed, cellular jammed.
    pub fn disaster(&self, rsu_fail_fraction: f64) -> Scenario {
        let mut s = self.urban_with_rsus();
        let mut rng = s.rng.fork(0xD15A57E4);
        s.rsus.fail_fraction(rsu_fail_fraction, &mut rng);
        s.cellular = Cellular::unavailable();
        s.regime = Regime::Dynamic;
        s
    }
}

impl Scenario {
    /// Advances the world one `dt` step, fanning the mobility update out
    /// over [`Scenario::shards`] worker threads. The result is bitwise
    /// identical for every shard count.
    pub fn tick(&mut self) {
        let dt = self.dt;
        self.fleet.step_sharded(dt, &self.roadnet, self.shards);
    }

    /// Advances the world `n` steps.
    pub fn run_ticks(&mut self, n: usize) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Line-of-sight factor for a link from `a` to `b` under the canyon
    /// model: 1.0 for open-field scenarios or street-following links, the
    /// model's attenuation when any sample along the link is inside a block.
    pub fn los_factor(&self, a: Point, b: Point) -> f64 {
        let Some(canyon) = self.canyon else {
            return 1.0;
        };
        for i in 1..=canyon.samples {
            let t = i as f64 / (canyon.samples + 1) as f64;
            let sample = a.lerp(b, t);
            if !self.roadnet.road_within(sample, canyon.street_half_width) {
                return canyon.attenuation;
            }
        }
        1.0
    }

    /// Reception probability for a single-hop transmission from `a` to `b`:
    /// the channel's distance curve times the canyon obstruction factor.
    /// Read-only: the caller draws loss and latency from its own RNG stream.
    pub fn delivery_probability(&self, a: Point, b: Point) -> f64 {
        self.channel.reception_probability(a.distance(b)) * self.los_factor(a, b)
    }

    /// Builds the current neighbor table from positions and channel range.
    pub fn neighbor_table(&self) -> NeighborTable {
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(self.channel.range_m.max(1.0));
        self.neighbor_table_into(&mut table, &mut grid);
        table
    }

    /// [`Scenario::neighbor_table`] into caller-owned buffers: `table`'s
    /// storage and `grid`'s buffers are reused, so per-round callers stop
    /// reallocating both. Produces exactly what [`Scenario::neighbor_table`]
    /// returns.
    pub fn neighbor_table_into(&self, table: &mut NeighborTable, grid: &mut SpatialGrid) {
        table.rebuild(
            grid,
            self.fleet.positions(),
            self.fleet.online_flags(),
            self.channel.range_m,
        );
    }

    /// Measures neighbor churn over `ticks` steps: the mean number of
    /// neighbor-set changes (adds + removes) per vehicle per minute. This is
    /// the quantitative stand-in for the paper's qualitative "mobility" row
    /// in Fig. 2.
    pub fn neighbor_churn_per_minute(&mut self, ticks: usize) -> f64 {
        let mut grid = SpatialGrid::new(self.channel.range_m.max(1.0));
        let (mut before, mut after) = (NeighborTable::new(), NeighborTable::new());
        self.neighbor_table_into(&mut before, &mut grid);
        let mut changes = 0usize;
        for _ in 0..ticks {
            self.tick();
            self.neighbor_table_into(&mut after, &mut grid);
            for id in (0..after.len() as u32).map(crate::node::VehicleId) {
                // Both rows ascend: a merge counts the ids they share.
                let (was, is) = (before.of(id), after.of(id));
                let mut rest = was.iter().peekable();
                let mut kept = 0;
                for v in is.iter() {
                    while rest.next_if(|&u| u < v).is_some() {}
                    kept += usize::from(rest.next_if_eq(&v).is_some());
                }
                changes += was.len() + is.len() - 2 * kept;
            }
            std::mem::swap(&mut before, &mut after);
        }
        let minutes = (ticks as f64 * self.dt) / 60.0;
        let n = self.fleet.len().max(1) as f64;
        if minutes == 0.0 {
            0.0
        } else {
            changes as f64 / n / minutes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        let b = {
            let mut b = ScenarioBuilder::new();
            b.seed(1).vehicles(30);
            b
        };
        let lot = b.parking_lot();
        assert_eq!(lot.regime, Regime::Stationary);
        assert_eq!(lot.fleet.len(), 30);
        assert_eq!(lot.rsus.len(), 1);

        let urban = b.urban_with_rsus();
        assert_eq!(urban.regime, Regime::InfrastructureBased);
        assert!(urban.rsus.len() > 4);
        assert!(urban.cellular.available);

        let highway = b.highway_no_infra();
        assert_eq!(highway.regime, Regime::Dynamic);
        assert!(highway.rsus.is_empty());
        assert!(!highway.cellular.available);
    }

    #[test]
    fn every_preset_is_sequential() {
        // Nothing reads the environment: a caller that wants the threaded
        // mobility step assigns `shards` itself.
        let b = ScenarioBuilder::new();
        for s in [
            b.parking_lot(),
            b.urban_with_rsus(),
            b.urban_canyon(),
            b.highway_no_infra(),
            b.disaster(0.5),
        ] {
            assert_eq!(s.shards, 1, "{:?}", s.regime);
        }
    }

    #[test]
    fn disaster_fails_infrastructure() {
        let mut b = ScenarioBuilder::new();
        b.seed(2).vehicles(10);
        let d = b.disaster(0.5);
        assert!(!d.cellular.available);
        let online = d.rsus.rsus().iter().filter(|r| r.online).count();
        assert!((online as f64) < 0.75 * d.rsus.len() as f64);
        assert_eq!(d.regime, Regime::Dynamic);
    }

    #[test]
    fn tick_advances_mobile_fleet() {
        let mut b = ScenarioBuilder::new();
        b.seed(3).vehicles(20);
        let mut s = b.urban_with_rsus();
        let before = s.fleet.positions().to_vec();
        s.run_ticks(60);
        let after = s.fleet.positions().to_vec();
        let moved = before.iter().zip(&after).filter(|(a, b)| a.distance(**b) > 1.0).count();
        assert!(moved > 10);
    }

    #[test]
    fn churn_orders_regimes() {
        // The quantitative claim behind Fig. 2's mobility row: parked fleets
        // churn zero, urban some, highway the most (per unit time at equal
        // density this can vary; assert the stationary < mobile ordering).
        let mut b = ScenarioBuilder::new();
        b.seed(4).vehicles(40);
        let mut lot = b.parking_lot();
        let mut urban = b.urban_with_rsus();
        let lot_churn = lot.neighbor_churn_per_minute(60);
        let urban_churn = urban.neighbor_churn_per_minute(60);
        assert_eq!(lot_churn, 0.0);
        assert!(urban_churn > 0.0, "urban churn {urban_churn}");
    }

    #[test]
    fn canyon_blocks_through_block_links() {
        let mut b = ScenarioBuilder::new();
        b.seed(5).vehicles(5);
        let s = b.urban_canyon();
        assert!(s.canyon.is_some());
        // Along one street (y = 0): clear.
        assert_eq!(s.los_factor(Point::new(10.0, 0.0), Point::new(180.0, 0.0)), 1.0);
        // Diagonally through a 200 m block: attenuated.
        let f = s.los_factor(Point::new(0.0, 0.0), Point::new(200.0, 200.0));
        assert!(f < 1.0, "through-block link must attenuate, got {f}");
        // The open-field variant never attenuates.
        let open = b.urban_with_rsus();
        assert_eq!(open.los_factor(Point::new(0.0, 0.0), Point::new(200.0, 200.0)), 1.0);
    }

    #[test]
    fn canyon_cuts_delivery_through_blocks() {
        let mut b = ScenarioBuilder::new();
        b.seed(6).vehicles(5);
        let s = b.urban_canyon();
        let street = s.delivery_probability(Point::new(0.0, 0.0), Point::new(150.0, 0.0));
        let block = s.delivery_probability(Point::new(50.0, 50.0), Point::new(160.0, 160.0));
        assert!(street > 250.0 / 300.0, "street link healthy: {street}");
        assert!(block < street / 3.0, "block link suppressed: {block} vs {street}");
    }

    #[test]
    fn deterministic_scenarios() {
        let run = |seed: u64| {
            let mut b = ScenarioBuilder::new();
            b.seed(seed).vehicles(15);
            let mut s = b.urban_with_rsus();
            s.run_ticks(50);
            s.fleet.positions().to_vec()
        };
        assert_eq!(run(9), run(9));
    }
}
