//! Operating modes and emergency-mode propagation (paper §V-A,
//! "V-cloud management").
//!
//! The authority (or a police vehicle) injects a mode switch — emergency,
//! major event, disaster — at one vehicle; the switch then propagates
//! through V2V gossip since infrastructure may be down. Experiment E3
//! measures how many gossip rounds full coverage takes.

use vc_sim::node::VehicleId;
use vc_sim::radio::{Channel, NeighborTable};
use vc_sim::rng::SimRng;

/// Cloud operating modes (paper §V-A names normal, emergency, large-scale
/// event, and disaster behaviours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperatingMode {
    /// Normal operation.
    Normal,
    /// Local emergency (accident): reschedule resources for safety tasks.
    Emergency,
    /// Planned large-scale event (paper's Olympic-Games example).
    MajorEvent,
    /// Disaster: minimize RSU use, pure V2V.
    Disaster,
}

/// Per-vehicle mode state with gossip propagation.
#[derive(Debug, Clone)]
pub struct ModeManager {
    modes: Vec<OperatingMode>,
}

impl ModeManager {
    /// Creates a manager with `n` vehicles in [`OperatingMode::Normal`].
    pub fn new(n: usize) -> Self {
        ModeManager { modes: vec![OperatingMode::Normal; n] }
    }

    /// The mode of one vehicle.
    pub fn mode(&self, id: VehicleId) -> OperatingMode {
        self.modes[id.0 as usize]
    }

    /// Directly sets a vehicle's mode (the injection point).
    pub fn inject(&mut self, id: VehicleId, mode: OperatingMode) {
        self.modes[id.0 as usize] = mode;
    }

    /// Fraction of vehicles in `mode`.
    pub fn coverage(&self, mode: OperatingMode) -> f64 {
        if self.modes.is_empty() {
            return 0.0;
        }
        self.modes.iter().filter(|&&m| m == mode).count() as f64 / self.modes.len() as f64
    }

    /// One gossip round: every vehicle in a non-Normal mode offers the mode
    /// to each neighbor over the lossy channel. Returns how many vehicles
    /// switched this round.
    ///
    /// Mode precedence: a higher-severity mode overrides a lower one
    /// (`Disaster > MajorEvent > Emergency > Normal` by enum order).
    pub fn gossip_round(
        &mut self,
        neighbors: &NeighborTable,
        positions: &[vc_sim::geom::Point],
        channel: &Channel,
        rng: &mut SimRng,
    ) -> usize {
        let snapshot = self.modes.clone();
        let mut switched = 0;
        for (i, &mode) in snapshot.iter().enumerate() {
            if mode == OperatingMode::Normal {
                continue;
            }
            let src = VehicleId(i as u32);
            for dst in neighbors.of(src).iter() {
                let j = dst.0 as usize;
                if snapshot[j] >= mode {
                    continue;
                }
                let dist = positions[i].distance(positions[j]);
                // A short mode-switch beacon (64 bytes).
                if channel.try_deliver(dist, neighbors.degree(src), 64, rng).is_some()
                    && self.modes[j] < mode
                {
                    self.modes[j] = mode;
                    switched += 1;
                }
            }
        }
        switched
    }

    /// Number of vehicles tracked.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// `true` when no vehicles are tracked.
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::geom::Point;

    fn line_world(n: usize, spacing: f64) -> (Vec<Point>, NeighborTable) {
        let positions: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * spacing, 0.0)).collect();
        let online = vec![true; n];
        let table = NeighborTable::build(&positions, &online, 150.0);
        (positions, table)
    }

    #[test]
    fn injection_and_coverage() {
        let mut mgr = ModeManager::new(10);
        assert_eq!(mgr.coverage(OperatingMode::Emergency), 0.0);
        mgr.inject(VehicleId(0), OperatingMode::Emergency);
        assert_eq!(mgr.mode(VehicleId(0)), OperatingMode::Emergency);
        assert!((mgr.coverage(OperatingMode::Emergency) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gossip_spreads_down_a_chain() {
        let (positions, table) = line_world(10, 100.0);
        let mut mgr = ModeManager::new(10);
        mgr.inject(VehicleId(0), OperatingMode::Emergency);
        let mut rng = SimRng::seed_from(1);
        let channel = Channel::dsrc();
        let mut rounds = 0;
        while mgr.coverage(OperatingMode::Emergency) < 1.0 && rounds < 100 {
            mgr.gossip_round(&table, &positions, &channel, &mut rng);
            rounds += 1;
        }
        assert_eq!(mgr.coverage(OperatingMode::Emergency), 1.0);
        // A 10-chain with only adjacent links needs at least 9 rounds.
        assert!(rounds >= 9, "rounds {rounds}");
    }

    #[test]
    fn severity_precedence() {
        let (positions, table) = line_world(3, 50.0);
        let mut mgr = ModeManager::new(3);
        mgr.inject(VehicleId(0), OperatingMode::Disaster);
        mgr.inject(VehicleId(2), OperatingMode::Emergency);
        let mut rng = SimRng::seed_from(2);
        let channel = Channel::dsrc();
        for _ in 0..20 {
            mgr.gossip_round(&table, &positions, &channel, &mut rng);
        }
        // Disaster wins everywhere.
        for i in 0..3 {
            assert_eq!(mgr.mode(VehicleId(i)), OperatingMode::Disaster);
        }
    }

    #[test]
    fn isolated_vehicles_never_switch() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(10_000.0, 0.0)];
        let table = NeighborTable::build(&positions, &[true, true], 150.0);
        let mut mgr = ModeManager::new(2);
        mgr.inject(VehicleId(0), OperatingMode::Emergency);
        let mut rng = SimRng::seed_from(3);
        let channel = Channel::dsrc();
        for _ in 0..10 {
            mgr.gossip_round(&table, &positions, &channel, &mut rng);
        }
        assert_eq!(mgr.mode(VehicleId(1)), OperatingMode::Normal);
    }

    #[test]
    fn gossip_round_counts_switches() {
        let (positions, table) = line_world(2, 50.0);
        let mut mgr = ModeManager::new(2);
        mgr.inject(VehicleId(0), OperatingMode::Emergency);
        let mut rng = SimRng::seed_from(4);
        let channel = Channel::dsrc();
        let mut total = 0;
        for _ in 0..10 {
            total += mgr.gossip_round(&table, &positions, &channel, &mut rng);
        }
        assert_eq!(total, 1, "exactly one vehicle had to switch");
    }
}
