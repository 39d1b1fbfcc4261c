//! A per-round snapshot of the network that protocols make decisions on.

use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::radio::NeighborTable;

/// The view a routing protocol gets each round: positions, velocities, and
/// who can currently hear whom. Protocols must not peek at anything else —
/// this enforces the "no central authority" constraint (paper §III).
#[derive(Debug)]
pub struct WorldView<'a> {
    /// Vehicle positions indexed by id.
    pub positions: &'a [Point],
    /// Vehicle velocity vectors indexed by id.
    pub velocities: &'a [Point],
    /// Which vehicles are online.
    pub online: &'a [bool],
    /// The current neighbor table.
    pub neighbors: &'a NeighborTable,
}

impl<'a> WorldView<'a> {
    /// Position of a vehicle.
    pub fn pos(&self, id: VehicleId) -> Point {
        self.positions[id.0 as usize]
    }

    /// Velocity of a vehicle.
    pub fn vel(&self, id: VehicleId) -> Point {
        self.velocities[id.0 as usize]
    }

    /// Whether a vehicle is online.
    pub fn is_online(&self, id: VehicleId) -> bool {
        self.online[id.0 as usize]
    }

    /// Number of vehicles.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when the world is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterator over all online vehicle ids.
    pub fn online_ids(&self) -> impl Iterator<Item = VehicleId> + '_ {
        (0..self.len() as u32).map(VehicleId).filter(move |&id| self.is_online(id))
    }

    /// Predicted position of `id` after `dt` seconds at constant velocity.
    pub(crate) fn predicted_pos(&self, id: VehicleId, dt: f64) -> Point {
        self.pos(id) + self.vel(id) * dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let velocities = vec![Point::new(1.0, 0.0), Point::new(0.0, 0.0)];
        let online = vec![true, false];
        let neighbors = NeighborTable::build(&positions, &online, 100.0);
        let w = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &neighbors,
        };
        assert_eq!(w.len(), 2);
        assert_eq!(w.pos(VehicleId(1)), Point::new(10.0, 0.0));
        assert!(w.is_online(VehicleId(0)));
        assert!(!w.is_online(VehicleId(1)));
        assert_eq!(w.online_ids().collect::<Vec<_>>(), vec![VehicleId(0)]);
        assert_eq!(w.predicted_pos(VehicleId(0), 3.0), Point::new(3.0, 0.0));
    }
}
