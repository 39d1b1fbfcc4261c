//! Vehicles and their on-board equipment (paper Fig. 1).
//!
//! Each vehicle carries the equipment classes the paper enumerates: embedded
//! sensors, on-board compute/storage units, and wireless interfaces, plus an
//! SAE automation level — all of which the cloud layer's scheduling and
//! access-control policies consult.

use crate::geom::Point;

/// Identifier of a vehicle within a [`Fleet`](crate::mobility::Fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(pub u32);

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// SAE J3016 driving-automation levels (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SaeLevel {
    /// No automation.
    L0,
    /// Driver assistance.
    L1,
    /// Partial automation.
    L2,
    /// Conditional automation.
    L3,
    /// High automation.
    L4,
    /// Full automation.
    L5,
}

impl SaeLevel {
    /// Numeric level, 0..=5.
    pub const fn as_u8(self) -> u8 {
        match self {
            SaeLevel::L0 => 0,
            SaeLevel::L1 => 1,
            SaeLevel::L2 => 2,
            SaeLevel::L3 => 3,
            SaeLevel::L4 => 4,
            SaeLevel::L5 => 5,
        }
    }

    /// Parses a numeric level.
    pub const fn from_u8(n: u8) -> Option<SaeLevel> {
        match n {
            0 => Some(SaeLevel::L0),
            1 => Some(SaeLevel::L1),
            2 => Some(SaeLevel::L2),
            3 => Some(SaeLevel::L3),
            4 => Some(SaeLevel::L4),
            5 => Some(SaeLevel::L5),
            _ => None,
        }
    }
}

/// Sensor complement of a vehicle (paper Fig. 1 lists optical, infrared,
/// radar, laser, camera).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SensorSuite {
    /// Visible-light camera.
    pub camera: bool,
    /// Lidar ("laser" in the paper's list).
    pub lidar: bool,
    /// Radar.
    pub radar: bool,
    /// Infrared.
    pub infrared: bool,
    /// GNSS positioning.
    pub gnss: bool,
}

impl SensorSuite {
    /// A full sensor suite (typical L4/L5 vehicle).
    pub const FULL: SensorSuite =
        SensorSuite { camera: true, lidar: true, radar: true, infrared: true, gnss: true };

    /// A basic suite (camera + GNSS only).
    pub(crate) const BASIC: SensorSuite =
        SensorSuite { camera: true, lidar: false, radar: false, infrared: false, gnss: true };

    /// Number of sensor classes present.
    pub const fn count(self) -> u8 {
        self.camera as u8
            + self.lidar as u8
            + self.radar as u8
            + self.infrared as u8
            + self.gnss as u8
    }
}

/// On-board computing and storage capacity offered to the v-cloud.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resources {
    /// Compute capacity in GFLOPS the vehicle will lend.
    pub cpu_gflops: f64,
    /// Storage in gigabytes the vehicle will lend.
    pub storage_gb: f64,
    /// Sensor complement.
    pub sensors: SensorSuite,
}

impl Resources {
    /// Resource profile of a modern highly automated vehicle.
    pub fn high_end() -> Self {
        Resources { cpu_gflops: 200.0, storage_gb: 512.0, sensors: SensorSuite::FULL }
    }

    /// Resource profile of an older connected vehicle.
    pub fn modest() -> Self {
        Resources { cpu_gflops: 20.0, storage_gb: 64.0, sensors: SensorSuite::BASIC }
    }
}

impl Default for Resources {
    fn default() -> Self {
        Resources::modest()
    }
}

/// Instantaneous kinematic state of a vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Kinematics {
    /// Position, meters.
    pub pos: Point,
    /// Velocity vector, m/s.
    pub velocity: Point,
}

impl Kinematics {
    /// Speed (velocity magnitude), m/s.
    pub fn speed(&self) -> f64 {
        self.velocity.norm()
    }

    /// Heading in radians, east = 0 (undefined-as-zero when stationary).
    pub fn heading(&self) -> f64 {
        if self.speed() == 0.0 {
            0.0
        } else {
            self.velocity.heading()
        }
    }
}

/// Static description of one vehicle.
#[derive(Debug, Clone)]
pub struct VehicleProfile {
    /// This vehicle's id.
    pub id: VehicleId,
    /// SAE automation level.
    pub automation: SaeLevel,
    /// Lendable resources.
    pub resources: Resources,
}

impl VehicleProfile {
    /// Creates a profile.
    pub fn new(id: VehicleId, automation: SaeLevel, resources: Resources) -> Self {
        VehicleProfile { id, automation, resources }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sae_roundtrip() {
        for n in 0..=5u8 {
            assert_eq!(SaeLevel::from_u8(n).unwrap().as_u8(), n);
        }
        assert_eq!(SaeLevel::from_u8(6), None);
    }

    #[test]
    fn sae_ordering_matches_levels() {
        assert!(SaeLevel::L0 < SaeLevel::L5);
        assert!(SaeLevel::L3 > SaeLevel::L2);
    }

    #[test]
    fn sensor_counts() {
        assert_eq!(SensorSuite::FULL.count(), 5);
        assert_eq!(SensorSuite::BASIC.count(), 2);
        assert_eq!(SensorSuite::default().count(), 0);
    }

    #[test]
    fn kinematics_speed_and_heading() {
        let k = Kinematics { pos: Point::new(0.0, 0.0), velocity: Point::new(3.0, 4.0) };
        assert_eq!(k.speed(), 5.0);
        assert!((k.heading() - (4.0f64 / 3.0).atan()).abs() < 1e-12);
        let still = Kinematics::default();
        assert_eq!(still.heading(), 0.0);
    }

    #[test]
    fn resource_profiles_ordered() {
        assert!(Resources::high_end().cpu_gflops > Resources::modest().cpu_gflops);
        assert!(Resources::high_end().storage_gb > Resources::modest().storage_gb);
    }

    #[test]
    fn vehicle_id_display() {
        assert_eq!(VehicleId(7).to_string(), "v7");
    }
}
