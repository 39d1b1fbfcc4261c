//! The v-cloud resource directory (paper §V-A).
//!
//! "To allocate \[a\] computing task to a vehicle, we have to consider …
//! what kind of sensors this vehicle has, if the automation level \[is\]
//! suitable …". The directory is the broker-side inventory of lendable
//! resources: registration, requirement queries, and reservation
//! bookkeeping so concurrent allocations cannot oversubscribe a host.

use std::collections::BTreeMap;
use vc_sim::node::{Resources, SaeLevel, SensorSuite, VehicleId};

/// What a task needs from a host.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Requirement {
    /// Minimum free compute, GFLOPS.
    pub min_cpu_gflops: f64,
    /// Minimum free storage, GB.
    pub min_storage_gb: f64,
    /// Minimum SAE automation level (None = any).
    pub min_automation: Option<SaeLevel>,
    /// Required sensors (subset check).
    pub sensors: SensorSuite,
}

impl Requirement {
    /// A pure-compute requirement.
    pub fn compute(min_cpu_gflops: f64) -> Requirement {
        Requirement { min_cpu_gflops, ..Default::default() }
    }

    fn sensors_satisfied(&self, have: SensorSuite) -> bool {
        (!self.sensors.camera || have.camera)
            && (!self.sensors.lidar || have.lidar)
            && (!self.sensors.radar || have.radar)
            && (!self.sensors.infrared || have.infrared)
            && (!self.sensors.gnss || have.gnss)
    }
}

/// One registered lender with live free-capacity tracking.
#[derive(Debug, Clone)]
struct Entry {
    resources: Resources,
    automation: SaeLevel,
    reserved_cpu: f64,
    reserved_storage: f64,
}

/// A reservation handle returned by [`ResourceDirectory::reserve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// The host the reservation is on.
    pub host: VehicleId,
    /// Reservation id (needed to release).
    pub id: u64,
}

/// The broker-side inventory of lendable resources.
#[derive(Debug, Default)]
pub struct ResourceDirectory {
    entries: BTreeMap<VehicleId, Entry>,
    reservations: BTreeMap<u64, (VehicleId, f64, f64)>,
    next_reservation: u64,
}

impl ResourceDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        ResourceDirectory::default()
    }

    /// Registers (or re-registers) a lender's offer.
    pub fn register(&mut self, host: VehicleId, resources: Resources, automation: SaeLevel) {
        self.entries.insert(
            host,
            Entry { resources, automation, reserved_cpu: 0.0, reserved_storage: 0.0 },
        );
    }

    /// Withdraws a lender (departure); its reservations are dropped.
    pub fn withdraw(&mut self, host: VehicleId) {
        self.entries.remove(&host);
        self.reservations.retain(|_, (h, _, _)| *h != host);
    }

    /// Number of registered lenders.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no lender is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Free compute on a host, GFLOPS (0 for unknown hosts).
    pub fn free_cpu(&self, host: VehicleId) -> f64 {
        self.entries.get(&host).map_or(0.0, |e| (e.resources.cpu_gflops - e.reserved_cpu).max(0.0))
    }

    /// All hosts currently satisfying `req`, in id order.
    pub fn query(&self, req: &Requirement) -> Vec<VehicleId> {
        self.entries
            .iter()
            .filter(|(_, e)| {
                (e.resources.cpu_gflops - e.reserved_cpu) >= req.min_cpu_gflops
                    && (e.resources.storage_gb - e.reserved_storage) >= req.min_storage_gb
                    && req.min_automation.is_none_or(|min| e.automation >= min)
                    && req.sensors_satisfied(e.resources.sensors)
            })
            .map(|(&id, _)| id)
            .collect()
    }

    /// Reserves capacity on a specific host; `None` when it cannot satisfy
    /// the amounts.
    pub fn reserve(
        &mut self,
        host: VehicleId,
        cpu_gflops: f64,
        storage_gb: f64,
    ) -> Option<Reservation> {
        let entry = self.entries.get_mut(&host)?;
        if entry.resources.cpu_gflops - entry.reserved_cpu < cpu_gflops
            || entry.resources.storage_gb - entry.reserved_storage < storage_gb
        {
            return None;
        }
        entry.reserved_cpu += cpu_gflops;
        entry.reserved_storage += storage_gb;
        let id = self.next_reservation;
        self.next_reservation += 1;
        self.reservations.insert(id, (host, cpu_gflops, storage_gb));
        Some(Reservation { host, id })
    }

    /// Releases a reservation (idempotent).
    pub fn release(&mut self, reservation: Reservation) {
        if let Some((host, cpu, storage)) = self.reservations.remove(&reservation.id) {
            if let Some(entry) = self.entries.get_mut(&host) {
                entry.reserved_cpu = (entry.reserved_cpu - cpu).max(0.0);
                entry.reserved_storage = (entry.reserved_storage - storage).max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sensors() -> SensorSuite {
        SensorSuite::FULL
    }

    fn dir_with(n: usize) -> ResourceDirectory {
        let mut dir = ResourceDirectory::new();
        for i in 0..n {
            let resources = if i % 2 == 0 { Resources::high_end() } else { Resources::modest() };
            let automation = if i % 2 == 0 { SaeLevel::L4 } else { SaeLevel::L2 };
            dir.register(VehicleId(i as u32), resources, automation);
        }
        dir
    }

    #[test]
    fn query_filters_on_cpu_and_automation() {
        let dir = dir_with(6);
        let req = Requirement {
            min_cpu_gflops: 100.0,
            min_automation: Some(SaeLevel::L4),
            ..Default::default()
        };
        let hits = dir.query(&req);
        assert_eq!(hits, vec![VehicleId(0), VehicleId(2), VehicleId(4)]);
    }

    #[test]
    fn query_filters_on_sensors() {
        let dir = dir_with(4);
        let req = Requirement {
            sensors: SensorSuite { lidar: true, ..SensorSuite::default() },
            ..Default::default()
        };
        // Only high-end (even) vehicles carry lidar.
        assert_eq!(dir.query(&req), vec![VehicleId(0), VehicleId(2)]);
        let req_full = Requirement { sensors: full_sensors(), ..Default::default() };
        assert_eq!(dir.query(&req_full).len(), 2);
    }

    #[test]
    fn reservation_reduces_free_capacity() {
        let mut dir = dir_with(2);
        let before = dir.free_cpu(VehicleId(0));
        let r = dir.reserve(VehicleId(0), 150.0, 100.0).expect("fits");
        assert!((dir.free_cpu(VehicleId(0)) - (before - 150.0)).abs() < 1e-9);
        // A requirement that no longer fits skips the host.
        let req = Requirement::compute(before - 100.0);
        assert!(!dir.query(&req).contains(&VehicleId(0)));
        dir.release(r);
        assert!((dir.free_cpu(VehicleId(0)) - before).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_rejected() {
        let mut dir = dir_with(1);
        let total = dir.free_cpu(VehicleId(0));
        assert!(dir.reserve(VehicleId(0), total, 0.0).is_some());
        assert!(dir.reserve(VehicleId(0), 1.0, 0.0).is_none(), "no capacity left");
        assert!(dir.reserve(VehicleId(9), 1.0, 0.0).is_none(), "unknown host");
    }

    #[test]
    fn release_is_idempotent() {
        let mut dir = dir_with(1);
        let r = dir.reserve(VehicleId(0), 10.0, 0.0).unwrap();
        dir.release(r);
        dir.release(r);
        assert!((dir.free_cpu(VehicleId(0)) - Resources::high_end().cpu_gflops).abs() < 1e-9);
    }

    #[test]
    fn withdraw_drops_host_and_reservations() {
        let mut dir = dir_with(2);
        let _r = dir.reserve(VehicleId(0), 10.0, 0.0).unwrap();
        dir.withdraw(VehicleId(0));
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.free_cpu(VehicleId(0)), 0.0);
        // Re-registration starts clean.
        dir.register(VehicleId(0), Resources::modest(), SaeLevel::L3);
        assert!((dir.free_cpu(VehicleId(0)) - Resources::modest().cpu_gflops).abs() < 1e-9);
    }
}
