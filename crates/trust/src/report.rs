//! Event reports: the messages whose trustworthiness must be judged.
//!
//! A report is one vehicle's claim about a physical event ("ice at this
//! bend"). The validator stack (paper §III-D, §V-D) never sees identities —
//! only pseudonyms, claimed kinematics, and the routing path the report
//! arrived over.

use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::time::SimTime;

/// Physical event classes vehicles report about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Collision / accident.
    Accident,
    /// Ice or slippery surface.
    Ice,
    /// Traffic congestion.
    Congestion,
    /// Road blocked (debris, flood).
    RoadBlocked,
    /// Explicit all-clear.
    RoadClear,
}

/// One vehicle's claim about an event.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Pseudonymous reporter id (stable only within a rotation window).
    pub reporter: u64,
    /// What kind of event is claimed.
    pub kind: EventKind,
    /// Where the event is claimed to be.
    pub location: Point,
    /// When the reporter claims to have observed it.
    pub observed_at: SimTime,
    /// The claim: `true` = event present, `false` = explicitly absent.
    pub claim: bool,
    /// Reporter's own claimed position at observation time.
    pub reporter_pos: Point,
    /// Reporter's claimed speed, m/s.
    pub reporter_speed: f64,
    /// The multi-hop path the report traveled (first = reporter's first
    /// relay). Path overlap between reports is a collusion signal (§V-D
    /// "routing path similarity").
    pub path: Vec<VehicleId>,
}

impl Report {
    /// Distance between the claimed event location and the reporter's own
    /// claimed position — implausibly large values are a forgery signal
    /// (vehicles sense locally).
    pub(crate) fn observation_distance(&self) -> f64 {
        self.location.distance(self.reporter_pos)
    }
}

/// A group of reports the classifier judged to concern the same event.
#[derive(Debug, Clone, Default)]
pub struct EventCluster {
    /// Member reports.
    pub reports: Vec<Report>,
}

impl EventCluster {
    /// Number of reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The kind shared by the cluster (None when empty).
    pub fn kind(&self) -> Option<EventKind> {
        self.reports.first().map(|r| r.kind)
    }

    /// Centroid of claimed event locations.
    pub fn centroid(&self) -> Point {
        if self.reports.is_empty() {
            return Point::new(0.0, 0.0);
        }
        let sum = self.reports.iter().fold(Point::new(0.0, 0.0), |acc, r| acc + r.location);
        sum / self.reports.len() as f64
    }

    /// Fraction of positive claims.
    pub(crate) fn positive_fraction(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().filter(|r| r.claim).count() as f64 / self.reports.len() as f64
    }
}

/// Pairwise path-overlap (Jaccard) between two reports' routing paths; 1.0
/// means identical relays, 0.0 disjoint. High overlap across many reports
/// means the "independent" confirmations share a chokepoint (or a colluder).
pub fn path_overlap(a: &Report, b: &Report) -> f64 {
    if a.path.is_empty() && b.path.is_empty() {
        // Both direct receptions: treat as independent.
        return 0.0;
    }
    let sa: std::collections::BTreeSet<_> = a.path.iter().collect();
    let sb: std::collections::BTreeSet<_> = b.path.iter().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(reporter: u64, claim: bool, loc: Point, path: Vec<u32>) -> Report {
        Report {
            reporter,
            kind: EventKind::Ice,
            location: loc,
            observed_at: SimTime::from_secs(10),
            claim,
            reporter_pos: loc + Point::new(20.0, 0.0),
            reporter_speed: 10.0,
            path: path.into_iter().map(VehicleId).collect(),
        }
    }

    #[test]
    fn observation_distance() {
        let r = report(1, true, Point::new(0.0, 0.0), vec![]);
        assert_eq!(r.observation_distance(), 20.0);
    }

    #[test]
    fn cluster_statistics() {
        let c = EventCluster {
            reports: vec![
                report(1, true, Point::new(0.0, 0.0), vec![]),
                report(2, true, Point::new(10.0, 0.0), vec![]),
                report(3, false, Point::new(5.0, 3.0), vec![]),
            ],
        };
        assert_eq!(c.len(), 3);
        assert_eq!(c.kind(), Some(EventKind::Ice));
        let cen = c.centroid();
        assert!((cen.x - 5.0).abs() < 1e-12 && (cen.y - 1.0).abs() < 1e-12);
        assert!((c.positive_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_is_calm() {
        let c = EventCluster::default();
        assert!(c.is_empty());
        assert_eq!(c.kind(), None);
        assert_eq!(c.positive_fraction(), 0.0);
    }

    #[test]
    fn path_overlap_cases() {
        let a = report(1, true, Point::new(0.0, 0.0), vec![1, 2, 3]);
        let b = report(2, true, Point::new(0.0, 0.0), vec![1, 2, 3]);
        let c = report(3, true, Point::new(0.0, 0.0), vec![4, 5]);
        let d = report(4, true, Point::new(0.0, 0.0), vec![2, 4]);
        assert_eq!(path_overlap(&a, &b), 1.0);
        assert_eq!(path_overlap(&a, &c), 0.0);
        assert!((path_overlap(&a, &d) - 0.25).abs() < 1e-12, "1 shared of 4 total");
        let direct1 = report(5, true, Point::new(0.0, 0.0), vec![]);
        let direct2 = report(6, true, Point::new(0.0, 0.0), vec![]);
        assert_eq!(path_overlap(&direct1, &direct2), 0.0);
    }
}
