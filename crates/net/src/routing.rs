//! Routing protocols over the VANET: an epidemic baseline, greedy
//! geographic forwarding, cluster-based routing, and moving-zone routing.
//!
//! These are the four families §IV-A.1 of the paper surveys. Each protocol
//! answers one question per round: *given a packet copy held at a vehicle,
//! which neighbors should receive it next?* The [`NetSim`](crate::netsim)
//! driver turns those answers into radio transmissions.

use crate::cluster::{ClusterConfig, Clustering};
use crate::holders::HolderSet;
use crate::message::Packet;
use crate::world::WorldView;
use vc_sim::node::VehicleId;
use vc_sim::radio::Row;

/// A routing protocol's per-round forwarding logic.
pub trait RoutingProtocol {
    /// Short name for tables.
    fn name(&self) -> &'static str;

    /// Called once per round before any forwarding decisions, with the fresh
    /// world snapshot (protocols rebuild clusters/zones here).
    fn begin_round(&mut self, world: &WorldView<'_>);

    /// Appends to `out` the next hops for the copy of `packet` held at
    /// `holder` (the driver asks once per live copy per round, so the buffer
    /// is the caller's to reuse). `carried` holds every vehicle that holds
    /// (or held) a copy — protocols use it to avoid loops.
    /// Direct delivery to the destination is handled by the driver; this is
    /// only consulted when the destination is not a neighbor.
    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &HolderSet,
        out: &mut Vec<VehicleId>,
    );

    /// Whether a holder keeps its copy after relaying it (store-carry-
    /// forward): `true` for a protocol that floods copies, `false` for one
    /// that hands a single copy on.
    fn replicates(&self) -> bool {
        false
    }
}

/// Epidemic flooding: hand a copy to every neighbor that has not carried the
/// packet. Maximal delivery, maximal overhead — the upper-bound baseline.
#[derive(Debug, Default)]
pub struct Epidemic;

impl RoutingProtocol for Epidemic {
    fn name(&self) -> &'static str {
        "epidemic"
    }

    fn begin_round(&mut self, _world: &WorldView<'_>) {}

    /// The fresh neighbors in ascending order. A bit row goes a word at a
    /// time: the word's bits less the carriers among them.
    fn next_hops(
        &self,
        holder: VehicleId,
        _packet: &Packet,
        world: &WorldView<'_>,
        carried: &HolderSet,
        out: &mut Vec<VehicleId>,
    ) {
        match world.neighbors.of(holder) {
            Row::Bits(words, _) => {
                for (w, &word) in words.iter().enumerate() {
                    let mut fresh = word & !carried.members_in_word(w, word);
                    while fresh != 0 {
                        out.push(VehicleId((w as u32) << 6 | fresh.trailing_zeros()));
                        fresh &= fresh - 1;
                    }
                }
            }
            row => out.extend(row.iter().filter(|&n| !carried.contains(n))),
        }
    }

    fn replicates(&self) -> bool {
        true
    }
}

/// Greedy geographic forwarding (GPSR-like, greedy mode only): forward to
/// the single neighbor strictly closest to the destination's position,
/// stalling in local minima. Assumes a location service for the destination
/// — the standard assumption in geographic VANET routing evaluations.
#[derive(Debug, Default)]
pub struct GreedyGeo;

impl RoutingProtocol for GreedyGeo {
    fn name(&self) -> &'static str {
        "greedy-geo"
    }

    fn begin_round(&mut self, _world: &WorldView<'_>) {}

    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &HolderSet,
        out: &mut Vec<VehicleId>,
    ) {
        let dest_pos = world.pos(packet.dst);
        let my_dist = world.pos(holder).distance(dest_pos);
        let best = world
            .neighbors
            .of(holder)
            .iter()
            .filter(|&n| !carried.contains(n))
            .map(|n| (world.pos(n).distance(dest_pos), n))
            .filter(|&(d, _)| d < my_dist)
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.extend(best.map(|(_, n)| n));
    }
}

/// Cluster-based routing: members push packets to their cluster head; heads
/// forward toward the destination over the head/gateway backbone. Fewer
/// transmissions than flooding, better local-minimum behaviour than pure
/// greedy because heads are well-connected by construction.
#[derive(Debug)]
pub struct ClusterRouting {
    config: ClusterConfig,
    clustering: Clustering,
}

impl ClusterRouting {
    /// Creates with standard multi-hop clustering.
    pub fn new() -> Self {
        ClusterRouting { config: ClusterConfig::multi_hop(), clustering: Clustering::default() }
    }

    /// Creates with a custom configuration (for the E8 ablations).
    pub fn with_config(config: ClusterConfig) -> Self {
        ClusterRouting { config, clustering: Clustering::default() }
    }

    /// The clustering computed this round (for inspection by experiments).
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }
}

impl Default for ClusterRouting {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for ClusterRouting {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn begin_round(&mut self, world: &WorldView<'_>) {
        self.clustering.reform(world, &self.config);
    }

    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &HolderSet,
        out: &mut Vec<VehicleId>,
    ) {
        let dest_pos = world.pos(packet.dst);
        let my_dist = world.pos(holder).distance(dest_pos);
        let neighbors = world.neighbors.of(holder);

        // If the destination's head is a neighbor, go there.
        if let Some(dest_head) = self.clustering.head_of(packet.dst) {
            if neighbors.contains(dest_head) && !carried.contains(dest_head) {
                out.push(dest_head);
                return;
            }
        }

        if !self.clustering.is_head(holder) {
            // Member: push to own head when fresh, even if not geographically
            // closer (the backbone handles direction).
            if let Some(head) = self.clustering.head_of(holder) {
                if head != holder && neighbors.contains(head) && !carried.contains(head) {
                    out.push(head);
                    return;
                }
            }
        }

        // Head (or member whose head already carried it): forward along the
        // backbone — prefer neighbor heads, then any neighbor — requiring
        // geographic progress to avoid loops.
        let mut best: Option<(bool, f64, VehicleId)> = None;
        for n in neighbors.iter() {
            if carried.contains(n) {
                continue;
            }
            let d = world.pos(n).distance(dest_pos);
            if d >= my_dist {
                continue;
            }
            let is_head = self.clustering.is_head(n);
            // Order: heads first, then distance.
            let key = (is_head, d, n);
            best = match best {
                None => Some(key),
                Some(cur) => {
                    let better = (key.0 && !cur.0) || (key.0 == cur.0 && key.1 < cur.1);
                    if better {
                        Some(key)
                    } else {
                        Some(cur)
                    }
                }
            };
        }
        out.extend(best.map(|(_, _, n)| n));
    }
}

/// Moving-zone routing (MoZo-like): zones of velocity-similar vehicles with
/// captains; forwarding greedily minimizes the *predicted* distance to the
/// destination a short horizon ahead, which exploits zone coherence in
/// highly dynamic traffic.
#[derive(Debug)]
pub struct MozoRouting {
    config: ClusterConfig,
    zones: Clustering,
    /// Prediction horizon in seconds.
    pub horizon_s: f64,
}

impl MozoRouting {
    /// Creates with the standard moving-zone configuration and a 2 s horizon.
    pub fn new() -> Self {
        MozoRouting {
            config: ClusterConfig::moving_zone(),
            zones: Clustering::default(),
            horizon_s: 2.0,
        }
    }

    /// The zones computed this round.
    pub fn zones(&self) -> &Clustering {
        &self.zones
    }
}

impl Default for MozoRouting {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for MozoRouting {
    fn name(&self) -> &'static str {
        "mozo"
    }

    fn begin_round(&mut self, world: &WorldView<'_>) {
        self.zones.reform(world, &self.config);
    }

    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &HolderSet,
        out: &mut Vec<VehicleId>,
    ) {
        let h = self.horizon_s;
        let dest_future = world.predicted_pos(packet.dst, h);
        let my_future_dist = world.predicted_pos(holder, h).distance(dest_future);
        let mut best: Option<(f64, bool, VehicleId)> = None;
        for n in world.neighbors.of(holder).iter() {
            if carried.contains(n) {
                continue;
            }
            let d = world.predicted_pos(n, h).distance(dest_future);
            if d >= my_future_dist {
                continue;
            }
            let captain = self.zones.is_head(n);
            let better = match best {
                None => true,
                Some((bd, bcap, _)) => {
                    d < bd - 1e-9 || ((d - bd).abs() <= 1e-9 && captain && !bcap)
                }
            };
            if better {
                best = Some((d, captain, n));
            }
        }
        out.extend(best.map(|(_, _, n)| n));
    }
}

/// Street-centric routing (intersection-sequence forwarding, after the
/// IDVR/street-centric family the paper surveys in §IV-A.1): packets follow
/// the road graph intersection by intersection, so every hop runs along a
/// street — which is exactly what survives in urban-canyon radio where
/// through-block links are attenuated.
///
/// Requires the road network (vehicles carry maps); the destination's
/// position comes from the usual location service assumption.
#[derive(Debug)]
pub struct StreetAware {
    net: vc_sim::roadnet::RoadNetwork,
}

impl StreetAware {
    /// Creates the protocol with a copy of the road map.
    pub fn new(net: vc_sim::roadnet::RoadNetwork) -> Self {
        StreetAware { net }
    }
}

impl RoutingProtocol for StreetAware {
    fn name(&self) -> &'static str {
        "street-aware"
    }

    fn begin_round(&mut self, _world: &WorldView<'_>) {}

    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &HolderSet,
        out: &mut Vec<VehicleId>,
    ) {
        let my_pos = world.pos(holder);
        let dest_pos = world.pos(packet.dst);
        // Waypoint: the next intersection along the road path toward the
        // destination's nearest intersection.
        let anchors = {
            let _nearest = vc_obs::profile::frame("roadnet.nearest");
            (self.net.nearest_node(my_pos), self.net.nearest_node(dest_pos))
        };
        let target = match anchors {
            (Some(here), Some(there)) if here != there => {
                match self.net.shortest_path(here, there) {
                    Some(path) if path.len() >= 2 => {
                        // If we're still far from `here`, aim at it first.
                        if my_pos.distance(self.net.pos(here)) > 30.0 {
                            self.net.pos(here)
                        } else {
                            self.net.pos(path[1])
                        }
                    }
                    _ => dest_pos,
                }
            }
            _ => dest_pos,
        };
        let my_target_dist = my_pos.distance(target);
        let my_dest_dist = my_pos.distance(dest_pos);
        // Forward to the fresh neighbor making the most progress toward the
        // waypoint; accept destination progress as a fallback criterion.
        let mut best: Option<(f64, VehicleId)> = None;
        for n in world.neighbors.of(holder).iter() {
            if carried.contains(n) {
                continue;
            }
            let p = world.pos(n);
            let toward_target = p.distance(target);
            let improves =
                toward_target < my_target_dist - 1e-9 || p.distance(dest_pos) < my_dest_dist - 1e-9;
            if !improves {
                continue;
            }
            let better = match best {
                None => true,
                Some((bd, bn)) => {
                    toward_target < bd - 1e-9 || ((toward_target - bd).abs() <= 1e-9 && n < bn)
                }
            };
            if better {
                best = Some((toward_target, n));
            }
        }
        out.extend(best.map(|(_, n)| n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::geom::Point;
    use vc_sim::radio::NeighborTable;
    use vc_sim::time::SimTime;

    struct Fixture {
        positions: Vec<Point>,
        velocities: Vec<Point>,
        online: Vec<bool>,
        neighbors: NeighborTable,
    }

    impl Fixture {
        fn new(positions: Vec<Point>, velocities: Vec<Point>, range: f64) -> Self {
            let online = vec![true; positions.len()];
            let neighbors = NeighborTable::build(&positions, &online, range);
            Fixture { positions, velocities, online, neighbors }
        }

        fn world(&self) -> WorldView<'_> {
            WorldView {
                positions: &self.positions,
                velocities: &self.velocities,
                online: &self.online,
                neighbors: &self.neighbors,
            }
        }
    }

    fn chain(n: usize, spacing: f64) -> Fixture {
        let positions = (0..n).map(|i| Point::new(i as f64 * spacing, 0.0)).collect();
        Fixture::new(positions, vec![Point::new(0.0, 0.0); n], spacing * 1.5)
    }

    /// One protocol answer, in a fresh buffer.
    fn hops_of(
        proto: &dyn RoutingProtocol,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &HolderSet,
    ) -> Vec<VehicleId> {
        let mut out = Vec::new();
        proto.next_hops(holder, packet, world, carried, &mut out);
        out
    }

    fn holders(ids: impl IntoIterator<Item = u32>) -> HolderSet {
        let mut set = HolderSet::new();
        for id in ids {
            set.insert(VehicleId(id));
        }
        set
    }

    fn pkt(src: u32, dst: u32) -> Packet {
        Packet::new(crate::message::PacketId(1), VehicleId(src), VehicleId(dst), 256, SimTime::ZERO)
    }

    #[test]
    fn epidemic_gives_to_all_fresh_neighbors() {
        let f = chain(4, 100.0);
        let w = f.world();
        let p = pkt(0, 3);
        let proto = Epidemic;
        let hops = hops_of(&proto, VehicleId(1), &p, &w, &holders([0]));
        // Neighbors of 1 are 0 and 2; 0 already carried.
        assert_eq!(hops, vec![VehicleId(2)]);
    }

    #[test]
    fn greedy_picks_closest_to_dest() {
        let f = chain(5, 100.0);
        let w = f.world();
        let p = pkt(0, 4);
        let proto = GreedyGeo;
        let hops = hops_of(&proto, VehicleId(1), &p, &w, &HolderSet::new());
        assert_eq!(hops, vec![VehicleId(2)], "must pick the forward neighbor");
    }

    #[test]
    fn greedy_stalls_in_local_minimum() {
        // Holder is closest to dest among its neighborhood; greedy returns none.
        let positions = vec![
            Point::new(0.0, 0.0),    // 0 holder
            Point::new(-100.0, 0.0), // 1 behind
            Point::new(5000.0, 0.0), // 2 dest far away, unreachable
        ];
        let f = Fixture::new(positions, vec![Point::new(0.0, 0.0); 3], 150.0);
        let w = f.world();
        let p = pkt(0, 2);
        assert!(hops_of(&GreedyGeo, VehicleId(0), &p, &w, &HolderSet::new()).is_empty());
    }

    #[test]
    fn cluster_member_pushes_to_head() {
        let f = chain(3, 50.0);
        let w = f.world();
        let mut proto = ClusterRouting::new();
        proto.begin_round(&w);
        let head = proto.clustering().heads().next().unwrap();
        // Find a member that is not the head and ask it to forward to a far dest.
        let member = (0..3)
            .map(VehicleId)
            .find(|&v| !proto.clustering().is_head(v))
            .expect("has a non-head member");
        let p = pkt(member.0, if head.0 == 2 { 0 } else { 2 });
        let hops = hops_of(&proto, member, &p, &w, &HolderSet::new());
        // Either the head directly or the destination's head (same here).
        assert_eq!(hops.len(), 1);
    }

    #[test]
    fn cluster_head_requires_progress() {
        // Head with only backward neighbors makes no hop.
        let positions = vec![Point::new(0.0, 0.0), Point::new(-60.0, 0.0), Point::new(9000.0, 0.0)];
        let f = Fixture::new(positions, vec![Point::new(0.0, 0.0); 3], 100.0);
        let w = f.world();
        let mut proto = ClusterRouting::new();
        proto.begin_round(&w);
        let p = pkt(0, 2);
        let head = proto.clustering().head_of(VehicleId(0)).unwrap();
        let carried = holders(
            (0..3).filter(|&v| v != head.0 && !w.neighbors.of(head).contains(VehicleId(v))),
        );
        let hops = hops_of(&proto, head, &p, &w, &carried);
        // All candidates are behind; nothing closer exists.
        assert!(hops.len() <= 1);
        if let Some(&h) = hops.first() {
            assert!(
                w.pos(h).distance(w.pos(VehicleId(2))) < w.pos(head).distance(w.pos(VehicleId(2)))
            );
        }
    }

    #[test]
    fn mozo_uses_predicted_positions() {
        // Neighbor A is currently closer, but B is moving toward the dest and
        // will be much closer at the horizon; MoZo must pick B.
        let positions = vec![
            Point::new(0.0, 0.0),    // 0 holder
            Point::new(100.0, 50.0), // 1 A: near but moving away
            Point::new(80.0, -50.0), // 2 B: slightly farther but converging
            Point::new(1000.0, 0.0), // 3 dest
        ];
        let velocities = vec![
            Point::new(0.0, 0.0),
            Point::new(-30.0, 0.0), // A retreats
            Point::new(35.0, 0.0),  // B advances
            Point::new(0.0, 0.0),
        ];
        let f = Fixture::new(positions, velocities, 200.0);
        let w = f.world();
        let mut proto = MozoRouting::new();
        proto.begin_round(&w);
        let p = pkt(0, 3);
        let hops = hops_of(&proto, VehicleId(0), &p, &w, &HolderSet::new());
        assert_eq!(hops, vec![VehicleId(2)]);
    }

    #[test]
    fn protocols_never_return_carried_nodes() {
        let f = chain(6, 80.0);
        let w = f.world();
        let p = pkt(0, 5);
        let carried = holders((0..6u32).filter(|v| v.is_multiple_of(2))); // evens carried
        let mut cluster = ClusterRouting::new();
        cluster.begin_round(&w);
        let mut mozo = MozoRouting::new();
        mozo.begin_round(&w);
        let protos: Vec<&dyn RoutingProtocol> = vec![&Epidemic, &GreedyGeo, &cluster, &mozo];
        for proto in protos {
            for holder in 0..6 {
                for hop in hops_of(proto, VehicleId(holder), &p, &w, &carried) {
                    assert!(!carried.contains(hop), "{} returned a carried node", proto.name());
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = ["epidemic", "greedy-geo", "cluster", "mozo"];
        assert_eq!(Epidemic.name(), names[0]);
        assert_eq!(GreedyGeo.name(), names[1]);
        assert_eq!(ClusterRouting::new().name(), names[2]);
        assert_eq!(MozoRouting::new().name(), names[3]);
        let net = vc_sim::roadnet::RoadNetwork::grid(2, 2, 100.0, 10.0);
        assert_eq!(StreetAware::new(net).name(), "street-aware");
    }

    #[test]
    fn only_epidemic_replicates() {
        let net = vc_sim::roadnet::RoadNetwork::grid(2, 2, 100.0, 10.0);
        assert!(Epidemic.replicates());
        let single: [&dyn RoutingProtocol; 4] =
            [&GreedyGeo, &ClusterRouting::new(), &MozoRouting::new(), &StreetAware::new(net)];
        for proto in single {
            assert!(!proto.replicates(), "{} moves its one copy", proto.name());
        }
    }

    /// Epidemic's word walk over bit rows of 40, 64, 65 and 130 ids hands
    /// out exactly what filtering `Row::iter` through `HolderSet::contains`
    /// does, in the same order, with carriers on both sides of id 64.
    #[test]
    fn epidemic_word_walk_matches_the_filtered_row() {
        use vc_sim::geom::SpatialGrid;
        use vc_sim::rng::SimRng;
        for n in [40u32, 64, 65, 130] {
            let mut rng = SimRng::seed_from(u64::from(n));
            let positions: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, 600.0), rng.range_f64(0.0, 600.0)))
                .collect();
            let f = Fixture::new(positions, vec![Point::new(0.0, 0.0); n as usize], 250.0);
            // Past 64 ids only a reused table whose last rebuild came out
            // dense keeps bit rows: rebuild twice.
            let mut table = NeighborTable::new();
            let mut grid = SpatialGrid::new(250.0);
            for _ in 0..2 {
                table.rebuild(&mut grid, &f.positions, &f.online, 250.0);
            }
            let w = WorldView { neighbors: &table, ..f.world() };
            let p = pkt(0, n - 1);
            for carried in [
                HolderSet::new(),
                holders((0..n).filter(|_| rng.chance(0.4))),
                holders([0, 5, 63, 64, 65, 100, 127, 128, 129].into_iter().filter(|&v| v < n)),
                holders(0..n),
            ] {
                for holder in (0..n).map(VehicleId) {
                    let row = w.neighbors.of(holder);
                    assert!(matches!(row, Row::Bits(..)), "{n} ids: row {holder:?} is not bits");
                    let want: Vec<VehicleId> =
                        row.iter().filter(|&v| !carried.contains(v)).collect();
                    assert_eq!(hops_of(&Epidemic, holder, &p, &w, &carried), want, "{n} ids");
                }
            }
        }
    }

    /// A neighbor at a NaN position is never closer to the destination, so
    /// greedy picks what it picks without that neighbor; a NaN destination
    /// leaves nobody closer, and nothing panics.
    #[test]
    fn greedy_passes_over_nan_positions() {
        let positions = vec![
            Point::new(0.0, 0.0),   // 0 holder
            Point::new(50.0, 0.0),  // 1
            Point::new(80.0, 0.0),  // 2 closest to the destination
            Point::new(60.0, 10.0), // 3 turns NaN
            Point::new(500.0, 0.0), // 4 destination, out of range
        ];
        let f = Fixture::new(positions, vec![Point::new(0.0, 0.0); 5], 150.0);
        let p = pkt(0, 4);
        let without_3 = hops_of(&GreedyGeo, VehicleId(0), &p, &f.world(), &holders([3]));
        assert_eq!(without_3, vec![VehicleId(2)]);
        let mut positions = f.positions.clone();
        positions[3] = Point::new(f64::NAN, f64::NAN);
        let w = WorldView { positions: &positions, ..f.world() };
        assert_eq!(hops_of(&GreedyGeo, VehicleId(0), &p, &w, &HolderSet::new()), without_3);
        positions[4] = Point::new(f64::NAN, 0.0);
        let w = WorldView { positions: &positions, ..f.world() };
        assert!(hops_of(&GreedyGeo, VehicleId(0), &p, &w, &HolderSet::new()).is_empty());
    }

    #[test]
    fn street_aware_follows_intersections() {
        // A 3x3 grid, 200 m blocks. Holder at the SW corner, destination at
        // the NE corner. Two candidate relays: one diagonally across the
        // block (closer to the destination as the crow flies), one along the
        // street toward the next intersection. Street-aware must pick the
        // street relay; plain greedy picks the diagonal one.
        let net = vc_sim::roadnet::RoadNetwork::grid(3, 3, 200.0, 13.9);
        let positions = vec![
            Point::new(0.0, 0.0),     // 0: holder at intersection (0,0)
            Point::new(120.0, 120.0), // 1: mid-block diagonal relay
            Point::new(150.0, 0.0),   // 2: street relay toward (200,0)
            Point::new(400.0, 400.0), // 3: destination at the far corner
        ];
        let velocities = vec![Point::new(0.0, 0.0); 4];
        let online = vec![true; 4];
        let table = NeighborTable::build(&positions, &online, 250.0);
        let world = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &table,
        };
        let p = pkt(0, 3);
        let greedy_pick = hops_of(&GreedyGeo, VehicleId(0), &p, &world, &HolderSet::new());
        assert_eq!(greedy_pick, vec![VehicleId(1)], "greedy cuts the corner");
        let street = StreetAware::new(net);
        let street_pick = hops_of(&street, VehicleId(0), &p, &world, &HolderSet::new());
        assert_eq!(street_pick, vec![VehicleId(2)], "street-aware follows the road");
    }

    #[test]
    fn street_aware_handles_degenerate_maps() {
        // Empty road network: falls back to pure greedy toward the dest.
        let net = vc_sim::roadnet::RoadNetwork::new();
        let positions = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(300.0, 0.0)];
        let velocities = vec![Point::new(0.0, 0.0); 3];
        let online = vec![true; 3];
        let table = NeighborTable::build(&positions, &online, 150.0);
        let world = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &table,
        };
        let p = pkt(0, 2);
        let street = StreetAware::new(net);
        assert_eq!(
            hops_of(&street, VehicleId(0), &p, &world, &HolderSet::new()),
            vec![VehicleId(1)]
        );
    }
}
