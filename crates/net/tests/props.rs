//! Property-based tests for clustering and routing invariants.

use vc_net::cluster::{form_clusters, maintain_clusters, ClusterConfig, Clustering};
use vc_net::holders::HolderSet;
use vc_net::message::{Packet, PacketId};
use vc_net::netsim::NetSim;
use vc_net::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol};
use vc_net::world::WorldView;
use vc_obs::Sampler;
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::time::SimTime;
use vc_testkit::prop::strategy::{any_u16, any_u32, any_u64, from_fn, FromFn};
use vc_testkit::{prop, prop_assert, prop_assert_eq, prop_assert_ne};

#[derive(Debug, Clone)]
struct World {
    positions: Vec<Point>,
    velocities: Vec<Point>,
    online: Vec<bool>,
}

fn gen_world(rng: &mut SimRng, n: usize) -> World {
    let positions = (0..n)
        .map(|_| Point::new(rng.range_f64(-1000.0, 1000.0), rng.range_f64(-1000.0, 1000.0)))
        .collect();
    let velocities = (0..n)
        .map(|_| Point::new(rng.range_f64(-30.0, 30.0), rng.range_f64(-30.0, 30.0)))
        .collect();
    // Ensure at least vehicle 0 is online so protocols have a holder.
    let mut online: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    online[0] = true;
    World { positions, velocities, online }
}

/// One protocol answer, in a fresh buffer.
fn hops_of(
    proto: &dyn RoutingProtocol,
    holder: VehicleId,
    packet: &Packet,
    world: &WorldView<'_>,
    carried: &dyn Fn(VehicleId) -> bool,
) -> Vec<VehicleId> {
    let mut out = Vec::new();
    proto.next_hops(holder, packet, world, carried, &mut out);
    out
}

/// Insert/contains sequences over ids on both sides of the holder set's
/// 64-bit word, colliding often enough to hit repeated inserts.
fn holder_ops() -> FromFn<impl Fn(&mut SimRng) -> Vec<(bool, u32)>> {
    from_fn(|rng| {
        let len = rng.range_u64(1, 200) as usize;
        (0..len)
            .map(|_| {
                let id = match rng.index(5) {
                    0 => rng.index(64) as u32,
                    1 => 62 + rng.index(5) as u32,
                    2 => 64 + rng.index(200) as u32,
                    3 => u32::MAX - rng.index(3) as u32,
                    _ => rng.next_u64() as u32,
                };
                (rng.chance(0.5), id)
            })
            .collect()
    })
}

fn world_strategy(max_n: usize) -> FromFn<impl Fn(&mut SimRng) -> World> {
    from_fn(move |rng| {
        let n = rng.range_u64(2, max_n as u64) as usize;
        gen_world(rng, n)
    })
}

/// Two independently generated worlds of the same (random) size — the
/// before/after pair the maintenance invariants check.
fn world_pair() -> FromFn<impl Fn(&mut SimRng) -> (World, World)> {
    from_fn(|rng| {
        let n = rng.range_u64(2, 24) as usize;
        (gen_world(rng, n), gen_world(rng, n))
    })
}

/// Like [`world_pair`], but with velocities drawn as three platoons plus a
/// little jitter, so the moving-zone velocity band keeps some links and
/// cuts others.
fn platoon_world_pair() -> FromFn<impl Fn(&mut SimRng) -> (World, World)> {
    fn platoon_world(rng: &mut SimRng, n: usize) -> World {
        let mut w = gen_world(rng, n);
        for v in &mut w.velocities {
            let base = [Point::new(30.0, 0.0), Point::new(-30.0, 0.0), Point::new(0.0, 14.0)];
            *v = base[rng.index(3)] + Point::new(rng.range_f64(-4.0, 4.0), 0.0);
        }
        w
    }
    from_fn(|rng| {
        let n = rng.range_u64(2, 40) as usize;
        (platoon_world(rng, n), platoon_world(rng, n))
    })
}

/// Clustering as this crate formed and maintained it before the stamp-BFS
/// rewrite — a `Vec` per neighbor filter, a fresh visited array per search,
/// one search per (head, member) pair — kept as the oracle the production
/// code is compared against.
mod reference {
    use std::collections::{BTreeMap, VecDeque};
    use vc_net::cluster::ClusterConfig;
    use vc_net::world::WorldView;
    use vc_sim::node::VehicleId;

    pub struct Clusters {
        pub head_of: Vec<Option<VehicleId>>,
        pub members: BTreeMap<VehicleId, Vec<VehicleId>>,
    }

    fn head_score(world: &WorldView<'_>, id: VehicleId, cfg: &ClusterConfig) -> f64 {
        let neighbors = eligible(world, id, cfg);
        let degree = neighbors.len() as f64;
        let rel_speed = if neighbors.is_empty() {
            0.0
        } else {
            neighbors.iter().map(|&n| (world.vel(id) - world.vel(n)).norm()).sum::<f64>()
                / neighbors.len() as f64
        };
        cfg.weight_degree * degree - cfg.weight_stability * rel_speed
    }

    fn eligible(world: &WorldView<'_>, id: VehicleId, cfg: &ClusterConfig) -> Vec<VehicleId> {
        world
            .neighbors
            .of(id)
            .iter()
            .copied()
            .filter(|&n| world.is_online(n))
            .filter(|&n| match cfg.velocity_similarity {
                Some(band) => (world.vel(id) - world.vel(n)).norm() < band,
                None => true,
            })
            .collect()
    }

    fn ranked(
        world: &WorldView<'_>,
        ids: impl Iterator<Item = VehicleId>,
        cfg: &ClusterConfig,
    ) -> Vec<(f64, VehicleId)> {
        let mut candidates: Vec<(f64, VehicleId)> =
            ids.map(|id| (head_score(world, id, cfg), id)).collect();
        candidates
            .sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores").then(a.1.cmp(&b.1)));
        candidates
    }

    pub fn form(world: &WorldView<'_>, cfg: &ClusterConfig) -> Clusters {
        let n = world.len();
        let mut head_of: Vec<Option<VehicleId>> = vec![None; n];
        let mut members: BTreeMap<VehicleId, Vec<VehicleId>> = BTreeMap::new();
        for (_, candidate) in ranked(world, world.online_ids(), cfg) {
            if head_of[candidate.0 as usize].is_some() {
                continue;
            }
            let mut claimed = vec![candidate];
            head_of[candidate.0 as usize] = Some(candidate);
            let mut queue = VecDeque::new();
            queue.push_back((candidate, 0u32));
            let mut visited = vec![false; n];
            visited[candidate.0 as usize] = true;
            while let Some((cur, depth)) = queue.pop_front() {
                if depth == cfg.max_hops {
                    continue;
                }
                for next in eligible(world, cur, cfg) {
                    let idx = next.0 as usize;
                    if visited[idx] {
                        continue;
                    }
                    visited[idx] = true;
                    if head_of[idx].is_none() {
                        head_of[idx] = Some(candidate);
                        claimed.push(next);
                    }
                    queue.push_back((next, depth + 1));
                }
            }
            claimed.sort();
            members.insert(candidate, claimed);
        }
        Clusters { head_of, members }
    }

    pub fn maintain(
        previous: &Clusters,
        world: &WorldView<'_>,
        cfg: &ClusterConfig,
        retention_quorum: f64,
    ) -> Clusters {
        let n = world.len();
        let mut head_of: Vec<Option<VehicleId>> = vec![None; n];
        let mut members: BTreeMap<VehicleId, Vec<VehicleId>> = BTreeMap::new();

        let mut surviving_heads: Vec<VehicleId> = Vec::new();
        for (&head, old_members) in &previous.members {
            if !world.is_online(head) {
                continue;
            }
            if old_members.len() <= 1 {
                surviving_heads.push(head);
                continue;
            }
            let reachable = old_members
                .iter()
                .filter(|&&m| m != head)
                .filter(|&&m| world.is_online(m))
                .filter(|&&m| within_hops(world, head, m, cfg))
                .count();
            let quorum = ((old_members.len() - 1) as f64 * retention_quorum).ceil() as usize;
            if reachable >= quorum.max(1).min(old_members.len() - 1) {
                surviving_heads.push(head);
            }
        }

        surviving_heads.sort();
        for &head in &surviving_heads {
            head_of[head.0 as usize] = Some(head);
            members.entry(head).or_default().push(head);
        }
        let mut frontier: VecDeque<(VehicleId, VehicleId, u32)> =
            surviving_heads.iter().map(|&h| (h, h, 0)).collect();
        while let Some((node, head, depth)) = frontier.pop_front() {
            if depth == cfg.max_hops {
                continue;
            }
            for next in eligible(world, node, cfg) {
                let idx = next.0 as usize;
                if head_of[idx].is_some() {
                    continue;
                }
                head_of[idx] = Some(head);
                members.entry(head).or_default().push(next);
                frontier.push_back((next, head, depth + 1));
            }
        }

        let uncovered: Vec<VehicleId> =
            world.online_ids().filter(|id| head_of[id.0 as usize].is_none()).collect();
        for (_, candidate) in ranked(world, uncovered.into_iter(), cfg) {
            if head_of[candidate.0 as usize].is_some() {
                continue;
            }
            head_of[candidate.0 as usize] = Some(candidate);
            members.entry(candidate).or_default().push(candidate);
            let mut queue = VecDeque::new();
            queue.push_back((candidate, 0u32));
            while let Some((cur, depth)) = queue.pop_front() {
                if depth == cfg.max_hops {
                    continue;
                }
                for next in eligible(world, cur, cfg) {
                    let idx = next.0 as usize;
                    if head_of[idx].is_some() {
                        continue;
                    }
                    head_of[idx] = Some(candidate);
                    members.entry(candidate).or_default().push(next);
                    queue.push_back((next, depth + 1));
                }
            }
        }
        for m in members.values_mut() {
            m.sort();
            m.dedup();
        }
        Clusters { head_of, members }
    }

    fn within_hops(world: &WorldView<'_>, a: VehicleId, b: VehicleId, cfg: &ClusterConfig) -> bool {
        if a == b {
            return true;
        }
        let mut visited = vec![false; world.len()];
        visited[a.0 as usize] = true;
        let mut queue = VecDeque::new();
        queue.push_back((a, 0u32));
        while let Some((cur, depth)) = queue.pop_front() {
            if depth == cfg.max_hops {
                continue;
            }
            for next in eligible(world, cur, cfg) {
                if next == b {
                    return true;
                }
                let idx = next.0 as usize;
                if !visited[idx] {
                    visited[idx] = true;
                    queue.push_back((next, depth + 1));
                }
            }
        }
        false
    }
}

/// Where `got`'s public view — `head_of`, ascending `heads()`, ascending
/// `members()` — departs from the reference clustering; `None` when it
/// shows exactly that.
fn mismatch(got: &Clustering, want: &reference::Clusters) -> Option<String> {
    for (i, &head) in want.head_of.iter().enumerate() {
        let id = VehicleId(i as u32);
        if got.head_of(id) != head {
            return Some(format!("head_of({i}): {:?} != {head:?}", got.head_of(id)));
        }
        if !want.members.contains_key(&id) && !got.members(id).is_empty() {
            return Some(format!("non-head {i} has members {:?}", got.members(id)));
        }
    }
    let heads: Vec<VehicleId> = got.heads().collect();
    if heads != want.members.keys().copied().collect::<Vec<_>>() {
        return Some(format!("heads {heads:?} != {:?}", want.members.keys()));
    }
    for (&head, members) in &want.members {
        if got.members(head) != members.as_slice() {
            return Some(format!("members({head:?}): {:?} != {members:?}", got.members(head)));
        }
    }
    if got.cluster_count() != want.members.len() {
        return Some(format!("cluster_count {} != {}", got.cluster_count(), want.members.len()));
    }
    None
}

/// Fingerprint of a full instrumented run: statistics (latencies as raw
/// bits), the serialized event stream, and the end-state fleet kinematics.
/// Equal fingerprints mean bitwise-equal runs.
type RunFingerprint = (u64, u64, u64, Vec<u32>, Vec<u64>, Vec<u8>, Vec<(u64, u64)>);

/// One run with causal tracing off or on (the sampler is seeded from the
/// run seed, like the default).
fn traced_run_fingerprint<P: RoutingProtocol>(
    seed: u64,
    vehicles: usize,
    packets: usize,
    rounds: usize,
    protocol: P,
    traced: bool,
) -> RunFingerprint {
    let mut b = vc_sim::scenario::ScenarioBuilder::new();
    b.seed(seed).vehicles(vehicles);
    let mut scenario = b.urban_with_rsus();
    let mut rec = vc_obs::Recorder::new();
    let (stats, events) = {
        let mut sim = NetSim::new(&mut scenario, protocol);
        if traced {
            sim.set_sampler(Sampler::new(seed));
        }
        sim.send_random_pairs(packets, 128, Some(&mut rec));
        sim.run_rounds_obs(rounds, Some(&mut rec));
        let stats = sim.into_stats();
        let mut events = Vec::new();
        rec.write_jsonl(&mut events).expect("serialize events");
        (stats, events)
    };
    let lat_bits: Vec<u64> = stats.latencies_s.iter().map(|l| l.to_bits()).collect();
    let pos_bits: Vec<(u64, u64)> =
        scenario.fleet.positions().iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
    (stats.sent, stats.delivered, stats.transmissions, stats.hops, lat_bits, events, pos_bits)
}

/// The same run traced, traced again, and untraced.
fn traced_twice_and_untraced<P: RoutingProtocol>(
    make: impl Fn() -> P,
    seed: u64,
    vehicles: usize,
    packets: usize,
    rounds: usize,
) -> [RunFingerprint; 3] {
    [true, true, false]
        .map(|traced| traced_run_fingerprint(seed, vehicles, packets, rounds, make(), traced))
}

prop! {
    #![cases(64)]

    // The CSR NeighborTable must equal the old nested-Vec build: per vehicle
    // a sorted list of the online others strictly within range, empty for
    // offline vehicles. Both the fresh build and an in-place rebuild over a
    // dirty grid/table are checked against a brute-force reference.
    #[test]
    fn neighbor_table_matches_naive_reference(w in world_strategy(40)) {
        let range = 300.0;
        let table = NeighborTable::build(&w.positions, &w.online, range);
        let mut reused = NeighborTable::new();
        // Deliberately mismatched cell size and a grid still holding an
        // earlier rebuild: the result may not depend on either.
        let mut grid = vc_sim::geom::SpatialGrid::new(145.0);
        grid.rebuild([(9999, Point::new(0.0, 0.0))]);
        reused.rebuild(&mut grid, &w.positions, &w.online, range);
        let n = w.positions.len();
        prop_assert_eq!(table.len(), n);
        prop_assert_eq!(reused.len(), n);
        for i in 0..n {
            let id = VehicleId(i as u32);
            let mut expect: Vec<VehicleId> = Vec::new();
            if w.online[i] {
                for j in 0..n {
                    if j != i
                        && w.online[j]
                        && w.positions[j].distance_sq(w.positions[i]) < range * range
                    {
                        expect.push(VehicleId(j as u32));
                    }
                }
            }
            prop_assert_eq!(table.of(id), expect.as_slice());
            prop_assert_eq!(reused.of(id), expect.as_slice());
        }
    }

    // Clustering invariants: every online vehicle gets a head; heads head
    // themselves; members lists are consistent; offline vehicles excluded.
    #[test]
    fn clustering_invariants(w in world_strategy(40)) {
        let table = NeighborTable::build(&w.positions, &w.online, 300.0);
        let world = WorldView {
            positions: &w.positions,
            velocities: &w.velocities,
            online: &w.online,
            neighbors: &table,
        };
        for cfg in [ClusterConfig::multi_hop(), ClusterConfig::moving_zone()] {
            let clustering = form_clusters(&world, &cfg);
            for i in 0..w.positions.len() {
                let id = VehicleId(i as u32);
                match clustering.head_of(id) {
                    Some(head) => {
                        prop_assert!(w.online[i], "offline vehicle got a head");
                        prop_assert_eq!(clustering.head_of(head), Some(head));
                        prop_assert!(clustering.members(head).contains(&id));
                    }
                    None => prop_assert!(!w.online[i], "online vehicle without a head"),
                }
            }
            // Members partition the online set.
            let mut assigned: Vec<VehicleId> = clustering
                .heads()
                .flat_map(|h| clustering.members(h).to_vec())
                .collect();
            assigned.sort();
            let mut online_ids: Vec<VehicleId> = (0..w.positions.len())
                .filter(|&i| w.online[i])
                .map(|i| VehicleId(i as u32))
                .collect();
            online_ids.sort();
            prop_assert_eq!(assigned, online_ids);
        }
    }

    // Maintenance invariants mirror the from-scratch invariants: every
    // online vehicle gets a head, heads head themselves, members partition
    // the online set — regardless of what the previous round looked like.
    #[test]
    fn maintenance_invariants((before, after) in world_pair()) {
        let cfg = ClusterConfig::multi_hop();
        let table_before = NeighborTable::build(&before.positions, &before.online, 300.0);
        let world_before = WorldView {
            positions: &before.positions,
            velocities: &before.velocities,
            online: &before.online,
            neighbors: &table_before,
        };
        let previous = form_clusters(&world_before, &cfg);
        let table_after = NeighborTable::build(&after.positions, &after.online, 300.0);
        let world_after = WorldView {
            positions: &after.positions,
            velocities: &after.velocities,
            online: &after.online,
            neighbors: &table_after,
        };
        let next = maintain_clusters(&previous, &world_after, &cfg, 0.5);
        for i in 0..after.positions.len() {
            let id = VehicleId(i as u32);
            match next.head_of(id) {
                Some(head) => {
                    prop_assert!(after.online[i]);
                    prop_assert_eq!(next.head_of(head), Some(head));
                    prop_assert!(next.members(head).contains(&id));
                }
                None => prop_assert!(!after.online[i]),
            }
        }
        let mut assigned: Vec<VehicleId> =
            next.heads().flat_map(|h| next.members(h).to_vec()).collect();
        assigned.sort();
        assigned.dedup();
        let mut online_ids: Vec<VehicleId> = (0..after.positions.len())
            .filter(|&i| after.online[i])
            .map(|i| VehicleId(i as u32))
            .collect();
        online_ids.sort();
        prop_assert_eq!(assigned, online_ids);
    }

    // The stamp-BFS formation and maintenance against the code they
    // replaced: the same heads, the same members, in the same order, for
    // both configurations, through two maintenance rounds, with about half
    // the fleet offline.
    #[test]
    fn clustering_matches_reference((before, after) in platoon_world_pair(), hops in 0u32..4) {
        let range = 300.0;
        let table_before = NeighborTable::build(&before.positions, &before.online, range);
        let world_before = WorldView {
            positions: &before.positions,
            velocities: &before.velocities,
            online: &before.online,
            neighbors: &table_before,
        };
        let table_after = NeighborTable::build(&after.positions, &after.online, range);
        let world_after = WorldView {
            positions: &after.positions,
            velocities: &after.velocities,
            online: &after.online,
            neighbors: &table_after,
        };
        for mut cfg in [ClusterConfig::multi_hop(), ClusterConfig::moving_zone()] {
            cfg.max_hops = hops;
            let formed = form_clusters(&world_before, &cfg);
            let want_formed = reference::form(&world_before, &cfg);
            prop_assert_eq!(mismatch(&formed, &want_formed), None, "form");
            for quorum in [0.0, 0.5, 1.0] {
                let kept = maintain_clusters(&formed, &world_after, &cfg, quorum);
                let want_kept = reference::maintain(&want_formed, &world_after, &cfg, quorum);
                prop_assert_eq!(mismatch(&kept, &want_kept), None, "maintain at quorum {}", quorum);
                // And back again, from a maintained (not formed) clustering.
                let back = maintain_clusters(&kept, &world_before, &cfg, quorum);
                let want_back = reference::maintain(&want_kept, &world_before, &cfg, quorum);
                prop_assert_eq!(mismatch(&back, &want_back), None, "second maintain at quorum {}", quorum);
            }
        }
    }

    // Re-forming in place (what the routing protocols do every round) over
    // a different world leaves nothing of the previous round behind.
    #[test]
    fn in_place_reform_matches_fresh_formation((first, second) in platoon_world_pair()) {
        let mut cluster = ClusterRouting::new();
        let mut mozo = MozoRouting::new();
        for w in [&first, &second, &first] {
            let table = NeighborTable::build(&w.positions, &w.online, 300.0);
            let world = WorldView {
                positions: &w.positions,
                velocities: &w.velocities,
                online: &w.online,
                neighbors: &table,
            };
            cluster.begin_round(&world);
            mozo.begin_round(&world);
            let want = reference::form(&world, &ClusterConfig::multi_hop());
            prop_assert_eq!(mismatch(cluster.clustering(), &want), None, "cluster routing");
            let want = reference::form(&world, &ClusterConfig::moving_zone());
            prop_assert_eq!(mismatch(mozo.zones(), &want), None, "mozo routing");
        }
    }

    // Routing safety: protocols only ever forward to actual neighbors that
    // have not carried the packet, and never to the holder itself.
    #[test]
    fn routing_forwards_only_to_fresh_neighbors(w in world_strategy(30), dst_pick in any_u16(), carried_mask in any_u32()) {
        let table = NeighborTable::build(&w.positions, &w.online, 300.0);
        let world = WorldView {
            positions: &w.positions,
            velocities: &w.velocities,
            online: &w.online,
            neighbors: &table,
        };
        let n = w.positions.len();
        let dst = VehicleId((dst_pick as usize % n) as u32);
        let packet = Packet::new(PacketId(1), VehicleId(0), dst, 256, SimTime::ZERO);
        let carried = |v: VehicleId| carried_mask & (1 << (v.0 % 32)) != 0;

        let mut cluster = ClusterRouting::new();
        cluster.begin_round(&world);
        let mut mozo = MozoRouting::new();
        mozo.begin_round(&world);
        let protocols: Vec<&dyn RoutingProtocol> = vec![&Epidemic, &GreedyGeo, &cluster, &mozo];
        for proto in protocols {
            for holder_idx in 0..n {
                let holder = VehicleId(holder_idx as u32);
                if !w.online[holder_idx] {
                    continue;
                }
                for hop in hops_of(proto, holder, &packet, &world, &carried) {
                    prop_assert_ne!(hop, holder, "{} forwarded to self", proto.name());
                    prop_assert!(
                        table.of(holder).contains(&hop),
                        "{} forwarded to non-neighbor", proto.name()
                    );
                    prop_assert!(!carried(hop), "{} forwarded to carrier", proto.name());
                }
            }
        }
    }

    // The carried-by set behaves as a set of ids whichever side of its word
    // an id falls on.
    #[test]
    fn holder_set_matches_a_btreeset_model(ops in holder_ops()) {
        let mut set = HolderSet::new();
        let mut model = std::collections::BTreeSet::new();
        for (insert, id) in ops {
            if insert {
                prop_assert_eq!(set.insert(VehicleId(id)), model.insert(id), "insert {}", id);
            }
            prop_assert_eq!(set.contains(VehicleId(id)), model.contains(&id), "contains {}", id);
        }
        for id in [0, 63, 64, u32::MAX] {
            prop_assert_eq!(set.contains(VehicleId(id)), model.contains(&id), "contains {}", id);
        }
    }

    // Single-copy protocols return at most one next hop; epidemic returns
    // each fresh neighbor exactly once.
    #[test]
    fn hop_multiplicity(w in world_strategy(25)) {
        let table = NeighborTable::build(&w.positions, &w.online, 300.0);
        let world = WorldView {
            positions: &w.positions,
            velocities: &w.velocities,
            online: &w.online,
            neighbors: &table,
        };
        let n = w.positions.len();
        let packet = Packet::new(PacketId(1), VehicleId(0), VehicleId((n - 1) as u32), 256, SimTime::ZERO);
        let never = |_: VehicleId| false;
        let mut cluster = ClusterRouting::new();
        cluster.begin_round(&world);
        let mut mozo = MozoRouting::new();
        mozo.begin_round(&world);
        for holder_idx in 0..n {
            let holder = VehicleId(holder_idx as u32);
            prop_assert!(hops_of(&GreedyGeo, holder, &packet, &world, &never).len() <= 1);
            prop_assert!(hops_of(&cluster, holder, &packet, &world, &never).len() <= 1);
            prop_assert!(hops_of(&mozo, holder, &packet, &world, &never).len() <= 1);
            let epi = hops_of(&Epidemic, holder, &packet, &world, &never);
            let mut dedup = epi.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), epi.len(), "epidemic duplicated a target");
        }
    }

    // ---- instrumented-run determinism ----

    // A full instrumented run — the merged event stream (every radio
    // tx/rx/drop, routing forward/deliver and causal.* chain event, in
    // order), the final statistics (latencies bit for bit) and the
    // end-state fleet kinematics — repeats exactly for the same seed with
    // causal tracing on, and tracing changes the event stream only: the
    // trace id is a pure function of (seed, packet id) and draws nothing
    // from the run's RNG.
    #[test]
    fn traced_run_repeats_bitwise_and_sampling_never_perturbs_it(
        seed in any_u64(),
        vehicles in 30usize..70,
        packets in 5usize..20,
        rounds in 5usize..20,
        protocol in 0u8..3,
    ) {
        let [first, second, untraced] = match protocol {
            0 => traced_twice_and_untraced(|| Epidemic, seed, vehicles, packets, rounds),
            1 => traced_twice_and_untraced(|| GreedyGeo, seed, vehicles, packets, rounds),
            _ => traced_twice_and_untraced(MozoRouting::new, seed, vehicles, packets, rounds),
        };
        prop_assert_eq!(&first, &second);
        let without_events = |mut run: RunFingerprint| {
            run.5.clear();
            run
        };
        prop_assert_eq!(without_events(first), without_events(untraced));
    }
}

/// A world past the election's single-bucket size: a blob of 200–240
/// vehicles inside one 300 m range (a 200 m square, a clique) or spread
/// over a 400 m square (degrees from about 100 to 200), up to 60 more over
/// 2 km around it and up to four isolated ones 20 km out. Velocities are
/// random, all zero (every score then equals its degree bound), whole
/// numbers of m/s along one axis (scores tie with other degrees' bounds) or
/// three platoons; about one vehicle in ten is offline.
fn election_world(rng: &mut SimRng) -> World {
    let blob = rng.range_u64(200, 240) as usize;
    let around = rng.range_u64(0, 60) as usize;
    let isolated = rng.range_u64(0, 4) as usize;
    let side = if rng.chance(0.5) { 200.0 } else { 400.0 };
    let mut positions: Vec<Point> =
        (0..blob).map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side))).collect();
    positions.extend(
        (0..around)
            .map(|_| Point::new(rng.range_f64(-800.0, 1200.0), rng.range_f64(-800.0, 1200.0))),
    );
    positions.extend((0..isolated).map(|i| Point::new(20_000.0 * (i + 1) as f64, 0.0)));
    // Shuffle, so the blob's ids interleave with everyone else's.
    for i in (1..positions.len()).rev() {
        positions.swap(i, rng.index(i + 1));
    }
    let n = positions.len();
    let kind = rng.index(4);
    let velocities = (0..n)
        .map(|_| match kind {
            0 => Point::new(rng.range_f64(-15.0, 15.0), rng.range_f64(-15.0, 15.0)),
            1 => Point::new(0.0, 0.0),
            // Whole relative speeds: scores land on lower degrees' bounds.
            2 => Point::new(rng.index(3) as f64, 0.0),
            _ => {
                let base = [Point::new(14.0, 0.0), Point::new(-14.0, 0.0), Point::new(0.0, 14.0)];
                base[rng.index(3)] + Point::new(rng.range_f64(-2.0, 2.0), 0.0)
            }
        })
        .collect();
    let online = (0..n).map(|_| rng.chance(0.9)).collect();
    World { positions, velocities, online }
}

fn election_world_pair() -> FromFn<impl Fn(&mut SimRng) -> (World, World)> {
    from_fn(|rng| {
        let first = election_world(rng);
        // The second round moves everyone a little and takes some offline.
        let mut second = first.clone();
        for (p, v) in second.positions.iter_mut().zip(&first.velocities) {
            *p = *p + *v * 2.0 + Point::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0));
        }
        for on in &mut second.online {
            *on = *on && rng.chance(0.9);
        }
        (first, second)
    })
}

prop! {
    #![cases(24)]

    // The lazy election scores a candidate only when its degree bound can
    // still win; it must elect exactly what scoring everyone elects. Worlds
    // past the single-bucket size under E8's three weightings — where
    // (0, 2) puts every degree in one bucket, ordered by id — and the
    // standard and moving-zone ones, a negative stability weight (no
    // bound: every candidate scored) and a negative degree weight (bounds
    // rising with degree).
    #[test]
    fn lazy_election_matches_reference((before, after) in election_world_pair(), hops in 0u32..3, pick in any_u32()) {
        let range = 300.0;
        let table_before = NeighborTable::build(&before.positions, &before.online, range);
        let world_before = WorldView {
            positions: &before.positions,
            velocities: &before.velocities,
            online: &before.online,
            neighbors: &table_before,
        };
        let table_after = NeighborTable::build(&after.positions, &after.online, range);
        let world_after = WorldView {
            positions: &after.positions,
            velocities: &after.velocities,
            online: &after.online,
            neighbors: &table_after,
        };
        let weighted = |weight_degree, weight_stability| ClusterConfig {
            max_hops: hops,
            weight_degree,
            weight_stability,
            velocity_similarity: None,
        };
        let mut moving_zone = ClusterConfig::moving_zone();
        moving_zone.max_hops = hops;
        let configs = [
            weighted(1.0, 0.0),
            weighted(0.0, 2.0),
            weighted(1.0, 1.0),
            weighted(1.0, 2.0),
            weighted(1.0, -1.0),
            weighted(-1.0, 1.0),
            moving_zone,
        ];
        for cfg in &configs {
            let formed = form_clusters(&world_before, cfg);
            let want = reference::form(&world_before, cfg);
            prop_assert_eq!(mismatch(&formed, &want), None, "form under {:?}", cfg);
        }
        // Maintenance elects among the vehicles no kept head reaches; the
        // reference's quorum check is slow at this size, so one weighting a
        // case.
        let cfg = &configs[pick as usize % configs.len()];
        let formed = form_clusters(&world_before, cfg);
        let want_formed = reference::form(&world_before, cfg);
        let kept = maintain_clusters(&formed, &world_after, cfg, 0.5);
        let want_kept = reference::maintain(&want_formed, &world_after, cfg, 0.5);
        prop_assert_eq!(mismatch(&kept, &want_kept), None, "maintain under {:?}", cfg);
    }
}

// ---------------------------------------------------------------------------
// `vc_net::svc` wire-frame properties: the daemon's length-prefixed protocol
// must round-trip arbitrary frames, survive arbitrarily fragmented reads,
// and reject truncated or oversized input with errors, never panics.

/// A reader that hands out the underlying bytes in pseudo-random small
/// pieces (1..=7 bytes), exercising every short-read path in `read_frame`.
struct SplitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    rng: SimRng,
}

impl std::io::Read for SplitReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.bytes.len() {
            return Ok(0);
        }
        let chunk =
            (self.rng.range_u64(1, 7) as usize).min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..chunk].copy_from_slice(&self.bytes[self.pos..self.pos + chunk]);
        self.pos += chunk;
        Ok(chunk)
    }
}

fn gen_svc_string(rng: &mut SimRng, max_len: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-._ {}\"";
    let len = rng.range_u64(0, max_len) as usize;
    (0..len).map(|_| ALPHABET[rng.index(ALPHABET.len())] as char).collect()
}

fn gen_svc_times(rng: &mut SimRng) -> svc::JobTimes {
    svc::JobTimes {
        accepted_ns: rng.next_u64(),
        started_ns: rng.next_u64(),
        finished_ns: rng.next_u64(),
    }
}

/// One arbitrary frame of any kind, with arbitrary field contents and
/// payload lengths (chunk data up to 2 KiB).
fn gen_svc_frame(rng: &mut SimRng) -> svc::Frame {
    use svc::Frame;
    match rng.range_u64(0, 14) {
        0 => Frame::Submit {
            scenario: gen_svc_string(rng, 64),
            seed: rng.next_u64(),
            ticks: rng.next_u64() as u32,
            flags: rng.next_u64() as u32,
        },
        1 => Frame::Status { job: rng.next_u64() },
        2 => Frame::Result { job: rng.next_u64() },
        3 => Frame::Cancel { job: rng.next_u64() },
        4 => Frame::Metrics,
        5 => Frame::Shutdown,
        6 => Frame::Accepted { job: rng.next_u64() },
        7 => Frame::Rejected {
            reason: [
                svc::RejectReason::QueueFull,
                svc::RejectReason::Draining,
                svc::RejectReason::UnknownScenario,
                svc::RejectReason::BudgetExceeded,
                svc::RejectReason::BadRequest,
            ][rng.index(5)],
            detail: gen_svc_string(rng, 128),
        },
        8 => Frame::JobStatus {
            job: rng.next_u64(),
            phase: svc::JobPhase::from_u8(rng.range_u64(0, 4) as u8).unwrap(),
            queue_depth: rng.next_u64() as u32,
            times: gen_svc_times(rng),
        },
        9 => Frame::ResultHeader {
            job: rng.next_u64(),
            phase: svc::JobPhase::from_u8(rng.range_u64(0, 4) as u8).unwrap(),
            checksum: rng.next_u64(),
            stats_len: rng.next_u64(),
            trace_len: rng.next_u64(),
            times: gen_svc_times(rng),
        },
        10 => {
            let len = rng.range_u64(0, 2048) as usize;
            Frame::Chunk {
                job: rng.next_u64(),
                channel: if rng.chance(0.5) { svc::Channel::Stats } else { svc::Channel::Trace },
                data: (0..len).map(|_| rng.next_u64() as u8).collect(),
            }
        }
        11 => Frame::ResultEnd { job: rng.next_u64() },
        12 => Frame::MetricsReply { json: gen_svc_string(rng, 256) },
        13 => Frame::Okay,
        _ => Frame::Error { detail: gen_svc_string(rng, 128) },
    }
}

fn svc_frame_strategy() -> FromFn<impl Fn(&mut SimRng) -> vc_net::svc::Frame> {
    from_fn(gen_svc_frame)
}

/// A short pseudo-random sequence of frames (1..=8).
fn svc_burst_strategy() -> FromFn<impl Fn(&mut SimRng) -> Vec<vc_net::svc::Frame>> {
    from_fn(|rng| {
        let n = rng.range_u64(1, 8) as usize;
        (0..n).map(|_| gen_svc_frame(rng)).collect()
    })
}

use vc_net::svc;

prop! {
    #![cases(96)]

    // Every frame kind round-trips through encode/decode bit-exactly.
    #[test]
    fn svc_frames_roundtrip(frame in svc_frame_strategy()) {
        let payload = frame.encode();
        prop_assert!(payload.len() <= svc::MAX_FRAME_LEN);
        prop_assert_eq!(svc::Frame::decode(&payload), Ok(frame));
    }

    // A burst of frames written to one stream is recovered intact even when
    // the transport delivers the bytes in tiny fragments that split length
    // prefixes and payloads at arbitrary boundaries.
    #[test]
    fn svc_streams_survive_split_reads(frames in svc_burst_strategy(), split_seed in any_u64()) {
        let mut wire = Vec::new();
        for frame in &frames {
            svc::write_frame(&mut wire, frame).unwrap();
        }
        let mut reader =
            SplitReader { bytes: &wire, pos: 0, rng: SimRng::seed_from(split_seed) };
        let mut decoded = Vec::new();
        while let Some(frame) = svc::read_decode(&mut reader).unwrap() {
            decoded.push(frame);
        }
        prop_assert_eq!(decoded, frames);
    }

    // Any strict prefix of a frame payload decodes to an error — never a
    // panic, and never a silently-successful partial parse.
    #[test]
    fn svc_truncated_frames_error_not_panic(frame in svc_frame_strategy(), cut_pick in any_u64()) {
        let payload = frame.encode();
        let cut = (cut_pick % payload.len() as u64) as usize;
        prop_assert!(svc::Frame::decode(&payload[..cut]).is_err());
        // And at the stream level: a frame whose payload stops early is an
        // UnexpectedEof, not a hang or a panic.
        let mut wire = Vec::new();
        svc::write_frame(&mut wire, &frame).unwrap();
        let short = &wire[..4 + cut];
        let err = svc::read_decode(&mut std::io::Cursor::new(short)).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    // Oversized declared lengths are rejected before any allocation: at the
    // stream level (length prefix beyond MAX_FRAME_LEN) and at the field
    // level (string/bytes length beyond the cap or the remaining payload).
    #[test]
    fn svc_oversized_lengths_are_rejected(
        excess in any_u32(),
        tail in any_u16(),
        job in any_u64(),
    ) {
        let declared = svc::MAX_FRAME_LEN as u64 + 1 + excess as u64 % (u32::MAX as u64 >> 1);
        let mut wire = (declared as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&tail.to_be_bytes());
        let err = svc::read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Field level: an ERROR frame whose detail claims more bytes than
        // the payload holds must fail with a length error.
        let mut w = vc_net::bytebuf::ByteWriter::with_capacity(16);
        w.put_u8(0x89); // K_ERROR
        w.put_u32(1 + (excess % 1024) + tail as u32);
        w.put_u64(job); // 8 bytes of "detail", fewer than declared
        prop_assert!(svc::Frame::decode(&w.into_vec()).is_err());
    }
}
