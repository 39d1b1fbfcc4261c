//! Property-based tests for the simulation substrate.

use std::collections::BinaryHeap;
use vc_sim::geom::{Point, Rect, Segment, SpatialGrid};
use vc_sim::mobility::Fleet;
use vc_sim::node::VehicleId;
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::roadnet::{NodeId, RoadNetwork};
use vc_sim::scenario::{CanyonModel, Scenario, ScenarioBuilder};
use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::prop::strategy::{any_u64, from_fn, vec, FromFn};
use vc_testkit::{prop, prop_assert, prop_assert_eq};

fn pt() -> FromFn<impl Fn(&mut SimRng) -> Point> {
    from_fn(|rng| Point::new(rng.range_f64(-1e4, 1e4), rng.range_f64(-1e4, 1e4)))
}

/// A random road network: clustered intersections with random directed
/// roads, including node-only and road-free degenerate shapes.
fn roadnet() -> FromFn<impl Fn(&mut SimRng) -> RoadNetwork> {
    from_fn(|rng| {
        let n = rng.range_u64(1, 40) as usize;
        let mut net = RoadNetwork::new();
        for _ in 0..n {
            net.add_intersection(Point::new(
                rng.range_f64(-2000.0, 2000.0),
                rng.range_f64(-2000.0, 2000.0),
            ));
        }
        if n >= 2 {
            for _ in 0..rng.range_u64(0, 80) {
                let a = rng.index(n);
                let b = rng.index(n);
                if a != b {
                    net.add_road(NodeId(a), NodeId(b), 13.9, 1);
                }
            }
        }
        net
    })
}

/// Linear-scan reference for `RoadNetwork::nearest_node`: the first
/// intersection at the least `distance_sq`, the lowest id on a tie.
fn nearest_node_linear(net: &RoadNetwork, p: Point) -> Option<NodeId> {
    net.intersections()
        .iter()
        .min_by(|a, b| a.pos.distance_sq(p).partial_cmp(&b.pos.distance_sq(p)).expect("finite"))
        .map(|i| i.id)
}

/// The least distance from `p` to a road centerline, by a linear scan
/// (`f64::INFINITY` for no road; NaN distances never win the fold).
fn nearest_road_distance_linear(net: &RoadNetwork, p: Point) -> f64 {
    net.roads()
        .iter()
        .map(|r| Segment::new(net.pos(r.from), net.pos(r.to)).distance_to(p))
        .fold(f64::INFINITY, f64::min)
}

/// A canyon scenario on a given map whose links are sampled once, at their
/// midpoint. The link from `p` to itself is clear exactly when the road
/// index finds a road within the street half-width of `p`, so
/// `Scenario::los_factor`, the one caller of that crate-private test,
/// answers it here.
struct Canyon(Scenario);

impl Canyon {
    fn on(net: &RoadNetwork) -> Self {
        let mut s = ScenarioBuilder::new().vehicles(1).urban_canyon();
        s.roadnet = net.clone();
        Canyon(s)
    }

    fn road_within(&mut self, p: Point, radius: f64) -> bool {
        self.0.canyon =
            Some(CanyonModel { street_half_width: radius, attenuation: 0.5, samples: 1 });
        self.0.los_factor(p, p) == 1.0
    }
}

/// Asserts the canyon's answer at `p` against the linear scan's least
/// distance, at `radius`, at exactly that distance and one ulp short of
/// it, at zero and at an infinite radius.
fn check_road_within(canyon: &mut Canyon, p: Point, radius: f64) -> Result<(), String> {
    let d = nearest_road_distance_linear(&canyon.0.roadnet, p);
    for r in [radius, d, d.next_down(), 0.0, f64::INFINITY] {
        if canyon.road_within(p, r) != (d <= r) {
            return Err(format!("road within {r} of {p:?}: least distance {d}"));
        }
    }
    Ok(())
}

/// Reference for `RoadNetwork::shortest_path`: Dijkstra over a heap of
/// `(cost, node)` entries compared as floats, the travel time of each road
/// recomputed at every relaxation. Cheapest first, the lower id on a tie.
fn shortest_path_reference(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    let n = net.intersections().len();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    dist[from.0] = 0.0;
    #[derive(PartialEq)]
    struct Entry(f64, NodeId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // reversed: smallest cost = greatest priority
            o.0.partial_cmp(&self.0).expect("finite cost").then(o.1.cmp(&self.1))
        }
    }
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, from));
    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u.0] {
            continue;
        }
        if u == to {
            break;
        }
        for &rid in net.outgoing(u) {
            let road = net.road(rid);
            let cost = net.road_length(rid) / road.speed_limit;
            let nd = d + cost;
            if nd < dist[road.to.0] {
                dist[road.to.0] = nd;
                prev[road.to.0] = Some(u);
                heap.push(Entry(nd, road.to));
            }
        }
    }
    if dist[to.0].is_infinite() {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while let Some(p) = prev[cur.0] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// A road network to route on.
#[derive(Debug, Clone)]
struct Routing {
    /// A highway with `cols` interchanges instead of a grid.
    highway: bool,
    cols: usize,
    rows: usize,
    /// Grid intersections moved up to 35 m off their 100 m lattice.
    jitter: bool,
    /// Each street loses one of its two directions with this chance.
    one_way: f64,
    /// Added to every coordinate of a grid: 0 or ±1e9 m on each axis.
    offset: Point,
    /// A two-node road 10 km away that nothing reaches or leaves.
    island: bool,
    /// A lone intersection this far from the grid, routed to and from.
    far: Option<f64>,
    /// Intersections added on top of grid ones, joined to them by a
    /// zero-length road and to a neighbour of theirs.
    twins: usize,
    /// An intersection a few ulps beside a grid one, joined to it by a
    /// road whose travel time an addition of any other cost absorbs.
    absorbed: bool,
    /// Draws every road's speed limit, the twins' places and the pairs.
    seed: u64,
}

fn routing() -> FromFn<impl Fn(&mut SimRng) -> Routing> {
    from_fn(|rng| {
        let highway = rng.index(6) == 0;
        let far_off = [0.0, 1e9, -1e9];
        Routing {
            highway,
            cols: rng.range_u64(2, 21) as usize,
            rows: rng.range_u64(2, 21) as usize,
            jitter: !highway && rng.chance(0.3),
            one_way: if highway { 0.0 } else { [0.0, 0.0, 0.1, 0.4][rng.index(4)] },
            offset: if rng.chance(0.2) {
                Point::new(far_off[rng.index(3)], far_off[rng.index(3)])
            } else {
                Point::new(0.0, 0.0)
            },
            island: !highway && rng.chance(0.25),
            far: (!highway && rng.chance(0.2)).then(|| 10f64.powf(rng.range_f64(4.0, 7.0))),
            twins: if highway { 0 } else { [0, 0, 0, 1, 3][rng.index(5)] },
            absorbed: !highway && rng.chance(0.1),
            seed: rng.next_u64(),
        }
    })
}

impl Routing {
    /// The network; the grid's roads each get one of three limits, two of
    /// which make every block an exact float so equal-cost routes abound
    /// (off the lattice, or one-way, far fewer do).
    fn build(&self, rng: &mut SimRng) -> RoadNetwork {
        if self.highway {
            return RoadNetwork::highway(100.0 * self.cols as f64, self.cols, 33.3);
        }
        let limits = [10.0, 13.9, 20.0];
        let mut net = RoadNetwork::new();
        let o = self.offset;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let (dx, dy) = if self.jitter {
                    (rng.range_f64(-35.0, 35.0), rng.range_f64(-35.0, 35.0))
                } else {
                    (0.0, 0.0)
                };
                net.add_intersection(Point::new(
                    o.x + c as f64 * 100.0 + dx,
                    o.y + r as f64 * 100.0 + dy,
                ));
            }
        }
        let id = |c: usize, r: usize| NodeId(r * self.cols + c);
        for r in 0..self.rows {
            for c in 0..self.cols {
                for (dc, dr) in [(1, 0), (0, 1)] {
                    if c + dc < self.cols && r + dr < self.rows {
                        let (a, b) = (id(c, r), id(c + dc, r + dr));
                        let (ab, ba) = (limits[rng.index(3)], limits[rng.index(3)]);
                        let dropped = rng.chance(self.one_way).then(|| rng.chance(0.5));
                        if dropped != Some(true) {
                            net.add_road(a, b, ab, 1);
                        }
                        if dropped != Some(false) {
                            net.add_road(b, a, ba, 1);
                        }
                    }
                }
            }
        }
        let grid = self.cols * self.rows;
        // A node beside `under`, two-way to it and on to where `under`'s
        // first road leads (when a one-way grid left it one).
        let beside = |net: &mut RoadNetwork, rng: &mut SimRng, under: NodeId, at: Point| {
            let onward = net.outgoing(under).first().map(|&road| net.road(road).to);
            let twin = net.add_intersection(at);
            net.add_two_way(under, twin, limits[rng.index(3)], 1);
            if let Some(onward) = onward {
                net.add_two_way(twin, onward, limits[rng.index(3)], 1);
            }
        };
        for _ in 0..self.twins {
            let under = NodeId(rng.index(grid));
            let at = net.pos(under);
            beside(&mut net, rng, under, at);
        }
        if self.absorbed {
            let under = NodeId(rng.index(grid));
            let p = net.pos(under);
            let at = Point::new(p.x + (p.x.abs() + 1.0) * 4.0 * f64::EPSILON, p.y);
            beside(&mut net, rng, under, at);
        }
        if self.island {
            let a = net.add_intersection(Point::new(o.x + 1e4, o.y + 1e4));
            let b = net.add_intersection(Point::new(o.x + 1e4 + 100.0, o.y + 1e4));
            net.add_two_way(a, b, 13.9, 1);
        }
        if let Some(far) = self.far {
            net.add_intersection(Point::new(o.x + far, o.y - far));
        }
        net
    }
}

/// Holds `shortest_path` to the reference on each pair: the same route or
/// the same `None`, in a vector of the same capacity (the fleet's
/// `heap_bytes` counts it).
fn check_routes(net: &RoadNetwork, pairs: &[(NodeId, NodeId)]) -> Result<(), String> {
    for &(from, to) in pairs {
        let got = net.shortest_path(from, to);
        let expect = shortest_path_reference(net, from, to);
        let capacity = |route: &Option<Vec<NodeId>>| route.as_ref().map(Vec::capacity);
        if got != expect || capacity(&got) != capacity(&expect) {
            return Err(format!(
                "{from:?} → {to:?}: {got:?} (capacity {:?}), reference {expect:?} (capacity {:?})",
                capacity(&got),
                capacity(&expect)
            ));
        }
    }
    Ok(())
}

/// The `city-secure` grid, where equal-cost routes are everywhere: 2 000
/// seeded random routes against the reference.
#[test]
fn shortest_path_matches_reference_on_the_city_grid() {
    let net = RoadNetwork::grid(57, 57, 200.0, 13.9);
    let n = net.intersections().len();
    let mut rng = SimRng::seed_from(57);
    let pairs: Vec<(NodeId, NodeId)> =
        (0..2_000).map(|_| (NodeId(rng.index(n)), NodeId(rng.index(n)))).collect();
    assert_eq!(check_routes(&net, &pairs), Ok(()));
}

/// The road index against the linear scans on fixed networks: a 6×6 grid
/// probed at random, on its corner nodes, at a block centre and far
/// outside (exact ties and the out-of-grid ring start); an 8-interchange
/// highway; a lone node; a collinear network with a zero-height bounding
/// box; an empty network. Every probe is asked again with a NaN
/// coordinate.
#[test]
fn road_index_matches_linear_on_fixed_networks() {
    let grid = RoadNetwork::grid(6, 6, 100.0, 13.9);
    let highway = RoadNetwork::highway(3000.0, 8, 33.3);
    let mut lone = RoadNetwork::new();
    let a = lone.add_intersection(Point::new(7.0, -3.0));
    let mut collinear = lone.clone();
    let b = collinear.add_intersection(Point::new(107.0, -3.0));
    collinear.add_road(a, b, 10.0, 1);

    let mut rng = SimRng::seed_from(11);
    let mut cases: Vec<(&RoadNetwork, Point)> = (0..200)
        .map(|_| (&grid, Point::new(rng.range_f64(-400.0, 900.0), rng.range_f64(-400.0, 900.0))))
        .collect();
    for p in
        [grid.pos(NodeId(0)), grid.pos(NodeId(35)), Point::new(250.0, 250.0), Point::new(1e6, -1e6)]
    {
        cases.push((&grid, p));
    }
    let mut rng = SimRng::seed_from(12);
    for _ in 0..200 {
        cases.push((
            &highway,
            Point::new(rng.range_f64(-500.0, 3500.0), rng.range_f64(-200.0, 200.0)),
        ));
    }
    cases.push((&lone, Point::new(1e5, 1e5)));
    cases.push((&lone, Point::new(0.0, 0.0)));
    cases.push((&collinear, Point::new(57.0, 40.0)));
    let empty = RoadNetwork::new();
    cases.push((&empty, Point::new(0.0, 0.0)));

    for (net, p) in cases {
        assert_eq!(net.nearest_node(p), nearest_node_linear(net, p), "node @ {p:?}");
        let mut canyon = Canyon::on(net);
        for q in [p, Point::new(f64::NAN, p.y), Point::new(p.x, f64::NAN)] {
            check_road_within(&mut canyon, q, 18.0).unwrap();
        }
    }
}

/// A random street map and a probe: a grid of 1–12 × 1–12 blocks of
/// 20–300 m or a highway of 2–10 interchanges over 200–5 000 m, a point up
/// to 400 m outside the map (a NaN coordinate one time in eight), and a
/// street half-width of 0–60 m.
fn street_probe() -> FromFn<impl Fn(&mut SimRng) -> (RoadNetwork, Point, f64)> {
    from_fn(|rng| {
        let net = if rng.chance(0.5) {
            let (cols, rows) = (rng.range_u64(1, 13) as usize, rng.range_u64(1, 13) as usize);
            RoadNetwork::grid(cols, rows, rng.range_f64(20.0, 300.0), 13.9)
        } else {
            RoadNetwork::highway(rng.range_f64(200.0, 5000.0), rng.range_u64(2, 11) as usize, 33.3)
        };
        let (mut lo, mut hi) = (Point::new(f64::MAX, f64::MAX), Point::new(f64::MIN, f64::MIN));
        for i in net.intersections() {
            lo = Point::new(lo.x.min(i.pos.x), lo.y.min(i.pos.y));
            hi = Point::new(hi.x.max(i.pos.x), hi.y.max(i.pos.y));
        }
        let mut p = Point::new(
            rng.range_f64(lo.x - 400.0, hi.x + 400.0),
            rng.range_f64(lo.y - 400.0, hi.y + 400.0),
        );
        if rng.index(8) == 0 {
            p.x = f64::NAN;
        }
        (net, p, rng.range_f64(0.0, 60.0))
    })
}

/// Row `i` of the neighbor table by definition: the ascending ids of the
/// online others strictly within a finite, positive `range_m` of an online
/// vehicle `i` — one pass over the whole fleet, the oracle every
/// `NeighborTable` test compares against.
fn quadratic_row(positions: &[Point], online: &[bool], range_m: f64, i: usize) -> Vec<VehicleId> {
    let reaches = range_m.is_finite() && range_m > 0.0 && online[i];
    (0..positions.len())
        .filter(|&j| {
            j != i
                && reaches
                && online[j]
                && positions[j].distance_sq(positions[i]) < range_m * range_m
        })
        .map(|j| VehicleId(j as u32))
        .collect()
}

/// Holds row `i` of `table` to [`quadratic_row`] in everything the table
/// answers about it: the ascending `iter`, `len`, `is_empty` and `degree`,
/// and `contains` for each member and, when `every_id` is set, for every id
/// of the fleet and the one past it. Returns the row's length.
fn check_row(
    table: &NeighborTable,
    positions: &[Point],
    online: &[bool],
    range_m: f64,
    i: usize,
    every_id: bool,
) -> Result<usize, String> {
    let id = VehicleId(i as u32);
    let expect = quadratic_row(positions, online, range_m, i);
    let row = table.of(id);
    let got: Vec<VehicleId> = row.iter().collect();
    if got != expect {
        return Err(format!("row {i} is {got:?}, not {expect:?}"));
    }
    let lens = (row.len(), row.is_empty(), table.degree(id));
    if lens != (expect.len(), expect.is_empty(), expect.len()) {
        return Err(format!("row {i}: (len, is_empty, degree) {lens:?} for {} ids", expect.len()));
    }
    let ids = if every_id { positions.len() as u32 + 1 } else { 0 };
    let mut members = expect.iter().peekable();
    for j in (0..ids).map(VehicleId) {
        if row.contains(j) != members.next_if_eq(&&j).is_some() {
            return Err(format!("row {i} answers contains({}) wrong", j.0));
        }
    }
    if let Some(j) = expect.iter().find(|&&j| !row.contains(j)) {
        return Err(format!("row {i} does not contain its member {}", j.0));
    }
    Ok(expect.len())
}

/// [`check_row`] for every row, then `len` and `mean_degree` over the
/// table. Returns the number of neighbors summed over the rows. Past 1 000
/// ids, `contains` is put to every id on one row in 16 only: the full
/// quadratic sweep would outlast the rest of the property.
fn check_rows(
    table: &NeighborTable,
    positions: &[Point],
    online: &[bool],
    range_m: f64,
) -> Result<usize, String> {
    let n = positions.len();
    if table.len() != n {
        return Err(format!("{} rows for {n} vehicles", table.len()));
    }
    let mut total = 0;
    for i in 0..n {
        total += check_row(table, positions, online, range_m, i, n <= 1_000 || i % 16 == 0)?;
    }
    let mean = if n == 0 { 0.0 } else { total as f64 / n as f64 };
    if table.mean_degree() != mean {
        return Err(format!("mean degree {} for {total} links over {n}", table.mean_degree()));
    }
    Ok(total)
}

/// A fleet snapshot for the neighbor-table differential test, drawn from
/// the layouts a cell list gets wrong first; the grid's cell is 100 m.
#[derive(Debug, Clone)]
struct Snapshot {
    positions: Vec<Point>,
    online: Vec<bool>,
    range_m: f64,
}

fn snapshot() -> FromFn<impl Fn(&mut SimRng) -> Snapshot> {
    from_fn(|rng| {
        // Empty and single-vehicle fleets come up one time in four. Up to 64
        // ids a rebuild tests all pairs into one-word bit rows and never
        // touches the grid; from 65 it goes through the cell list, where ids
        // sit on both sides of a word boundary and whether a row is long
        // enough for the ordering bitmap or is sorted by comparison depends
        // on the layout and the range. One draw in ten is a crowd: 2, 63 or
        // 64 vehicles, all online and all in range of each other, so every
        // row is full and the last one sets bit 63.
        let pick = rng.index(10);
        let crowd = pick == 5;
        let n = match pick {
            0 => 0,
            1 => 1,
            2 | 3 => [64, 65, 127, 128, 129, 192, 257][rng.index(7)],
            4 => rng.range_u64(2_000, 2_400) as usize,
            5 => [2, 63, 64][rng.index(3)],
            _ => rng.range_u64(2, 60) as usize,
        };
        // A fleet of thousands is laid out sparse: four or five vehicles
        // within 10 m of each of n / 4 sites 300 m apart, so nobody has
        // more than four neighbors and no row reaches the bitmap.
        let layout = if n >= 2_000 {
            4
        } else if crowd {
            0
        } else {
            rng.index(4)
        };
        let mut positions: Vec<Point> = (0..n)
            .map(|i| match layout {
                4 => {
                    let site = i % (n / 4);
                    Point::new(
                        300.0 * (site % 40) as f64 + rng.range_f64(0.0, 7.0),
                        300.0 * (site / 40) as f64 + rng.range_f64(0.0, 7.0),
                    )
                }
                // Everyone inside one cell.
                0 => Point::new(rng.range_f64(10.0, 90.0), rng.range_f64(10.0, 90.0)),
                // Exactly on cell corners, either side of the origin.
                1 => Point::new(
                    100.0 * rng.range_u64(0, 8) as f64 - 400.0,
                    100.0 * rng.range_u64(0, 8) as f64 - 400.0,
                ),
                // All-negative coordinates.
                2 => Point::new(rng.range_f64(-900.0, -100.0), rng.range_f64(-900.0, -100.0)),
                _ => Point::new(rng.range_f64(-500.0, 500.0), rng.range_f64(-500.0, 500.0)),
            })
            .collect();
        if crowd {
            return Snapshot { positions, online: vec![true; n], range_m: 250.0 };
        }
        if n > 0 {
            // One vehicle 10⁹ m away on either side, and one with no fix.
            match rng.index(6) {
                0 => positions[rng.index(n)].x = 1e9,
                1 => positions[rng.index(n)].y = -1e9,
                2 => positions[rng.index(n)].x = f64::NAN,
                _ => {}
            }
        }
        let online = (0..n).map(|_| rng.chance(0.8)).collect();
        // Far below, just below, exactly, and far above the cell size; one
        // draw in eight is a radius no channel should have, for which every
        // row is empty at every fleet size.
        let ranges = if layout == 4 {
            &[99.0, 100.0, 250.0][..]
        } else {
            &[3.0, 99.0, 100.0, 250.0, 1200.0]
        };
        let range_m = if rng.index(8) == 0 {
            [0.0, -5.0, f64::NAN, f64::INFINITY][rng.index(4)]
        } else {
            ranges[rng.index(ranges.len())]
        };
        Snapshot { positions, online, range_m }
    })
}

/// What befalls a moving fleet at step `at` of a [`Journey`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Nothing,
    /// Vehicle 3 jumps 5 km.
    Teleport,
    /// The channel range goes from 250 m to 300 m.
    Range,
    /// A vehicle joins the id space, 100 m from vehicle 1.
    Grow,
    /// The last id leaves it.
    Shrink,
    /// Vehicle 5 reports this — NaN or ±∞ — as its x for three steps.
    LoseFix(f64),
}

/// One `NeighborTable` rebuilt over a fleet that moves a little between
/// rebuilds, which is when a rebuild may refilter remembered candidates
/// instead of scanning. Every vehicle moves in a straight line, so its
/// distance from any earlier step is the step count times its speed, and
/// vehicle 1 moves at exactly `speed`, the fastest.
#[derive(Debug, Clone)]
struct Journey {
    seed: u64,
    n: usize,
    /// Everyone in one 300 m box (every row dense in the id space) instead
    /// of pairs 1.5 km from the next pair.
    dense: bool,
    /// Added to every x and subtracted from every y.
    offset: f64,
    /// Meters per step.
    speed: f64,
    steps: usize,
    flip_online: bool,
    event: Event,
    at: usize,
}

fn journey() -> FromFn<impl Fn(&mut SimRng) -> Journey> {
    from_fn(|rng| {
        let n = match rng.index(8) {
            0 => 3_000,
            1 | 2 => 64,
            3 | 4 => 65,
            _ => rng.range_u64(66, 400) as usize,
        };
        // The quadratic scan of 3 000 vehicles is the slow part.
        let steps = rng.range_u64(12, if n == 3_000 { 17 } else { 41 }) as usize;
        Journey {
            seed: rng.next_u64(),
            n,
            dense: n < 3_000 && rng.index(5) == 0,
            offset: [0.0, 0.0, 1e9, -1e9][rng.index(4)],
            // Multiples of these stay clear of the 25 m (less 1 mm) a
            // vehicle may move before candidates are retired: 7.99 is the
            // urban fleet's tick, 13 lasts one refilter, 30 none.
            speed: [0.0, 2.0, 3.3, 5.5, 7.99, 7.99, 13.0, 30.0][rng.index(8)],
            steps,
            flip_online: rng.chance(0.5),
            event: match rng.index(8) {
                0 => Event::Teleport,
                1 => Event::Range,
                2 => Event::Grow,
                3 => Event::Shrink,
                4 => Event::LoseFix([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.index(3)]),
                _ => Event::Nothing,
            },
            at: rng.range_u64(3, steps as u64) as usize,
        }
    })
}

impl Journey {
    /// Where every vehicle starts and how far it moves per step.
    fn launch(&self, rng: &mut SimRng) -> (Vec<Point>, Vec<Point>) {
        let mut starts = Vec::with_capacity(self.n);
        let mut moves = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let (start, heading) = if self.dense {
                let turn = rng.range_f64(0.0, std::f64::consts::TAU);
                (
                    Point::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0)),
                    Point::new(turn.cos(), turn.sin()),
                )
            } else {
                // Pairs head-on or tail to tail along x, starting 200 to
                // 400 m apart: across the range and across the skin beyond
                // it, in both directions.
                let site = i / 2;
                let gap = if i % 2 == 0 { 0.0 } else { rng.range_f64(200.0, 400.0) };
                (
                    Point::new(
                        1_500.0 * (site % 64) as f64 + gap,
                        1_500.0 * (site / 64) as f64 + rng.range_f64(0.0, 5.0),
                    ),
                    Point::new(if rng.chance(0.5) { 1.0 } else { -1.0 }, 0.0),
                )
            };
            let pace = if i == 1 { self.speed } else { self.speed * rng.range_f64(0.0, 1.0) };
            starts.push(Point::new(start.x + self.offset, start.y - self.offset));
            moves.push(heading * pace);
        }
        if self.offset == 0.0 {
            // Parked a subnormal away from the origin.
            starts[0] = Point::new(5e-324, -5e-324);
            moves[0] = Point::new(0.0, 0.0);
        }
        (starts, moves)
    }
}

/// One `NeighborTable` over a fleet packed into a 300 m box (dense rows),
/// then spread over a 400 m lattice (no neighbors), then packed again: a
/// rebuild after a dense one is a matrix scan, so the matrix path is
/// entered, left and re-entered. Id counts sit on and either side of the
/// 64-id word edges.
#[derive(Debug, Clone)]
struct Regrouping {
    seed: u64,
    n: usize,
    /// Steps packed, spread, then packed again.
    phases: [usize; 3],
    flip_online: bool,
    /// What vehicle 5 reports as its x for the second step of each phase.
    lost_fix: f64,
    /// A range no channel has, for the second step of the last phase.
    bad_range: f64,
    /// The grid's cell: the 250 m range reaches one cell or three.
    cell_m: f64,
}

fn regrouping() -> FromFn<impl Fn(&mut SimRng) -> Regrouping> {
    from_fn(|rng| Regrouping {
        seed: rng.next_u64(),
        n: [65, 127, 128, 129, 1_000][rng.index(5)],
        phases: [
            rng.range_u64(2, 5) as usize,
            rng.range_u64(1, 4) as usize,
            rng.range_u64(4, 7) as usize,
        ],
        flip_online: rng.chance(0.5),
        lost_fix: [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.index(3)],
        bad_range: [0.0, -5.0, f64::NAN, f64::INFINITY][rng.index(4)],
        cell_m: [100.0, 250.0][rng.index(2)],
    })
}

prop! {
    #![cases(128)]

    // ---- time ----

    #[test]
    fn time_add_sub_roundtrip(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_since_never_panics(a in any_u64(), b in any_u64()) {
        let x = SimTime::from_micros(a);
        let y = SimTime::from_micros(b);
        let d = x.saturating_since(y);
        if a >= b {
            prop_assert_eq!(d.as_micros(), a - b);
        } else {
            prop_assert_eq!(d, SimDuration::ZERO);
        }
    }

    // ---- geometry ----

    #[test]
    fn distance_is_a_metric(a in pt(), b in pt(), c in pt()) {
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9, "symmetry");
        prop_assert!(a.distance(a) < 1e-12, "identity");
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9, "triangle");
    }

    #[test]
    fn normalized_is_unit_or_zero(a in pt()) {
        let n = a.normalized().norm();
        prop_assert!(n < 1e-12 || (n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn segment_projection_is_closest(a in pt(), b in pt(), p in pt(), t in 0.0f64..1.0) {
        let seg = Segment::new(a, b);
        let best = seg.distance_to(p);
        let other = seg.at(t).distance(p);
        prop_assert!(best <= other + 1e-9);
    }

    #[test]
    fn rect_clamp_is_inside(a in pt(), b in pt(), p in pt()) {
        let r = Rect::new(a, b);
        prop_assert!(r.contains(r.clamp(p)));
    }

    // ---- spatial grid vs brute force ----

    #[test]
    fn grid_matches_brute_force(points in vec(pt(), 1..80),
                                center in pt(), radius in 1.0f64..500.0) {
        let mut grid = SpatialGrid::new(100.0);
        grid.rebuild(points.iter().copied().enumerate());
        let mut got = grid.within(center, radius);
        got.sort();
        let mut expect: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(center) < radius)
            .map(|(i, _)| i)
            .collect();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    // How `NeighborTable::rebuild` finds the rows must be invisible: per
    // vehicle the ascending ids of the online others strictly within range,
    // exactly what the O(n²) scan finds, whether the fleet took the bit rows
    // (at most 64 ids) or the cell list. A NaN position fails every
    // distance test, so it is never a neighbor and has none; an outlier
    // 10⁹ m away must not cost memory; a radius that is not finite and
    // positive reaches nobody.
    #[test]
    fn neighbor_table_rebuild_matches_quadratic_scan(s in snapshot()) {
        let n = s.positions.len();
        let mut grid = SpatialGrid::new(100.0);
        let mut table = NeighborTable::new();
        // A grid and table still holding another world.
        table.rebuild(&mut grid, &[Point::new(7.0, 7.0), Point::new(8.0, 8.0)], &[true, true], 50.0);
        table.rebuild(&mut grid, &s.positions, &s.online, s.range_m);
        let checked = check_rows(&table, &s.positions, &s.online, s.range_m);
        prop_assert_eq!(checked.err(), None);
        prop_assert!(
            grid.heap_bytes() <= 64 * n as u64 + 1024,
            "{} grid bytes for {} vehicles", grid.heap_bytes(), n
        );
        if n <= 64 {
            // The same vehicles in a 65-id space (the added ids offline) go
            // through the cell list: the two paths, row against row.
            let mut positions = s.positions.clone();
            positions.resize(65, Point::new(50.0, 50.0));
            let mut online = s.online.clone();
            online.resize(65, false);
            let mut padded = NeighborTable::new();
            padded.rebuild(&mut grid, &positions, &online, s.range_m);
            for i in 0..n {
                let id = VehicleId(i as u32);
                prop_assert!(table.of(id).iter().eq(padded.of(id).iter()), "row {}", i);
            }
            for i in n..65 {
                prop_assert!(padded.of(VehicleId(i as u32)).is_empty());
            }
        }
    }

    // ---- road index vs linear scan ----

    // The spatial index must be invisible: same nearest node (ties included)
    // and bit-identical nearest-road distances as the linear scans above.
    // Query points range far beyond the network bounding box to stress the
    // expanding-ring start and termination.
    #[test]
    fn road_index_nearest_node_matches_linear(net in roadnet(), p in pt()) {
        prop_assert_eq!(net.nearest_node(p), nearest_node_linear(&net, p));
    }

    // The canyon's road test (a box of index cells, out at the first road
    // in reach) says what the linear scan's least distance says: on random
    // networks probed far beyond their extent, and on grids and highways
    // probed around them.
    #[test]
    fn road_index_road_within_matches_linear(net in roadnet(), p in pt(), radius in 0.0f64..3000.0) {
        prop_assert_eq!(check_road_within(&mut Canyon::on(&net), p, radius), Ok(()));
    }

    #[test]
    fn road_index_road_within_matches_linear_on_street_maps(probe in street_probe()) {
        let (net, p, radius) = probe;
        prop_assert_eq!(check_road_within(&mut Canyon::on(&net), p, radius), Ok(()));
    }

    // ---- shortest path vs the float-keyed reference ----

    // Random pairs, one in eight from a node to itself: on grids with tied
    // and untied costs, on and off the lattice, with one-way streets and
    // ±1e9 m offsets; on highways; across a zero-length road between
    // coincident intersections and a road too short to survive an
    // addition; into an island and a lone node nothing reaches or leaves.
    #[test]
    fn shortest_path_matches_reference(case in routing()) {
        let mut rng = SimRng::seed_from(case.seed);
        let net = case.build(&mut rng);
        let n = net.intersections().len();
        let mut pairs: Vec<(NodeId, NodeId)> = (0..24)
            .map(|_| {
                let from = NodeId(rng.index(n));
                (from, if rng.index(8) == 0 { from } else { NodeId(rng.index(n)) })
            })
            .collect();
        if case.island || case.far.is_some() {
            // The last node is the lone one's, or the island's.
            pairs.extend([(NodeId(0), NodeId(n - 1)), (NodeId(n - 1), NodeId(0))]);
            prop_assert!(shortest_path_reference(&net, NodeId(0), NodeId(n - 1)).is_none());
        }
        prop_assert_eq!(check_routes(&net, &pairs), Ok(()));
    }

    // ---- rng ----

    #[test]
    fn rng_range_respects_bounds(seed in any_u64(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let x = rng.range_u64(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }

    #[test]
    fn rng_shuffle_is_permutation(seed in any_u64(), n in 1usize..50) {
        let mut rng = SimRng::seed_from(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    // ---- sharded mobility determinism ----

    #[test]
    fn sharded_fleet_step_is_bitwise_equal_to_sequential(
        seed in any_u64(),
        regime in 0u8..3,
        shards in 2usize..9,
        n in 520usize..800,
        ticks in 1usize..5,
    ) {
        // Sizes start past 512 (one shard per 512 vehicles) so the step fans
        // out; every (regime, seed, shard count) must reproduce the
        // sequential trajectory bit for bit.
        let net = RoadNetwork::grid(5, 5, 120.0, 13.9);
        let mk = || {
            let mut rng = SimRng::seed_from(seed);
            match regime {
                0 => Fleet::urban(&net, n, &mut rng),
                1 => Fleet::highway(3_000.0, n, &net, &mut rng),
                _ => Fleet::parking_lot(Point::new(0.0, 0.0), n, &net, &mut rng),
            }
        };
        let mut seq = mk();
        let mut par = mk();
        for _ in 0..ticks {
            seq.step_sharded(0.5, &net, 1);
            par.step_sharded(0.5, &net, shards);
        }
        for i in 0..n {
            prop_assert_eq!(seq.positions()[i].x.to_bits(), par.positions()[i].x.to_bits());
            prop_assert_eq!(seq.positions()[i].y.to_bits(), par.positions()[i].y.to_bits());
            prop_assert_eq!(seq.velocities()[i].x.to_bits(), par.velocities()[i].x.to_bits());
            prop_assert_eq!(seq.velocities()[i].y.to_bits(), par.velocities()[i].y.to_bits());
        }
    }
}

// ---- one table over a moving fleet vs the quadratic scan ----

prop! {
    #![cases(64)]

    // After every step the reused table must hold what the O(n²) scan
    // finds, whichever way the rebuild found it — and which way that was
    // is asserted too, through `scans()`, against the policy in
    // `NeighborTable::rebuild`'s documentation restated here on plain
    // distances: a differential that only ever scanned would pass vacuously.
    #[test]
    fn reused_table_over_a_moving_fleet_matches_quadratic_scan(j in journey()) {
        let mut rng = SimRng::seed_from(j.seed);
        let (mut starts, mut moves) = j.launch(&mut rng);
        let mut online: Vec<bool> = (0..j.n).map(|_| rng.chance(0.7)).collect();
        let mut range_m = 250.0;
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(100.0);
        // The policy's state: what the last scan remembered, whether it
        // gathered candidates, whether they have served.
        let mut seen: Option<(Vec<Point>, f64)> = None;
        let (mut gathered, mut used) = (false, false);
        let mut refilters = 0;
        for step in 0..j.steps {
            if step == j.at {
                match j.event {
                    Event::Teleport => starts[3] = starts[3] + Point::new(5_000.0, 5_000.0),
                    Event::Range => range_m = 300.0,
                    Event::Grow => {
                        starts.push(starts[1] + moves[1] * step as f64 + Point::new(0.0, 100.0));
                        moves.push(Point::new(0.0, 0.0));
                        online.push(true);
                    }
                    Event::Shrink => {
                        starts.pop();
                        moves.pop();
                        online.pop();
                    }
                    Event::Nothing | Event::LoseFix(_) => {}
                }
            }
            let n = starts.len();
            let mut positions: Vec<Point> =
                starts.iter().zip(&moves).map(|(&p, &v)| p + v * step as f64).collect();
            if let Event::LoseFix(x) = j.event {
                if (j.at..j.at + 3).contains(&step) {
                    positions[5].x = x;
                }
            }
            if j.flip_online {
                for flag in online.iter_mut() {
                    *flag ^= rng.chance(0.1);
                }
            }

            let before = table.scans();
            table.rebuild(&mut grid, &positions, &online, range_m);
            let scanned = table.scans() - before;
            prop_assert!(scanned <= 1);
            let checked = check_rows(&table, &positions, &online, range_m);
            prop_assert_eq!(checked.as_ref().err(), None, "step {}", step);
            let total = checked.unwrap_or_default();

            let expect_scan = if n <= 64 {
                true
            } else {
                let drift = match &seen {
                    // A vehicle without a fix, then or now, is infinitely far.
                    Some((at_scan, r)) if at_scan.len() == n && *r == range_m => Some(
                        positions
                            .iter()
                            .zip(at_scan)
                            .map(|(p, q)| p.distance(*q))
                            .fold(0.0, |worst, d| if d.is_nan() { f64::INFINITY } else { d.max(worst) }),
                    ),
                    _ => None,
                };
                prop_assert!(
                    !drift.is_some_and(|d| d > 24.5 && d <= 25.0),
                    "step {}: a drift of {:?} m is too close to the limit to call", step, drift
                );
                let near = drift.is_some_and(|d| d <= 24.5);
                let refilter = near && gathered;
                if refilter {
                    used = true;
                } else if near || (drift.is_some() && gathered && used) {
                    seen = Some((positions.clone(), range_m));
                    (gathered, used) = (true, false);
                } else {
                    seen = None;
                    gathered = false;
                }
                let dense = total >= n * n.div_ceil(64);
                if dense {
                    seen = None;
                    gathered = false;
                } else if seen.is_none() {
                    seen = Some((positions.clone(), range_m));
                }
                !refilter
            };
            prop_assert_eq!(scanned == 1, expect_scan, "step {}", step);
            refilters += 1 - scanned;
        }
        if !j.dense && j.n > 65 && j.speed <= 13.0 {
            prop_assert!(refilters >= 3, "only {} refilters", refilters);
        }
        if j.dense || j.n == 64 && j.event != Event::Grow {
            prop_assert_eq!(refilters, 0);
        }
    }

    // The same differential through the matrix path. Which rebuilds took it
    // follows from the rows before them, restated on the oracle's totals: a
    // rebuild after a dense one is a matrix scan. Packed, that is every
    // step but the first; the first spread step is one too (it finds no
    // neighbors, so the next is not); packed again, every step but the
    // first and the one after the bad range, which empties every row.
    #[test]
    fn matrix_scan_entered_left_and_reentered_matches_quadratic_scan(g in regrouping()) {
        let mut rng = SimRng::seed_from(g.seed);
        let n = g.n;
        let side = (n as f64).sqrt().ceil() as usize;
        let packed: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0)))
            .collect();
        let spread: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    400.0 * (i % side) as f64 + rng.range_f64(0.0, 5.0),
                    400.0 * (i / side) as f64 + rng.range_f64(0.0, 5.0),
                )
            })
            .collect();
        let mut online: Vec<bool> = (0..n).map(|_| rng.chance(0.8)).collect();
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(g.cell_m);
        let mut dense_before = false;
        let mut matrix_scans = [0; 3];
        for (phase, &steps) in g.phases.iter().enumerate() {
            let base = if phase == 1 { &spread } else { &packed };
            for step in 0..steps {
                let mut positions: Vec<Point> = base
                    .iter()
                    .map(|&p| p + Point::new(rng.range_f64(-3.0, 3.0), rng.range_f64(-3.0, 3.0)))
                    .collect();
                if step == 1 {
                    positions[5].x = g.lost_fix;
                }
                if g.flip_online {
                    for flag in online.iter_mut() {
                        *flag ^= rng.chance(0.1);
                    }
                }
                let range_m = if phase == 2 && step == 1 { g.bad_range } else { 250.0 };
                let before = table.scans();
                table.rebuild(&mut grid, &positions, &online, range_m);
                let checked = check_rows(&table, &positions, &online, range_m);
                prop_assert_eq!(checked.as_ref().err(), None, "phase {} step {}", phase, step);
                let total = checked.unwrap_or_default();
                if dense_before {
                    prop_assert_eq!(table.scans(), before + 1, "a dense table is always scanned");
                    matrix_scans[phase] += 1;
                }
                dense_before = total >= n * n.div_ceil(64);
            }
        }
        prop_assert_eq!(matrix_scans, [g.phases[0] - 1, 1, g.phases[2] - 2]);
    }
}

/// Candidate ids are 16 bits wide: a fleet of 65 536 ids is the largest
/// that refilters, one of 65 537 scans every time, and both hold what a
/// table built from nothing holds, degrees and mean degree included — and,
/// for a sample of rows, everything [`check_row`] asks of the quadratic
/// scan.
#[test]
fn the_last_fleet_with_a_skin_and_the_first_without() {
    let mut rng = SimRng::seed_from(65_536);
    let start: Vec<Point> = (0..65_537)
        .map(|i| {
            Point::new(
                140.0 * (i % 256) as f64 + rng.range_f64(0.0, 40.0),
                140.0 * (i / 256) as f64 + rng.range_f64(0.0, 40.0),
            )
        })
        .collect();
    let online: Vec<bool> = (0..65_537).map(|i| i % 13 != 0).collect();
    for (n, expect_scans) in [(65_536, 2), (65_537, 4)] {
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(300.0);
        for step in 0..4 {
            let positions: Vec<Point> =
                start[..n].iter().map(|&p| p + Point::new(5.0, -3.0) * step as f64).collect();
            table.rebuild(&mut grid, &positions, &online[..n], 300.0);
            let fresh = NeighborTable::build(&positions, &online[..n], 300.0);
            for id in (0..n as u32).map(VehicleId) {
                assert!(table.of(id).iter().eq(fresh.of(id).iter()), "row {}", id.0);
                assert_eq!(table.degree(id), fresh.degree(id), "row {}", id.0);
            }
            assert_eq!(table.mean_degree(), fresh.mean_degree());
            for i in [0, 1, 255, 256, 32_767, 32_768, 65_279, 65_534, n - 1] {
                check_row(&table, &positions, &online[..n], 300.0, i, true).unwrap();
            }
        }
        assert_eq!(table.scans(), expect_scans, "{n} ids");
    }
}
