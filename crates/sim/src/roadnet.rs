//! Road networks: intersections connected by directed road segments.
//!
//! Synthetic topologies stand in for the proprietary city traces the VANET
//! literature evaluates on (see DESIGN.md substitutions): an urban grid, a
//! highway corridor, and helpers for path finding that the mobility models
//! drive over.

use crate::geom::{Point, Segment};
use crate::rng::SimRng;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Identifier of an intersection in a [`RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a directed road segment in a [`RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoadId(pub usize);

/// An intersection: a named point where roads meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Intersection {
    /// This intersection's id.
    pub id: NodeId,
    /// Position in meters.
    pub pos: Point,
}

/// A directed road segment between two intersections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Road {
    /// This road's id.
    pub id: RoadId,
    /// Start intersection.
    pub from: NodeId,
    /// End intersection.
    pub to: NodeId,
    /// Free-flow speed limit, m/s.
    pub speed_limit: f64,
    /// Number of lanes in this direction.
    pub lanes: u8,
}

/// A directed graph of intersections and roads.
///
/// ```
/// use vc_sim::roadnet::RoadNetwork;
/// let net = RoadNetwork::grid(3, 3, 100.0, 13.9);
/// assert_eq!(net.intersections().len(), 9);
/// let path = net.shortest_path(net.intersections()[0].id, net.intersections()[8].id).unwrap();
/// assert_eq!(path.first(), Some(&net.intersections()[0].id));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoadNetwork {
    intersections: Vec<Intersection>,
    roads: Vec<Road>,
    /// Lazily built outgoing-road lists; invalidated by any mutation.
    edges: OnceLock<Edges>,
    /// Lazily built spatial index over intersections and segments;
    /// invalidated by any mutation.
    index: OnceLock<RoadIndex>,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        RoadNetwork::default()
    }

    /// Deep heap bytes of the graph and (when built) its lazy spatial
    /// index, by capacity. Deterministic for identically constructed and
    /// identically queried networks.
    pub fn heap_bytes(&self) -> u64 {
        (self.intersections.capacity() * std::mem::size_of::<Intersection>()
            + self.roads.capacity() * std::mem::size_of::<Road>()) as u64
            + self.edges.get().map_or(0, Edges::heap_bytes)
            + self.index.get().map_or(0, RoadIndex::heap_bytes)
    }

    /// Adds an intersection at `pos` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is NaN or infinite.
    pub fn add_intersection(&mut self, pos: Point) -> NodeId {
        assert!(pos.x.is_finite() && pos.y.is_finite(), "intersection position must be finite");
        self.edges.take();
        self.index.take();
        let id = NodeId(self.intersections.len());
        self.intersections.push(Intersection { id, pos });
        id
    }

    /// Adds a one-way road and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist, the endpoints coincide, the
    /// speed limit is not positive, or `lanes` is zero.
    pub fn add_road(&mut self, from: NodeId, to: NodeId, speed_limit: f64, lanes: u8) -> RoadId {
        self.edges.take();
        self.index.take();
        assert!(from.0 < self.intersections.len(), "unknown from-node");
        assert!(to.0 < self.intersections.len(), "unknown to-node");
        assert_ne!(from, to, "self-loop road");
        assert!(speed_limit > 0.0, "speed limit must be positive");
        assert!(lanes > 0, "road needs at least one lane");
        let id = RoadId(self.roads.len());
        self.roads.push(Road { id, from, to, speed_limit, lanes });
        id
    }

    /// Adds a two-way road (one segment per direction); returns both ids.
    pub fn add_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        speed_limit: f64,
        lanes: u8,
    ) -> (RoadId, RoadId) {
        (self.add_road(a, b, speed_limit, lanes), self.add_road(b, a, speed_limit, lanes))
    }

    /// All intersections, indexed by id.
    pub fn intersections(&self) -> &[Intersection] {
        &self.intersections
    }

    /// All roads, indexed by id.
    pub fn roads(&self) -> &[Road] {
        &self.roads
    }

    /// Position of an intersection.
    pub fn pos(&self, node: NodeId) -> Point {
        self.intersections[node.0].pos
    }

    /// The road record for an id.
    pub fn road(&self, id: RoadId) -> &Road {
        &self.roads[id.0]
    }

    /// Length of a road in meters.
    pub fn road_length(&self, id: RoadId) -> f64 {
        let r = self.road(id);
        self.pos(r.from).distance(self.pos(r.to))
    }

    /// Outgoing roads from a node, in id order.
    pub fn outgoing(&self, node: NodeId) -> &[RoadId] {
        let edges = self.edges();
        &edges.roads[edges.span(node.0)]
    }

    /// The intersection nearest to `p` (None for an empty network).
    ///
    /// Served by the lazily built `RoadIndex`; bit-for-bit equal to a
    /// linear `min_by` over [`Self::intersections`] (same `distance_sq`
    /// comparisons, ties broken toward the lowest id exactly as `min_by`
    /// keeps the first minimal element).
    pub fn nearest_node(&self, p: Point) -> Option<NodeId> {
        if self.intersections.is_empty() {
            return None;
        }
        let idx = self.index();
        let (qx, qy) = idx.cell_of(p);
        let (k0, kmax) = idx.ring_bounds(qx, qy);
        let mut best: Option<(f64, NodeId)> = None;
        for k in k0..=kmax {
            if let Some((bd2, _)) = best {
                // Every point in a ring-k cell is at least (k-1) cell widths
                // from `p`; keep one extra cell of slack so floating-point
                // rounding can never skip a candidate or an exact tie.
                let lb = ((k - 2).max(0)) as f64 * idx.cell_size;
                if lb * lb > bd2 {
                    break;
                }
            }
            idx.for_each_ring_bucket(qx, qy, k, |bucket| {
                for &ni in &idx.node_cells[bucket] {
                    let node = &self.intersections[ni as usize];
                    let d2 = node.pos.distance_sq(p);
                    match best {
                        None => best = Some((d2, node.id)),
                        Some((bd2, bid)) => {
                            if d2 < bd2 || (d2 == bd2 && node.id < bid) {
                                best = Some((d2, node.id));
                            }
                        }
                    }
                }
            });
        }
        best.map(|(_, id)| id)
    }

    /// The lazily built outgoing-road lists.
    fn edges(&self) -> &Edges {
        self.edges.get_or_init(|| Edges::build(self))
    }

    /// The lazily built spatial index (field and method share the name; Rust
    /// keeps fields and methods in separate namespaces).
    fn index(&self) -> &RoadIndex {
        self.index.get_or_init(|| RoadIndex::build(&self.intersections, &self.roads))
    }

    /// A uniformly random intersection (None for an empty network).
    pub(crate) fn random_node(&self, rng: &mut SimRng) -> Option<NodeId> {
        if self.intersections.is_empty() {
            None
        } else {
            Some(NodeId(rng.index(self.intersections.len())))
        }
    }

    /// Shortest path by travel time. Returns the node sequence including
    /// both endpoints, or `None` when unreachable. Of several equally fast
    /// routes the same one always comes out: the one a Dijkstra that
    /// settles nodes cheapest first, the lower id on a cost tie, builds.
    ///
    /// The search is best-first on cost plus a lower bound on the rest of
    /// the trip (the straight line to `to` at the fastest speed limit, less
    /// a small margin), and on an equal-cost relaxation it moves a node's
    /// predecessor to the tying node that Dijkstra would settle first; on a
    /// network where the bound cannot be trusted under float rounding it
    /// is that Dijkstra. DESIGN.md §5 "Path planning" argues why both give
    /// the same route. Buffers are kept per thread between calls.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let edges = self.edges();
        SEARCH.with(|search| search.borrow_mut().route(self, edges, from, to))
    }

    /// The road from `a` directly to `b`, if one exists.
    pub(crate) fn road_between(&self, a: NodeId, b: NodeId) -> Option<RoadId> {
        let edges = self.edges();
        let span = edges.span(a.0);
        let k = edges.hops[span.clone()].iter().position(|&(to, _)| to == b.0)?;
        Some(edges.roads[span.start + k])
    }

    /// Builds a `cols x rows` Manhattan grid with two-way streets.
    ///
    /// `spacing` is the block edge in meters and `speed_limit` applies to all
    /// streets (13.9 m/s ≈ 50 km/h is the usual urban choice).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(cols: usize, rows: usize, spacing: f64, speed_limit: f64) -> Self {
        assert!(cols > 0 && rows > 0, "grid must be non-empty");
        let mut net = RoadNetwork::new();
        for r in 0..rows {
            for c in 0..cols {
                net.add_intersection(Point::new(c as f64 * spacing, r as f64 * spacing));
            }
        }
        let id = |c: usize, r: usize| NodeId(r * cols + c);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    net.add_two_way(id(c, r), id(c + 1, r), speed_limit, 1);
                }
                if r + 1 < rows {
                    net.add_two_way(id(c, r), id(c, r + 1), speed_limit, 1);
                }
            }
        }
        net
    }

    /// Builds a straight two-way highway corridor of `length_m` meters with
    /// `interchanges` evenly spaced nodes (at least 2) and the given limit
    /// (33.3 m/s ≈ 120 km/h is typical).
    ///
    /// # Panics
    ///
    /// Panics if `interchanges < 2` or `length_m` is not positive.
    pub fn highway(length_m: f64, interchanges: usize, speed_limit: f64) -> Self {
        assert!(interchanges >= 2, "highway needs at least two nodes");
        assert!(length_m > 0.0, "length must be positive");
        let mut net = RoadNetwork::new();
        let step = length_m / (interchanges - 1) as f64;
        for i in 0..interchanges {
            net.add_intersection(Point::new(i as f64 * step, 0.0));
        }
        for i in 0..interchanges - 1 {
            net.add_two_way(NodeId(i), NodeId(i + 1), speed_limit, 3);
        }
        net
    }

    /// Whether some road centerline is within `radius` of `p`: `false`
    /// exactly where `d > radius`, for `d` the least [`Segment::distance_to`]
    /// over every road (`f64::INFINITY` when there is no road or every
    /// distance is NaN). So a NaN `p` is near no road, and a NaN or
    /// infinite `radius` reaches every point. Drives the urban-canyon radio
    /// obstruction model: a point far from every street is "inside a
    /// building block".
    ///
    /// Visits only the index cells that cover the box `p ± radius`, widened
    /// by one cell on each side, and returns at the first road within
    /// reach. A road within `radius` has a point inside the box, and it is
    /// registered in every cell its bounding box covers; the extra cell
    /// absorbs the rounding of `p ± radius`, of the distance and of the
    /// cell arithmetic, which are ulps of the coordinates against a cell of
    /// at least 1/512 of the map (DESIGN.md, "A job's radio round").
    pub(crate) fn road_within(&self, p: Point, radius: f64) -> bool {
        if radius.is_nan() || radius == f64::INFINITY {
            return true;
        }
        let idx = self.index();
        let (x0, y0) = idx.cell_of(Point::new(p.x - radius, p.y - radius));
        let (x1, y1) = idx.cell_of(Point::new(p.x + radius, p.y + radius));
        // `as i64` saturates (NaN to 0), so the clamped ranges are in the
        // grid or empty whatever `p` is.
        let xs = x0.saturating_sub(1).max(0)..=x1.saturating_add(1).min(idx.nx - 1);
        for cy in y0.saturating_sub(1).max(0)..=y1.saturating_add(1).min(idx.ny - 1) {
            for cx in xs.clone() {
                for &ri in &idx.road_cells[idx.bucket(cx, cy)] {
                    let r = &self.roads[ri as usize];
                    if Segment::new(self.pos(r.from), self.pos(r.to)).distance_to(p) <= radius {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Every road as a hop out of its start node, in flat arrays grouped by that
/// node, roads of one node in id order (the order `add_road` saw them).
///
/// Built lazily by `RoadNetwork::edges` and dropped on any mutation, like
/// `RoadIndex`. The route search reads one contiguous `(to, travel)` run
/// per settled node instead of chasing a road id into `roads` per edge.
#[derive(Debug, Clone)]
struct Edges {
    /// Node `u`'s hops are `starts[u]..starts[u + 1]` of the arrays below.
    starts: Vec<usize>,
    /// `(end node, free-flow travel seconds)`: the Dijkstra edge weight,
    /// `road_length / speed_limit`.
    hops: Vec<(usize, f64)>,
    /// The road of each hop.
    roads: Vec<RoadId>,
    /// `(1 − BOUND_MARGIN) / v_max`, seconds per meter of straight line
    /// to the target, when the route search may use that lower bound;
    /// `None` when rounding could defeat it (see `Edges::bound`).
    secs_per_m: Option<f64>,
}

/// The route search's lower bound undershoots by this share of the
/// straight-line time, so every equal-cost predecessor of a route node
/// settles before the target (DESIGN.md §5 "Path planning").
const BOUND_MARGIN: f64 = 1.0 / (1u64 << 24) as f64;

/// 128 unit roundoffs: what the margin on the shortest road must exceed,
/// per second of the network's total travel time plus its diagonal
/// crossed at the fastest limit, for no rounding to reorder the search.
const ROUNDING_SLACK: f64 = 64.0 * f64::EPSILON;

impl Edges {
    fn build(net: &RoadNetwork) -> Self {
        let mut starts = vec![0; net.intersections.len() + 1];
        for r in &net.roads {
            starts[r.from.0 + 1] += 1;
        }
        for u in 1..starts.len() {
            starts[u] += starts[u - 1];
        }
        // A counting sort by start node; roads go in id order, so each
        // node's run keeps them in id order.
        let mut next = starts.clone();
        let mut hops = vec![(0, 0.0); net.roads.len()];
        let mut roads = vec![RoadId(0); net.roads.len()];
        for r in &net.roads {
            let slot = next[r.from.0];
            next[r.from.0] += 1;
            hops[slot] = (r.to.0, net.road_length(r.id) / r.speed_limit);
            roads[slot] = r.id;
        }
        Edges { secs_per_m: Self::bound(net, &hops), starts, hops, roads }
    }

    /// The bound's rate, if the network lets rounding leave it sound. A
    /// travel time of zero, an infinite or NaN one, or one whose margin
    /// rounding could swallow (the shortest road against every road's time
    /// summed plus the map's diagonal at `v_max`) turns it off, and so
    /// does a network with no road: each makes the comparison below false.
    fn bound(net: &RoadNetwork, hops: &[(usize, f64)]) -> Option<f64> {
        let v_max = net.roads.iter().map(|r| r.speed_limit).fold(0.0, f64::max);
        let (w_min, total) =
            hops.iter().fold((f64::INFINITY, 0.0), |(lo, sum), &(_, w)| (lo.min(w), sum + w));
        let inf = f64::INFINITY;
        let (mut lo, mut hi) = (Point::new(inf, inf), Point::new(-inf, -inf));
        for i in &net.intersections {
            lo = Point::new(lo.x.min(i.pos.x), lo.y.min(i.pos.y));
            hi = Point::new(hi.x.max(i.pos.x), hi.y.max(i.pos.y));
        }
        let crossing = lo.distance(hi) / v_max;
        (BOUND_MARGIN * w_min > ROUNDING_SLACK * (total + crossing))
            .then(|| (1.0 - BOUND_MARGIN) / v_max)
    }

    /// Node `u`'s range of `hops` and `roads`.
    fn span(&self, u: usize) -> std::ops::Range<usize> {
        self.starts[u]..self.starts[u + 1]
    }

    /// Heap bytes of the three arrays, by capacity.
    fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.starts.capacity() * size_of::<usize>()
            + self.hops.capacity() * size_of::<(usize, f64)>()
            + self.roads.capacity() * size_of::<RoadId>()) as u64
    }
}

thread_local! {
    /// Each thread's route-search buffers. They outlive every network, so
    /// no `heap_bytes` counts them: 16 B a node of the largest network the
    /// thread has routed on, plus the largest heap one search has held.
    static SEARCH: RefCell<Search> = RefCell::new(Search::default());
}

/// `Slot::prev` of the source and of a node no relaxation has reached.
const NO_PREV: u32 = u32::MAX;

/// One node's search state. It belongs to the current call only when its
/// `stamp` is that call's `reached` or `reached + 1` (settled); any other
/// stamp reads as cost +∞ and no predecessor.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    dist: f64,
    prev: u32,
    stamp: u32,
}

/// Route-search buffers, reused by every call on the thread.
#[derive(Debug, Default)]
struct Search {
    slots: Vec<Slot>,
    /// This call's stamp for a reached node; it advances by two a call.
    reached: u32,
    heap: BinaryHeap<Reverse<u128>>,
}

impl Search {
    /// `RoadNetwork::shortest_path` for `from != to`.
    fn route(
        &mut self,
        net: &RoadNetwork,
        edges: &Edges,
        from: NodeId,
        to: NodeId,
    ) -> Option<Vec<NodeId>> {
        let n = net.intersections.len();
        assert!(n < NO_PREV as usize, "node ids must fit the search's u32 slots");
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        if self.reached >= u32::MAX - 2 {
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.reached = 0;
        }
        self.reached += 2;
        let (reached, settled) = (self.reached, self.reached + 1);
        let Search { slots, heap, .. } = self;
        heap.clear();
        let target = net.pos(to);
        // Cost so far plus the bound on the rest; the bare cost when the
        // bound is off.
        let bounded = edges.secs_per_m.is_some();
        let key = |cost: f64, node: usize| {
            let f = edges
                .secs_per_m
                .map_or(cost, |rate| cost + net.intersections[node].pos.distance(target) * rate);
            // One integer per heap entry: the key's bits above the node id.
            // Every cost pushed passed `nd < dist`, so it is finite, and so
            // is the bound when it is on; both are sums of non-negative
            // terms, so the sign bit is clear, and on such floats `to_bits`
            // orders like the value.
            Reverse(u128::from(f.to_bits()) << 64 | node as u128)
        };
        slots[from.0] = Slot { dist: 0.0, prev: NO_PREV, stamp: reached };
        heap.push(key(0.0, from.0));
        while let Some(Reverse(k)) = heap.pop() {
            let u = k as u64 as usize;
            if slots[u].stamp == settled {
                continue;
            }
            slots[u].stamp = settled;
            if u == to.0 {
                break;
            }
            let d = slots[u].dist;
            for &(v, travel) in &edges.hops[edges.span(u)] {
                let nd = d + travel;
                let slot = &mut slots[v];
                let old = if slot.stamp < reached { f64::INFINITY } else { slot.dist };
                if nd < old {
                    *slot = Slot { dist: nd, prev: u as u32, stamp: reached };
                    heap.push(key(nd, v));
                } else if bounded && nd == old && slot.prev != NO_PREV {
                    // A tie: keep the predecessor Dijkstra settles first.
                    let p = slot.prev as usize;
                    if (d, u) < (slots[p].dist, p) {
                        slots[v].prev = u as u32;
                    }
                }
            }
        }
        if slots[to.0].stamp != settled {
            return None;
        }
        let mut path = vec![to];
        let mut cur = slots[to.0].prev;
        while cur != NO_PREV {
            path.push(NodeId(cur as usize));
            cur = slots[cur as usize].prev;
        }
        path.reverse();
        debug_assert_eq!(path[0], from);
        Some(path)
    }
}

/// Uniform spatial grid over a road network's intersections and segments.
///
/// Built lazily by `RoadNetwork::index` and dropped on any mutation.
/// `nearest_node` runs an expanding ring search outward from the query
/// cell, `road_within` a box of cells around the query point; both make
/// the same floating-point comparisons a linear scan makes and keep a full
/// cell of slack, so their answers equal linear scans over every
/// intersection and road (`crates/sim/tests/props.rs` holds the index to
/// them).
#[derive(Debug, Clone)]
struct RoadIndex {
    cell_size: f64,
    /// Grid origin: bounding-box minimum over all intersections.
    min: Point,
    nx: i64,
    ny: i64,
    /// Row-major buckets of intersection indices.
    node_cells: Vec<Vec<u32>>,
    /// Row-major buckets of road indices whose segment bounding box covers
    /// the cell (an over-approximation: duplicates across cells are harmless
    /// because the distance fold is idempotent).
    road_cells: Vec<Vec<u32>>,
}

impl RoadIndex {
    /// Deep heap bytes of the bucket grids, by capacity.
    fn heap_bytes(&self) -> u64 {
        let buckets = |cells: &Vec<Vec<u32>>| -> usize {
            cells.capacity() * std::mem::size_of::<Vec<u32>>()
                + cells.iter().map(|c| c.capacity() * std::mem::size_of::<u32>()).sum::<usize>()
        };
        (buckets(&self.node_cells) + buckets(&self.road_cells)) as u64
    }

    fn build(intersections: &[Intersection], roads: &[Road]) -> Self {
        let mut min = Point::new(0.0, 0.0);
        let mut max = Point::new(0.0, 0.0);
        if let Some(first) = intersections.first() {
            min = first.pos;
            max = first.pos;
            for i in &intersections[1..] {
                min.x = min.x.min(i.pos.x);
                min.y = min.y.min(i.pos.y);
                max.x = max.x.max(i.pos.x);
                max.y = max.y.max(i.pos.y);
            }
        }
        let width = max.x - min.x;
        let height = max.y - min.y;
        let span = width.max(height).max(1.0);
        // Aim for O(1) entries per cell, but never more than 512 cells per
        // axis so tiny dense maps don't explode the bucket table.
        let n = (intersections.len() + roads.len()).max(1) as f64;
        let cell_size = (span / n.sqrt()).clamp(span / 512.0, span);
        let nx = (width / cell_size).floor() as i64 + 1;
        let ny = (height / cell_size).floor() as i64 + 1;
        let mut idx = RoadIndex {
            cell_size,
            min,
            nx,
            ny,
            node_cells: vec![Vec::new(); (nx * ny) as usize],
            road_cells: vec![Vec::new(); (nx * ny) as usize],
        };
        for i in intersections {
            let (cx, cy) = idx.cell_clamped(i.pos);
            let bucket = idx.bucket(cx, cy);
            idx.node_cells[bucket].push(i.id.0 as u32);
        }
        for r in roads {
            let (ax, ay) = idx.cell_clamped(intersections[r.from.0].pos);
            let (bx, by) = idx.cell_clamped(intersections[r.to.0].pos);
            for cy in ay.min(by)..=ay.max(by) {
                for cx in ax.min(bx)..=ax.max(bx) {
                    let bucket = idx.bucket(cx, cy);
                    idx.road_cells[bucket].push(r.id.0 as u32);
                }
            }
        }
        idx
    }

    fn cell_of(&self, p: Point) -> (i64, i64) {
        (
            ((p.x - self.min.x) / self.cell_size).floor() as i64,
            ((p.y - self.min.y) / self.cell_size).floor() as i64,
        )
    }

    fn cell_clamped(&self, p: Point) -> (i64, i64) {
        let (x, y) = self.cell_of(p);
        (x.clamp(0, self.nx - 1), y.clamp(0, self.ny - 1))
    }

    fn bucket(&self, cx: i64, cy: i64) -> usize {
        (cy * self.nx + cx) as usize
    }

    /// First ring that intersects the valid cell range (Chebyshev distance
    /// from the unclamped query cell) and the last ring that does.
    fn ring_bounds(&self, qx: i64, qy: i64) -> (i64, i64) {
        let dx = if qx < 0 {
            -qx
        } else if qx >= self.nx {
            qx - self.nx + 1
        } else {
            0
        };
        let dy = if qy < 0 {
            -qy
        } else if qy >= self.ny {
            qy - self.ny + 1
        } else {
            0
        };
        let kx = qx.abs().max((qx - (self.nx - 1)).abs());
        let ky = qy.abs().max((qy - (self.ny - 1)).abs());
        (dx.max(dy), kx.max(ky))
    }

    /// Visits every in-range bucket at Chebyshev ring `k` around `(qx, qy)`.
    fn for_each_ring_bucket(&self, qx: i64, qy: i64, k: i64, mut visit: impl FnMut(usize)) {
        if k == 0 {
            if qx >= 0 && qx < self.nx && qy >= 0 && qy < self.ny {
                visit(self.bucket(qx, qy));
            }
            return;
        }
        let x0 = (qx - k).max(0);
        let x1 = (qx + k).min(self.nx - 1);
        for iy in [qy - k, qy + k] {
            if iy >= 0 && iy < self.ny && x0 <= x1 {
                for ix in x0..=x1 {
                    visit(self.bucket(ix, iy));
                }
            }
        }
        let y0 = (qy - k + 1).max(0);
        let y1 = (qy + k - 1).min(self.ny - 1);
        for ix in [qx - k, qx + k] {
            if ix >= 0 && ix < self.nx && y0 <= y1 {
                for iy in y0..=y1 {
                    visit(self.bucket(ix, iy));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions() {
        let net = RoadNetwork::grid(4, 3, 100.0, 13.9);
        assert_eq!(net.intersections().len(), 12);
        // Horizontal: 3 per row * 3 rows; vertical: 4 per col-pair * 2 = 8... count:
        // (cols-1)*rows + cols*(rows-1) two-way pairs = 9 + 8 = 17 pairs = 34 directed.
        assert_eq!(net.roads().len(), 34);
    }

    #[test]
    fn grid_positions_are_spaced() {
        let net = RoadNetwork::grid(2, 2, 50.0, 10.0);
        assert_eq!(net.pos(NodeId(0)), Point::new(0.0, 0.0));
        assert_eq!(net.pos(NodeId(1)), Point::new(50.0, 0.0));
        assert_eq!(net.pos(NodeId(2)), Point::new(0.0, 50.0));
    }

    #[test]
    fn shortest_path_on_grid_is_manhattan() {
        let net = RoadNetwork::grid(5, 5, 100.0, 10.0);
        let path = net.shortest_path(NodeId(0), NodeId(24)).unwrap();
        // 4 east + 4 north hops = 9 nodes.
        assert_eq!(path.len(), 9);
        assert_eq!(path[0], NodeId(0));
        assert_eq!(*path.last().unwrap(), NodeId(24));
        // Consecutive nodes must be directly connected.
        for w in path.windows(2) {
            assert!(net.road_between(w[0], w[1]).is_some());
        }
    }

    #[test]
    fn shortest_path_trivial_and_unreachable() {
        let mut net = RoadNetwork::new();
        let a = net.add_intersection(Point::new(0.0, 0.0));
        let b = net.add_intersection(Point::new(10.0, 0.0));
        assert_eq!(net.shortest_path(a, a), Some(vec![a]));
        assert_eq!(net.shortest_path(a, b), None);
        net.add_road(a, b, 10.0, 1);
        assert_eq!(net.shortest_path(a, b), Some(vec![a, b]));
        // Directed: no way back.
        assert_eq!(net.shortest_path(b, a), None);
    }

    #[test]
    fn shortest_path_prefers_fast_roads() {
        let mut net = RoadNetwork::new();
        let a = net.add_intersection(Point::new(0.0, 0.0));
        let mid = net.add_intersection(Point::new(50.0, 50.0));
        let b = net.add_intersection(Point::new(100.0, 0.0));
        net.add_road(a, b, 1.0, 1); // direct but very slow: 100s
        net.add_road(a, mid, 50.0, 1); // detour fast: ~1.41s + 1.41s
        net.add_road(mid, b, 50.0, 1);
        let path = net.shortest_path(a, b).unwrap();
        assert_eq!(path, vec![a, mid, b]);
    }

    #[test]
    fn route_bound_is_off_where_rounding_could_defeat_it() {
        let bound = |net: &RoadNetwork| net.edges().secs_per_m;
        let city = RoadNetwork::grid(57, 57, 200.0, 13.9);
        assert_eq!(bound(&city), Some((1.0 - BOUND_MARGIN) / 13.9));
        let with = |edit: &dyn Fn(&mut RoadNetwork)| {
            let mut net = RoadNetwork::grid(6, 6, 100.0, 13.9);
            edit(&mut net);
            bound(&net)
        };
        let beside = |dx: f64, limit: f64| {
            move |net: &mut RoadNetwork| {
                let p = net.pos(NodeId(7));
                let twin = net.add_intersection(Point::new(p.x + dx, p.y));
                net.add_two_way(NodeId(7), twin, limit, 1);
            }
        };
        let lone = |far: f64| {
            move |net: &mut RoadNetwork| {
                net.add_intersection(Point::new(far, 0.0));
            }
        };
        assert!(with(&beside(30.0, 20.0)).is_some_and(|rate| rate < 1.0 / 20.0));
        assert_eq!(with(&beside(0.0, 13.9)), None, "a zero-length road");
        assert_eq!(with(&beside(1e-9, 13.9)), None, "a road rounding can absorb");
        assert_eq!(with(&beside(30.0, f64::INFINITY)), None, "an infinite limit");
        assert!(with(&lone(1e7)).is_some());
        assert_eq!(with(&lone(1e13)), None, "a diagonal that dwarfs the shortest road");
        assert_eq!(bound(&RoadNetwork::new()), None);
        let mut pair = RoadNetwork::new();
        pair.add_intersection(Point::new(0.0, 0.0));
        pair.add_intersection(Point::new(1.0, 0.0));
        assert_eq!(bound(&pair), None, "no road");
        let mut spread = RoadNetwork::new();
        let (a, b) = (Point::new(-1e308, 0.0), Point::new(1e308, 0.0));
        let (a, b) = (spread.add_intersection(a), spread.add_intersection(b));
        spread.add_road(a, b, 13.9, 1);
        assert_eq!(bound(&spread), None, "an infinite road length");
        assert_eq!(spread.shortest_path(a, b), None);
    }

    #[test]
    fn highway_is_a_chain() {
        let net = RoadNetwork::highway(3000.0, 4, 33.3);
        assert_eq!(net.intersections().len(), 4);
        assert_eq!(net.roads().len(), 6);
        assert!((net.pos(NodeId(3)).x - 3000.0).abs() < 1e-9);
        let path = net.shortest_path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn nearest_node() {
        let net = RoadNetwork::grid(3, 3, 100.0, 10.0);
        assert_eq!(net.nearest_node(Point::new(95.0, 8.0)), Some(NodeId(1)));
        assert_eq!(RoadNetwork::new().nearest_node(Point::new(0.0, 0.0)), None);
    }

    #[test]
    fn random_node_in_range() {
        let net = RoadNetwork::grid(3, 3, 100.0, 10.0);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..50 {
            let n = net.random_node(&mut rng).unwrap();
            assert!(n.0 < 9);
        }
        assert_eq!(RoadNetwork::new().random_node(&mut rng), None);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut net = RoadNetwork::new();
        let a = net.add_intersection(Point::new(0.0, 0.0));
        net.add_road(a, a, 10.0, 1);
    }

    #[test]
    #[should_panic(expected = "intersection position must be finite")]
    fn non_finite_intersection_rejected() {
        RoadNetwork::new().add_intersection(Point::new(0.0, f64::NAN));
    }

    #[test]
    fn road_lengths_sum() {
        let net = RoadNetwork::grid(2, 1, 100.0, 10.0);
        let total: f64 = net.roads().iter().map(|r| net.road_length(r.id)).sum();
        assert!((total - 200.0).abs() < 1e-9);
    }

    #[test]
    fn index_invalidated_by_mutation() {
        let mut net = RoadNetwork::grid(3, 3, 100.0, 10.0);
        let probe = Point::new(149.0, 149.0);
        assert_eq!(net.nearest_node(probe), Some(NodeId(4))); // forces index build
        let near = net.add_intersection(Point::new(150.0, 150.0));
        assert_eq!(net.nearest_node(probe), Some(near));
        assert!(!net.road_within(probe, 40.0));
        let c = net.add_intersection(Point::new(150.0, 160.0));
        net.add_road(near, c, 10.0, 1);
        assert!(net.road_within(probe, 2.0));
    }

    #[test]
    fn index_handles_degenerate_networks() {
        let mut net = RoadNetwork::new();
        let a = net.add_intersection(Point::new(7.0, -3.0));
        assert_eq!(net.nearest_node(Point::new(1e5, 1e5)), Some(a));
        assert!(!net.road_within(Point::new(0.0, 0.0), 1e9));
        // Collinear (zero-height bounding box) network with one road.
        let b = net.add_intersection(Point::new(107.0, -3.0));
        net.add_road(a, b, 10.0, 1);
        assert!(net.road_within(Point::new(57.0, 40.0), 43.0));
        assert!(!net.road_within(Point::new(57.0, 40.0), 42.999));
    }

    #[test]
    fn road_within() {
        let net = RoadNetwork::grid(3, 3, 100.0, 10.0);
        // On a street.
        assert!(net.road_within(Point::new(50.0, 0.0), 0.0));
        // Center of a block: 50 m from the surrounding streets.
        assert!(net.road_within(Point::new(50.0, 50.0), 50.0));
        assert!(!net.road_within(Point::new(50.0, 50.0), 49.999));
        // Off-grid point, a whole cell beyond the index's extent.
        assert!(net.road_within(Point::new(-30.0, 0.0), 30.0));
        assert!(!net.road_within(Point::new(-30.0, 0.0), 29.999));
        // NaN is near nothing; a NaN or infinite radius reaches everything.
        assert!(!net.road_within(Point::new(f64::NAN, 0.0), 1e9));
        assert!(net.road_within(Point::new(f64::NAN, 0.0), f64::INFINITY));
        assert!(RoadNetwork::new().road_within(Point::new(0.0, 0.0), f64::NAN));
        assert!(!RoadNetwork::new().road_within(Point::new(0.0, 0.0), 1e9));
    }
}
