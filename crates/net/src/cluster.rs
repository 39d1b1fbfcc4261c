//! Vehicle clustering: stability-scored multi-hop cluster formation and
//! moving-zone formation.
//!
//! Two instantiations of one mechanism:
//!
//! * **Passive multi-hop clustering** (after Zhang et al. \[46\] in the paper):
//!   the most *stable* node in an N-hop neighborhood becomes cluster head
//!   (CH); members attach to the nearest head within N hops.
//! * **Moving zones** (after Lin et al. \[22\], the paper authors' MoZo): the
//!   same election restricted to edges between vehicles with *similar
//!   velocity vectors*, so a zone holds together as it moves.
//!
//! Cluster heads later serve as the coordinators the paper's v-cloud layer
//! builds on ("the head node of a cluster can serve as the coordinator of a
//! group of vehicles", §IV-A.1).

use crate::world::WorldView;
use vc_sim::node::VehicleId;
use vc_sim::radio::NeighborTable;

/// Parameters for cluster formation.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Maximum hop distance from a member to its head.
    pub max_hops: u32,
    /// Weight of connectivity (degree) in the head-election score.
    pub weight_degree: f64,
    /// Weight of kinematic stability (low relative speed) in the score.
    pub weight_stability: f64,
    /// When `Some(v)`, only links between vehicles whose velocity vectors
    /// differ by less than `v` m/s count (moving-zone mode).
    pub velocity_similarity: Option<f64>,
}

impl ClusterConfig {
    /// Standard multi-hop clustering: 2 hops, mixed score.
    pub fn multi_hop() -> Self {
        ClusterConfig {
            max_hops: 2,
            weight_degree: 1.0,
            weight_stability: 1.0,
            velocity_similarity: None,
        }
    }

    /// Moving-zone mode: 2 hops, velocity-similar links only (5 m/s band).
    pub fn moving_zone() -> Self {
        ClusterConfig {
            max_hops: 2,
            weight_degree: 1.0,
            weight_stability: 2.0,
            velocity_similarity: Some(5.0),
        }
    }
}

/// The result of a clustering round.
///
/// Also owns the scratch buffers formation works in, so a value that is
/// re-formed every round (as the routing protocols do) stops allocating
/// once its buffers have grown to the fleet size.
#[derive(Debug, Clone, Default)]
pub struct Clustering {
    /// Head of each vehicle's cluster, indexed by vehicle id (None when
    /// offline).
    head_of: Vec<Option<VehicleId>>,
    /// All cluster heads, ascending.
    heads: Vec<VehicleId>,
    /// `slot[h]` is head `h`'s position in `heads`; unspecified for
    /// vehicles that are not heads.
    slot: Vec<u32>,
    /// `starts[k]..starts[k + 1]` bounds `heads[k]`'s run of `members`.
    /// One spare slot at the end lets the counting sort run in place.
    starts: Vec<u32>,
    /// Every clustered vehicle, grouped by head and ascending within a
    /// cluster (heads include themselves).
    members: Vec<VehicleId>,
    /// Election scratch, reused across rounds.
    election: Election,
    /// Moving-zone mode's links, refilled each round; unused otherwise.
    band: BandLinks,
    bfs: Bfs,
}

impl Clustering {
    /// The head governing `id`, or `None` if the vehicle is offline.
    pub fn head_of(&self, id: VehicleId) -> Option<VehicleId> {
        self.head_of.get(id.0 as usize).copied().flatten()
    }

    /// `true` when `id` is itself a cluster head.
    pub(crate) fn is_head(&self, id: VehicleId) -> bool {
        self.head_of(id) == Some(id)
    }

    /// Members of the cluster headed by `head`, ascending (empty if not a
    /// head).
    pub fn members(&self, head: VehicleId) -> &[VehicleId] {
        if !self.is_head(head) {
            return &[];
        }
        let k = self.slot[head.0 as usize] as usize;
        &self.members[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// All cluster heads, ascending.
    pub fn heads(&self) -> impl Iterator<Item = VehicleId> + '_ {
        self.heads.iter().copied()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.heads.len()
    }

    /// Mean cluster size.
    pub fn mean_cluster_size(&self) -> f64 {
        if self.heads.is_empty() {
            return 0.0;
        }
        self.members.len() as f64 / self.heads.len() as f64
    }

    /// [`form_clusters`] into this value, reusing its buffers: the same
    /// lazy election, which allocates nothing once they have grown to the
    /// fleet.
    ///
    /// # Panics
    ///
    /// Panics when the election scores a vehicle whose score is NaN (see
    /// [`form_clusters`]).
    pub fn reform(&mut self, world: &WorldView<'_>, cfg: &ClusterConfig) {
        let _form = vc_obs::profile::frame("cluster.form");
        self.head_of.clear();
        self.head_of.resize(world.len(), None);
        let links = Links::of_round(&mut self.band, world, cfg);
        self.election.run(&mut self.head_of, &mut self.bfs, &links, world, cfg, true);
        self.index_members();
    }

    /// Candidates the election has scored over this value's life: a
    /// candidate is scored only when its degree bound reaches the front of
    /// the queue while nobody has claimed it. Tests hold the laziness with
    /// it; no row reports it.
    #[cfg(test)]
    pub(crate) fn scored(&self) -> u64 {
        self.election.scored
    }

    /// Rebuilds the `heads`/`members` view from `head_of` by a counting
    /// sort on the head: two sweeps in ascending vehicle order, so heads and
    /// each cluster's members come out ascending without a comparison sort.
    fn index_members(&mut self) {
        // Every buffer is sized for the fleet, not for this round's head
        // count, so a drifting number of clusters never reallocates.
        let n = self.head_of.len();
        self.heads.clear();
        self.heads.reserve(n);
        self.slot.resize(n, 0);
        for (i, head) in self.head_of.iter().enumerate() {
            let id = VehicleId(i as u32);
            if *head == Some(id) {
                self.slot[i] = self.heads.len() as u32;
                self.heads.push(id);
            }
        }
        // Counts go two slots up, so after the prefix sum `starts[k + 1]`
        // is cluster `k`'s write cursor and, once every member is written,
        // the start of cluster `k + 1`.
        self.starts.clear();
        self.starts.reserve(n + 2);
        self.starts.resize(self.heads.len() + 2, 0);
        for head in self.head_of.iter().flatten() {
            self.starts[self.slot[head.0 as usize] as usize + 2] += 1;
        }
        let mut sum = 0;
        for s in &mut self.starts {
            sum += *s;
            *s = sum;
        }
        self.members.resize(sum as usize, VehicleId(0));
        for (i, head) in self.head_of.iter().enumerate() {
            if let Some(head) = head {
                let cursor = &mut self.starts[self.slot[head.0 as usize] as usize + 1];
                self.members[*cursor as usize] = VehicleId(i as u32);
                *cursor += 1;
            }
        }
    }
}

/// Fleets of at most this many vehicles take one bucket. At 40–100 vehicles
/// the bound is looser than the spread of degrees, so nearly every candidate
/// is scored anyway, and the counting sort and spill lists cost more than the
/// scores they skip (DESIGN.md §5, "Lazy head election").
const SMALL_FLEET: usize = 128;

/// No spill entry: the end of a bucket's spill list.
const NONE: u32 = u32::MAX;

/// The lazy head election and its scratch, reused across rounds so that a
/// value re-formed every round stops allocating once the buffers have grown
/// to the fleet (each holds at most one entry per vehicle or per degree).
///
/// Candidates are ranked by `(rank(score), id)` — score descending, ties to
/// the lower id — and each one nobody has claimed when its turn comes
/// becomes a head. A score is `fl(w_d·deg) − fl(w_s·rel/deg)`; with
/// `w_s ≥ 0` the subtracted term is never negative and rounding is
/// monotone, so the score is at most its degree bound `U = fl(w_d·deg)` and
/// its key at least `(rank(U), id)`. Candidates wait in buckets of equal
/// `rank(U)`, in bound order, ids ascending within a bucket, and one is
/// scored only when its bound key is the smallest key left while nobody has
/// claimed it (a claimed one would be passed over at its turn anyway). Its
/// exact key is never below that bound key: equal, it is the minimum and
/// wins at once; larger, it is filed on the spill of the last bucket whose
/// bound does not exceed it. A bucket's spill is taken when the bucket is
/// reached: keys tied with the bound interleave with the bucket's
/// candidates by id, the rest follow them, sorted once.
///
/// A fleet of at most [`SMALL_FLEET`] vehicles, a moving-zone round (whose
/// band has summed every relative speed already, so a score costs nothing
/// to skip) and a negative or NaN `w_s` (which breaks the bound) take one
/// bucket under the bound `+∞`: every candidate is scored up front.
#[derive(Debug, Clone, Default)]
struct Election {
    /// Per degree: how many candidates have it, then its bucket.
    by_degree: Vec<u32>,
    /// Per bucket: `rank(U)`, strictly ascending.
    bound: Vec<u64>,
    /// Per bucket: one past its last slot in `order` (its first slot while
    /// candidates are being placed).
    end: Vec<u32>,
    /// Per bucket: its latest spill entry, or [`NONE`].
    spill_head: Vec<u32>,
    /// Unscored candidates in bound order.
    order: Vec<VehicleId>,
    /// Every scored key not elected at once, with the next entry of its
    /// bucket's list.
    spill: Vec<(u64, u32)>,
    /// The current bucket's scored keys.
    run: Vec<u64>,
    /// Per vehicle: the rank of its score, once scored.
    rank_of: Vec<u64>,
    /// Candidates scored so far.
    scored: u64,
}

impl Election {
    /// Elects heads among the online vehicles `head_of` leaves unclaimed:
    /// in rank order, each candidate nobody has claimed yet becomes a head
    /// and claims the unclaimed vehicles within `cfg.max_hops`. The search
    /// runs on through vehicles another head already claimed only when
    /// `through_claimed` is set.
    ///
    /// # Panics
    ///
    /// Panics when a candidate it scores has a NaN score; one claimed
    /// before its bound comes up is never scored.
    fn run(
        &mut self,
        head_of: &mut [Option<VehicleId>],
        bfs: &mut Bfs,
        links: &Links<'_>,
        world: &WorldView<'_>,
        cfg: &ClusterConfig,
        through_claimed: bool,
    ) {
        let n = world.len();
        let key = Key::for_fleet(n);
        // Every buffer is reserved for the fleet, not for this round's
        // degrees and spills, so a round that drifts never reallocates.
        self.rank_of.resize(n, 0);
        self.by_degree.clear();
        self.bound.clear();
        self.end.clear();
        self.spill_head.clear();
        self.order.clear();
        self.spill.clear();
        self.run.clear();
        self.by_degree.reserve(n);
        self.bound.reserve(n);
        self.end.reserve(n);
        self.spill_head.reserve(n);
        self.order.reserve(n);
        self.spill.reserve(n);
        self.run.reserve(n);
        let candidates = || {
            let head_of = &*head_of;
            world.online_ids().filter(move |id| head_of[id.0 as usize].is_none())
        };
        let Election { by_degree, bound, end, spill_head, order, spill, run, rank_of, scored } =
            self;
        let bucketed =
            matches!(links, Links::Table(_)) && n > SMALL_FLEET && cfg.weight_stability >= 0.0;
        if !bucketed {
            // Under the bound +∞ every candidate is scored at once, into
            // the run of one bucket that holds nobody else.
            for id in candidates() {
                let rank = rank(links.head_score(world, id, cfg));
                rank_of[id.0 as usize] = rank;
                run.push(key.pack(rank, id));
            }
            *scored += run.len() as u64;
            bound.push(rank(f64::INFINITY));
            end.push(0);
        } else {
            // Counting sort by bucket: count degrees, walk them in bound
            // order to number the buckets, then place candidates in
            // ascending id order.
            for id in candidates() {
                let degree = links.of(id).len();
                if degree >= by_degree.len() {
                    by_degree.resize(degree + 1, 0);
                }
                by_degree[degree] += 1;
            }
            let degrees = by_degree.len();
            let mut placed = 0;
            for step in 0..degrees {
                let degree = if cfg.weight_degree < 0.0 { step } else { degrees - 1 - step };
                let count = by_degree[degree];
                if count == 0 {
                    continue;
                }
                let rank = rank(cfg.weight_degree * degree as f64);
                if bound.last() != Some(&rank) {
                    bound.push(rank);
                    end.push(placed);
                }
                by_degree[degree] = bound.len() as u32 - 1;
                placed += count;
            }
            order.resize(placed as usize, VehicleId(0));
            for id in candidates() {
                let cursor = &mut end[by_degree[links.of(id).len()] as usize];
                order[*cursor as usize] = id;
                *cursor += 1;
            }
        }

        spill_head.resize(bound.len(), NONE);
        // Makes an unclaimed candidate a head and claims its reach.
        let mut elect = move |head_of: &mut [Option<VehicleId>], candidate: VehicleId| {
            head_of[candidate.0 as usize] = Some(candidate);
            bfs.search(links, n, cfg.max_hops, [candidate], |_, next| {
                let head = &mut head_of[next.0 as usize];
                let free = head.is_none();
                if free {
                    *head = Some(candidate);
                }
                free || through_claimed
            });
        };
        let mut from = 0;
        for k in 0..bound.len() {
            // This bucket's spill. Keys tied with its bound (a score equal
            // to a lower degree's bound) go to the front, sorted, to
            // interleave with the bucket's candidates by id.
            let mut ties = 0;
            let mut at = spill_head[k];
            while at != NONE {
                let (packed, next) = spill[at as usize];
                if rank_of[key.id(packed).0 as usize] == bound[k] {
                    run.insert(ties, packed);
                    ties += 1;
                } else {
                    run.push(packed);
                }
                at = next;
            }
            run[..ties].sort_unstable();
            let mut taken = 0;
            for &id in &order[from..end[k] as usize] {
                while taken < ties && key.id(run[taken]) < id {
                    let tied = key.id(run[taken]);
                    if head_of[tied.0 as usize].is_none() {
                        elect(head_of, tied);
                    }
                    taken += 1;
                }
                if head_of[id.0 as usize].is_some() {
                    continue;
                }
                *scored += 1;
                let rank = rank(links.head_score(world, id, cfg));
                rank_of[id.0 as usize] = rank;
                if rank == bound[k] {
                    elect(head_of, id);
                } else {
                    let last = k + bound[k + 1..].partition_point(|&b| b <= rank);
                    if last == k {
                        run.push(key.pack(rank, id));
                    } else {
                        spill.push((key.pack(rank, id), spill_head[last]));
                        spill_head[last] = spill.len() as u32 - 1;
                    }
                }
            }
            // The rest — later ties, then keys above the bound — follow
            // the bucket's candidates.
            let rest = &mut run[taken..];
            key.sort(rest, rank_of);
            for &packed in rest.iter() {
                let id = key.id(packed);
                if head_of[id.0 as usize].is_none() {
                    elect(head_of, id);
                }
            }
            run.clear();
            from = end[k] as usize;
        }
    }
}

/// A `(rank, id)` pair packed into one `u64`: the id in the low bits a
/// fleet's ids need, the rank's remaining high bits above it. Keys sort in
/// `(rank, id)` order except within a group whose ranks agree in those high
/// bits but not below (scores a few ulps apart), which [`Key::sort`]
/// re-sorts by the full rank. 8-byte keys take the standard library's
/// branch-free small sorts, about twice as fast as sorting the pairs.
#[derive(Debug, Clone, Copy)]
struct Key {
    /// The id bits.
    mask: u64,
}

impl Key {
    /// Keys for ids below `n`.
    fn for_fleet(n: usize) -> Self {
        let bits = u64::BITS - (n.max(2) as u64 - 1).leading_zeros();
        Key { mask: (1 << bits) - 1 }
    }

    fn pack(self, rank: u64, id: VehicleId) -> u64 {
        rank & !self.mask | u64::from(id.0)
    }

    fn id(self, packed: u64) -> VehicleId {
        VehicleId((packed & self.mask) as u32)
    }

    /// Sorts `keys` into `(rank, id)` order, reading full ranks from
    /// `rank_of`.
    fn sort(self, keys: &mut [u64], rank_of: &[u64]) {
        keys.sort_unstable();
        let high = !self.mask;
        let mut start = 0;
        while let Some(at) =
            keys[start..].windows(2).position(|pair| (pair[0] ^ pair[1]) & high == 0)
        {
            let first = start + at;
            let len = keys[first..].iter().take_while(|&&k| (k ^ keys[first]) & high == 0).count();
            start = first + len;
            keys[first..start].sort_unstable_by_key(|&packed| {
                (rank_of[(packed & self.mask) as usize], packed & self.mask)
            });
        }
    }
}

/// A score as an integer whose *ascending* order is the scores' descending
/// numeric order, so the election ranks by comparing `(rank, id)` pairs of
/// integers — a third off the sort of a 40-vehicle fleet against
/// `partial_cmp` in a closure. The sign bit is flipped for positive floats
/// and every bit for negative ones (the usual order-preserving map of
/// IEEE 754 onto unsigned integers), then the whole is inverted; `+ 0.0`
/// folds −0.0 into +0.0 first, which compare equal as numbers.
///
/// # Panics
///
/// Panics on NaN: scores are finite for finite velocities and weights.
/// Only degree bounds and the candidates the election scores reach it.
fn rank(score: f64) -> u64 {
    assert!(!score.is_nan(), "finite scores");
    let bits = (score + 0.0).to_bits();
    let ascending = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    !ascending
}

/// The links clustering walks this round. A link from `a` to its neighbor
/// `b` counts when `b` is online and, in moving-zone mode, inside `a`'s
/// velocity band. Every row of a [`NeighborTable`] already holds online
/// vehicles only — the cell-list rebuild indexes none but the online, the
/// bit-row rebuild masks each row with the online word, and both leave an
/// offline vehicle's own row empty — so without a band the table *is* the
/// link set and is walked where it lies. With one, the band is tested once
/// per link per round into [`BandLinks`] instead of once per visit of every
/// head's search.
enum Links<'a> {
    Table(&'a NeighborTable),
    Band(&'a BandLinks),
}

impl<'a> Links<'a> {
    /// The round's links under `cfg`, refilling `band` when it has a
    /// velocity band.
    fn of_round(band: &'a mut BandLinks, world: &WorldView<'a>, cfg: &ClusterConfig) -> Self {
        match cfg.velocity_similarity {
            None => Links::Table(world.neighbors),
            Some(width) => {
                band.refill(world, width);
                Links::Band(band)
            }
        }
    }

    /// Eligible neighbors of `id`, ascending.
    fn of(&self, id: VehicleId) -> &[VehicleId] {
        match self {
            Links::Table(table) => table.of(id),
            Links::Band(band) => band.of(id),
        }
    }

    /// Election score for one vehicle: well-connected and kinematically calm
    /// vehicles make good heads.
    fn head_score(&self, world: &WorldView<'_>, id: VehicleId, cfg: &ClusterConfig) -> f64 {
        let degree = self.of(id).len();
        let mut rel_speed = match self {
            Links::Table(table) => {
                let mut sum = 0.0;
                for &n in table.of(id) {
                    sum += (world.vel(id) - world.vel(n)).norm();
                }
                sum
            }
            Links::Band(band) => band.rel_speed[id.0 as usize],
        };
        if degree > 0 {
            rel_speed /= degree as f64;
        }
        cfg.weight_degree * degree as f64 - cfg.weight_stability * rel_speed
    }
}

/// The neighbor table filtered by a velocity band, in the table's own CSR
/// shape and neighbor order, with each vehicle's summed relative speed over
/// the links that passed (the same additions in the same order as scoring
/// them one by one).
#[derive(Debug, Clone, Default)]
struct BandLinks {
    starts: Vec<u32>,
    flat: Vec<VehicleId>,
    rel_speed: Vec<f64>,
}

impl BandLinks {
    /// Keeps the links with `(vel(a) − vel(b)).norm() < width`, in two
    /// passes per row. On a highway 55 links in 100 join opposing traffic
    /// and which ones is no pattern a branch predictor learns, so the first
    /// pass is branch-free (write every neighbor, advance past the hits, as
    /// the neighbor table's own filter does) and needs no `sqrt`: it drops a
    /// link only when its squared norm is at least `width² × (1 + 10⁻¹²)`,
    /// which — `sqrt` being monotone and correctly rounded, and the margin
    /// thousands of ulps — the exact test would drop too (a `width²` that
    /// is not a normal number carries no such margin and drops nothing). The
    /// second pass puts the exact test to the rest.
    fn refill(&mut self, world: &WorldView<'_>, width: f64) {
        self.starts.clear();
        self.starts.push(0);
        self.flat.clear();
        self.rel_speed.clear();
        let squared = width * width;
        let surely_outside =
            if squared.is_normal() { squared * (1.0 + 1e-12) } else { f64::INFINITY };
        for a in (0..world.len() as u32).map(VehicleId) {
            let row = world.neighbors.of(a);
            let start = self.flat.len();
            self.flat.resize(start + row.len(), VehicleId(0));
            let out = &mut self.flat[start..];
            let mut near = 0;
            for &b in row {
                let apart = world.vel(a) - world.vel(b);
                out[near] = b;
                near += usize::from(apart.dot(apart) < surely_outside);
            }
            let (mut kept, mut sum) = (0, 0.0);
            for at in 0..near {
                let b = out[at];
                let apart = (world.vel(a) - world.vel(b)).norm();
                if apart < width {
                    out[kept] = b;
                    kept += 1;
                    sum += apart;
                }
            }
            self.flat.truncate(start + kept);
            self.starts.push(self.flat.len() as u32);
            self.rel_speed.push(sum);
        }
    }

    fn of(&self, id: VehicleId) -> &[VehicleId] {
        let i = id.0 as usize;
        &self.flat[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// Bounded-hop breadth-first search over the round's links, the one traversal
/// under formation and maintenance. Visits are epoch-stamped, so starting a
/// search forgets the previous one in O(1) instead of clearing a flag per
/// vehicle, and the queue is a reused flat buffer.
#[derive(Debug, Clone, Default)]
struct Bfs {
    /// `stamp[v] == epoch` marks `v` visited by the current search.
    stamp: Vec<u32>,
    epoch: u32,
    /// Expanded vehicles in visiting order, one hop level after another.
    queue: Vec<VehicleId>,
}

impl Bfs {
    /// Searches outwards from `roots` (hop 0) for at most `max_hops` hops
    /// over the `links` of an `n`-vehicle world, walking them in place.
    /// `reach(from, to)` is called once for each vehicle other than a root
    /// when the search first arrives at it, in breadth-first order; the
    /// search continues through `to` only when it returns `true`.
    fn search(
        &mut self,
        links: &Links<'_>,
        n: usize,
        max_hops: u32,
        roots: impl IntoIterator<Item = VehicleId>,
        mut reach: impl FnMut(VehicleId, VehicleId) -> bool,
    ) {
        self.queue.clear();
        if self.stamp.len() != n || self.epoch == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.epoch = 0;
            // A vehicle is queued at most once per search.
            self.queue.reserve(n);
        }
        self.epoch += 1;
        for root in roots {
            self.stamp[root.0 as usize] = self.epoch;
            self.queue.push(root);
        }
        let mut level = 0..self.queue.len();
        for _ in 0..max_hops {
            for at in level.clone() {
                let cur = self.queue[at];
                for &next in links.of(cur) {
                    let seen = &mut self.stamp[next.0 as usize];
                    if *seen == self.epoch {
                        continue;
                    }
                    *seen = self.epoch;
                    if reach(cur, next) {
                        self.queue.push(next);
                    }
                }
            }
            level = level.end..self.queue.len();
        }
    }

    /// Did the latest search visit `id`?
    fn visited(&self, id: VehicleId) -> bool {
        self.stamp[id.0 as usize] == self.epoch
    }
}

/// Forms clusters over the current world snapshot: in order of election
/// score, highest first, each vehicle no head has claimed yet becomes a head
/// and claims the unclaimed vehicles within `max_hops`.
///
/// Deterministic: score ties break by lower vehicle id. The election is
/// lazy: a vehicle is scored only when the bound its degree puts on its
/// score could still win while nobody has claimed it, so most of a dense
/// fleet is never scored (DESIGN.md §5, "Lazy head election"). The heads
/// and members are those of scoring everyone.
///
/// # Panics
///
/// Panics when the election scores a vehicle whose score is NaN — one with
/// a NaN velocity, or a link to one, or a NaN weight. A vehicle claimed
/// before its bound comes up is never scored, so it does not panic.
pub fn form_clusters(world: &WorldView<'_>, cfg: &ClusterConfig) -> Clustering {
    let mut clustering = Clustering::default();
    clustering.reform(world, cfg);
    clustering
}

/// Incremental cluster maintenance (paper §V-A: "how to handle the
/// splitting, merging, re-allocation of the groups").
///
/// Instead of re-electing from scratch every round (which swaps heads on
/// small score changes), maintenance keeps the previous round's heads while
/// they remain *adequate*: still online, and still connected to at least
/// `retention_quorum` of their previous members. Members re-attach to the
/// nearest surviving head within `max_hops`; only uncovered vehicles run a
/// fresh election among themselves. Heads therefore change when clusters
/// genuinely split or merge, not on score jitter — the continuity the cloud
/// layer's brokers need. The fresh election is [`form_clusters`]'s lazy one,
/// among the uncovered vehicles only, and its searches stop at vehicles a
/// kept head holds.
///
/// # Panics
///
/// Panics when that election scores a vehicle whose score is NaN (see
/// [`form_clusters`]); kept heads and re-attached members are never scored.
pub fn maintain_clusters(
    previous: &Clustering,
    world: &WorldView<'_>,
    cfg: &ClusterConfig,
    retention_quorum: f64,
) -> Clustering {
    let mut next = Clustering::default();
    next.head_of.resize(world.len(), None);
    let Clustering { head_of, election, band, bfs, .. } = &mut next;
    let links = Links::of_round(band, world, cfg);
    let n = world.len();

    // 1. Retain adequate heads: one search per old head, then count the old
    //    members it still reaches.
    let mut surviving_heads: Vec<VehicleId> = Vec::new();
    for head in previous.heads() {
        if !world.is_online(head) {
            continue;
        }
        let others = previous.members(head).len() - 1;
        if others > 0 {
            bfs.search(&links, n, cfg.max_hops, [head], |_, _| true);
            let reachable =
                previous.members(head).iter().filter(|&&m| m != head && bfs.visited(m)).count();
            let quorum = (others as f64 * retention_quorum).ceil() as usize;
            if reachable < quorum.max(1).min(others) {
                continue;
            }
        }
        head_of[head.0 as usize] = Some(head);
        surviving_heads.push(head);
    }

    // 2. Re-attach everyone to the nearest surviving head (one search from
    //    all of them at once, nearest-first, deterministic by head id:
    //    `heads()` is ascending).
    bfs.search(&links, n, cfg.max_hops, surviving_heads, |from, to| {
        let free = head_of[to.0 as usize].is_none();
        if free {
            head_of[to.0 as usize] = head_of[from.0 as usize];
        }
        free
    });

    // 3. Fresh election among uncovered vehicles (splits / newcomers).
    election.run(head_of, bfs, &links, world, cfg, false);
    next.index_members();
    next
}

/// Measures head-churn between two consecutive clusterings: the fraction of
/// vehicles whose head changed (a stability metric for the E8 ablation).
pub fn head_churn(before: &Clustering, after: &Clustering, n_vehicles: usize) -> f64 {
    if n_vehicles == 0 {
        return 0.0;
    }
    let changed = (0..n_vehicles as u32)
        .filter(|&i| before.head_of(VehicleId(i)) != after.head_of(VehicleId(i)))
        .count();
    changed as f64 / n_vehicles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::geom::Point;
    use vc_sim::mobility::Fleet;
    use vc_sim::radio::{Channel, NeighborTable};
    use vc_sim::roadnet::RoadNetwork;
    use vc_sim::scenario::{Scenario, ScenarioBuilder};

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

    fn still(n: usize) -> Vec<Point> {
        vec![Point::new(0.0, 0.0); n]
    }

    #[test]
    fn rank_orders_scores_as_partial_cmp_does_descending() {
        let scores = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            1.0 + f64::EPSILON,
            7.25,
            f64::INFINITY,
        ];
        for a in scores {
            for b in scores {
                assert_eq!(
                    rank(a).cmp(&rank(b)),
                    b.partial_cmp(&a).unwrap(),
                    "{a:e} against {b:e}"
                );
            }
        }
    }

    #[test]
    fn packed_keys_sort_as_the_pairs_do() {
        // Ranks drawn from a few values that differ only in their lowest
        // bits, so most keys collide above the id bits: equal ranks must
        // go by id and near-equal ones by the full rank.
        use vc_sim::rng::SimRng;
        let mut rng = SimRng::seed_from(5);
        for n in [1usize, 2, 3, 40, 1_000, 70_000] {
            let key = Key::for_fleet(n);
            let mut rank_of = vec![0; n];
            let mut pairs: Vec<(u64, VehicleId)> = Vec::new();
            for id in (0..n as u32).map(VehicleId) {
                if pairs.len() == 300 || !rng.chance(0.6) {
                    continue;
                }
                let rank = [7 << 40, 9 << 40, u64::MAX - 5][rng.index(3)] + rng.index(4) as u64;
                rank_of[id.0 as usize] = rank;
                pairs.push((rank, id));
            }
            let mut keys: Vec<u64> = pairs.iter().map(|&(rank, id)| key.pack(rank, id)).collect();
            key.sort(&mut keys, &rank_of);
            pairs.sort_unstable();
            let ids: Vec<VehicleId> = keys.iter().map(|&packed| key.id(packed)).collect();
            let want: Vec<VehicleId> = pairs.iter().map(|&(_, id)| id).collect();
            assert_eq!(ids, want, "{n} vehicles");
        }
    }

    #[test]
    fn band_filter_is_the_exact_test_at_the_edge_of_the_band() {
        // Relative speeds an ulp either side of the 5 m/s band, and well
        // clear of it: the squared-norm pass must never decide a case the
        // exact test would decide the other way.
        let edge = 5.0_f64;
        let speeds =
            [0.0, 1.0, edge - 1e-9, edge.next_down(), edge, edge.next_up(), edge + 1e-9, 60.0];
        let positions: Vec<Point> = (0..=speeds.len()).map(|i| Point::new(i as f64, 0.0)).collect();
        let mut velocities = vec![Point::new(0.0, 0.0)];
        velocities.extend(speeds.iter().map(|&s| Point::new(s, 0.0)));
        let f = Fixture::new(positions, velocities, 300.0);
        let mut band = BandLinks::default();
        band.refill(&f.world(), edge);
        let expect: Vec<VehicleId> = speeds
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s < edge)
            .map(|(i, _)| VehicleId(i as u32 + 1))
            .collect();
        assert_eq!(band.of(VehicleId(0)), expect);
        assert_eq!(band.rel_speed[0], speeds.iter().filter(|&&s| s < edge).sum::<f64>());
        // A band whose square underflows still admits equal velocities.
        band.refill(&f.world(), 1e-200);
        assert_eq!(band.of(VehicleId(0)), [VehicleId(1)]);
    }

    #[test]
    fn dense_blob_forms_one_cluster() {
        // 5 vehicles all in range of each other, same velocity.
        let positions = (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let f = Fixture::new(positions, still(5), 300.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        assert_eq!(c.cluster_count(), 1);
        let head = c.heads().next().unwrap();
        assert_eq!(c.members(head).len(), 5);
        assert!(c.is_head(head));
        for i in 0..5 {
            assert_eq!(c.head_of(VehicleId(i)), Some(head));
        }
    }

    #[test]
    fn far_apart_vehicles_are_singleton_clusters() {
        let positions = (0..3).map(|i| Point::new(i as f64 * 10_000.0, 0.0)).collect();
        let f = Fixture::new(positions, still(3), 300.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        assert_eq!(c.cluster_count(), 3);
        assert!((c.mean_cluster_size() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_hops_limits_membership() {
        // A chain 0-1-2-3-4 with 100m spacing, range 150 (only adjacent hear).
        let positions = (0..5).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        let f = Fixture::new(positions, still(5), 150.0);
        let mut cfg = ClusterConfig::multi_hop();
        cfg.max_hops = 1;
        let c = form_clusters(&f.world(), &cfg);
        // With 1 hop, no cluster can span 5 chain nodes.
        assert!(c.cluster_count() >= 2, "got {} clusters", c.cluster_count());
        for head in c.heads() {
            assert!(c.members(head).len() <= 3);
        }
    }

    #[test]
    fn stable_node_wins_election() {
        // Three vehicles in mutual range; v1 moves fast relative to others.
        let positions = vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0), Point::new(100.0, 0.0)];
        let velocities = vec![Point::new(10.0, 0.0), Point::new(-30.0, 0.0), Point::new(10.0, 0.0)];
        let f = Fixture::new(positions, velocities, 300.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        let head = c.heads().next().unwrap();
        assert_ne!(head, VehicleId(1), "the erratic vehicle must not be head");
    }

    #[test]
    fn moving_zone_splits_opposing_traffic() {
        // Two platoons in mutual radio range but opposite directions.
        let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let mut velocities = vec![Point::new(30.0, 0.0); 3];
        velocities.extend(vec![Point::new(-30.0, 0.0); 3]);
        let f = Fixture::new(positions, velocities, 300.0);
        let zones = form_clusters(&f.world(), &ClusterConfig::moving_zone());
        assert_eq!(zones.cluster_count(), 2, "opposing platoons must form separate zones");
        let zone_of = |i| zones.head_of(VehicleId(i)).expect("every vehicle is zoned");
        assert_eq!(zone_of(0), zone_of(2));
        assert_ne!(zone_of(0), zone_of(3));
        // Plain clustering would merge them all:
        let plain = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        assert_eq!(plain.cluster_count(), 1);
    }

    #[test]
    fn offline_vehicles_are_unclustered() {
        let positions: Vec<Point> = (0..3).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let velocities = still(3);
        let online = vec![true, false, true];
        let neighbors = NeighborTable::build(&positions, &online, 300.0);
        let world = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &neighbors,
        };
        let c = form_clusters(&world, &ClusterConfig::multi_hop());
        assert_eq!(c.head_of(VehicleId(1)), None);
        assert!(c.head_of(VehicleId(0)).is_some());
    }

    #[test]
    fn clustering_is_deterministic() {
        let positions: Vec<Point> =
            (0..10).map(|i| Point::new((i * 37 % 200) as f64, (i * 61 % 200) as f64)).collect();
        let f = Fixture::new(positions, still(10), 120.0);
        let a = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        let b = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        for i in 0..10 {
            assert_eq!(a.head_of(VehicleId(i)), b.head_of(VehicleId(i)));
        }
    }

    #[test]
    fn every_online_vehicle_has_a_head() {
        let positions: Vec<Point> =
            (0..30).map(|i| Point::new((i * 53 % 500) as f64, (i * 71 % 500) as f64)).collect();
        let f = Fixture::new(positions, still(30), 150.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        for i in 0..30 {
            let head = c.head_of(VehicleId(i)).expect("assigned");
            // Head consistency: the head's own head is itself.
            assert_eq!(c.head_of(head), Some(head));
            assert!(c.members(head).contains(&VehicleId(i)));
        }
    }

    #[test]
    fn maintenance_keeps_adequate_heads() {
        let positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let f = Fixture::new(positions, still(5), 300.0);
        let cfg = ClusterConfig::multi_hop();
        let first = form_clusters(&f.world(), &cfg);
        let head = first.heads().next().unwrap();
        // Nothing moved: maintenance keeps the same head for everyone.
        let second = maintain_clusters(&first, &f.world(), &cfg, 0.5);
        for i in 0..5 {
            assert_eq!(second.head_of(VehicleId(i)), Some(head));
        }
        assert_eq!(head_churn(&first, &second, 5), 0.0);
    }

    #[test]
    fn maintenance_splits_when_cluster_partitions() {
        // Start together, then half the cluster drives 10 km away.
        let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let f = Fixture::new(positions, still(6), 300.0);
        let cfg = ClusterConfig::multi_hop();
        let first = form_clusters(&f.world(), &cfg);
        assert_eq!(first.cluster_count(), 1);
        let mut far_positions = f.positions.clone();
        for p in far_positions.iter_mut().skip(3) {
            p.x += 10_000.0;
        }
        let f2 = Fixture::new(far_positions, still(6), 300.0);
        let second = maintain_clusters(&first, &f2.world(), &cfg, 0.5);
        assert_eq!(second.cluster_count(), 2, "split produces a second cluster");
        // Everyone still has a valid head.
        for i in 0..6 {
            let h = second.head_of(VehicleId(i)).unwrap();
            assert_eq!(second.head_of(h), Some(h));
        }
    }

    #[test]
    fn maintenance_election_stops_at_claimed_vehicles() {
        // 1 and 2 hang off 3's cluster at vehicle 4, three hops from the
        // head and out of each other's range:
        //
        //   0, 5, 6 — 3 — 7 — 4 —< 1, 2
        let positions = vec![
            Point::new(-700.0, 50.0),
            Point::new(125.0, 216.0),
            Point::new(125.0, -216.0),
            Point::new(-500.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(-700.0, -50.0),
            Point::new(-600.0, 0.0),
            Point::new(-250.0, 0.0),
        ];
        let cfg = ClusterConfig::multi_hop();
        let mut before = Fixture::new(positions.clone(), still(8), 300.0);
        before.online[1] = false;
        before.online[2] = false;
        before.neighbors = NeighborTable::build(&positions, &before.online, 300.0);
        let first = form_clusters(&before.world(), &cfg);
        assert_eq!(first.heads().collect::<Vec<_>>(), vec![VehicleId(3)]);
        assert!(first.members(VehicleId(3)).contains(&VehicleId(4)));

        let after = Fixture::new(positions, still(8), 300.0);
        let second = maintain_clusters(&first, &after.world(), &cfg, 0.5);
        // The newcomers are uncovered and elect among themselves. 1 wins
        // the tie but must not reach 2 through 4, which 3 already holds —
        // unlike a from-scratch formation, which searches on through it.
        assert_eq!(second.head_of(VehicleId(4)), Some(VehicleId(3)));
        assert_eq!(second.head_of(VehicleId(1)), Some(VehicleId(1)));
        assert_eq!(second.head_of(VehicleId(2)), Some(VehicleId(2)));
        assert_eq!(second.cluster_count(), 3);
    }

    #[test]
    fn maintenance_drops_offline_heads() {
        let positions: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let f = Fixture::new(positions.clone(), still(4), 300.0);
        let cfg = ClusterConfig::multi_hop();
        let first = form_clusters(&f.world(), &cfg);
        let head = first.heads().next().unwrap();
        let mut online = vec![true; 4];
        online[head.0 as usize] = false;
        let neighbors = NeighborTable::build(&positions, &online, 300.0);
        let velocities = still(4);
        let world = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &neighbors,
        };
        let second = maintain_clusters(&first, &world, &cfg, 0.5);
        assert_eq!(second.head_of(head), None, "offline head unassigned");
        for i in 0..4u32 {
            if VehicleId(i) != head {
                let h = second.head_of(VehicleId(i)).expect("re-elected");
                assert_ne!(h, head);
            }
        }
    }

    #[test]
    fn maintenance_churns_less_than_reelection_under_jitter() {
        // Small random position jitter each round: full re-election may swap
        // heads on score noise; maintenance must not churn at all (the
        // cluster never actually partitions).
        use vc_sim::rng::SimRng;
        let mut rng = SimRng::seed_from(31);
        let base: Vec<Point> = (0..8).map(|i| Point::new(i as f64 * 25.0, 0.0)).collect();
        let cfg = ClusterConfig::multi_hop();
        let f0 = Fixture::new(base.clone(), still(8), 300.0);
        let mut maintained = form_clusters(&f0.world(), &cfg);
        let mut reelected = maintained.clone();
        let mut churn_maintained = 0.0;
        let mut churn_reelected = 0.0;
        for _ in 0..20 {
            let jittered: Vec<Point> = base
                .iter()
                .map(|p| *p + Point::new(rng.range_f64(-15.0, 15.0), rng.range_f64(-15.0, 15.0)))
                .collect();
            let velocities: Vec<Point> =
                (0..8).map(|_| Point::new(rng.range_f64(-3.0, 3.0), 0.0)).collect();
            let f = Fixture::new(jittered, velocities, 300.0);
            let next_maintained = maintain_clusters(&maintained, &f.world(), &cfg, 0.5);
            let next_reelected = form_clusters(&f.world(), &cfg);
            churn_maintained += head_churn(&maintained, &next_maintained, 8);
            churn_reelected += head_churn(&reelected, &next_reelected, 8);
            maintained = next_maintained;
            reelected = next_reelected;
        }
        assert!(
            churn_maintained <= churn_reelected,
            "maintenance churn {churn_maintained} must not exceed re-election churn {churn_reelected}"
        );
        assert_eq!(churn_maintained, 0.0, "no partition ever happens here");
    }

    /// Candidates one `reform` of `scenario`'s current round scores, and
    /// the online vehicles it elects among.
    fn scored_of(scenario: &Scenario) -> (u64, u64) {
        let table = scenario.neighbor_table();
        let world = WorldView {
            positions: scenario.fleet.positions(),
            velocities: scenario.fleet.velocities(),
            online: scenario.fleet.online_flags(),
            neighbors: &table,
        };
        let mut clustering = Clustering::default();
        clustering.reform(&world, &ClusterConfig::multi_hop());
        (clustering.scored(), world.online_ids().count() as u64)
    }

    #[test]
    fn the_cloud_election_scores_few_candidates() {
        // `cloud-pipeline`'s fleet: four heads among 1 000 vehicles of
        // degree ≈ 240, so nearly every bound loses before it is reached.
        let mut cloud = ScenarioBuilder::new().seed(42).vehicles(1_000).urban_with_rsus();
        cloud.run_ticks(30);
        let (scored, online) = scored_of(&cloud);
        assert!(scored * 5 <= online, "scored {scored} of {online} candidates");
    }

    #[test]
    fn the_city_election_leaves_candidates_unscored() {
        // `city-secure`'s 57 × 57 grid at 78 vehicles per km²: degrees near
        // 22, so the bound is looser and most candidates are scored.
        let mut city = ScenarioBuilder::new().seed(42).dt(0.5).urban_with_rsus();
        city.roadnet = RoadNetwork::grid(57, 57, 200.0, 13.9);
        city.fleet = Fleet::urban(&city.roadnet, 10_000, &mut city.rng);
        city.channel = Channel::dsrc();
        city.run_ticks(8);
        let (scored, online) = scored_of(&city);
        eprintln!("city scored {scored} of {online}");
        assert!(scored * 10 <= online * 7, "scored {scored} of {online} candidates");
    }

    #[test]
    fn a_score_tied_with_a_lower_bound_goes_by_id() {
        // 0 hears 1 and 2; 0 and 1 stand still, 2 drives at 2 m/s, so
        // vehicle 0 scores 2 − 2/2 = 1 (its bound is 2) and 1 scores
        // 1 − 0 = 1, its own bound. Equal keys go to the lower id: 0 must
        // win, although 1's bound comes up first in 1's bucket. A still
        // clique of 130 far off takes the fleet past SMALL_FLEET.
        let mut positions =
            vec![Point::new(200.0, 0.0), Point::new(0.0, 0.0), Point::new(400.0, 0.0)];
        positions.extend((0..130).map(|i| Point::new(10_000.0 + i as f64, 0.0)));
        let mut velocities = still(133);
        velocities[2] = Point::new(2.0, 0.0);
        let f = Fixture::new(positions, velocities, 300.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        for i in 0..3 {
            assert_eq!(c.head_of(VehicleId(i)), Some(VehicleId(0)));
        }
    }

    /// A still blob of 150 vehicles within one range, a bridge `x` 280 m
    /// east that hears about half of it, and vehicle 151 another 250 m on,
    /// which hears only `x` and has a NaN velocity — so its score and
    /// `x`'s are NaN. Past [`SMALL_FLEET`], so the election is bucketed.
    fn blob_with_nan_tail() -> Fixture {
        let mut positions: Vec<Point> = (0..150)
            .map(|i| Point::new((i % 10) as f64 * 10.0 - 45.0, (i / 10) as f64 * 6.0 - 45.0))
            .collect();
        positions.push(Point::new(280.0, 0.0));
        positions.push(Point::new(530.0, 0.0));
        let mut velocities = still(152);
        velocities[151] = Point::new(f64::NAN, 0.0);
        Fixture::new(positions, velocities, 300.0)
    }

    #[test]
    fn a_nan_vehicle_claimed_before_its_turn_is_never_scored() {
        // The head comes from the blob with a score equal to its bound and
        // claims the bridge at one hop and the NaN vehicle at two, before
        // either one's lower bound comes up.
        let f = blob_with_nan_tail();
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        let head = c.head_of(VehicleId(151)).expect("claimed");
        assert!(head.0 < 150);
        assert_eq!(c.head_of(VehicleId(150)), Some(head));
    }

    #[test]
    #[should_panic(expected = "finite scores")]
    fn a_nan_vehicle_the_election_scores_panics() {
        // Out of everyone's reach, a NaN vehicle and its one neighbor are
        // still unclaimed when their bound comes up.
        let mut f = blob_with_nan_tail();
        f.positions[150] = Point::new(5_000.0, 0.0);
        f.positions[151] = Point::new(5_100.0, 0.0);
        f.neighbors = NeighborTable::build(&f.positions, &f.online, 300.0);
        form_clusters(&f.world(), &ClusterConfig::multi_hop());
    }

    #[test]
    fn churn_metric() {
        let positions = (0..4).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let f = Fixture::new(positions, still(4), 300.0);
        let a = form_clusters(&f.world(), &ClusterConfig::multi_hop());
        let b = a.clone();
        assert_eq!(head_churn(&a, &b, 4), 0.0);
        let empty = Clustering::default();
        assert_eq!(head_churn(&a, &empty, 4), 1.0);
        assert_eq!(head_churn(&a, &empty, 0), 0.0);
    }
}
