//! Wireless channel models: V2V radio, roadside units, and cellular uplink.
//!
//! The model is intentionally at the abstraction level of the VANET
//! literature the paper surveys: probabilistic reception that degrades with
//! distance (log-distance shadowing folded into a piecewise curve),
//! contention delay growing with local density, and store-and-forward
//! latency per hop. RSUs give fixed coverage disks with a wired backhaul;
//! the cellular path models the paper's "jamming or inaccessibility of the
//! Internet/cellular network at the scene" failure mode (§I).

use crate::geom::{Point, SpatialGrid};
use crate::node::VehicleId;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// V2V channel parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Nominal maximum range, meters (DSRC ≈ 300 m).
    pub range_m: f64,
    /// Fraction of the range with near-certain reception.
    pub reliable_fraction: f64,
    /// Data rate in bits per second (DSRC ≈ 6 Mb/s).
    pub bitrate_bps: f64,
    /// Mean extra MAC contention delay per contending neighbor, seconds.
    pub contention_per_neighbor_s: f64,
    /// Background loss probability even in perfect range.
    pub base_loss: f64,
}

impl Channel {
    /// A DSRC-like default channel.
    pub fn dsrc() -> Self {
        Channel {
            range_m: 300.0,
            reliable_fraction: 0.6,
            bitrate_bps: 6_000_000.0,
            contention_per_neighbor_s: 0.000_3,
            base_loss: 0.02,
        }
    }

    /// Reception probability at `dist` meters: 1−`base_loss` inside the
    /// reliable zone, linearly falling to zero at `range_m`.
    pub(crate) fn reception_probability(&self, dist: f64) -> f64 {
        if dist < 0.0 {
            return 0.0;
        }
        let reliable = self.range_m * self.reliable_fraction;
        if dist <= reliable {
            1.0 - self.base_loss
        } else if dist >= self.range_m {
            0.0
        } else {
            let f = 1.0 - (dist - reliable) / (self.range_m - reliable);
            (1.0 - self.base_loss) * f
        }
    }

    /// Attempts a single-hop transmission of `bytes` over `dist` meters with
    /// `contenders` other transmitters nearby. Returns the one-hop latency on
    /// success, `None` on loss.
    pub fn try_deliver(
        &self,
        dist: f64,
        contenders: usize,
        bytes: usize,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        if !rng.chance(self.reception_probability(dist)) {
            return None;
        }
        Some(self.latency(contenders, bytes, rng))
    }

    /// One-hop latency assuming successful reception: serialization plus
    /// exponential contention backoff scaled by local density.
    pub fn latency(&self, contenders: usize, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let serialization = bytes as f64 * 8.0 / self.bitrate_bps;
        let contention_mean = self.contention_per_neighbor_s * (contenders as f64 + 1.0);
        let contention = rng.exp(contention_mean.max(1e-9));
        SimDuration::from_secs_f64(serialization + contention + 0.000_5)
    }
}

/// Identifier of a roadside unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RsuId(pub u32);

/// A roadside unit: fixed position, coverage disk, wired backhaul.
#[derive(Debug, Clone)]
pub struct Rsu {
    /// This RSU's id.
    pub id: RsuId,
    /// Mast position.
    pub pos: Point,
    /// Coverage radius, meters (typically larger than V2V).
    pub range_m: f64,
    /// Whether the unit is powered and connected (disasters switch this off).
    pub online: bool,
}

/// The deployed roadside infrastructure.
#[derive(Debug, Clone, Default)]
pub struct RsuNetwork {
    rsus: Vec<Rsu>,
    /// One-way wired backhaul latency between any two RSUs / the core.
    pub backhaul_latency: SimDuration,
}

impl RsuNetwork {
    /// Creates an empty deployment with 5 ms backhaul.
    pub fn new() -> Self {
        RsuNetwork { rsus: Vec::new(), backhaul_latency: SimDuration::from_millis(5) }
    }

    /// Adds an RSU and returns its id.
    pub fn add(&mut self, pos: Point, range_m: f64) -> RsuId {
        let id = RsuId(self.rsus.len() as u32);
        self.rsus.push(Rsu { id, pos, range_m, online: true });
        id
    }

    /// Places RSUs on a regular grid covering `width x height` meters with
    /// the given spacing, each with `range_m` coverage.
    pub(crate) fn grid_deployment(width: f64, height: f64, spacing: f64, range_m: f64) -> Self {
        let mut net = RsuNetwork::new();
        let mut y = 0.0;
        while y <= height {
            let mut x = 0.0;
            while x <= width {
                net.add(Point::new(x, y), range_m);
                x += spacing;
            }
            y += spacing;
        }
        net
    }

    /// All RSUs.
    pub fn rsus(&self) -> &[Rsu] {
        &self.rsus
    }

    /// Number of RSUs.
    pub fn len(&self) -> usize {
        self.rsus.len()
    }

    /// `true` when no RSUs are deployed.
    pub fn is_empty(&self) -> bool {
        self.rsus.is_empty()
    }

    /// The nearest online RSU covering `pos`, if any (ties go to the lowest
    /// id, as `Iterator::min_by` keeps the first minimal element).
    pub fn covering(&self, pos: Point) -> Option<&Rsu> {
        // One distance_sq per RSU: the old filter took a square root per
        // candidate and the comparator then recomputed both squared
        // distances. `d2 <= range²` selects the same set as `d <= range`.
        let mut best: Option<(f64, &Rsu)> = None;
        for r in &self.rsus {
            if !r.online {
                continue;
            }
            let d2 = r.pos.distance_sq(pos);
            if d2 > r.range_m * r.range_m {
                continue;
            }
            match best {
                Some((bd2, _)) if d2 >= bd2 => {}
                _ => best = Some((d2, r)),
            }
        }
        best.map(|(_, r)| r)
    }

    /// Takes a random `fraction` of RSUs offline (disaster injection).
    pub fn fail_fraction(&mut self, fraction: f64, rng: &mut SimRng) {
        let n = self.rsus.len();
        let k = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let victims = rng.sample_indices(n, k);
        for i in victims {
            self.rsus[i].online = false;
        }
    }
}

/// Cellular uplink model: high latency, may be congested or jammed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cellular {
    /// Whether the network is reachable at all.
    pub available: bool,
    /// Mean round-trip latency, seconds.
    pub rtt_mean_s: f64,
    /// Extra mean delay per concurrent user beyond `congestion_knee`.
    pub congestion_per_user_s: f64,
    /// Number of users the cell absorbs before congestion delay kicks in.
    pub congestion_knee: usize,
}

impl Cellular {
    /// A healthy LTE-like cell.
    pub fn healthy() -> Self {
        Cellular {
            available: true,
            rtt_mean_s: 0.05,
            congestion_per_user_s: 0.002,
            congestion_knee: 50,
        }
    }

    /// A jammed / destroyed cell (paper §I: "jamming or inaccessibility").
    pub fn unavailable() -> Self {
        Cellular {
            available: false,
            rtt_mean_s: 0.0,
            congestion_per_user_s: 0.0,
            congestion_knee: 0,
        }
    }

    /// Round-trip latency with `active_users` concurrent users, or `None`
    /// when the cell is unreachable.
    pub fn rtt(&self, active_users: usize, rng: &mut SimRng) -> Option<SimDuration> {
        if !self.available {
            return None;
        }
        let overload = active_users.saturating_sub(self.congestion_knee) as f64;
        let mean = self.rtt_mean_s + overload * self.congestion_per_user_s;
        Some(SimDuration::from_secs_f64(rng.exp(mean)))
    }
}

/// A snapshot of who can hear whom, rebuilt each protocol round.
///
/// Stored in CSR (compressed sparse row) layout: one flat `Vec<VehicleId>`
/// plus per-vehicle offsets, so rebuilding touches two growable buffers
/// instead of allocating one `Vec` per vehicle per round. Each vehicle's
/// slice is sorted ascending, so the layout choice is invisible through
/// [`NeighborTable::of`] — and so is the way a rebuild found the rows: a
/// fleet whose id space fits one machine word is tested pair by pair into
/// bit rows, a larger one goes through the caller's [`SpatialGrid`] — into
/// a bit matrix once its rows have come out dense — and a large sparse one
/// that barely moved since its last scan is read off the candidate rows
/// that scan remembered.
#[derive(Debug, Clone)]
pub struct NeighborTable {
    /// `offsets[i]..offsets[i + 1]` bounds vehicle `i`'s slice of `flat`.
    offsets: Vec<u32>,
    flat: Vec<VehicleId>,
    /// Row-ordering scratch of the cell-list path: one bit per vehicle id,
    /// all zero between rows; a matrix scan grows it to one such row per
    /// vehicle and leaves all of it zero.
    marks: Vec<u64>,
    /// The positions the last full scan saw, kept while a later rebuild
    /// could use them (see [`NeighborTable::rebuild`]); empty otherwise.
    seen: Vec<Point>,
    /// The bits of that scan's `range_m`.
    seen_range: u64,
    /// `cand_offsets[i]..cand_offsets[i + 1]` bounds vehicle `i`'s slice of
    /// `cand`: the ids, ascending, of every other vehicle — online or not —
    /// strictly within `range_m + SKIN` of it at `seen`. Empty when that
    /// scan gathered none.
    cand_offsets: Vec<u32>,
    cand: Vec<u16>,
    /// Whether `cand` has answered a rebuild since it was gathered.
    cand_used: bool,
    scans: u64,
}

/// Width of a bit row. While the id space fits one `u64`, a vehicle's
/// whole neighbor set is a single word and the n(n − 1)/2 exact distance
/// tests cost less than building the cell list would; that is what 64
/// means here — the width of the word, not a tuned crossover.
const ROW_BITS: usize = u64::BITS as usize;

/// How far beyond `range_m` a skin scan gathers candidates, meters. While
/// no vehicle has moved `SKIN / 2` from where that scan saw it, a pair that
/// was `range_m + SKIN` apart is still more than `range_m` apart (triangle
/// inequality), so the neighbors are among the candidates. Measured, not
/// derived: the smallest skin that lasts an urban fleet (7.99 m a tick)
/// four ticks; the sweep is in DESIGN.md §5.
const SKIN: f64 = 50.0;

/// Candidate ids are `u16`: fleets above this many ids are scanned from
/// nothing every time, as they always were.
const SKIN_IDS: usize = 1 << 16;

/// How far a vehicle may be from where a scan saw it while that scan's
/// candidates still serve: `SKIN / 2` less a rounding slack of 1 mm or
/// eight ulps of `span`, the largest magnitude in play, whichever is more.
/// Each `distance_sq` is good to a few ulps of itself, so a millimeter
/// covers every range a radio has; a range or a coordinate so large that
/// eight of its ulps reach `SKIN / 2` makes the limit negative, which turns
/// the skin off.
fn reuse_limit(span: f64) -> f64 {
    SKIN / 2.0 - (8.0 * f64::EPSILON * span).max(1e-3)
}

/// Transposes a 64 × 64 bit block in place: bit `c` of word `r` trades
/// places with bit `r` of word `c`. Six rounds, each swapping the
/// off-diagonal halves of every block half the previous round's size.
fn transpose_block(block: &mut [u64; 64]) {
    let (mut half, mut low) = (32, 0x0000_0000_ffff_ffff_u64);
    while half != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((block[k] >> half) ^ block[k + half]) & low;
            block[k] ^= t << half;
            block[k + half] ^= t;
            // The next row with bit `half` clear.
            k = (k + half + 1) & !half;
        }
        half >>= 1;
        low ^= low << half;
    }
}

/// ORs the bit matrix `m` — `n` rows of `words` words, bit `j` of a row
/// being column `j` — with its transpose, block pair by block pair (a
/// diagonal block is its own pair). Rows past `n` in the last block row
/// read as zero, and so do the columns past `n`, so the two overhangs
/// mirror onto each other as nothing.
fn or_transpose(m: &mut [u64], n: usize, words: usize) {
    let rows = |b: usize| (b * 64..n.min(b * 64 + 64)).map(move |r| r * words);
    let load = |m: &[u64], bi: usize, bj: usize| {
        let mut block = [0u64; 64];
        for (word, at) in block.iter_mut().zip(rows(bi)) {
            *word = m[at + bj];
        }
        block
    };
    let store = |m: &mut [u64], bi: usize, bj: usize, block: &[u64; 64]| {
        for (word, at) in block.iter().zip(rows(bi)) {
            m[at + bj] = *word;
        }
    };
    for bi in 0..words {
        for bj in bi..words {
            let (mut a, mut b) = (load(m, bi, bj), load(m, bj, bi));
            let (mut a_t, mut b_t) = (a, b);
            transpose_block(&mut a_t);
            transpose_block(&mut b_t);
            for k in 0..64 {
                a[k] |= b_t[k];
                b[k] |= a_t[k];
            }
            store(m, bj, bi, &b);
            store(m, bi, bj, &a);
        }
    }
}

impl Default for NeighborTable {
    fn default() -> Self {
        NeighborTable::new()
    }
}

impl NeighborTable {
    /// An empty table over zero vehicles; fill it with
    /// [`NeighborTable::rebuild`].
    pub fn new() -> Self {
        NeighborTable {
            offsets: vec![0],
            flat: Vec::new(),
            marks: Vec::new(),
            seen: Vec::new(),
            seen_range: 0,
            cand_offsets: Vec::new(),
            cand: Vec::new(),
            cand_used: false,
            scans: 0,
        }
    }

    /// Deep heap bytes of the CSR arrays, the row-ordering bitmap and what
    /// the last scan remembered, by capacity (the reserved memory, which
    /// in-place rebuilds keep across rounds). Deterministic, so the
    /// `mem.net.bytes` gauge built on it can ride in byte-compared
    /// time-series output.
    pub fn heap_bytes(&self) -> u64 {
        (self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.flat.capacity() * std::mem::size_of::<VehicleId>()
            + self.marks.capacity() * std::mem::size_of::<u64>()
            + self.seen.capacity() * std::mem::size_of::<Point>()
            + self.cand_offsets.capacity() * std::mem::size_of::<u32>()
            + self.cand.capacity() * std::mem::size_of::<u16>()) as u64
    }

    /// How many rebuilds so far scanned the fleet from nothing — bit rows,
    /// cell list or bit matrix — instead of refiltering remembered
    /// candidates. The rows never say which happened; tests and benches
    /// need to.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Builds the table from vehicle positions (id = index) and a channel
    /// range. Offline vehicles should be passed with a position but excluded
    /// via `online`.
    pub fn build(positions: &[Point], online: &[bool], range_m: f64) -> Self {
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(range_m.max(1.0));
        table.rebuild(&mut grid, positions, online, range_m);
        table
    }

    /// Rebuilds this table in place, reusing its flat storage and `grid`'s
    /// buffers (the grid is rebuilt first, so it may carry entries from a
    /// previous round). Produces exactly what [`NeighborTable::build`] does —
    /// each slice is sorted, so the result is independent of the grid's cell
    /// size and scan order.
    ///
    /// A fleet of at most 64 ids (online or not) never reaches the grid: its
    /// rows are bit rows filled by the same strict `distance_sq < range²`
    /// test over all pairs, read back ascending. `grid` is then left exactly
    /// as it was — stale, which nothing observes, since every use of it
    /// starts with a rebuild.
    ///
    /// On the cell-list path a row is ordered without comparisons when it
    /// is dense in the id space: one bit per hit goes into a bitmap of
    /// `n / 64` words, and the row is read back in ascending order with
    /// `trailing_zeros`. That costs a pass over the whole bitmap, so rows
    /// shorter than its word count keep the comparison sort.
    ///
    /// A table whose last rebuild came out dense — a mean degree of at least
    /// those `n / 64` words — is rebuilt by a *matrix scan* instead: every
    /// pair of online vehicles in neighboring cells is tested once, into an
    /// `n × n / 64`-word bit matrix that is OR-ed with its transpose and
    /// read back row by row in ascending order. The matrix takes `n² / 8`
    /// bytes, at most twice what the dense rows before it took.
    ///
    /// A table that is rebuilt again and again over a fleet that barely
    /// moves in between does not scan every time. A scan of 65 to 65 536
    /// ids whose rows came out sparse (mean degree below those `n / 64`
    /// words) with a range of at least twice the 50 m skin remembers the
    /// positions it saw. If the next rebuild — same fleet size, same range
    /// — finds every vehicle within half a skin of them, it is a *skin
    /// scan*: `grid` is re-celled to `range_m + 50`, every vehicle's
    /// candidates within that distance are gathered, online or not, and the
    /// rows are filtered out of them. Rebuilds after that only *refilter*
    /// the candidate rows with the scan's own test on the current positions
    /// and `online` flags, and leave `grid` stale, until some vehicle has
    /// moved half a skin from where the skin scan saw it; then the
    /// candidates are gathered afresh if they served at least once, and
    /// dropped if they did not (a caller that moves the fleet that far
    /// between calls pays for a plain scan and nothing else). A NaN or
    /// infinite coordinate counts as having moved too far.
    /// [`NeighborTable::scans`] counts the rebuilds that were not a refilter.
    ///
    /// A `range_m` that is not finite and positive gives every vehicle an
    /// empty row, whatever the fleet size.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `online` differ in length.
    pub fn rebuild(
        &mut self,
        grid: &mut SpatialGrid,
        positions: &[Point],
        online: &[bool],
        range_m: f64,
    ) {
        assert_eq!(positions.len(), online.len());
        let n = positions.len();
        if n <= ROW_BITS {
            self.scans += 1;
            self.offsets.clear();
            self.offsets.push(0);
            self.flat.clear();
            self.fill_from_bit_rows(positions, online, range_m);
            return;
        }
        let words = n.div_ceil(64);
        let coherent = self.seen.len() == n && self.seen_range == range_m.to_bits();
        let near = coherent && self.within_half_skin(positions, range_m);
        let gathered = coherent && !self.cand_offsets.is_empty();
        if near && gathered {
            self.cand_used = true;
        } else if near || (gathered && self.cand_used) {
            self.gather(grid, positions, range_m);
        } else {
            if self.flat.len() >= n * words {
                self.scan_matrix(grid, positions, online, range_m);
            } else {
                self.scan(grid, positions, online, range_m);
            }
            self.cand_offsets.clear();
            self.seen.clear();
            let sparse = self.flat.len() < n * words;
            if sparse && n <= SKIN_IDS && range_m.is_finite() && range_m >= 2.0 * SKIN {
                self.seen.extend_from_slice(positions);
                self.seen_range = range_m.to_bits();
            }
            return;
        }
        self.refilter(positions, online, range_m);
        if self.flat.len() >= n * words {
            // Dense rows: the bitmap-ordered scan is the better path.
            self.cand_offsets.clear();
            self.seen.clear();
        }
    }

    /// Whether every vehicle is still within [`reuse_limit`] of where `seen`
    /// has it. A vehicle without a fix, then or now, has not: its NaN would
    /// otherwise drop out of the running maximum at the next vehicle.
    fn within_half_skin(&self, positions: &[Point], range_m: f64) -> bool {
        let (mut fixed, mut worst, mut span) = (true, 0.0f64, range_m + SKIN);
        for (p, q) in positions.iter().zip(&self.seen) {
            let d = p.distance_sq(*q);
            fixed &= !d.is_nan();
            worst = worst.max(d);
            span = span.max(p.x.abs()).max(p.y.abs());
        }
        let limit = reuse_limit(span);
        fixed && limit > 0.0 && worst <= limit * limit
    }

    /// Appends to `out` the ids of `grid`'s entries strictly within
    /// `radius` of vehicle `i` at `p`, `i` itself left out, in
    /// [`SpatialGrid::candidate_rows`] order.
    #[inline]
    fn push_hits(out: &mut Vec<VehicleId>, grid: &SpatialGrid, i: usize, p: Point, radius: f64) {
        let r_sq = radius * radius;
        for run in grid.candidate_rows(p, radius) {
            // About four candidates in ten are in range, which no branch
            // predictor learns: write every candidate and advance the
            // cursor only past the hits.
            let base = out.len();
            out.resize(base + run.len(), VehicleId(0));
            let slots = &mut out[base..];
            let mut hits = 0;
            for &(j, q) in run {
                slots[hits] = VehicleId(j as u32);
                hits += usize::from((q.distance_sq(p) < r_sq) & (j != i));
            }
            out.truncate(base + hits);
        }
    }

    /// The plain scan: a cell list of the online vehicles, each online
    /// vehicle's hits ordered by bitmap or comparison sort.
    fn scan(&mut self, grid: &mut SpatialGrid, positions: &[Point], online: &[bool], range_m: f64) {
        self.scans += 1;
        self.offsets.clear();
        self.offsets.push(0);
        self.flat.clear();
        grid.rebuild(positions.iter().copied().enumerate().filter(|&(i, _)| online[i]));
        self.marks.resize(positions.len().div_ceil(64), 0);
        for (i, &p) in positions.iter().enumerate() {
            if online[i] {
                let start = self.flat.len();
                Self::push_hits(&mut self.flat, grid, i, p, range_m);
                let row = &mut self.flat[start..];
                if self.marks.len() <= row.len() {
                    for id in row.iter() {
                        self.marks[(id.0 >> 6) as usize] |= 1 << (id.0 & 63);
                    }
                    let mut out = row.iter_mut();
                    for (w, word) in self.marks.iter_mut().enumerate() {
                        let mut bits = std::mem::take(word);
                        while bits != 0 {
                            let slot = out.next().expect("one bit per distinct hit");
                            *slot = VehicleId((w as u32) << 6 | bits.trailing_zeros());
                            bits &= bits - 1;
                        }
                    }
                } else {
                    row.sort_unstable();
                }
            }
            self.offsets.push(self.flat.len() as u32);
        }
    }

    /// The matrix scan: each pair of online vehicles that
    /// [`SpatialGrid::half_shell`] offers gets the plain scan's test once,
    /// and a hit sets bit `j` of row `i` only — `marks`, grown to `n` rows
    /// of `n / 64` words. The test is exactly symmetric (`(a − b)²` and
    /// `(b − a)²` are the same float), so OR-ing the matrix with its
    /// transpose completes every row; the rows are then read back ascending
    /// with `trailing_zeros` into a `flat` sized once by popcount, each word
    /// cleared as it is read. Offline vehicles never enter the grid, so
    /// their rows and columns stay empty.
    fn scan_matrix(
        &mut self,
        grid: &mut SpatialGrid,
        positions: &[Point],
        online: &[bool],
        range_m: f64,
    ) {
        self.scans += 1;
        let n = positions.len();
        let words = n.div_ceil(64);
        grid.rebuild(positions.iter().copied().enumerate().filter(|&(i, _)| online[i]));
        self.marks.resize(n * words, 0);
        let r_sq = range_m * range_m;
        for (&(i, p), run) in grid.half_shell(range_m) {
            let row = &mut self.marks[i * words..(i + 1) * words];
            for &(j, q) in run {
                row[j >> 6] |= u64::from(q.distance_sq(p) < r_sq) << (j & 63);
            }
        }
        or_transpose(&mut self.marks, n, words);
        let total = self.marks.iter().map(|w| w.count_ones() as usize).sum();
        self.offsets.clear();
        self.offsets.push(0);
        // A word is read out eight slots at a time, whatever it holds: one
        // loop exit per eight ids instead of one unpredictable branch per
        // id. Slots past a word's ids are overwritten by the next word's,
        // and the last word's overhang is cut off below. Every slot under
        // `total` is written, so stale rows need no clearing first.
        self.flat.resize(total + 8, VehicleId(0));
        let mut at = 0;
        for row in self.marks.chunks_exact_mut(words) {
            for (w, word) in row.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                let count = bits.count_ones() as usize;
                for slots in self.flat[at..at + count.next_multiple_of(8)].chunks_exact_mut(8) {
                    for slot in slots {
                        *slot = VehicleId((w as u32) << 6 | bits.trailing_zeros());
                        bits &= bits.wrapping_sub(1);
                    }
                }
                at += count;
            }
            self.offsets.push(at as u32);
        }
        self.flat.truncate(total);
    }

    /// The skin scan: every vehicle's candidates within `range_m + SKIN`,
    /// ascending, into `cand`, and the positions into `seen`. Leaves `flat`
    /// and `offsets` as scratch for the refilter that follows.
    ///
    /// No row is sorted. The hits are first written unordered, row by row,
    /// into `flat`; the relation is exactly symmetric (`(a − b)²` and
    /// `(b − a)²` are the same float), so row `i` of its transpose is as
    /// long as row `i`, and walking the source rows `j` ascending while
    /// appending `j` to every row they list fills each row of the transpose
    /// in ascending order.
    fn gather(&mut self, grid: &mut SpatialGrid, positions: &[Point], range_m: f64) {
        self.scans += 1;
        let n = positions.len();
        debug_assert!(n <= SKIN_IDS, "candidate ids are u16");
        let reach = range_m + SKIN;
        // Nine cells of `reach` hold a disc of it; the caller's cells are
        // sized for `range_m` and would take twenty-five.
        grid.set_cell_size(reach);
        grid.rebuild(positions.iter().copied().enumerate());
        self.flat.clear();
        self.cand_offsets.clear();
        self.cand_offsets.push(0);
        for (i, &p) in positions.iter().enumerate() {
            Self::push_hits(&mut self.flat, grid, i, p, reach);
            self.cand_offsets.push(self.flat.len() as u32);
        }
        let total = self.flat.len();
        if total > self.cand.capacity() {
            // An eighth of headroom: the total drifts from scan to scan,
            // and a store sized to each one would be re-allocated by most.
            self.cand.clear();
            self.cand.reserve_exact(total + total / 8);
        }
        self.cand.resize(total, 0);
        // `offsets` is rewritten by the refilter; until then its first `n`
        // slots are the write cursors of the transpose.
        self.offsets.clear();
        self.offsets.extend_from_slice(&self.cand_offsets[..n]);
        for j in 0..n {
            let row = self.cand_offsets[j] as usize..self.cand_offsets[j + 1] as usize;
            for id in &self.flat[row] {
                let cursor = &mut self.offsets[id.0 as usize];
                self.cand[*cursor as usize] = j as u16;
                *cursor += 1;
            }
        }
        debug_assert!(
            self.offsets.iter().eq(&self.cand_offsets[1..]),
            "every cursor must end on its row end"
        );
        self.seen.clear();
        self.seen.extend_from_slice(positions);
        self.seen_range = range_m.to_bits();
        self.cand_used = false;
    }

    /// The rows out of the candidate rows: the plain scan's test on the
    /// same operands, offline vehicles masked out at both ends. Candidate
    /// rows are ascending, so the rows are.
    fn refilter(&mut self, positions: &[Point], online: &[bool], range_m: f64) {
        let r_sq = range_m * range_m;
        self.offsets.clear();
        self.offsets.push(0);
        // Every candidate is written and the cursor advanced only past the
        // hits, as in the scans; sized once for all of them.
        self.flat.resize(self.cand.len(), VehicleId(0));
        let mut hits = 0;
        for (i, &p) in positions.iter().enumerate() {
            if online[i] {
                let row = self.cand_offsets[i] as usize..self.cand_offsets[i + 1] as usize;
                let slots = &mut self.flat[hits..];
                let mut row_hits = 0;
                for &j in &self.cand[row] {
                    slots[row_hits] = VehicleId(j.into());
                    let j = usize::from(j);
                    row_hits += usize::from((positions[j].distance_sq(p) < r_sq) & online[j]);
                }
                hits += row_hits;
            }
            self.offsets.push(hits as u32);
        }
        self.flat.truncate(hits);
    }

    /// The rows of a fleet of at most [`ROW_BITS`] ids, appended to the
    /// cleared CSR arrays. Bit `j` of row `i` is the cell-list path's test
    /// on the same operands; only `j < i` is evaluated and mirrored, which
    /// is exact because `(a − b)²` and `(b − a)²` are the same float. The
    /// strict triangle leaves a vehicle out of its own row, the online word
    /// masks offline ids out of every row, and `trailing_zeros` reads each
    /// row back ascending.
    fn fill_from_bit_rows(&mut self, positions: &[Point], online: &[bool], range_m: f64) {
        let n = positions.len();
        let mut rows = [0u64; ROW_BITS];
        // `r²` alone would let −5 m through and make +∞ admit everyone;
        // `SpatialGrid::candidate_rows` refuses both for the larger fleets.
        if range_m.is_finite() && range_m > 0.0 {
            let r_sq = range_m * range_m;
            for i in 1..n {
                let p = positions[i];
                let mut below = 0u64;
                for (j, q) in positions[..i].iter().enumerate() {
                    below |= u64::from(q.distance_sq(p) < r_sq) << j;
                }
                rows[i] = below;
                while below != 0 {
                    rows[below.trailing_zeros() as usize] |= 1 << i;
                    below &= below - 1;
                }
            }
        }
        let live = online.iter().enumerate().fold(0u64, |w, (i, &on)| w | u64::from(on) << i);
        for (i, row) in rows[..n].iter().enumerate() {
            let mut bits = if online[i] { row & live } else { 0 };
            while bits != 0 {
                self.flat.push(VehicleId(bits.trailing_zeros()));
                bits &= bits - 1;
            }
            self.offsets.push(self.flat.len() as u32);
        }
    }

    /// Neighbors of a vehicle, sorted ascending.
    pub fn of(&self, id: VehicleId) -> &[VehicleId] {
        let i = id.0 as usize;
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree (neighbor count) of a vehicle.
    pub fn degree(&self, id: VehicleId) -> usize {
        self.of(id).len()
    }

    /// Mean degree over all vehicles.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.flat.len() as f64 / self.len() as f64
    }

    /// Number of vehicles tracked.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reception_curve_shape() {
        let ch = Channel::dsrc();
        assert!((ch.reception_probability(0.0) - 0.98).abs() < 1e-12);
        assert!((ch.reception_probability(100.0) - 0.98).abs() < 1e-12);
        assert_eq!(ch.reception_probability(300.0), 0.0);
        assert_eq!(ch.reception_probability(1000.0), 0.0);
        assert_eq!(ch.reception_probability(-5.0), 0.0);
        let mid = ch.reception_probability(240.0);
        assert!(mid > 0.0 && mid < 0.98, "mid-zone prob {mid}");
        // Monotone non-increasing.
        let mut last = 1.0;
        for d in 0..40 {
            let p = ch.reception_probability(d as f64 * 10.0);
            assert!(p <= last + 1e-12);
            last = p;
        }
    }

    #[test]
    fn delivery_always_fails_out_of_range() {
        let ch = Channel::dsrc();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            assert!(ch.try_deliver(400.0, 0, 100, &mut rng).is_none());
        }
    }

    #[test]
    fn delivery_mostly_succeeds_close() {
        let ch = Channel::dsrc();
        let mut rng = SimRng::seed_from(2);
        let ok = (0..1000).filter(|_| ch.try_deliver(50.0, 3, 200, &mut rng).is_some()).count();
        assert!(ok > 950, "only {ok}/1000 delivered");
    }

    #[test]
    fn latency_grows_with_density() {
        let ch = Channel::dsrc();
        let mut rng = SimRng::seed_from(3);
        let mean = |contenders: usize, rng: &mut SimRng| {
            (0..2000).map(|_| ch.latency(contenders, 300, rng).as_secs_f64()).sum::<f64>() / 2000.0
        };
        let sparse = mean(1, &mut rng);
        let dense = mean(100, &mut rng);
        assert!(dense > sparse * 2.0, "sparse {sparse}, dense {dense}");
    }

    #[test]
    fn latency_grows_with_size() {
        let ch = Channel::dsrc();
        let mut rng = SimRng::seed_from(4);
        let small = ch.latency(0, 100, &mut rng).as_secs_f64();
        // serialization dominates for a megabyte at 6 Mb/s (~1.3 s)
        let big = ch.latency(0, 1_000_000, &mut rng).as_secs_f64();
        assert!(big > 1.0, "big transfer too fast: {big}");
        assert!(small < 0.1);
    }

    #[test]
    fn rsu_coverage_and_failure() {
        let mut net = RsuNetwork::new();
        let a = net.add(Point::new(0.0, 0.0), 500.0);
        let _b = net.add(Point::new(2000.0, 0.0), 500.0);
        assert_eq!(net.covering(Point::new(100.0, 0.0)).unwrap().id, a);
        assert!(net.covering(Point::new(1000.0, 0.0)).is_none());
        net.rsus[a.0 as usize].online = false;
        assert!(net.covering(Point::new(100.0, 0.0)).is_none());
    }

    #[test]
    fn rsu_covering_picks_nearest() {
        let mut net = RsuNetwork::new();
        let _a = net.add(Point::new(0.0, 0.0), 1000.0);
        let b = net.add(Point::new(300.0, 0.0), 1000.0);
        assert_eq!(net.covering(Point::new(250.0, 0.0)).unwrap().id, b);
    }

    #[test]
    fn rsu_grid_deployment_covers_area() {
        let net = RsuNetwork::grid_deployment(1000.0, 1000.0, 500.0, 400.0);
        assert_eq!(net.len(), 9);
        // Center of a cell is within range of some RSU.
        assert!(net.covering(Point::new(250.0, 250.0)).is_some());
    }

    #[test]
    fn rsu_fail_fraction() {
        let mut net = RsuNetwork::grid_deployment(1000.0, 1000.0, 250.0, 300.0);
        let total = net.len();
        let mut rng = SimRng::seed_from(5);
        net.fail_fraction(0.5, &mut rng);
        let failed = ((total as f64) * 0.5).round() as usize;
        let online = net.rsus().iter().filter(|r| r.online).count();
        assert_eq!(online, total - failed);
    }

    #[test]
    fn cellular_unavailable_returns_none() {
        let mut rng = SimRng::seed_from(6);
        assert!(Cellular::unavailable().rtt(1, &mut rng).is_none());
        assert!(Cellular::healthy().rtt(1, &mut rng).is_some());
    }

    #[test]
    fn cellular_congestion_raises_latency() {
        let cell = Cellular::healthy();
        let mut rng = SimRng::seed_from(7);
        let mean = |users: usize, rng: &mut SimRng| {
            (0..2000).map(|_| cell.rtt(users, rng).unwrap().as_secs_f64()).sum::<f64>() / 2000.0
        };
        let idle = mean(1, &mut rng);
        let packed = mean(500, &mut rng);
        assert!(packed > idle * 5.0, "idle {idle}, packed {packed}");
    }

    #[test]
    fn neighbor_table_symmetry_and_exclusion() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(1000.0, 0.0)];
        let online = vec![true, true, true];
        let table = NeighborTable::build(&positions, &online, 300.0);
        assert_eq!(table.of(VehicleId(0)), &[VehicleId(1)]);
        assert_eq!(table.of(VehicleId(1)), &[VehicleId(0)]);
        assert!(table.of(VehicleId(2)).is_empty());
        assert!((table.mean_degree() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn neighbor_table_rebuild_matches_build() {
        let mut rng = SimRng::seed_from(9);
        let mut table = NeighborTable::new();
        assert!(table.is_empty());
        let mut grid = SpatialGrid::new(300.0);
        // Rebuild over successive random worlds: stale grid contents and
        // stale flat storage must not leak into the next round's table.
        for round in 0..5 {
            let n = 30 + round * 17;
            let positions: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, 1500.0), rng.range_f64(0.0, 1500.0)))
                .collect();
            let online: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();
            table.rebuild(&mut grid, &positions, &online, 300.0);
            let fresh = NeighborTable::build(&positions, &online, 300.0);
            assert_eq!(table.len(), fresh.len());
            for i in 0..n {
                assert_eq!(table.of(VehicleId(i as u32)), fresh.of(VehicleId(i as u32)));
            }
            assert_eq!(table.mean_degree(), fresh.mean_degree());
        }
    }

    #[test]
    fn ordering_bitmap_is_clear_after_every_rebuild() {
        let mut rng = SimRng::seed_from(17);
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(300.0);
        // Fleets that grow and shrink across word counts. In a 400 m box
        // they are dense: a first rebuild after a sparse table (or none) is
        // a plain scan, where most rows go through the bitmap and some (the
        // offline ones, and the stragglers 5 km out) do not, and every
        // rebuild after a dense one is a matrix scan. In a 6 km box the
        // rows are sparse, and of three rebuilds over the same positions
        // only the first scans plain or by matrix, as the last table was.
        // The fleets of 64, 1 and 0 take the bit-row path. Whatever ran,
        // the bitmap is all zero afterwards, a plain scan sized it to one
        // row and a matrix scan to one row per vehicle.
        for (n, extent, expect) in [
            (200usize, 400.0, (1, 2)),
            (64, 400.0, (0, 0)),
            (130, 400.0, (0, 3)),
            (200, 6_000.0, (0, 1)),
            (1, 400.0, (0, 0)),
            (0, 400.0, (0, 0)),
            (257, 400.0, (1, 2)),
            (65, 400.0, (0, 3)),
        ] {
            let positions: Vec<Point> = (0..n)
                .map(|i| {
                    let far = if i % 50 == 49 { 5_000.0 } else { 0.0 };
                    Point::new(far + rng.range_f64(0.0, extent), rng.range_f64(0.0, extent))
                })
                .collect();
            let online: Vec<bool> = (0..n).map(|i| i % 9 != 0).collect();
            let words = n.div_ceil(64);
            let (mut plain, mut matrix) = (0, 0);
            for call in 0..3 {
                let before = table.scans();
                let dense = table.flat.len() >= n * words;
                table.rebuild(&mut grid, &positions, &online, 300.0);
                if n > ROW_BITS && table.scans() > before && table.cand_offsets.is_empty() {
                    if dense {
                        matrix += 1;
                        assert_eq!(table.marks.len(), n * words);
                    } else {
                        plain += 1;
                        assert_eq!(table.marks.len(), words);
                    }
                    assert!(call == 0 || dense && extent == 400.0, "n = {n}, call {call}");
                }
                assert!(table.marks.iter().all(|&word| word == 0), "stale bits after n = {n}");
            }
            assert_eq!((plain, matrix), expect, "n = {n}, extent = {extent}");
        }
    }

    #[test]
    fn block_transpose_matches_the_naive_one() {
        let naive = |block: &[u64; 64]| {
            let mut out = [0u64; 64];
            for (r, word) in block.iter().enumerate() {
                for (c, col) in out.iter_mut().enumerate() {
                    *col |= (word >> c & 1) << r;
                }
            }
            out
        };
        let mut rng = SimRng::seed_from(64);
        let mut corner = [0u64; 64];
        corner[0] = 1 << 63;
        let mut other_corner = [0u64; 64];
        other_corner[63] = 1;
        let mut cases = vec![[0u64; 64], [u64::MAX; 64], corner, other_corner];
        cases.extend((0..8).map(|_| std::array::from_fn(|_| rng.next_u64())));
        for block in cases {
            let mut fast = block;
            transpose_block(&mut fast);
            assert_eq!(fast, naive(&block));
            transpose_block(&mut fast);
            assert_eq!(fast, block, "a transpose is its own inverse");
        }
        assert_eq!(naive(&corner), other_corner, "(0, 63) and (63, 0) trade places");
    }

    /// A sparse fleet of 70: vehicles 2.. parked a kilometer apart, and the
    /// pair under test on the x axis at `a` and `b`.
    fn pair_among_parked(a: f64, b: f64) -> Vec<Point> {
        let mut positions: Vec<Point> =
            (0..70).map(|i| Point::new(0.0, 1_000.0 * i as f64)).collect();
        positions[0] = Point::new(a, 0.0);
        positions[1] = Point::new(b, 0.0);
        positions
    }

    #[test]
    fn candidates_serve_up_to_the_limit_and_not_a_step_beyond() {
        // The inequality's tight case: two vehicles exactly `range + SKIN`
        // apart at the skin scan — the nearest a pair can be without being
        // candidates — closing head-on.
        let range = 300.0;
        let reach = range + SKIN;
        let limit = reuse_limit(69_000.0);
        assert!(limit < SKIN / 2.0 && limit > SKIN / 2.0 - 0.002);
        let online = vec![true; 70];
        let mut grid = SpatialGrid::new(300.0);
        let mut table = NeighborTable::new();
        let at_skin_scan = pair_among_parked(0.0, reach);
        table.rebuild(&mut grid, &at_skin_scan, &online, range);
        table.rebuild(&mut grid, &at_skin_scan, &online, range);
        assert_eq!(table.scans(), 2, "a plain scan, then the skin scan");
        assert!(!table.cand_offsets.is_empty());
        assert!(table.cand[..].is_empty(), "nobody is a candidate");

        // Each has come exactly `limit` closer (one of them a hair less, so
        // that rounding `reach − limit` cannot carry it over): the
        // candidates still serve, and the pair is still `2 × slack` out of
        // range.
        let closing = pair_among_parked(limit, reach - limit * (1.0 - 1e-12));
        table.rebuild(&mut grid, &closing, &online, range);
        assert_eq!(table.scans(), 2, "at the limit the candidates are reused");
        assert!(closing[0].distance_sq(closing[1]) >= range * range);
        assert!(table.of(VehicleId(0)).is_empty() && table.of(VehicleId(1)).is_empty());

        // One ulp past the limit is inside the slack — the pair is not in
        // range yet — and already forces a scan.
        let past = f64::from_bits(limit.to_bits() + 1);
        table.rebuild(&mut grid, &pair_among_parked(past, reach - limit), &online, range);
        assert_eq!(table.scans(), 3);
        assert!(table.of(VehicleId(0)).is_empty());

        // The other side of the slack: from where that scan saw them, 1 mm
        // more each puts them in range, well inside the new candidates.
        let touching = pair_among_parked(SKIN / 2.0 + 0.001, reach - SKIN / 2.0 - 0.001);
        table.rebuild(&mut grid, &touching, &online, range);
        assert_eq!(table.scans(), 3, "refiltered");
        assert_eq!(table.of(VehicleId(0)), &[VehicleId(1)]);
        assert_eq!(table.of(VehicleId(1)), &[VehicleId(0)]);
    }

    #[test]
    fn the_slack_grows_with_the_coordinates_until_the_skin_is_off() {
        assert_eq!(reuse_limit(350.0), SKIN / 2.0 - 1e-3);
        assert_eq!(reuse_limit(1e9), SKIN / 2.0 - 1e-3, "eight ulps of 10⁹ are 1.8 µm");
        assert!(reuse_limit(1e15) < SKIN / 2.0 - 1.0, "an ulp of 10¹⁵ is 12 cm");
        assert!(reuse_limit(1e18) < 0.0);
        assert!(reuse_limit(f64::INFINITY) < 0.0);
        // A fleet out where an ulp is 128 m, standing still: a plain scan
        // every time.
        let positions: Vec<Point> =
            (0..70).map(|i| Point::new(1e18, 1e18 + 1_024.0 * i as f64)).collect();
        let online = vec![true; 70];
        let mut grid = SpatialGrid::new(300.0);
        let mut table = NeighborTable::new();
        for call in 1..=3 {
            table.rebuild(&mut grid, &positions, &online, 300.0);
            assert_eq!(table.scans(), call);
            assert!(table.cand_offsets.is_empty());
        }
    }

    #[test]
    fn rsu_covering_tie_prefers_lowest_id() {
        let mut net = RsuNetwork::new();
        let a = net.add(Point::new(0.0, 0.0), 500.0);
        let _b = net.add(Point::new(200.0, 0.0), 500.0);
        // Equidistant from both masts: min_by semantics keep the first.
        assert_eq!(net.covering(Point::new(100.0, 0.0)).unwrap().id, a);
    }

    #[test]
    fn neighbor_table_offline_isolated() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let table = NeighborTable::build(&positions, &[true, false], 300.0);
        assert!(table.of(VehicleId(0)).is_empty());
        assert!(table.of(VehicleId(1)).is_empty());
    }
}
