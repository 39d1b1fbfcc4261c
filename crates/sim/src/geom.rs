//! Planar geometry for road networks and radio range computations.
//!
//! Positions are in meters on a flat plane — adequate at city scale and what
//! the VANET literature's simulators use.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or displacement) in the plane, in meters.
///
/// ```
/// use vc_sim::geom::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East coordinate, meters.
    pub x: f64,
    /// North coordinate, meters.
    pub y: f64,
}

/// The origin.
pub(crate) const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

impl Point {
    /// Creates a point from coordinates in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, meters.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared distance — cheaper when only comparing.
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length (distance from the origin).
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Unit vector in the same direction, or zero for the zero vector.
    pub fn normalized(self) -> Point {
        let n = self.norm();
        if n == 0.0 {
            ORIGIN
        } else {
            self / n
        }
    }

    /// Dot product, treating both points as vectors.
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Heading of this vector in radians, in `(-pi, pi]`, east = 0,
    /// counter-clockwise positive.
    pub fn heading(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub(crate) fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// Midpoint between `self` and `other`.
    pub(crate) fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from `a` to `b`.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length in meters.
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Point at parameter `t in [0, 1]` along the segment (clamped).
    pub fn at(self, t: f64) -> Point {
        self.a.lerp(self.b, t.clamp(0.0, 1.0))
    }

    /// Parameter of the closest point on the segment to `p`, in `[0, 1]`.
    pub(crate) fn project(self, p: Point) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.dot(d);
        if len_sq == 0.0 {
            return 0.0;
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// Distance from `p` to the closest point on the segment.
    pub fn distance_to(self, p: Point) -> f64 {
        p.distance(self.at(self.project(p)))
    }
}

/// An axis-aligned bounding rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Width in meters.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Center point.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Clamps `p` into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.min.x, self.max.x), p.y.clamp(self.min.y, self.max.y))
    }
}

/// A uniform cell list for neighbor queries.
///
/// VANET protocols repeatedly ask "who is within radio range of me?"; a
/// linear scan is O(n^2) per round. This grid buckets positions by cell of
/// side `cell_size` (pick the radio range) so range queries touch at most 9
/// cells.
///
/// The cells are a dense row-major array over the bounding box of the
/// stored positions, filled by a counting sort: [`SpatialGrid::rebuild`]
/// is three linear sweeps (bounding box, count, stable scatter) into flat
/// buffers that are reused across rebuilds, and a query reads one
/// contiguous slice of the item slab per cell row. Cell coordinates are
/// clamped into a grid of at most `n + 64` cells for `n` positions, so one
/// far-away position cannot blow up memory; clamping never moves two cells
/// further apart, and every hit still passes the exact distance test, so
/// results do not depend on it.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    /// Cell coordinates (in units of `cell_size`) of grid cell `(0, 0)`.
    origin: (f64, f64),
    /// Grid dimensions in cells; `(0, 0)` while the grid is empty.
    dims: (usize, usize),
    /// `starts[c]..starts[c + 1]` bounds cell `c`'s run of `items`, cells
    /// numbered row-major (`c = y * dims.0 + x`). One spare slot at the end
    /// lets the counting sort run in place.
    starts: Vec<u32>,
    /// Every stored `(index, position)`, grouped by cell; within a cell in
    /// rebuild order.
    items: Vec<(usize, Point)>,
    /// Rebuild scratch: the cell of each position, in rebuild order (the
    /// two divisions per position are worth not doing twice).
    cell_of: Vec<u32>,
}

impl SpatialGrid {
    /// Creates an empty grid with the given cell size (meters).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        SpatialGrid {
            cell_size,
            origin: (0.0, 0.0),
            dims: (0, 0),
            starts: Vec::new(),
            items: Vec::new(),
            cell_of: Vec::new(),
        }
    }

    /// Changes the cell side length. The stored items were bucketed by the
    /// old one, so the grid is emptied (its buffers are kept); cell size
    /// decides what a query costs, never what it finds.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    pub(crate) fn set_cell_size(&mut self, cell_size: f64) {
        assert!(cell_size > 0.0, "cell size must be positive");
        if cell_size != self.cell_size {
            self.cell_size = cell_size;
            self.dims = (0, 0);
            self.items.clear();
        }
    }

    /// Deep heap bytes of the three flat buffers, by capacity (the reserved
    /// memory, which rebuilds keep): linear in the largest item count seen,
    /// whatever the coordinate spread.
    pub fn heap_bytes(&self) -> u64 {
        (self.starts.capacity() * std::mem::size_of::<u32>()
            + self.items.capacity() * std::mem::size_of::<(usize, Point)>()
            + self.cell_of.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Unclamped cell coordinate of a world coordinate, as a float so that
    /// far-away and non-finite inputs saturate instead of overflowing.
    fn cell_coord(&self, v: f64) -> f64 {
        (v / self.cell_size).floor()
    }

    /// Clamps unclamped cell coordinates into the grid. `NaN` lands in
    /// column/row 0 (a `NaN` position never passes a distance test, so
    /// where it is stored does not matter).
    fn clamp_cell(&self, cx: f64, cy: f64) -> (usize, usize) {
        // Float-to-int `as` saturates and maps NaN to 0.
        let x = ((cx - self.origin.0) as usize).min(self.dims.0 - 1);
        let y = ((cy - self.origin.1) as usize).min(self.dims.1 - 1);
        (x, y)
    }

    /// Replaces the grid's contents with `items` — `(index, position)`
    /// pairs, the index opaque to the grid — reusing the buffers of earlier
    /// rebuilds: once they have grown to the largest item count seen, a
    /// rebuild allocates nothing, wherever the positions moved.
    ///
    /// The iterator is walked three times (bounding box, count, scatter).
    pub fn rebuild<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (usize, Point)>,
        I::IntoIter: Clone,
    {
        let items = items.into_iter();
        let (mut n, mut lo, mut hi) =
            (0usize, (f64::INFINITY, f64::INFINITY), (f64::NEG_INFINITY, f64::NEG_INFINITY));
        for (_, p) in items.clone() {
            n += 1;
            // `f64::min`/`max` skip NaN operands.
            lo = (lo.0.min(p.x), lo.1.min(p.y));
            hi = (hi.0.max(p.x), hi.1.max(p.y));
        }
        // Sized here, filled by the scatter below (which writes every slot).
        self.items.resize(n, (0, ORIGIN));
        self.cell_of.clear();
        self.starts.clear();
        if n == 0 {
            self.dims = (0, 0);
            return;
        }
        assert!(n <= u32::MAX as usize, "more positions than a u32 offset can address");
        self.origin = (self.cell_coord(lo.0), self.cell_coord(lo.1));
        // An all-NaN axis leaves `hi < lo` (one cell); float-to-int `as`
        // saturates, so an infinite extent is just "very wide".
        let want_x = ((self.cell_coord(hi.0) - self.origin.0) as usize).saturating_add(1);
        let want_y = ((self.cell_coord(hi.1) - self.origin.1) as usize).saturating_add(1);
        // At most `cap` cells: fit each axis into the square first, then
        // hand the axis that needs it whatever the other left over.
        let cap = n + 64;
        let side = (cap as f64).sqrt() as usize;
        let nx = want_x.min(cap / want_y.min(side));
        let ny = want_y.min(cap / nx);
        self.dims = (nx, ny);

        // Counting sort by cell, in place: counts go two slots up, so after
        // the prefix sum `starts[c + 1]` is cell `c`'s write cursor and,
        // once every item is written, the start of cell `c + 1`. Reserving
        // for `cap` makes the capacity a function of `n` alone, so a moving
        // bounding box never reallocates.
        self.starts.reserve(cap + 2);
        self.starts.resize(nx * ny + 2, 0);
        for (_, p) in items.clone() {
            let (x, y) = self.clamp_cell(self.cell_coord(p.x), self.cell_coord(p.y));
            let cell = y * nx + x;
            self.cell_of.push(cell as u32);
            self.starts[cell + 2] += 1;
        }
        let mut sum = 0;
        for s in &mut self.starts {
            sum += *s;
            *s = sum;
        }
        for (item, &cell) in items.zip(&self.cell_of) {
            let cursor = &mut self.starts[cell as usize + 1];
            self.items[*cursor as usize] = item;
            *cursor += 1;
        }
    }

    /// The runs of stored `(index, position)` pairs that can hold anything
    /// within `radius` of `center`: one contiguous slice per cell row, rows
    /// ascending, each slice in (cell column, then rebuild) order. A
    /// superset — callers apply the exact distance test themselves, which
    /// lets a hot loop do it without a branch per candidate;
    /// [`SpatialGrid::within`] is the filtered form.
    ///
    /// A non-finite or non-positive `radius` yields nothing: a negative or
    /// NaN radius is a caller bug, and an infinite one would otherwise
    /// degenerate into scanning every cell.
    pub(crate) fn candidate_rows(
        &self,
        center: Point,
        radius: f64,
    ) -> impl Iterator<Item = &[(usize, Point)]> + '_ {
        let (x0, x1, rows) = if radius.is_finite() && radius > 0.0 && !self.items.is_empty() {
            let r_cells = (radius / self.cell_size).ceil();
            let (cx, cy) = (self.cell_coord(center.x), self.cell_coord(center.y));
            // Clamping is monotone, so the clamped corners bracket the
            // clamped cell of every item within `r_cells` of the
            // center's cell.
            let (x0, y0) = self.clamp_cell(cx - r_cells, cy - r_cells);
            let (x1, y1) = self.clamp_cell(cx + r_cells, cy + r_cells);
            (x0, x1, y0..y1 + 1)
        } else {
            (0, 0, 0..0)
        };
        rows.map(move |y| {
            let row = y * self.dims.0;
            &self.items[self.starts[row + x0] as usize..self.starts[row + x1 + 1] as usize]
        })
    }

    /// Every unordered pair of stored items whose cells are at most
    /// `⌈radius / cell_size⌉` cells apart on both axes, each exactly once,
    /// as runs: one item and a contiguous slice of the items it is paired
    /// with. An item's runs are the rest of its cell row out to that reach
    /// (its own cell after it, then the cells to its right), then the same
    /// span of columns either side of it in each row above. Holds every
    /// pair strictly within `radius` — a superset of what
    /// [`SpatialGrid::candidate_rows`] offers either item — and refuses the
    /// same radii, so an exact test over the runs finds each such pair once.
    pub(crate) fn half_shell(
        &self,
        radius: f64,
    ) -> impl Iterator<Item = (&(usize, Point), &[(usize, Point)])> + '_ {
        let (nx, ny) = self.dims;
        let cells = if radius.is_finite() && radius > 0.0 && !self.items.is_empty() {
            0..nx * ny
        } else {
            0..0
        };
        // Float-to-int `as` saturates: a radius of more cells than the grid
        // has reaches all of them.
        let reach = (radius / self.cell_size).ceil() as usize;
        let span = move |row: usize, x0: usize, x1: usize| {
            &self.items[self.starts[row + x0] as usize..self.starts[row + x1 + 1] as usize]
        };
        cells.flat_map(move |c| {
            let (x, y) = (c % nx, c / nx);
            let (x0, x1) = (x.saturating_sub(reach), x.saturating_add(reach).min(nx - 1));
            let above = y + 1..y.saturating_add(reach).min(ny - 1) + 1;
            let row_end = self.starts[y * nx + x1 + 1] as usize;
            (self.starts[c] as usize..self.starts[c + 1] as usize).flat_map(move |k| {
                let rows = above.clone().map(move |y| span(y * nx, x0, x1));
                std::iter::once(&self.items[k + 1..row_end])
                    .chain(rows)
                    .map(move |run| (&self.items[k], run))
            })
        })
    }

    /// All item indices strictly within `radius` of `center` (excluding
    /// entries at distance exactly ≥ radius), in
    /// `SpatialGrid::candidate_rows` order. Allocates a fresh `Vec`;
    /// per-round loops should filter the candidate rows in place.
    pub fn within(&self, center: Point, radius: f64) -> Vec<usize> {
        let r_sq = radius * radius;
        self.candidate_rows(center, radius)
            .flatten()
            .filter(|(_, pos)| pos.distance_sq(center) < r_sq)
            .map(|&(idx, _)| idx)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(b - a, Point::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn distance_and_norm() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
        assert_eq!(Point::new(3.0, 4.0).norm(), 5.0);
        let u = Point::new(10.0, 0.0).normalized();
        assert!((u.x - 1.0).abs() < 1e-12 && u.y == 0.0);
        assert_eq!(ORIGIN.normalized(), ORIGIN);
    }

    #[test]
    fn heading_roundtrip() {
        for &h in &[0.0_f64, 0.5, 1.0, -2.0, 3.0] {
            let v = Point::new(h.cos(), h.sin());
            assert!((v.heading() - h).abs() < 1e-12, "heading {h}");
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(5.0, 10.0));
    }

    #[test]
    fn segment_projection_clamps() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.project(Point::new(5.0, 3.0)), 0.5);
        assert_eq!(s.project(Point::new(-5.0, 0.0)), 0.0);
        assert_eq!(s.project(Point::new(50.0, 0.0)), 1.0);
        assert_eq!(s.distance_to(Point::new(5.0, 3.0)), 3.0);
        assert_eq!(s.distance_to(Point::new(13.0, 4.0)), 5.0);
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.project(Point::new(9.0, 9.0)), 0.0);
        assert_eq!(s.at(0.7), Point::new(2.0, 2.0));
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::new(Point::new(10.0, 10.0), Point::new(0.0, 0.0));
        assert_eq!(r.min, ORIGIN);
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 10.0)));
        assert!(!r.contains(Point::new(-0.1, 5.0)));
        assert_eq!(r.clamp(Point::new(20.0, -5.0)), Point::new(10.0, 0.0));
        assert_eq!(r.center(), Point::new(5.0, 5.0));
    }

    #[test]
    fn spatial_grid_matches_brute_force() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(17);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.range_f64(0.0, 1000.0), rng.range_f64(0.0, 1000.0)))
            .collect();
        let mut grid = SpatialGrid::new(100.0);
        grid.rebuild(pts.iter().copied().enumerate());
        for probe in 0..20 {
            let center = pts[probe * 7];
            let radius = 150.0;
            let mut expected: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance(center) < radius)
                .map(|(i, _)| i)
                .collect();
            let mut got = grid.within(center, radius);
            expected.sort();
            got.sort();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn half_shell_pairs_every_pair_within_reach_once() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(23);
        let mut pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.range_f64(-450.0, 450.0), rng.range_f64(0.0, 900.0)))
            .collect();
        pts[7] = Point::new(f64::NAN, 3.0);
        pts[9] = Point::new(1e9, 3.0);
        let mut grid = SpatialGrid::new(100.0);
        grid.rebuild(pts.iter().copied().enumerate().filter(|&(i, _)| i % 5 != 0));
        for radius in [40.0, 100.0, 250.0] {
            let mut seen = vec![0u8; pts.len() * pts.len()];
            for (&(i, _), run) in grid.half_shell(radius) {
                for &(j, _) in run {
                    assert_ne!(i, j);
                    seen[i.min(j) * pts.len() + i.max(j)] += 1;
                }
            }
            assert!(seen.iter().all(|&count| count <= 1), "a pair came twice");
            for (i, p) in pts.iter().enumerate() {
                for (j, q) in pts.iter().enumerate().skip(i + 1) {
                    if i % 5 != 0 && j % 5 != 0 && p.distance_sq(*q) < radius * radius {
                        assert_eq!(seen[i * pts.len() + j], 1, "pair {i}-{j} at radius {radius}");
                    } else if i % 5 == 0 || j % 5 == 0 {
                        assert_eq!(seen[i * pts.len() + j], 0, "{i}-{j} was never stored");
                    }
                }
            }
        }
        for bad in [-5.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(grid.half_shell(bad).count(), 0, "radius {bad}: no runs");
        }
        grid.rebuild([]);
        assert_eq!(grid.half_shell(100.0).count(), 0);
    }

    #[test]
    fn spatial_grid_rejects_pathological_radii() {
        let mut grid = SpatialGrid::new(10.0);
        grid.rebuild([(0, Point::new(1.0, 1.0))]);
        let center = Point::new(0.0, 0.0);
        // A negative radius used to probe the center cell with a positive
        // r² (bogus hits); NaN and ±inf produced nonsense cell ranges.
        for bad in [-5.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(grid.within(center, bad).is_empty(), "radius {bad} must match nothing");
            assert_eq!(grid.candidate_rows(center, bad).count(), 0, "radius {bad}: no rows");
        }
        // Sanity: a real radius still works.
        assert_eq!(grid.within(center, 5.0), vec![0]);
    }

    #[test]
    fn spatial_grid_re_celled_is_empty_until_rebuilt() {
        let pts = [(0, Point::new(1.0, 1.0)), (1, Point::new(95.0, 1.0))];
        let mut grid = SpatialGrid::new(10.0);
        grid.rebuild(pts);
        let bytes = grid.heap_bytes();
        grid.set_cell_size(10.0);
        assert_eq!(grid.within(Point::new(0.0, 0.0), 5.0), vec![0], "same size: untouched");
        grid.set_cell_size(40.0);
        assert_eq!(grid.cell_size, 40.0);
        assert!(grid.within(Point::new(0.0, 0.0), 500.0).is_empty(), "bucketed by the old size");
        grid.rebuild(pts);
        assert_eq!(grid.within(Point::new(50.0, 0.0), 60.0), vec![0, 1]);
        assert_eq!(grid.heap_bytes(), bytes, "the buffers are kept");
    }

    #[test]
    fn spatial_grid_rebuild_replaces_contents() {
        let mut grid = SpatialGrid::new(10.0);
        assert!(grid.within(Point::new(0.0, 0.0), 5.0).is_empty(), "never built");
        grid.rebuild([(0, Point::new(1.0, 1.0))]);
        assert_eq!(grid.within(Point::new(0.0, 0.0), 5.0), vec![0]);
        grid.rebuild([]);
        assert!(grid.within(Point::new(0.0, 0.0), 5.0).is_empty());
        grid.rebuild([(3, Point::new(2.0, 2.0))]);
        assert_eq!(grid.within(Point::new(0.0, 0.0), 5.0), vec![3]);
    }
}
