//! Wall-clock profiling: scoped frames, a hierarchical call tree, and
//! deterministic-schema exports.
//!
//! This is the *other half* of observability from [`crate::record`]: the
//! [`Recorder`](crate::Recorder) deliberately never touches the wall clock
//! (traces must be byte-reproducible), so nothing in the trace says where
//! *real* time went. The [`Profiler`] fills that gap. Instrumented code
//! opens a [`Frame`] guard keyed by a static label; on drop the elapsed
//! wall-clock nanoseconds are folded into a call tree that aggregates
//! per-label `calls`, `total_ns`, and (at export) `self_ns`.
//!
//! The profiler is reached through a **thread-local current profiler**
//! rather than being threaded through every signature: [`install`] a
//! profiler, run the workload, [`take`] it back out. When no profiler is
//! installed, [`frame`] is a thread-local read and a branch — no clock is
//! read — so permanently-instrumented hot paths cost near zero in normal
//! runs.
//!
//! Profiling is strictly additive: frames never touch RNG streams, sim
//! time, or any result; plain-vs-profiled tests in `vc-bench` hold traces
//! byte-identical under `--profile`.
//!
//! ```
//! use vc_obs::profile;
//!
//! profile::install(profile::Profiler::new());
//! {
//!     let _outer = profile::frame("outer");
//!     let _inner = profile::frame("inner");
//! } // frames close in LIFO order here
//! let prof = profile::take().unwrap();
//! assert_eq!(prof.calls(&["outer"]), Some(1));
//! assert_eq!(prof.calls(&["outer", "inner"]), Some(1));
//! assert!(prof.total_ns(&["outer"]) >= prof.total_ns(&["outer", "inner"]));
//! ```
//!
//! # Exports
//!
//! * [`Profiler::to_json`] — a `profile.json` tree:
//!   `{"version":1,"total_ns":…,"frames":[{"label","calls","total_ns",
//!   "self_ns","allocs","bytes","children":[…]},…]}` with children sorted
//!   by label, so the *schema and shape* are deterministic (the nanosecond
//!   values are wall clock and are not). `allocs`/`bytes` count the heap
//!   allocations observed on the profiling thread while each frame was
//!   open (children included, like `total_ns`); they stay zero unless the
//!   binary installed `vc_obs::counting_allocator!`.
//! * [`Profiler::collapsed`] — collapsed-stack text, one
//!   `root;child;leaf <self_ns>` line per frame with nonzero self time,
//!   sorted lexically: feed it straight to any flamegraph renderer.

use std::cell::RefCell;
use std::time::Instant;

use vc_testkit::json::Json;

#[derive(Debug)]
struct Node {
    label: &'static str,
    calls: u64,
    total_ns: u64,
    /// Heap allocations performed on this thread while the frame was open
    /// (children included, like `total_ns`). Zero unless the binary
    /// installed `vc_obs::counting_allocator!`.
    allocs: u64,
    /// Heap bytes allocated while the frame was open (children included).
    bytes: u64,
    children: Vec<usize>,
}

/// A wall-clock call-tree profiler. See the [module docs](self) for the
/// guard-based API; `Profiler::enter`/`Profiler::exit` are the
/// low-level equivalents for code that cannot use RAII scoping.
#[derive(Debug, Default)]
pub struct Profiler {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// True when no frame has ever been opened.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Opens a frame as a child of the innermost open frame (or as a root).
    /// Frames with the same label under the same parent aggregate into one
    /// tree node.
    pub(crate) fn enter(&mut self, label: &'static str) {
        let siblings = match self.stack.last() {
            Some(&parent) => &self.nodes[parent].children,
            None => &self.roots,
        };
        let existing = siblings.iter().copied().find(|&i| self.nodes[i].label == label);
        let idx = match existing {
            Some(i) => i,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    label,
                    calls: 0,
                    total_ns: 0,
                    allocs: 0,
                    bytes: 0,
                    children: Vec::new(),
                });
                match self.stack.last() {
                    Some(&parent) => self.nodes[parent].children.push(idx),
                    None => self.roots.push(idx),
                }
                idx
            }
        };
        self.stack.push(idx);
    }

    /// Closes the innermost open frame, attributing `elapsed_ns` to it.
    /// Ignored when no frame is open.
    pub fn exit(&mut self, elapsed_ns: u64) {
        self.exit_with(elapsed_ns, 0, 0);
    }

    /// [`Profiler::exit`] carrying the allocation activity observed while
    /// the frame was open: `allocs` heap allocations totalling `bytes`
    /// (cumulative with children, like `elapsed_ns`). The RAII [`Frame`]
    /// guard captures these from `vc_obs::mem`'s thread counters.
    pub(crate) fn exit_with(&mut self, elapsed_ns: u64, allocs: u64, bytes: u64) {
        if let Some(idx) = self.stack.pop() {
            self.nodes[idx].calls += 1;
            self.nodes[idx].total_ns += elapsed_ns;
            self.nodes[idx].allocs += allocs;
            self.nodes[idx].bytes += bytes;
        }
    }

    /// Number of frames currently open (0 once every guard has dropped).
    pub fn open_frames(&self) -> usize {
        self.stack.len()
    }

    fn find(&self, path: &[&str]) -> Option<usize> {
        let mut siblings = &self.roots;
        let mut found = None;
        for label in path {
            let idx = siblings.iter().copied().find(|&i| self.nodes[i].label == *label)?;
            siblings = &self.nodes[idx].children;
            found = Some(idx);
        }
        found
    }

    /// Total closed calls of the frame at `path` (labels root-first), or
    /// `None` when no such frame exists.
    pub fn calls(&self, path: &[&str]) -> Option<u64> {
        self.find(path).map(|i| self.nodes[i].calls)
    }

    /// Accumulated wall-clock nanoseconds of the frame at `path`, or `None`
    /// when no such frame exists.
    pub fn total_ns(&self, path: &[&str]) -> Option<u64> {
        self.find(path).map(|i| self.nodes[i].total_ns)
    }

    /// Self time (total minus the children's totals, floored at zero) of
    /// the frame at `path`.
    pub fn self_ns(&self, path: &[&str]) -> Option<u64> {
        self.find(path).map(|i| self.node_self_ns(i))
    }

    /// Heap allocations recorded for the frame at `path` (children
    /// included, like [`Profiler::total_ns`]), or `None` when no such
    /// frame exists. Zero without the counting allocator installed.
    pub fn allocs(&self, path: &[&str]) -> Option<u64> {
        self.find(path).map(|i| self.nodes[i].allocs)
    }

    fn node_self_ns(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        let children: u64 = node.children.iter().map(|&c| self.nodes[c].total_ns).sum();
        node.total_ns.saturating_sub(children)
    }

    fn sorted(&self, indices: &[usize]) -> Vec<usize> {
        let mut sorted = indices.to_vec();
        sorted.sort_by_key(|&i| self.nodes[i].label);
        sorted
    }

    fn node_to_json(&self, idx: usize) -> Json {
        let node = &self.nodes[idx];
        let mut pairs = vec![
            ("label".to_string(), Json::from(node.label)),
            ("calls".to_string(), Json::from(node.calls)),
            ("total_ns".to_string(), Json::from(node.total_ns)),
            ("self_ns".to_string(), Json::from(self.node_self_ns(idx))),
            ("allocs".to_string(), Json::from(node.allocs)),
            ("bytes".to_string(), Json::from(node.bytes)),
        ];
        if !node.children.is_empty() {
            let children = self.sorted(&node.children);
            pairs.push((
                "children".to_string(),
                Json::array(children.into_iter().map(|c| self.node_to_json(c))),
            ));
        }
        Json::Obj(pairs)
    }

    /// Renders the call tree as the `profile.json` document (see the
    /// [module docs](self) for the schema). Children sort by label, so the
    /// document *shape* is deterministic for a deterministic program.
    pub fn to_json(&self) -> Json {
        let total: u64 = self.roots.iter().map(|&i| self.nodes[i].total_ns).sum();
        let roots = self.sorted(&self.roots);
        Json::object([
            ("version", Json::from(1u64)),
            ("total_ns", Json::from(total)),
            ("frames", Json::array(roots.into_iter().map(|i| self.node_to_json(i)))),
        ])
    }

    /// Renders collapsed-stack text: one `a;b;c <self_ns>` line per frame
    /// with nonzero self time, sorted lexically — the input format
    /// flamegraph tools consume.
    pub fn collapsed(&self) -> String {
        let mut lines = Vec::new();
        let mut stack: Vec<&'static str> = Vec::new();
        for &root in &self.sorted(&self.roots) {
            self.collect_collapsed(root, &mut stack, &mut lines);
        }
        lines.sort();
        let mut out = String::new();
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    fn collect_collapsed(
        &self,
        idx: usize,
        stack: &mut Vec<&'static str>,
        lines: &mut Vec<String>,
    ) {
        stack.push(self.nodes[idx].label);
        let w = self.node_self_ns(idx);
        if w > 0 {
            lines.push(format!("{} {}", stack.join(";"), w));
        }
        for &child in &self.sorted(&self.nodes[idx].children) {
            self.collect_collapsed(child, stack, lines);
        }
        stack.pop();
    }
}

thread_local! {
    static CURRENT: RefCell<Option<(u64, Profiler)>> = const { RefCell::new(None) };
    static NEXT_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Installs `profiler` as this thread's current profiler, returning the
/// previously installed one (if any). Do not install or [`take`] while
/// frames are open: open guards belong to the profiler they were opened
/// against and will not report into a different one.
pub fn install(profiler: Profiler) -> Option<Profiler> {
    let id = NEXT_ID.with(|n| {
        let id = n.get();
        n.set(id + 1);
        id
    });
    CURRENT.with(|c| c.borrow_mut().replace((id, profiler))).map(|(_, p)| p)
}

/// Removes and returns this thread's current profiler. Call after every
/// frame has closed (see [`Profiler::open_frames`]).
pub fn take() -> Option<Profiler> {
    CURRENT.with(|c| c.borrow_mut().take()).map(|(_, p)| p)
}

/// A scoped profiling frame; closes (and records) when dropped. Obtain via
/// [`frame`].
#[derive(Debug)]
#[must_use = "a frame measures the scope it lives in; bind it to a variable"]
pub struct Frame {
    /// `(profiler id, start, thread alloc counters (allocs, bytes) at open)`;
    /// `None` when no profiler was installed, so an unprofiled frame never
    /// reads the clock.
    armed: Option<(u64, Instant, (u64, u64))>,
}

impl Drop for Frame {
    fn drop(&mut self) {
        let Some((id, start, (a0, b0))) = self.armed.take() else {
            return;
        };
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let (a1, b1) = crate::mem::thread_counters();
        CURRENT.with(|c| {
            if let Some((cur, p)) = c.borrow_mut().as_mut() {
                if *cur == id {
                    p.exit_with(elapsed_ns, a1 - a0, b1 - b0);
                }
            }
        });
    }
}

/// Opens a profiling frame on this thread's current profiler. When no
/// profiler is installed this is a no-op that never reads the clock —
/// cheap enough to leave in hot paths permanently.
pub fn frame(label: &'static str) -> Frame {
    let armed = CURRENT.with(|c| {
        c.borrow_mut().as_mut().map(|(id, p)| {
            p.enter(label);
            *id
        })
    });
    Frame { armed: armed.map(|id| (id, Instant::now(), crate::mem::thread_counters())) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run_scoped<T>(f: impl FnOnce() -> T) -> (T, Profiler) {
        install(Profiler::new());
        let out = f();
        (out, take().expect("profiler installed"))
    }

    #[test]
    fn frames_aggregate_by_label_under_parent() {
        let ((), prof) = run_scoped(|| {
            for _ in 0..3 {
                let _outer = frame("tick");
                let _inner = frame("place");
            }
            let _other = frame("report");
        });
        assert_eq!(prof.calls(&["tick"]), Some(3));
        assert_eq!(prof.calls(&["tick", "place"]), Some(3));
        assert_eq!(prof.calls(&["report"]), Some(1));
        assert_eq!(prof.calls(&["place"]), None, "place only exists under tick");
        assert_eq!(prof.open_frames(), 0);
    }

    #[test]
    fn totals_are_internally_consistent() {
        let ((), prof) = run_scoped(|| {
            let _a = frame("a");
            {
                let _b = frame("b");
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _c = frame("c");
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let a = prof.total_ns(&["a"]).unwrap();
        let b = prof.total_ns(&["a", "b"]).unwrap();
        let c = prof.total_ns(&["a", "c"]).unwrap();
        assert!(b + c <= a, "children sum {b}+{c} exceeds parent {a}");
        assert_eq!(prof.self_ns(&["a"]), Some(a - b - c));
        assert!(prof.self_ns(&["a", "b"]).unwrap() >= Duration::from_millis(2).as_nanos() as u64);
    }

    #[test]
    fn same_label_under_distinct_parents_stays_distinct() {
        let ((), prof) = run_scoped(|| {
            {
                let _x = frame("x");
                let _shared = frame("shared");
            }
            {
                let _y = frame("y");
                let _shared = frame("shared");
                let _shared2 = frame("shared"); // recursion: child of itself
            }
        });
        assert_eq!(prof.calls(&["x", "shared"]), Some(1));
        assert_eq!(prof.calls(&["y", "shared"]), Some(1));
        assert_eq!(prof.calls(&["y", "shared", "shared"]), Some(1));
    }

    #[test]
    fn uninstalled_frames_are_inert() {
        let f = frame("nobody-listening");
        assert!(f.armed.is_none(), "no profiler: no clock read, nothing to record");
        drop(f);
        assert!(take().is_none());
    }

    #[test]
    fn json_export_shape_and_ordering() {
        let ((), prof) = run_scoped(|| {
            let _z = frame("zeta");
            drop(frame("beta"));
            drop(frame("alpha"));
        });
        let doc = prof.to_json();
        assert_eq!(doc["version"].as_f64(), Some(1.0));
        assert!(doc["total_ns"].as_f64().unwrap() >= 0.0);
        // One root; children sorted by label: alpha before beta.
        assert_eq!(doc["frames"][0]["label"], "zeta");
        assert_eq!(doc["frames"][0]["children"][0]["label"], "alpha");
        assert_eq!(doc["frames"][0]["children"][1]["label"], "beta");
        // Round-trips through the workspace parser.
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn collapsed_stacks_cover_self_time() {
        let ((), prof) = run_scoped(|| {
            let _a = frame("a");
            let _b = frame("b");
            std::thread::sleep(Duration::from_millis(1));
        });
        let folded = prof.collapsed();
        assert!(folded.contains("a;b "), "missing leaf stack: {folded}");
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack <ns>");
            assert!(!stack.is_empty());
            assert!(ns.parse::<u64>().expect("numeric weight") > 0);
        }
    }

    #[test]
    fn alloc_columns_aggregate_through_exit_with() {
        let mut p = Profiler::new();
        p.enter("round");
        p.enter("shard");
        p.exit_with(10, 3, 96);
        p.exit_with(50, 5, 128);
        assert_eq!(p.allocs(&["round"]), Some(5));
        assert_eq!(p.allocs(&["round", "shard"]), Some(3));
        let doc = p.to_json();
        assert_eq!(doc["frames"][0]["allocs"].as_f64(), Some(5.0));
        assert_eq!(doc["frames"][0]["bytes"].as_f64(), Some(128.0));
    }

    #[test]
    fn frames_without_counting_allocator_report_zero_allocs() {
        // The obs test binary does not install the counting allocator, so
        // the capture degrades to zeros (never garbage), and the JSON keys
        // are still present for schema stability.
        let ((), prof) = run_scoped(|| {
            let _f = frame("alloc-free");
            let v: Vec<u8> = Vec::with_capacity(512);
            drop(v);
        });
        assert_eq!(prof.allocs(&["alloc-free"]), Some(0));
    }

    #[test]
    fn take_while_frame_open_does_not_corrupt_next_profiler() {
        install(Profiler::new());
        let stale = frame("stale");
        let first = take().expect("first profiler");
        assert_eq!(first.open_frames(), 1, "frame was open at take()");
        install(Profiler::new());
        drop(stale); // belongs to the old profiler; must not pop the new one
        let second = take().expect("second profiler");
        assert!(second.is_empty());
    }
}
