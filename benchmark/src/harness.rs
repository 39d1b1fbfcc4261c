//! Measurement plumbing shared by the four workloads: the span recorder,
//! nearest-rank quantiles, the op driver, digests and process memory.
//!
//! Nothing here knows a crate of the workspace. The workloads call the
//! layers' public functions and wrap each call in [`Tracer::span`]; all
//! timing is taken here, from outside the layers.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::spec::PER_LAYER;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;
/// `op` of a span recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// In a traced run span recording alternates on/off in blocks of this many
/// ops per lane, so `trace.overhead_share` compares like with like inside
/// one process. A multiple of every period in the op schedules (4, 8, 16).
pub const TRACE_BLOCK: u64 = 16;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Its position in the run's span list.
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call handled (beacons in a window, reports in a batch).
    pub items: u32,
    /// A shadow call: the same public function on the same state, made only
    /// in a traced run and subtracted from the op it interrupts.
    pub shadow: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans into a pre-sized `Vec`; does nothing while `on` is false.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    op: u64,
    open: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool, capacity: usize) -> Tracer {
        let spans = Vec::with_capacity(if on { capacity } else { 0 });
        Tracer { epoch, on, op: SETUP_OP, open: NO_PARENT, spans }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, items: u32, shadow: bool) {
        let id = self.spans.len() as u32;
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open,
            op: self.op,
            name,
            start_ns,
            end_ns,
            items,
            shadow,
        });
    }

    /// Opens the span of op `op`; the driver calls this, workloads do not.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        if self.on {
            self.open = self.spans.len() as u32;
            let start_ns = self.now_ns();
            self.spans.push(Span {
                id: self.open,
                parent: NO_PARENT,
                op,
                name: "op",
                start_ns,
                end_ns: start_ns,
                items: 1,
                shadow: false,
            });
        }
    }

    /// Closes the op span and returns the time its shadow calls took.
    pub fn end_op(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let root = self.open as usize;
        self.spans[root].end_ns = self.now_ns();
        self.open = NO_PARENT;
        self.spans[root + 1..].iter().filter(|s| s.shadow).map(Span::dur).sum()
    }

    /// Times one call into a layer.
    pub fn span<R>(&mut self, name: &'static str, items: u32, f: impl FnOnce() -> R) -> R {
        self.span_by(items, || (name, f()))
    }

    /// [`Tracer::span`] for a call whose name depends on what it returns
    /// (a handshake is `full` or `resume` only once it has run).
    pub fn span_by<R>(&mut self, items: u32, f: impl FnOnce() -> (&'static str, R)) -> R {
        if !self.on {
            return f().1;
        }
        let start = self.now_ns();
        let (name, out) = f();
        self.push(name, start, items, false);
        out
    }

    /// Makes a shadow call: skipped entirely unless recording.
    pub fn shadow<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> Option<R> {
        if !self.on {
            return None;
        }
        let start = self.now_ns();
        let out = f();
        self.push(name, start, 1, true);
        Some(out)
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover. Children never overlap each other here (one thread per tracer), so
/// that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        let parent = &mut own[s.parent as usize];
        *parent = parent.saturating_sub(s.dur());
    }
    own
}

/// Share of op wall time that lies inside a named span of a layer. Shadow
/// calls are not part of the op, so they count on neither side.
pub fn coverage_share(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut wall, mut unnamed) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.name == "op" {
            unnamed += own;
            wall += s.dur();
        } else if s.shadow {
            wall -= s.dur();
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - unnamed as f64 / wall as f64
    }
}

/// What [`host_probe`] takes on the reference host: a VM of the class this
/// repository is grown on, while its neighbours are quiet.
pub const PROBE_REF_NS: f64 = 300_000.0;
/// A probe follows every this-many-th op of a lane (0.3 ms per 8 ops).
const PROBE_EVERY: u64 = 8;
/// Probes after each set-up.
const SETUP_PROBES: usize = 8;

/// A fixed register-only loop (xorshift chain, one unpredictable branch per
/// step), timed. The cores of a shared host speed up and slow down by tens of
/// percent over minutes with what their neighbours do — this loop, which no
/// commit can change, measured 290–365 µs run to run on one VM while the
/// workloads moved with it — so every reported time is divided by the run's
/// host factor: the median probe ÷ [`PROBE_REF_NS`]. Memory and sizes are
/// not touched, and the raw times are printed beside the steadied ones.
pub fn host_probe() -> u64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for i in 0..60_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = if x & 1 == 0 { acc.wrapping_add(x) } else { acc ^ x.rotate_left(i & 31) };
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as u64
}

/// Median probe ÷ reference: above 1 on a host slower than the reference.
pub fn host_factor(probes: &mut [u64]) -> f64 {
    probes.sort_unstable();
    quantile(probes, 0.5) as f64 / PROBE_REF_NS
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Smallest sample for which a p95 is reported: ten samples lie beyond it.
pub const P95_MIN_N: usize = 200;

/// Nearest-rank p95; refuses a sample too small to have ten values beyond it.
pub fn p95(sorted: &[u64]) -> Result<u64, String> {
    if sorted.len() < P95_MIN_N {
        return Err(format!("p95 needs n >= {P95_MIN_N}, got n = {}", sorted.len()));
    }
    Ok(quantile(sorted, 0.95))
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

/// SplitMix64 of `(seed, index, salt)`: the only randomness in the op
/// schedules, so a schedule is a pure function of `--seed` and does not
/// move when a crate's own RNG does.
pub fn mix(seed: u64, index: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words, little end first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) -> &mut Fnv {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) -> &mut Fnv {
        for w in ws {
            self.word(w);
        }
        self
    }
}

/// `VmHWM` of this process in KiB, 0 where `/proc` does not say.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// The fixed part of a workload's size.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Untimed ops at the end of every set-up (caches, lazy tables).
    pub warmup: u64,
    /// Timed ops every run executes whatever `--seconds` says. The result
    /// digest, `peak_rss_mb` and the simulated counters are taken when the
    /// last of them ends, so they do not depend on how fast the host is.
    pub horizon: u64,
    /// The remaining sizes, for the manifest.
    pub desc: String,
}

impl Sizes {
    /// Index of the last fixed op.
    pub fn last_fixed(&self) -> u64 {
        self.warmup + self.horizon - 1
    }
}

/// One closed loop of ops: called with the op's index in the schedule, it
/// returns a hash of the op's simulated outputs, or why its check failed.
pub type Lane<'a> = Box<dyn FnMut(u64, &mut Tracer) -> Result<u64, String> + Send + 'a>;

pub trait Workload: Sized {
    const NAME: &'static str;
    fn sizes(smoke: bool) -> Sizes;
    /// Hash of the parameters of op `i`: a pure function of its arguments.
    fn plan_hash(seed: u64, smoke: bool, i: u64) -> u64;
    /// Builds the world. Spans recorded here carry `op = SETUP_OP`.
    fn setup(cfg: &Cfg, sizes: &Sizes, tr: &mut Tracer) -> Self;
    /// The closed loops that execute the schedule: lane `l` of `n` runs ops
    /// `l, l + n, l + 2n, …`. They are made once per set-up and first run
    /// the warm-up ops.
    fn lanes(&mut self) -> Vec<Lane<'_>>;
    /// End-of-run checks and the per-layer numbers. Returns failed checks.
    fn finish(self, run: &Driven, layer: &mut Layer) -> Vec<String>;
}

/// Digest of the first `n` op plans of a workload.
pub fn schedule_digest<W: Workload>(seed: u64, smoke: bool, n: u64) -> u64 {
    Fnv::new().words((0..n).map(|i| W::plan_hash(seed, smoke, i))).0
}

/// The per-layer numbers of one run; a metric a workload does not reach
/// stays 0.
pub struct Layer(BTreeMap<&'static str, Option<f64>>);

impl Layer {
    fn new() -> Layer {
        Layer(PER_LAYER.iter().map(|m| (m.name, None)).collect())
    }

    /// A ratio with nothing under it (no forged window in a short run, an
    /// untraced run with no spans) is recorded as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("{name} is not in PER_LAYER"));
        *slot = Some(if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name].unwrap_or(0.0)
    }

    pub fn is_set(&self, name: &str) -> bool {
        self.0[name].is_some()
    }
}

/// One executed op of the timed section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRec {
    /// When the op ended, from the start of the timed section.
    pub done_ns: u64,
    /// How long it took, shadow calls deducted.
    pub lat_ns: u64,
    /// Whether spans were being recorded while it ran.
    pub traced: bool,
    pub ok: bool,
}

/// Everything the driver measured.
pub struct Driven {
    /// Wall time of the timed section, set-up and warm-up excluded.
    pub wall: Duration,
    /// The timed ops of all lanes in the order they ended.
    pub ops: Vec<OpRec>,
    pub failures: Vec<String>,
    /// FNV-1a of the output hashes of the fixed ops, in schedule order.
    pub digest: u64,
    pub rss_kib_at_horizon: u64,
    pub spans: Vec<Span>,
    /// Host speed during the timed section; see [`host_probe`].
    pub host_factor: f64,
}

impl Driven {
    /// `(calls, items, total ns)` of the spans with this name.
    pub fn total(&self, name: &str) -> (u64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0, 0), |(c, i, ns), s| (c + 1, i + s.items as u64, ns + s.dur()))
    }

    /// Nanoseconds as measured to microseconds on the reference host.
    pub fn us(&self, ns: f64) -> f64 {
        ns / 1e3 / self.host_factor
    }

    /// Mean microseconds per call.
    pub fn us_per_call(&self, name: &str) -> f64 {
        let (calls, _, ns) = self.total(name);
        self.us(ns as f64 / calls as f64)
    }

    /// Mean microseconds per work item.
    pub fn us_per_item(&self, name: &str) -> f64 {
        let (_, items, ns) = self.total(name);
        self.us(ns as f64 / items as f64)
    }
}

/// Throughput and latency of a timed section, steadied against a host that
/// other tenants disturb in bursts: the ops, in the order they ended, are cut
/// into as many equal blocks as hold [`P95_MIN_N`] ops each; every block
/// gives its own passed-ops-per-second, p50 and p95; the medians over the
/// blocks are reported.
#[derive(Debug, Default, PartialEq)]
pub struct Steady {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub blocks: usize,
    pub block_n: usize,
}

pub fn steady(ops: &[OpRec]) -> Result<Steady, String> {
    if ops.is_empty() {
        return Err("no op ran".into());
    }
    // A section too short for one block is refused by `p95` below.
    let blocks = (ops.len() / P95_MIN_N).max(1);
    let block_n = ops.len() / blocks;
    let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
    let mut began_ns = 0;
    for block in ops.chunks_exact(block_n) {
        let ended_ns = block[block_n - 1].done_ns;
        let passed = block.iter().filter(|o| o.ok).count();
        rates.push(passed as f64 / ((ended_ns - began_ns) as f64 / 1e9));
        began_ns = ended_ns;
        let mut lat: Vec<u64> = block.iter().map(|o| o.lat_ns).collect();
        lat.sort_unstable();
        p50s.push(quantile(&lat, 0.5) as f64 / 1e6);
        p95s.push(p95(&lat)? as f64 / 1e6);
    }
    Ok(Steady {
        ops_per_s: median_f64(&mut rates),
        p50_ms: median_f64(&mut p50s),
        p95_ms: median_f64(&mut p95s),
        blocks,
        block_n,
    })
}

struct LaneOut {
    ops: Vec<OpRec>,
    failures: Vec<String>,
    fixed: Vec<(u64, u64)>,
    spans: Vec<Span>,
    probes: Vec<u64>,
}

struct Shared {
    start: Instant,
    deadline: Instant,
    last_fixed: u64,
    horizon: u64,
    done: AtomicU64,
    rss_kib: AtomicU64,
}

fn run_lane(
    mut op: Lane<'_>,
    first: u64,
    stride: u64,
    mut tr: Tracer,
    traced: bool,
    sh: &Shared,
) -> LaneOut {
    let mut out = LaneOut {
        ops: Vec::with_capacity(1 << 16),
        failures: Vec::new(),
        fixed: Vec::new(),
        spans: Vec::new(),
        probes: Vec::new(),
    };
    let (mut i, mut n) = (first, 0u64);
    while i <= sh.last_fixed || Instant::now() < sh.deadline {
        tr.on = traced && (n / TRACE_BLOCK).is_multiple_of(2);
        let t0 = Instant::now();
        tr.begin_op(i);
        let result = op(i, &mut tr);
        let shadow_ns = tr.end_op();
        let t1 = Instant::now();
        out.ops.push(OpRec {
            done_ns: (t1 - sh.start).as_nanos() as u64,
            lat_ns: (t1 - t0).as_nanos() as u64 - shadow_ns,
            traced: tr.on,
            ok: result.is_ok(),
        });
        match result {
            Ok(hash) if i <= sh.last_fixed => out.fixed.push((i, hash)),
            Ok(_) => {}
            Err(why) => out.failures.push(format!("op {i}: {why}")),
        }
        // The count publishes no other data: it only picks the moment at
        // which one lane reads the process's own memory high-water mark.
        if sh.done.fetch_add(1, Ordering::Relaxed) + 1 == sh.horizon {
            sh.rss_kib.store(peak_rss_kib(), Ordering::Relaxed);
        }
        if n.is_multiple_of(PROBE_EVERY) {
            out.probes.push(host_probe());
        }
        i += stride;
        n += 1;
    }
    out.spans = tr.spans;
    out
}

fn drive(
    lanes: Vec<Lane<'_>>,
    cfg: &Cfg,
    sizes: &Sizes,
    epoch: Instant,
    setup_spans: Vec<Span>,
) -> Driven {
    let stride = lanes.len() as u64;
    let start = Instant::now();
    let sh = Shared {
        start,
        deadline: start + Duration::from_secs_f64(cfg.seconds),
        last_fixed: sizes.last_fixed(),
        horizon: sizes.horizon,
        done: AtomicU64::new(0),
        rss_kib: AtomicU64::new(0),
    };
    let tracer = || Tracer::new(epoch, cfg.traced, 1 << 20);
    let first = |l: usize| sizes.warmup + l as u64;
    let outs: Vec<LaneOut> = if lanes.len() == 1 {
        let lane = lanes.into_iter().next().expect("one lane");
        vec![run_lane(lane, first(0), 1, tracer(), cfg.traced, &sh)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .into_iter()
                .enumerate()
                .map(|(l, lane)| {
                    let (sh, tr) = (&sh, tracer());
                    scope.spawn(move || run_lane(lane, first(l), stride, tr, cfg.traced, sh))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a lane panicked")).collect()
        })
    };
    let wall = start.elapsed();

    let mut run = Driven {
        wall,
        ops: Vec::new(),
        failures: Vec::new(),
        digest: 0,
        rss_kib_at_horizon: sh.rss_kib.load(Ordering::Relaxed),
        spans: setup_spans,
        host_factor: 1.0,
    };
    let mut fixed = Vec::new();
    let mut probes = Vec::new();
    for out in outs {
        probes.extend(out.probes);
        run.ops.extend(out.ops);
        run.failures.extend(out.failures);
        fixed.extend(out.fixed);
        // Span ids are per lane; shift them so they stay unique when merged.
        let base = run.spans.len() as u32;
        run.spans.extend(out.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    fixed.sort_unstable();
    run.digest = Fnv::new().words(fixed.into_iter().map(|(_, h)| h)).0;
    run.ops.sort_by_key(|o| o.done_ns);
    run.host_factor = host_factor(&mut probes);
    run
}

/// The outcome of one workload run, ready to print.
pub struct Report {
    pub sizes: Sizes,
    /// Median set-up, as measured.
    pub setup_s: f64,
    /// Host speed during the set-ups; see [`host_probe`].
    pub setup_host_factor: f64,
    pub run: Driven,
    pub layer: Layer,
    pub schedule_digest: u64,
}

/// Sets a workload up [`SETUP_REPS`] times (world, keys, warm-up ops), keeps
/// the last, drives it for `cfg.seconds` and collects what it reports.
/// `process_start` makes the first set-up include process start.
pub fn run_workload<W: Workload>(cfg: &Cfg, process_start: Instant) -> Report {
    let sizes = W::sizes(cfg.smoke);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_probes = Vec::new();
    let mut failures = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { process_start } else { Instant::now() };
        let last = rep + 1 == SETUP_REPS;
        let mut tr = Tracer::new(process_start, cfg.traced && last, 1 << 16);
        let mut world = W::setup(cfg, &sizes, &mut tr);
        let mut off = Tracer::new(process_start, false, 0);
        let mut lanes = world.lanes();
        let n = lanes.len() as u64;
        for i in 0..sizes.warmup {
            if let Err(why) = lanes[(i % n) as usize](i, &mut off) {
                failures.push(format!("warm-up op {i}: {why}"));
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        setup_probes.extend((0..SETUP_PROBES).map(|_| host_probe()));
        if last {
            // The lanes borrow the world, so the timed section runs here.
            let run = drive(lanes, cfg, &sizes, process_start, tr.spans);
            kept = Some((world, run));
        }
    }
    let (world, mut run) = kept.expect("SETUP_REPS >= 1");
    let mut layer = Layer::new();
    failures.extend(world.finish(&run, &mut layer));
    run.failures.splice(0..0, failures);

    if cfg.traced {
        layer.set("span.coverage_share", coverage_share(&run.spans));
        // Recording alternates in blocks with the same op mix, so the two
        // means compare like with like.
        let mean = |traced: bool| {
            let lat: Vec<u64> =
                run.ops.iter().filter(|o| o.traced == traced).map(|o| o.lat_ns).collect();
            lat.iter().sum::<u64>() as f64 / lat.len() as f64
        };
        layer.set("trace.overhead_share", mean(true) / mean(false) - 1.0);
    }
    Report {
        setup_s: median_f64(&mut setups),
        setup_host_factor: host_factor(&mut setup_probes),
        schedule_digest: schedule_digest::<W>(cfg.seed, cfg.smoke, sizes.warmup + sizes.horizon),
        sizes,
        run,
        layer,
    }
}

/// Writes the spans of a run, as measured, as JSON lines after the run
/// manifest and the host factor that steadies them.
pub fn write_trace(path: &std::path::Path, manifest: &str, run: &Driven) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{manifest}")?;
    writeln!(w, "{{\"host_factor\":{}}}", run.host_factor)?;
    for s in &run.spans {
        let parent = if s.parent == NO_PARENT { "null".into() } else { s.parent.to_string() };
        let op = if s.op == SETUP_OP { "\"setup\"".into() } else { s.op.to_string() };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"op\":{op},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"items\":{},\"shadow\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.items, s.shadow
        )?;
    }
    w.flush()
}
