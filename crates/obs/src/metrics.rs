//! The shared metrics registry: counters, gauges, and fixed-bucket
//! log-scale histograms under hierarchical `component.metric` names.
//!
//! A [`Histogram`] keeps no samples, which is what per-message radio
//! telemetry needs: it is 64 buckets of `u64` no matter how many samples it
//! absorbs, at the price of approximate percentiles (exact to the
//! power-of-two bucket that contains them).

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};

use vc_testkit::json::Json;

/// Number of fixed buckets in a [`Histogram`].
pub(crate) const BUCKETS: usize = 64;

/// A fixed-memory log-scale histogram for non-negative samples.
///
/// Bucket 0 covers `[0, 1)`; bucket `i >= 1` covers `[2^(i-1), 2^i)`; the
/// last bucket additionally absorbs everything beyond its lower bound.
/// Negative samples clamp into bucket 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index a sample falls into.
    pub fn bucket_index(x: f64) -> usize {
        if x.is_nan() || x < 1.0 {
            // NaN and everything below 1 (including negatives) land here.
            return 0;
        }
        ((x.log2() as usize) + 1).min(BUCKETS - 1)
    }

    /// The half-open value range `[lo, hi)` bucket `i` covers.
    pub(crate) fn bucket_bounds(i: usize) -> (f64, f64) {
        match i {
            0 => (0.0, 1.0),
            i => (2f64.powi(i as i32 - 1), 2f64.powi(i as i32)),
        }
    }

    /// Absorbs one sample.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.buckets[Histogram::bucket_index(x)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact minimum sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate percentile (`q` in `[0, 1]`) by nearest-rank over the
    /// cumulative bucket counts. Returns the upper bound of the bucket the
    /// rank falls in, clamped to the exact observed maximum; `None` when
    /// empty.
    pub fn approx_percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, hi) = Histogram::bucket_bounds(i);
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// The standard p50/p90/p99 latency summary of this histogram, `None`
    /// when empty.
    ///
    /// One call instead of three [`Histogram::approx_percentile`]s:
    /// `vcstat`'s histogram section and `vcload` both report the same three
    /// percentiles, so the extraction lives here.
    pub fn quantiles(&self) -> Option<Quantiles> {
        Some(Quantiles {
            p50: self.approx_percentile(0.50)?,
            p90: self.approx_percentile(0.90)?,
            p99: self.approx_percentile(0.99)?,
        })
    }

    /// Non-empty buckets as `(lower_bound, upper_bound, count)` triples.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| {
            let (lo, hi) = Histogram::bucket_bounds(i);
            (lo, hi, n)
        })
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A p50/p90/p99 summary extracted from a [`Histogram`] with
/// [`Histogram::quantiles`]. Values inherit the histogram's bucket
/// resolution (exact to the power-of-two bucket, clamped to the observed
/// maximum).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quantiles {
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Quantiles {
    /// Renders as an insertion-ordered `{"p50":…,"p90":…,"p99":…}` object
    /// (the schema `vcload` and `vcstat --json` artifacts share).
    pub fn to_json(self) -> Json {
        Json::object([
            ("p50", Json::from(self.p50)),
            ("p90", Json::from(self.p90)),
            ("p99", Json::from(self.p99)),
        ])
    }
}

/// A registry of named counters, gauges, and [`Histogram`]s.
///
/// Names are hierarchical dot-separated paths, component first:
/// `sim.radio.rx`, `auth.handshake.us`, `cloud.handover`. `BTreeMap`
/// storage keeps iteration (and thus every rendered artifact)
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsHub {
    /// An empty registry.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records one sample into the named histogram, creating it if needed.
    pub fn observe(&mut self, name: &str, sample: f64) {
        self.histograms.entry(name.to_owned()).or_default().record(sample);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, `None` when never observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Names and values of all counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Names and values of all gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Names and contents of all histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as an insertion-ordered JSON object with
    /// `counters`, `gauges`, and `histograms` sections.
    pub fn to_json(&self) -> Json {
        let counters = self.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v)));
        let gauges = self.gauges.iter().map(|(k, &v)| (k.clone(), Json::from(v)));
        let hists = self.histograms.iter().map(|(k, h)| {
            let mut pairs: Vec<(String, Json)> =
                vec![("count".into(), Json::from(h.count())), ("sum".into(), Json::from(h.sum()))];
            if let (Some(lo), Some(hi)) = (h.min(), h.max()) {
                pairs.push(("min".into(), Json::from(lo)));
                pairs.push(("max".into(), Json::from(hi)));
                pairs.push(("p95".into(), Json::from(h.approx_percentile(0.95).unwrap())));
            }
            (k.clone(), Json::Obj(pairs))
        });
        Json::object([
            ("counters", Json::Obj(counters.collect())),
            ("gauges", Json::Obj(gauges.collect())),
            ("histograms", Json::Obj(hists.collect())),
        ])
    }
}

/// One windowed time-series sample: what changed in the hub over one tick.
#[derive(Debug, Clone)]
pub struct TickSample {
    /// Zero-based tick index over the whole run (keeps counting even after
    /// the window has wrapped, so the export names the retained range).
    pub seq: u64,
    /// Sim-time of the tick, microseconds.
    pub at_us: u64,
    /// Counter increments since the previous tick (zero deltas omitted).
    pub counters: BTreeMap<String, u64>,
    /// Every gauge's value at this tick.
    pub gauges: BTreeMap<String, f64>,
    /// New histogram samples since the previous tick (zero deltas omitted).
    pub histogram_counts: BTreeMap<String, u64>,
}

impl TickSample {
    /// Renders the sample as one compact, insertion-ordered JSON object.
    pub fn to_json(&self) -> Json {
        let counters = self.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v)));
        let gauges = self.gauges.iter().map(|(k, &v)| (k.clone(), Json::from(v)));
        let hists = self.histogram_counts.iter().map(|(k, &v)| (k.clone(), Json::from(v)));
        Json::object([
            ("tick", Json::from(self.seq)),
            ("at_us", Json::from(self.at_us)),
            ("counters", Json::Obj(counters.collect())),
            ("gauges", Json::Obj(gauges.collect())),
            ("histogram_counts", Json::Obj(hists.collect())),
        ])
    }
}

/// A fixed-capacity ring of per-tick [`MetricsHub`] deltas: the windowed
/// time-series mode.
///
/// Each [`TimeSeries::tick`] diffs the hub against a copy kept from the
/// previous tick and pushes the delta; once the window is full
/// the oldest sample is dropped (and counted, mirroring
/// [`Recorder::ring`](crate::Recorder::ring)). Memory is bounded by the
/// capacity regardless of run length, so million-tick runs can stream
/// per-tick telemetry without keeping it all.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    cap: usize,
    samples: VecDeque<TickSample>,
    last: MetricsHub,
    seq: u64,
    dropped: u64,
}

impl TimeSeries {
    /// A window keeping the most recent `capacity` ticks (min 1).
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            cap: capacity.max(1),
            samples: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            last: MetricsHub::new(),
            seq: 0,
            dropped: 0,
        }
    }

    /// Closes the current tick: records the hub's delta since the previous
    /// tick at sim-time `at_us`.
    pub fn tick(&mut self, at_us: u64, hub: &MetricsHub) {
        // Metrics that appeared since the last tick diff against zero.
        let last = &self.last;
        let counters = hub
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(last.counter(k))))
            .filter(|(_, v)| *v > 0)
            .collect();
        let histogram_counts = hub
            .histograms
            .iter()
            .map(|(k, h)| {
                let before = last.histogram(k).map_or(0, Histogram::count);
                (k.clone(), h.count().saturating_sub(before))
            })
            .filter(|(_, v)| *v > 0)
            .collect();
        let gauges = hub.gauges.clone();
        if self.samples.len() >= self.cap {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(TickSample {
            seq: self.seq,
            at_us,
            counters,
            gauges,
            histogram_counts,
        });
        self.seq += 1;
        self.last = hub.clone();
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TickSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no tick has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total ticks recorded over the series' lifetime.
    pub fn ticks(&self) -> u64 {
        self.seq
    }

    /// Samples discarded because the window wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Writes the series as JSON Lines: a meta header (`ticks`, `dropped`,
    /// `capacity` — so consumers can tell a truncated window from a full
    /// one), then one [`TickSample`] object per line, oldest first.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let meta = Json::object([(
            "timeseries",
            Json::object([
                ("version", Json::from(1u64)),
                ("capacity", Json::from(self.cap as u64)),
                ("ticks", Json::from(self.seq)),
                ("dropped", Json::from(self.dropped)),
            ]),
        )]);
        out.write_all(meta.to_string_compact().as_bytes())?;
        out.write_all(b"\n")?;
        for sample in &self.samples {
            out.write_all(sample.to_json().to_string_compact().as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    }
}

impl crate::mem::MemSize for Histogram {
    // Buckets are an inline `[u64; 64]`; a histogram owns no heap.
    fn mem_bytes(&self) -> u64 {
        0
    }
}

impl crate::mem::MemSize for MetricsHub {
    fn mem_bytes(&self) -> u64 {
        self.counters.mem_bytes() + self.gauges.mem_bytes() + self.histograms.mem_bytes()
    }
}

impl crate::mem::MemSize for TickSample {
    fn mem_bytes(&self) -> u64 {
        self.counters.mem_bytes() + self.gauges.mem_bytes() + self.histogram_counts.mem_bytes()
    }
}

impl crate::mem::MemSize for TimeSeries {
    fn mem_bytes(&self) -> u64 {
        self.samples.mem_bytes() + self.last.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // [0,1) -> 0
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(0.999), 0);
        assert_eq!(Histogram::bucket_index(-5.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        // [1,2) -> 1, [2,4) -> 2, [4,8) -> 3 ...
        assert_eq!(Histogram::bucket_index(1.0), 1);
        assert_eq!(Histogram::bucket_index(1.999), 1);
        assert_eq!(Histogram::bucket_index(2.0), 2);
        assert_eq!(Histogram::bucket_index(3.999), 2);
        assert_eq!(Histogram::bucket_index(4.0), 3);
        // Huge samples clamp into the last bucket.
        assert_eq!(Histogram::bucket_index(f64::MAX), BUCKETS - 1);
        // Bounds invert the index mapping.
        assert_eq!(Histogram::bucket_bounds(0), (0.0, 1.0));
        assert_eq!(Histogram::bucket_bounds(1), (1.0, 2.0));
        assert_eq!(Histogram::bucket_bounds(3), (4.0, 8.0));
        for i in 1..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(hi, lo * 2.0);
        }
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let mut h = Histogram::new();
        for x in [0.5, 1.5, 3.0, 3.5, 100.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(100.0));
        assert!((h.mean().unwrap() - 21.7).abs() < 1e-9);
        // p50 rank=3 falls in bucket [2,4); upper bound 4.
        assert_eq!(h.approx_percentile(0.5), Some(4.0));
        // p100 clamps to the exact max, not the bucket bound 128.
        assert_eq!(h.approx_percentile(1.0), Some(100.0));
        // NaN samples are ignored.
        h.record(f64::NAN);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn quantiles_match_the_ad_hoc_percentile_calls() {
        assert_eq!(Histogram::new().quantiles(), None);
        let mut h = Histogram::new();
        for x in [1.0, 3.0, 9.0, 40.0, 800.0, 800.0, 1500.0] {
            h.record(x);
        }
        let q = h.quantiles().unwrap();
        assert_eq!(q.p50, h.approx_percentile(0.50).unwrap());
        assert_eq!(q.p90, h.approx_percentile(0.90).unwrap());
        assert_eq!(q.p99, h.approx_percentile(0.99).unwrap());
        assert!(q.p50 <= q.p90 && q.p90 <= q.p99);
        assert_eq!(
            q.to_json().to_string_compact(),
            format!(r#"{{"p50":{},"p90":{},"p99":{}}}"#, q.p50, q.p90, q.p99)
        );
    }

    #[test]
    fn timeseries_diffs_per_tick_and_wraps() {
        let mut hub = MetricsHub::new();
        let mut ts = TimeSeries::new(2);
        hub.counter_add("net.routing.deliver", 3);
        hub.gauge_set("net.copies.live", 5.0);
        hub.observe("net.e2e.s", 0.5);
        ts.tick(1_000, &hub);
        hub.counter_add("net.routing.deliver", 4);
        hub.counter_add("cloud.place", 1);
        hub.gauge_set("net.copies.live", 2.0);
        hub.observe("net.e2e.s", 0.25);
        ts.tick(2_000, &hub);
        // Tick deltas, not cumulative totals.
        let samples: Vec<&TickSample> = ts.samples().collect();
        assert_eq!(samples[0].counters.get("net.routing.deliver"), Some(&3));
        assert_eq!(samples[1].counters.get("net.routing.deliver"), Some(&4));
        assert_eq!(samples[1].histogram_counts.get("net.e2e.s"), Some(&1));
        // A counter that appeared mid-run diffs against zero; a gauge
        // reports its later value.
        assert_eq!(samples[1].counters.get("cloud.place"), Some(&1));
        assert_eq!(samples[1].gauges.get("net.copies.live"), Some(&2.0));
        // A quiet tick still lands (empty diff) and the window wraps.
        ts.tick(3_000, &hub);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.ticks(), 3);
        assert_eq!(ts.dropped(), 1);
        assert_eq!(ts.samples().next().unwrap().seq, 1);
        let last = ts.samples().last().unwrap();
        // Unchanged counters and histograms are omitted from the delta.
        assert!(last.counters.is_empty());
        assert!(last.histogram_counts.is_empty());
        // Gauges report their current value every tick.
        assert_eq!(last.gauges.get("net.copies.live"), Some(&2.0));
    }

    #[test]
    fn timeseries_jsonl_schema_is_stable() {
        let mut hub = MetricsHub::new();
        let mut ts = TimeSeries::new(8);
        hub.counter_add("sim.radio.tx", 2);
        ts.tick(500_000, &hub);
        let mut out = Vec::new();
        ts.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"timeseries":{"version":1,"capacity":8,"ticks":1,"dropped":0}}"#,
                r#"{"tick":0,"at_us":500000,"counters":{"sim.radio.tx":2},"gauges":{},"histogram_counts":{}}"#,
            ]
        );
    }

    #[test]
    fn timeseries_header_with_zero_ticks_is_the_whole_export() {
        // An untouched window exports exactly one line: the meta header
        // with ticks and dropped both zero.
        let ts = TimeSeries::new(3);
        let mut out = Vec::new();
        ts.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.lines().collect::<Vec<_>>(),
            vec![r#"{"timeseries":{"version":1,"capacity":3,"ticks":0,"dropped":0}}"#]
        );
    }

    #[test]
    fn timeseries_single_tick_header_counts_one() {
        let mut ts = TimeSeries::new(3);
        ts.tick(1_000, &MetricsHub::new());
        let mut out = Vec::new();
        ts.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"timeseries":{"version":1,"capacity":3,"ticks":1,"dropped":0}}"#);
    }

    #[test]
    fn timeseries_wrap_exactly_at_capacity_drops_nothing() {
        // Filling the window to exactly its capacity must not count a
        // drop; one tick past capacity must count exactly one.
        let hub = MetricsHub::new();
        let mut ts = TimeSeries::new(3);
        for i in 0..3u64 {
            ts.tick(i * 1_000, &hub);
        }
        assert_eq!((ts.len(), ts.ticks(), ts.dropped()), (3, 3, 0));
        let header = |ts: &TimeSeries| {
            let mut out = Vec::new();
            ts.write_jsonl(&mut out).unwrap();
            String::from_utf8(out).unwrap().lines().next().unwrap().to_owned()
        };
        assert_eq!(
            header(&ts),
            r#"{"timeseries":{"version":1,"capacity":3,"ticks":3,"dropped":0}}"#
        );
        ts.tick(3_000, &hub);
        assert_eq!((ts.len(), ts.ticks(), ts.dropped()), (3, 4, 1));
        assert_eq!(
            header(&ts),
            r#"{"timeseries":{"version":1,"capacity":3,"ticks":4,"dropped":1}}"#
        );
        // The oldest sample rolled off: the retained range starts at seq 1.
        assert_eq!(ts.samples().next().unwrap().seq, 1);
    }

    #[test]
    fn hub_and_timeseries_mem_bytes_grow_with_content() {
        use crate::mem::MemSize;
        let mut hub = MetricsHub::new();
        assert_eq!(hub.mem_bytes(), 0);
        hub.counter_add("net.forward", 1);
        hub.gauge_set("mem.fleet.bytes", 1.0);
        hub.observe("net.e2e.s", 0.5);
        let one = hub.mem_bytes();
        assert!(one > 0);
        for i in 0..64 {
            hub.counter_add(&format!("sim.shard{i}.steps"), 1);
        }
        assert!(hub.mem_bytes() > one);

        let mut ts = TimeSeries::new(8);
        let empty = ts.mem_bytes();
        ts.tick(1_000, &hub);
        assert!(ts.mem_bytes() > empty, "the kept hub + sample should add heap");
    }

    #[test]
    fn hub_json_is_deterministic() {
        let mut hub = MetricsHub::new();
        hub.counter_add("z.last", 1);
        hub.counter_add("a.first", 2);
        hub.observe("m.us", 3.0);
        let s = hub.to_json().to_string_compact();
        // BTreeMap ordering: a.first before z.last regardless of insertion.
        assert!(s.find("a.first").unwrap() < s.find("z.last").unwrap());
        assert!(s.contains(r#""m.us":{"count":1,"sum":3,"min":3,"max":3,"p95":3}"#));
    }
}
