//! The structured event recorder: typed events, sim-time spans, ring-buffer
//! mode, and deterministic JSONL export.
//!
//! Every event carries the *simulated* clock, never the wall clock, so a
//! trace written from a seeded run is byte-for-byte reproducible — the CI
//! determinism gate diffs two same-seed traces directly.

use std::collections::VecDeque;
use std::io::{self, Write};

use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::json::{write_escaped, write_number, Json};

use crate::metrics::{MetricsHub, TimeSeries};

/// A typed field value attached to an [`Event`]. Hooks build these rather
/// than strings, so nothing is formatted unless a recorder is attached.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, ids, sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (latencies, rates).
    F64(f64),
    /// Boolean (success flags).
    Bool(bool),
    /// Short string (names, labels).
    Str(String),
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $cast:ty),+ $(,)?) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                Value::$variant(v as $cast)
            }
        }
    )+};
}

value_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Identifies one span within a [`Recorder`]; returned by
/// [`Recorder::span_begin`] and consumed by [`Recorder::span_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw numeric id (stable within one recorder's lifetime).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Whether a span-linked event marks the start or the finish of the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// The span just opened.
    Begin,
    /// The span just closed; the event carries the elapsed sim-time.
    End,
}

impl SpanPhase {
    fn name(self) -> &'static str {
        match self {
            SpanPhase::Begin => "begin",
            SpanPhase::End => "end",
        }
    }
}

/// One structured instrumentation record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time the event occurred at.
    pub at: SimTime,
    /// Emitting subsystem (`"sim"`, `"net"`, `"auth"`, `"cloud"`, ...).
    pub component: &'static str,
    /// Event name within the component (`"radio.rx"`, `"handshake"`, ...).
    pub kind: &'static str,
    /// Span linkage, when this event opens or closes a span.
    pub span: Option<(SpanId, SpanPhase)>,
    /// Elapsed sim-time, present on span-end events.
    pub elapsed: Option<SimDuration>,
    /// Short list of typed key/value details.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Builds this event as one insertion-ordered JSON object. Nothing on a
    /// hot path calls it: it is the reference for
    /// `Event::write_compact`, which must emit exactly
    /// `self.to_json().to_string_compact()`.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("at_us".into(), Json::from(self.at.as_micros())),
            ("component".into(), Json::from(self.component)),
            ("kind".into(), Json::from(self.kind)),
        ];
        if let Some((id, phase)) = self.span {
            pairs.push(("span".into(), Json::from(id.as_u64())));
            pairs.push(("phase".into(), Json::from(phase.name())));
        }
        if let Some(elapsed) = self.elapsed {
            pairs.push(("elapsed_us".into(), Json::from(elapsed.as_micros())));
        }
        if !self.fields.is_empty() {
            let fields =
                self.fields.iter().map(|(k, v)| ((*k).to_owned(), value_to_json(v))).collect();
            pairs.push(("fields".into(), Json::Obj(fields)));
        }
        Json::Obj(pairs)
    }

    /// Appends this event's compact JSON object to `out` — the bytes of
    /// `self.to_json().to_string_compact()`, written without building the
    /// tree: every number takes the same `as f64` →
    /// [`vc_testkit::json::write_number`] route [`Json::from`] gives it (so
    /// an id above 2⁵³ prints as it always has), every key and string goes
    /// through [`vc_testkit::json::write_escaped`].
    pub(crate) fn write_compact(&self, out: &mut String) {
        out.push_str("{\"at_us\":");
        write_number(out, self.at.as_micros() as f64);
        out.push_str(",\"component\":");
        write_escaped(out, self.component);
        out.push_str(",\"kind\":");
        write_escaped(out, self.kind);
        if let Some((id, phase)) = self.span {
            out.push_str(",\"span\":");
            write_number(out, id.as_u64() as f64);
            out.push_str(",\"phase\":");
            write_escaped(out, phase.name());
        }
        if let Some(elapsed) = self.elapsed {
            out.push_str(",\"elapsed_us\":");
            write_number(out, elapsed.as_micros() as f64);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (key, value)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, key);
                out.push(':');
                match value {
                    Value::U64(n) => write_number(out, *n as f64),
                    Value::I64(n) => write_number(out, *n as f64),
                    Value::F64(n) => write_number(out, *n),
                    Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    Value::Str(s) => write_escaped(out, s),
                }
            }
            out.push('}');
        }
        out.push('}');
    }
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::U64(n) => Json::from(*n),
        Value::I64(n) => Json::from(*n),
        Value::F64(n) => Json::from(*n),
        Value::Bool(b) => Json::from(*b),
        Value::Str(s) => Json::from(s.as_str()),
    }
}

struct OpenSpan {
    id: SpanId,
    component: &'static str,
    kind: &'static str,
    begin: SimTime,
}

/// A structured event log with sim-time spans and an embedded
/// [`MetricsHub`].
///
/// Two storage modes: [`Recorder::new`] keeps every event (short
/// experiments), [`Recorder::ring`] keeps only the most recent `capacity`
/// events and counts the rest as [`Recorder::dropped`] (long runs). Either
/// way the embedded hub keeps aggregate counters/histograms over *all*
/// events, so metrics stay exact even when the ring has wrapped.
pub struct Recorder {
    events: VecDeque<Event>,
    cap: Option<usize>,
    dropped: u64,
    open: Vec<OpenSpan>,
    next_span: u64,
    hub: MetricsHub,
    timeseries: Option<TimeSeries>,
}

impl Recorder {
    /// An unbounded recorder that keeps every event.
    pub fn new() -> Recorder {
        Recorder {
            events: VecDeque::new(),
            cap: None,
            dropped: 0,
            open: Vec::new(),
            next_span: 0,
            hub: MetricsHub::new(),
            timeseries: None,
        }
    }

    /// A bounded recorder keeping only the most recent `capacity` events;
    /// older events are dropped (and counted) once the ring is full.
    pub fn ring(capacity: usize) -> Recorder {
        Recorder {
            events: VecDeque::with_capacity(capacity.min(4096)),
            cap: Some(capacity.max(1)),
            ..Recorder::new()
        }
    }

    /// Records a plain event and bumps the `component.kind` counter in the
    /// embedded hub.
    pub fn event(
        &mut self,
        at: SimTime,
        component: &'static str,
        kind: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) {
        self.push(Event { at, component, kind, span: None, elapsed: None, fields });
    }

    /// Opens a span: emits a `begin` event now and returns the id to close
    /// it with. Spans may nest and may close out of order.
    pub fn span_begin(
        &mut self,
        at: SimTime,
        component: &'static str,
        kind: &'static str,
    ) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.open.push(OpenSpan { id, component, kind, begin: at });
        self.push(Event {
            at,
            component,
            kind,
            span: Some((id, SpanPhase::Begin)),
            elapsed: None,
            fields: Vec::new(),
        });
        id
    }

    /// Closes a span: emits an `end` event carrying the elapsed sim-time and
    /// records the elapsed microseconds into the hub histogram
    /// `component.kind.us`. Returns `None` (and records nothing) if the id
    /// is unknown or already closed.
    pub fn span_end(&mut self, at: SimTime, id: SpanId) -> Option<SimDuration> {
        let idx = self.open.iter().rposition(|s| s.id == id)?;
        let span = self.open.swap_remove(idx);
        let elapsed = at.saturating_since(span.begin);
        let name = format!("{}.{}.us", span.component, span.kind);
        self.hub.observe(&name, elapsed.as_micros() as f64);
        self.push(Event {
            at,
            component: span.component,
            kind: span.kind,
            span: Some((id, SpanPhase::End)),
            elapsed: Some(elapsed),
            fields: Vec::new(),
        });
        Some(elapsed)
    }

    fn push(&mut self, event: Event) {
        self.hub.counter_add(&format!("{}.{}", event.component, event.kind), 1);
        if let Some(cap) = self.cap {
            if self.events.len() >= cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded by ring-buffer mode (always 0 when unbounded).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of spans opened but not yet closed.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// The embedded metrics registry (read access).
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// The embedded metrics registry (write access, for caller-owned
    /// gauges and histograms alongside the automatic event counters).
    pub fn hub_mut(&mut self) -> &mut MetricsHub {
        &mut self.hub
    }

    /// Enables the windowed time-series mode: every
    /// [`Recorder::timeseries_tick`] records the hub's delta since the
    /// previous tick into a ring keeping the most recent `capacity` ticks.
    pub fn enable_timeseries(&mut self, capacity: usize) {
        self.timeseries = Some(TimeSeries::new(capacity));
    }

    /// The time series, when [`Recorder::enable_timeseries`] was called.
    pub fn timeseries(&self) -> Option<&TimeSeries> {
        self.timeseries.as_ref()
    }

    /// Closes one time-series tick at sim-time `at`. A no-op unless the
    /// time-series mode is enabled, so instrumented loops can call it
    /// unconditionally.
    pub fn timeseries_tick(&mut self, at: SimTime) {
        if let Some(ts) = self.timeseries.as_mut() {
            ts.tick(at.as_micros(), &self.hub);
        }
    }

    /// Writes the retained events as JSON Lines: one compact object per
    /// line, insertion-ordered keys, trailing newline per line. Output is
    /// deterministic for a deterministic run.
    ///
    /// Ring-mode recorders append a `obs`/`trace.end` trailer carrying the
    /// retained and dropped counts, so a consumer can tell a truncated
    /// window from a complete log instead of silently reporting partial
    /// counts. Unbounded recorders (which never drop) emit no trailer and
    /// their output is byte-identical to earlier releases.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        // One line buffer for the whole log: no `Json` tree, no per-event
        // `String`.
        let mut line = String::new();
        let mut write_line = |event: &Event| {
            line.clear();
            event.write_compact(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes())
        };
        for event in &self.events {
            write_line(event)?;
        }
        if self.cap.is_some() {
            let at = self.events.back().map_or(SimTime::ZERO, |e| e.at);
            write_line(&Event {
                at,
                component: "obs",
                kind: "trace.end",
                span: None,
                elapsed: None,
                fields: vec![
                    ("retained", Value::U64(self.events.len() as u64)),
                    ("dropped", Value::U64(self.dropped)),
                ],
            })?;
        }
        Ok(())
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl crate::mem::MemSize for Event {
    fn mem_bytes(&self) -> u64 {
        (self.fields.capacity() * std::mem::size_of::<(&'static str, Value)>()) as u64
            + self
                .fields
                .iter()
                .map(|(_, v)| match v {
                    Value::Str(s) => s.capacity() as u64,
                    _ => 0,
                })
                .sum::<u64>()
    }
}

impl crate::mem::MemSize for Recorder {
    /// Deep heap bytes of the event ring (by capacity, plus per-event
    /// field storage), open-span bookkeeping, the embedded hub, and the
    /// time series when enabled — the `mem.obs.bytes` gauge.
    fn mem_bytes(&self) -> u64 {
        use crate::mem::MemSize;
        (self.events.capacity() * std::mem::size_of::<Event>()) as u64
            + self.events.iter().map(MemSize::mem_bytes).sum::<u64>()
            + (self.open.capacity() * std::mem::size_of::<OpenSpan>()) as u64
            + self.hub.mem_bytes()
            + self.timeseries.as_ref().map_or(0, MemSize::mem_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u64), Value::U64(3));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(2.5), Value::F64(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }

    #[test]
    fn events_record_in_order_with_counters() {
        let mut rec = Recorder::new();
        rec.event(t(1), "sim", "tick", vec![("n", 1u64.into())]);
        rec.event(t(2), "sim", "tick", vec![("n", 2u64.into())]);
        rec.event(t(2), "net", "forward", Vec::new());
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.hub().counter("sim.tick"), 2);
        assert_eq!(rec.hub().counter("net.forward"), 1);
        assert_eq!(rec.hub().counter("absent"), 0);
    }

    #[test]
    fn spans_nest_and_close_out_of_order() {
        let mut rec = Recorder::new();
        let outer = rec.span_begin(t(0), "auth", "handshake");
        let inner = rec.span_begin(t(1), "auth", "verify");
        assert_eq!(rec.open_spans(), 2);
        // Close outer first: out-of-order closing must still resolve both.
        assert_eq!(rec.span_end(t(4), outer), Some(SimDuration::from_millis(4)));
        assert_eq!(rec.span_end(t(5), inner), Some(SimDuration::from_millis(4)));
        assert_eq!(rec.open_spans(), 0);
        // Double close is rejected.
        assert_eq!(rec.span_end(t(6), inner), None);
        // Span elapsed landed in the hub histogram.
        let hist = rec.hub().histogram("auth.handshake.us").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), Some(4000.0));
        // Events: 2 begins + 2 ends, begins before their ends.
        let phases: Vec<_> = rec.events().filter_map(|e| e.span).collect();
        assert_eq!(phases.len(), 4);
        assert_eq!(phases[0], (outer, SpanPhase::Begin));
        assert_eq!(phases[2], (outer, SpanPhase::End));
    }

    #[test]
    fn ring_mode_drops_oldest_but_keeps_exact_counters() {
        let mut rec = Recorder::ring(2);
        for i in 0..5u64 {
            rec.event(t(i), "sim", "tick", vec![("i", i.into())]);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let first = rec.events().next().unwrap();
        assert_eq!(first.fields[0].1, Value::U64(3));
        // The hub still saw all five events.
        assert_eq!(rec.hub().counter("sim.tick"), 5);
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let mut rec = Recorder::new();
        let s = rec.span_begin(t(0), "cloud", "place");
        rec.event(t(1), "cloud", "migrate", vec![("task", 7u64.into()), ("ok", true.into())]);
        rec.span_end(t(3), s);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"at_us":0,"component":"cloud","kind":"place","span":0,"phase":"begin"}"#
        );
        assert_eq!(
            lines[1],
            r#"{"at_us":1000,"component":"cloud","kind":"migrate","fields":{"task":7,"ok":true}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"at_us":3000,"component":"cloud","kind":"place","span":0,"phase":"end","elapsed_us":3000}"#
        );
    }

    #[test]
    fn jsonl_lines_equal_the_json_tree_for_every_event_shape() {
        // `write_jsonl` renders without a `Json` tree; `Event::to_json` is
        // the reference it must match byte for byte. A ring recorder, so
        // the trailer goes through the comparison too.
        let mut rec = Recorder::ring(64);
        rec.event(t(0), "sim", "plain", Vec::new());
        let outer = rec.span_begin(t(1), "auth", "handshake");
        let inner = rec.span_begin(t(2), "auth", "verify");
        rec.span_end(t(5), inner);
        rec.span_end(SimTime::from_micros(u64::MAX), outer);
        rec.event(
            t(6),
            "net",
            "every.variant",
            vec![
                ("small", Value::U64(7)),
                ("past_2_53", Value::U64((1 << 53) + 1)),
                ("max", Value::U64(u64::MAX)),
                ("negative", Value::I64(-42)),
                ("min", Value::I64(i64::MIN)),
                ("integral", Value::F64(3.0)),
                ("fractional", Value::F64(-0.125)),
                ("tiny", Value::F64(1e-300)),
                ("huge", Value::F64(1e300)),
                ("nan", Value::F64(f64::NAN)),
                ("inf", Value::F64(f64::INFINITY)),
                ("neg_inf", Value::F64(f64::NEG_INFINITY)),
                ("yes", Value::Bool(true)),
                ("no", Value::Bool(false)),
                (
                    "text",
                    Value::Str("quote \" backslash \\ newline \n tab \t bell \u{7} é 車 🚗".into()),
                ),
                ("empty", Value::Str(String::new())),
                ("key \"needing\" \\ escapes\n", Value::U64(1)),
            ],
        );
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), rec.len() + 1, "one line per event plus the trailer");
        for (line, event) in lines.iter().zip(rec.events()) {
            assert_eq!(*line, event.to_json().to_string_compact());
            Json::parse(line).expect("every line is a JSON document");
        }
        assert_eq!(
            lines[6],
            r#"{"at_us":6000,"component":"obs","kind":"trace.end","fields":{"retained":6,"dropped":0}}"#
        );
        // What a consumer reads back is what was recorded.
        let doc = Json::parse(lines[5]).unwrap();
        assert_eq!(doc["fields"]["negative"], Json::from(-42i64));
        assert_eq!(doc["fields"]["fractional"], Json::from(-0.125));
        assert_eq!(doc["fields"]["nan"], Json::Null);
        assert_eq!(doc["fields"]["no"], Json::from(false));
        assert_eq!(
            doc["fields"]["text"],
            "quote \" backslash \\ newline \n tab \t bell \u{7} é 車 🚗"
        );
        assert_eq!(doc["fields"]["key \"needing\" \\ escapes\n"], Json::from(1u64));
    }

    #[test]
    fn ring_jsonl_carries_a_drop_trailer_and_unbounded_does_not() {
        let mut ring = Recorder::ring(2);
        for i in 0..3u64 {
            ring.event(t(i), "sim", "tick", vec![("i", i.into())]);
        }
        let mut out = Vec::new();
        ring.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            r#"{"at_us":2000,"component":"obs","kind":"trace.end","fields":{"retained":2,"dropped":1}}"#
        );
        // Unbounded recorders keep the pre-trailer byte format.
        let mut plain = Recorder::new();
        plain.event(t(0), "sim", "tick", Vec::new());
        let mut out = Vec::new();
        plain.write_jsonl(&mut out).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("trace.end"));
    }

    #[test]
    fn timeseries_tick_is_noop_until_enabled() {
        let mut rec = Recorder::new();
        rec.timeseries_tick(t(1));
        assert!(rec.timeseries().is_none());
        rec.enable_timeseries(16);
        rec.event(t(2), "sim", "tick", Vec::new());
        rec.timeseries_tick(t(2));
        rec.event(t(3), "net", "routing.deliver", Vec::new());
        rec.timeseries_tick(t(3));
        let ts = rec.timeseries().unwrap();
        assert_eq!(ts.len(), 2);
        let samples: Vec<_> = ts.samples().collect();
        assert_eq!(samples[0].counters.get("sim.tick"), Some(&1));
        assert_eq!(samples[1].counters.get("net.routing.deliver"), Some(&1));
        assert!(!samples[1].counters.contains_key("sim.tick"));
    }

    /// Extracts the `trace.end` trailer's `(retained, dropped)` from a
    /// serialized ring trace.
    fn trailer_counts(rec: &Recorder) -> Option<(u64, u64)> {
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let last = text.lines().last()?;
        if !last.contains("trace.end") {
            return None;
        }
        let doc = Json::parse(last).unwrap();
        Some((
            doc["fields"]["retained"].as_f64().unwrap() as u64,
            doc["fields"]["dropped"].as_f64().unwrap() as u64,
        ))
    }

    #[test]
    fn empty_ring_trace_is_trailer_only() {
        // Zero events: the ring trailer must still appear, with both
        // counts zero, so a consumer can tell "empty" from "not a ring".
        let rec = Recorder::ring(4);
        assert_eq!(trailer_counts(&rec), Some((0, 0)));
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 1);
    }

    #[test]
    fn single_event_ring_trace_retains_one_drops_zero() {
        let mut rec = Recorder::ring(4);
        rec.event(t(1), "sim", "tick", Vec::new());
        assert_eq!(trailer_counts(&rec), Some((1, 0)));
    }

    #[test]
    fn ring_wrap_exactly_at_capacity_drops_nothing() {
        // Filling the ring to exactly its capacity must not count a drop;
        // one event past capacity must count exactly one.
        let mut rec = Recorder::ring(3);
        for i in 0..3u64 {
            rec.event(t(i), "sim", "tick", Vec::new());
        }
        assert_eq!((rec.len(), rec.dropped()), (3, 0));
        assert_eq!(trailer_counts(&rec), Some((3, 0)));
        rec.event(t(3), "sim", "tick", Vec::new());
        assert_eq!((rec.len(), rec.dropped()), (3, 1));
        assert_eq!(trailer_counts(&rec), Some((3, 1)));
        // The oldest event rolled off; the window starts at t=1.
        assert_eq!(rec.events().next().unwrap().at, t(1));
    }

    #[test]
    fn recorder_mem_bytes_tracks_growth_and_is_deterministic() {
        use crate::mem::MemSize;
        let build = |events: u64| {
            let mut rec = Recorder::new();
            for i in 0..events {
                rec.event(t(i), "sim", "tick", vec![("i", i.into())]);
            }
            rec
        };
        let small = build(4).mem_bytes();
        let big = build(4096).mem_bytes();
        assert!(small > 0 && big > small, "small {small}, big {big}");
        assert_eq!(build(100).mem_bytes(), build(100).mem_bytes());
    }
}
