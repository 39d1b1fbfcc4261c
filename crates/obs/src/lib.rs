//! # vc-obs — structured tracing and metrics for the vcloud workspace
//!
//! The paper's central claim is that vehicular clouds need *real-time
//! trustworthiness assessment* and auditable security decisions; this crate
//! is the measurement substrate that makes those assessments possible. It
//! provides two cooperating facilities:
//!
//! * [`Recorder`] — a zero-dependency structured event log. Instrumented
//!   code emits typed [`Event`]s (`at` sim-time, `component`, `kind`,
//!   fields) and sim-time *spans* (begin/end pairs with elapsed time). The
//!   recorder can run unbounded (short experiments) or as a bounded ring
//!   buffer (long runs), and exports deterministic JSONL built on
//!   `vc-testkit`'s insertion-ordered JSON writer.
//! * [`MetricsHub`] — a registry of counters, gauges, and fixed-bucket
//!   log-scale [`Histogram`]s under hierarchical `component.metric` names,
//!   with a snapshot-diff API for measuring deltas over a phase of a run.
//! * [`profile::Profiler`] — the wall-clock half: scoped RAII frames
//!   aggregated into a call tree with `profile.json` and collapsed-stack
//!   (flamegraph) exports. Traces stay sim-time-only and byte-reproducible;
//!   the profiler is where real nanoseconds are accounted.
//! * [`causal`] — per-message causal tracing: a deterministic, seeded
//!   [`Sampler`] selects messages (`VC_TRACE_SAMPLE`), each selected
//!   message carries a [`TraceId`] across hops, and the resulting
//!   `causal.*` event chain reconstructs the full admission → relay →
//!   delivery path (`vcstat --causal`).
//! * [`mem`] — the heap half of the budget: a counting
//!   `#[global_allocator]` wrapper (binaries opt in via
//!   `counting_allocator!`), per-frame alloc accounting through the
//!   profiler, and the [`MemSize`] deep-footprint trait feeding
//!   deterministic `mem.*` gauges (written whenever the time series is
//!   armed).
//! * [`TimeSeries`] — the windowed per-tick mode of [`MetricsHub`]:
//!   snapshot diffs pushed into a fixed-capacity ring, exported as JSONL
//!   (`experiments --timeseries`, `vcstat --timeline`).
//!
//! Instrumentation hooks throughout the workspace take
//! `Option<&mut Recorder>`: passing `None` reduces every hook to a branch,
//! so uninstrumented runs pay near zero. `vc-sim` sits below this crate and
//! carries no hooks; [`tick_scenario`] is where its world step is traced.
//!
//! ```
//! use vc_obs::Recorder;
//! use vc_sim::time::SimTime;
//!
//! let mut rec = Recorder::new();
//! let span = rec.span_begin(SimTime::ZERO, "auth", "handshake");
//! rec.event(SimTime::from_millis(2), "auth", "hello", vec![("bytes", 96u64.into())]);
//! rec.span_end(SimTime::from_millis(5), span);
//! let mut out = Vec::new();
//! rec.write_jsonl(&mut out).unwrap();
//! assert_eq!(out.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count(), 3);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: `mem::CountingAlloc`'s `GlobalAlloc` impl is the
// one scoped `#[allow(unsafe_code)]` in the crate.
#![deny(unsafe_code)]

pub mod causal;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod record;

pub use causal::{SampleRate, Sampler, TraceId};
pub use mem::{AllocDelta, AllocScope, CountingAlloc, MemSize};
pub use metrics::{
    Histogram, MetricsHub, Quantiles, Snapshot, SnapshotDiff, TickSample, TimeSeries,
};
pub use record::{Event, Recorder, SpanId, SpanPhase, Value};

use vc_sim::scenario::Scenario;
use vc_sim::time::SimTime;

/// Reborrows an optional recorder so it can be passed down a call chain
/// without consuming the caller's `Option<&mut Recorder>`.
///
/// ```
/// use vc_obs::{reborrow, Recorder};
/// fn inner(rec: Option<&mut Recorder>) {}
/// fn outer(mut rec: Option<&mut Recorder>) {
///     inner(reborrow(&mut rec));
///     inner(rec); // still usable
/// }
/// ```
pub fn reborrow<'a>(rec: &'a mut Option<&mut Recorder>) -> Option<&'a mut Recorder> {
    rec.as_mut().map(|r| &mut **r)
}

/// Advances `scenario` one [`Scenario::tick`] inside a `sim.tick` profiler
/// frame and, with a recorder attached, emits one `sim`/`tick` event at `at`
/// carrying the fleet size and online count. The world evolves exactly as
/// the bare `tick` moves it.
pub fn tick_scenario(scenario: &mut Scenario, at: SimTime, rec: Option<&mut Recorder>) {
    let _sim = profile::frame("sim.tick");
    scenario.tick();
    if let Some(rec) = rec {
        let fleet = &scenario.fleet;
        rec.event(
            at,
            "sim",
            "tick",
            vec![("vehicles", fleet.len().into()), ("online", fleet.online_count().into())],
        );
    }
}
