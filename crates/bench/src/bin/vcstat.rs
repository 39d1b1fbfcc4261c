//! `vcstat` — reads back what `experiments` writes, and the file picks the
//! report:
//!
//! ```text
//! vcstat out.jsonl            # trace: component tables, span latency by kind,
//!                             # histograms, critical path, causal chains, slowest spans
//! vcstat out.jsonl --top 25   # 25 slowest spans and causal chains
//! vcstat ts.jsonl             # time series: per-tick metric timeline, mem.* gauges
//! vcstat profile.json         # profile: top allocating frames, alloc critical path
//! vcstat ts.jsonl --json      # any report, machine-readable
//! ```
//!
//! A file whose first non-blank line is a `{"timeseries":…}` header is a
//! time series (`experiments --timeseries`); a JSON document with a
//! `frames` array is a profile (`--profile`); anything else is read as a
//! trace (`--trace`).
//!
//! Reads the artifacts back with `vc_testkit`'s JSON parser (the same
//! writer produced them), so the tool needs no external dependencies.
//! Output is deterministic: components and kinds sort lexically, span ties
//! break on timestamp then span id.
//!
//! Every trace line must be a JSON object with a numeric `at_us` and string
//! `component` / `kind`; a malformed or truncated line aborts with the
//! offending line number and a nonzero exit, so a corrupt trace never
//! yields silently wrong statistics. Ring-mode traces end in an
//! `obs`/`trace.end` trailer: it is kept out of the component tables, and a
//! nonzero dropped count triggers a loud truncation warning since every
//! other number then reflects only the retained window.

use std::collections::{BTreeMap, HashMap};
use vc_obs::Histogram;
use vc_testkit::cli::{Cli, Flag};
use vc_testkit::json::Json;

/// One end-to-end causal chain reassembled from its `causal.*` events.
#[derive(Default)]
struct TraceChain {
    /// (packet, src, dst, at_us) from `causal.origin`.
    origin: Option<(u64, u64, u64, u64)>,
    /// (hop, from, to, latency_us) from each `causal.hop`.
    hops: Vec<(u64, u64, u64, u64)>,
    /// (hops, relay, dst, e2e_s) from `causal.deliver`.
    deliver: Option<(u64, u64, u64, f64)>,
    /// Copies that died with their holder (`causal.drop` count).
    drops: u64,
}

struct SpanRow {
    elapsed_us: u64,
    at_us: u64,
    span: u64,
    label: String,
}

/// One span reconstructed from its begin/end event pair. Nesting follows
/// stream order: a span's parent is the innermost span still open when its
/// `begin` event appears, which is exactly how the recorder's callers nest.
struct SpanNode {
    label: String,
    component: String,
    /// `None` until the matching `end` event arrives (truncation-tolerant:
    /// an unclosed span simply never joins the elapsed statistics).
    elapsed_us: Option<u64>,
    parent: Option<usize>,
    children: Vec<usize>,
}

fn die(msg: String) -> ! {
    eprintln!("vcstat: {msg}");
    std::process::exit(1);
}

const USAGE: &str = "usage: vcstat TRACE.jsonl|TIMESERIES.jsonl|PROFILE.json [--top N] [--json]";

/// vcstat has one mode: the file, not a flag, picks the report.
const REPORT: &str = "a report";
const FLAGS: &[Flag] = &[Flag::value("--top", &[REPORT]), Flag::switch("--json", &[REPORT])];
const CLI: Cli = Cli {
    name: "vcstat",
    usage: USAGE,
    default_mode: REPORT,
    flags: FLAGS,
    positionals: &[REPORT],
};

/// A time-series tick spikes when its value exceeds this multiple of the
/// metric's median over its active ticks.
const SPIKE_MULT: f64 = 4.0;

/// The alphabet of both sparklines, lowest level first.
const LEVELS: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];

fn main() {
    let args = CLI.parse_env();
    let [path] = &args.positionals[..] else { CLI.fail("give exactly one file") };
    let (top, json_out) = (args.get("--top").unwrap_or(10usize), args.has("--json"));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    let first = text.lines().find(|l| !l.trim().is_empty());
    if let Some(header) = first.and_then(|l| Json::parse(l).ok()) {
        if matches!(header["timeseries"], Json::Obj(_)) {
            return timeseries_report(path, &read_timeseries(path, &header, &text), top, json_out);
        }
    }
    if let Ok(doc) = Json::parse(&text) {
        if matches!(doc["frames"], Json::Arr(_)) {
            return profile_report(&doc, path, top, json_out);
        }
    }
    trace_report(path, &text, top, json_out);
}

/// The trace report: component tables, then every span and causal view,
/// then the `top` slowest spans.
fn trace_report(path: &str, text: &str, top: usize, json_out: bool) {
    // component -> kind -> count
    let mut by_component: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    let mut spans: Vec<SpanRow> = Vec::new();
    let mut nodes: Vec<SpanNode> = Vec::new();
    let mut open_stack: Vec<usize> = Vec::new();
    let mut by_span_id: HashMap<u64, usize> = HashMap::new();
    // component.kind -> log-scale histogram of elapsed_us, rebuilt from the
    // span-end events (the same shape `MetricsHub` would have recorded live).
    let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
    // trace id -> reassembled causal chain (BTreeMap for stable output).
    let mut chains: BTreeMap<u64, TraceChain> = BTreeMap::new();
    // (retained, dropped) from a ring-mode `obs`/`trace.end` trailer.
    let mut trailer: Option<(u64, u64)> = None;
    let mut events = 0u64;
    let mut first_us = u64::MAX;
    let mut last_us = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line)
            .unwrap_or_else(|e| die(format!("{path}:{lineno}: bad JSON (truncated trace?): {e}")));
        if !matches!(doc, Json::Obj(_)) {
            die(format!("{path}:{lineno}: expected a JSON object, got a different value"));
        }
        let Some(at_us) = doc["at_us"].as_f64() else {
            die(format!("{path}:{lineno}: event lacks numeric \"at_us\""));
        };
        let at_us = at_us as u64;
        let Some(component) = doc["component"].as_str().map(str::to_owned) else {
            die(format!("{path}:{lineno}: event lacks string \"component\""));
        };
        let Some(kind) = doc["kind"].as_str().map(str::to_owned) else {
            die(format!("{path}:{lineno}: event lacks string \"kind\""));
        };
        // The ring-mode trailer is metadata about the log itself, not a
        // trace event: keep it out of the tables and counts.
        if component == "obs" && kind == "trace.end" {
            let retained = field(&doc, "retained")
                .unwrap_or_else(|| die(format!("{path}:{lineno}: trace.end lacks \"retained\"")));
            let dropped = field(&doc, "dropped")
                .unwrap_or_else(|| die(format!("{path}:{lineno}: trace.end lacks \"dropped\"")));
            trailer = Some((retained as u64, dropped as u64));
            continue;
        }
        if kind.starts_with("causal.") {
            record_causal(&mut chains, &kind, &doc, path, lineno);
        }
        events += 1;
        first_us = first_us.min(at_us);
        last_us = last_us.max(at_us);
        let label = format!("{component}.{kind}");

        let span_id = doc["span"].as_f64().map(|s| s as u64);
        match (span_id, doc["phase"].as_str()) {
            (Some(id), Some("begin")) => {
                let parent = open_stack.last().copied();
                let idx = nodes.len();
                nodes.push(SpanNode {
                    label: label.clone(),
                    component: component.clone(),
                    elapsed_us: None,
                    parent,
                    children: Vec::new(),
                });
                if let Some(p) = parent {
                    nodes[p].children.push(idx);
                }
                by_span_id.insert(id, idx);
                open_stack.push(idx);
            }
            (Some(id), Some("end")) => {
                let Some(elapsed) = doc["elapsed_us"].as_f64() else {
                    die(format!("{path}:{lineno}: span-end event lacks numeric \"elapsed_us\""));
                };
                let elapsed = elapsed as u64;
                spans.push(SpanRow { elapsed_us: elapsed, at_us, span: id, label: label.clone() });
                hists.entry(format!("{label}.us")).or_default().record(elapsed as f64);
                let Some(&idx) = by_span_id.get(&id) else {
                    die(format!("{path}:{lineno}: span {id} ends but never began"));
                };
                nodes[idx].elapsed_us = Some(elapsed);
                // Spans may close out of order, so remove by value, not pop.
                if let Some(pos) = open_stack.iter().rposition(|&n| n == idx) {
                    open_stack.remove(pos);
                }
            }
            _ => {}
        }
        *by_component.entry(component).or_default().entry(kind).or_default() += 1;
    }

    if json_out {
        let mut summary: Vec<(String, Json)> = vec![
            ("events".into(), Json::from(events)),
            ("components".into(), Json::from(by_component.len() as u64)),
            ("first_us".into(), Json::from(if events == 0 { 0 } else { first_us })),
            ("last_us".into(), Json::from(last_us)),
            (
                "kinds".into(),
                Json::Obj(
                    by_component
                        .iter()
                        .map(|(c, kinds)| {
                            (
                                c.clone(),
                                Json::Obj(
                                    kinds
                                        .iter()
                                        .map(|(k, n)| (k.clone(), Json::from(*n)))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some((retained, dropped)) = trailer {
            summary.push((
                "ring".into(),
                Json::object([
                    ("retained", Json::from(retained)),
                    ("dropped", Json::from(dropped)),
                    ("truncated", Json::from(dropped > 0)),
                ]),
            ));
        }
        let root =
            Json::object([("summary", Json::Obj(summary)), ("causal", causal_json(&chains, top))]);
        println!("{}", root.to_string_pretty());
        return;
    }

    if events == 0 {
        println!("vcstat: {path}: no events");
        return;
    }
    println!(
        "vcstat — {events} events, {} components, sim-time {:.3}s..{:.3}s\n",
        by_component.len(),
        first_us as f64 / 1e6,
        last_us as f64 / 1e6,
    );
    if let Some((retained, dropped)) = trailer {
        if dropped > 0 {
            println!(
                "!!! TRUNCATED TRACE: the ring buffer dropped {dropped} events and kept the \
{retained} most recent\n!!! every count below reflects only the retained window\n"
            );
        }
    }

    let kind_width = by_component
        .values()
        .flat_map(|kinds| kinds.keys().map(|k| k.len()))
        .max()
        .unwrap_or(4)
        .max(4);
    println!("{:<width$}  {:>9}", "component / kind", "events", width = kind_width + 4);
    for (component, kinds) in &by_component {
        let total: u64 = kinds.values().sum();
        println!("{component:<width$}  {total:>9}", width = kind_width + 4);
        for (kind, count) in kinds {
            println!("    {kind:<kind_width$}  {count:>9}");
        }
    }

    print_by_kind(&hists);
    print_histograms(&hists);
    print_critical_path(&nodes);
    print_causal(&chains, top);

    if spans.is_empty() {
        println!("\nno closed spans in this trace");
        return;
    }
    spans.sort_by(|a, b| {
        b.elapsed_us.cmp(&a.elapsed_us).then(a.at_us.cmp(&b.at_us)).then(a.span.cmp(&b.span))
    });
    println!("\ntop {} slowest spans (of {})", top.min(spans.len()), spans.len());
    println!("  {:>12}  {:>12}  {:>6}  span", "elapsed_us", "end_at_us", "id");
    for row in spans.iter().take(top) {
        println!("  {:>12}  {:>12}  {:>6}  {}", row.elapsed_us, row.at_us, row.span, row.label);
    }
}

/// Latency breakdown per `component.kind`: how many spans closed, where the
/// sim-time went in aggregate, and the extremes. Sorted by total descending
/// so the heaviest surface reads first.
fn print_by_kind(hists: &BTreeMap<String, Histogram>) {
    println!("\nspan latency by kind (sim-time)");
    if hists.is_empty() {
        println!("  no closed spans");
        return;
    }
    let name_width = hists.keys().map(String::len).max().unwrap_or(4).max(4);
    let mut rows: Vec<(&String, &Histogram)> = hists.iter().collect();
    rows.sort_by(|a, b| {
        b.1.sum().partial_cmp(&a.1.sum()).expect("sums are finite").then(a.0.cmp(b.0))
    });
    println!(
        "  {:<name_width$}  {:>8}  {:>12}  {:>12}  {:>12}",
        "span kind", "count", "total_us", "mean_us", "max_us"
    );
    for (name, h) in rows {
        println!(
            "  {name:<name_width$}  {:>8}  {:>12.0}  {:>12.1}  {:>12.0}",
            h.count(),
            h.sum(),
            h.mean().unwrap_or(0.0),
            h.max().unwrap_or(0.0),
        );
    }
}

/// Renders bucket counts as a fixed-alphabet sparkline from the histogram's
/// lowest to highest non-empty bucket (log-2 value scale left to right).
fn sparkline(h: &Histogram) -> String {
    let nonzero: Vec<(usize, u64)> =
        h.nonzero_buckets().map(|(lo, _, n)| (Histogram::bucket_index(lo), n)).collect();
    let (Some(&(first, _)), Some(&(last, _))) = (nonzero.first(), nonzero.last()) else {
        return String::new();
    };
    let peak = nonzero.iter().map(|&(_, n)| n).max().expect("nonzero is not empty");
    let mut dense = vec![0u64; last - first + 1];
    for (i, n) in nonzero {
        dense[i - first] = n;
    }
    dense
        .into_iter()
        .map(|n| {
            if n == 0 {
                ' '
            } else {
                let level = (n * (LEVELS.len() as u64 - 1)).div_ceil(peak) as usize;
                LEVELS[level.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

/// Per-kind percentiles plus a log-scale sparkline of the elapsed-time
/// distribution, rebuilt from the trace exactly as the live
/// `MetricsHub` histograms would have recorded it.
fn print_histograms(hists: &BTreeMap<String, Histogram>) {
    println!("\nspan latency histograms (us, 64-bucket log scale)");
    if hists.is_empty() {
        println!("  no closed spans");
        return;
    }
    let name_width = hists.keys().map(String::len).max().unwrap_or(4).max(4);
    println!(
        "  {:<name_width$}  {:>8}  {:>10}  {:>10}  {:>10}  distribution",
        "span kind", "count", "p50_us", "p90_us", "p99_us"
    );
    for (name, h) in hists {
        let q = h.quantiles().unwrap_or_default();
        println!(
            "  {name:<name_width$}  {:>8}  {:>10.0}  {:>10.0}  {:>10.0}  |{}|",
            h.count(),
            q.p50,
            q.p90,
            q.p99,
            sparkline(h),
        );
    }
}

/// Reads a numeric field from an event's `fields` object.
fn field(doc: &Json, key: &str) -> Option<f64> {
    doc["fields"][key].as_f64()
}

/// Folds one `causal.*` event into its trace's chain, validating the
/// fields each kind is documented to carry (`vc_obs::causal`).
fn record_causal(
    chains: &mut BTreeMap<u64, TraceChain>,
    kind: &str,
    doc: &Json,
    path: &str,
    lineno: usize,
) {
    let need = |key: &str| {
        field(doc, key)
            .unwrap_or_else(|| die(format!("{path}:{lineno}: {kind} lacks numeric \"{key}\"")))
    };
    let trace = need("trace") as u64;
    let chain = chains.entry(trace).or_default();
    match kind {
        "causal.origin" => {
            let at_us = doc["at_us"].as_f64().expect("validated by caller") as u64;
            chain.origin =
                Some((need("packet") as u64, need("src") as u64, need("dst") as u64, at_us));
        }
        "causal.hop" => {
            chain.hops.push((
                need("hop") as u64,
                need("from") as u64,
                need("to") as u64,
                need("latency_us") as u64,
            ));
        }
        "causal.deliver" => {
            chain.deliver = Some((
                need("hops") as u64,
                need("relay") as u64,
                need("dst") as u64,
                need("e2e_s"),
            ));
        }
        "causal.drop" => chain.drops += 1,
        other => die(format!("{path}:{lineno}: unknown causal event \"{other}\"")),
    }
}

/// Walks the delivered path backwards from the delivering relay to the
/// source. Each relay appears at most once per packet (the carried-set
/// dedup), so the walk is unambiguous. Returns `(vehicle, latency_us into
/// this vehicle)` pairs from the source (latency 0) to the relay.
fn delivered_route(chain: &TraceChain) -> Vec<(u64, u64)> {
    let (Some((_, src, _, _)), Some((_, relay, _, _))) = (chain.origin, chain.deliver) else {
        return Vec::new();
    };
    let by_to: HashMap<u64, (u64, u64)> =
        chain.hops.iter().map(|&(_, from, to, lat)| (to, (from, lat))).collect();
    let mut route = vec![];
    let mut at = relay;
    while at != src {
        let Some(&(from, lat)) = by_to.get(&at) else {
            break; // incomplete chain (e.g. truncated ring window)
        };
        route.push((at, lat));
        at = from;
    }
    route.push((at, 0));
    route.reverse();
    route
}

/// Exact percentile over a sorted slice (nearest-rank on the closed index).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Delivered chains sorted slowest-first (ties: trace id), plus the sorted
/// e2e latencies and the hop-count distribution — the shared core of the
/// text and JSON causal reports.
#[allow(clippy::type_complexity)]
fn causal_rollup(
    chains: &BTreeMap<u64, TraceChain>,
) -> (Vec<(u64, &TraceChain, f64)>, Vec<f64>, BTreeMap<u64, u64>) {
    let mut delivered: Vec<(u64, &TraceChain, f64)> =
        chains.iter().filter_map(|(&t, c)| c.deliver.map(|(_, _, _, e2e)| (t, c, e2e))).collect();
    delivered
        .sort_by(|a, b| b.2.partial_cmp(&a.2).expect("latencies are finite").then(a.0.cmp(&b.0)));
    let mut lats: Vec<f64> = delivered.iter().map(|&(_, _, e2e)| e2e).collect();
    lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mut hop_dist: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, c, _) in &delivered {
        let (hops, _, _, _) = c.deliver.expect("filtered to delivered");
        *hop_dist.entry(hops).or_default() += 1;
    }
    (delivered, lats, hop_dist)
}

/// Renders one delivered chain as `src -> relay (lat) -> ... -> dst`.
fn route_string(chain: &TraceChain) -> String {
    let (_, _, dst, _) = chain.deliver.expect("caller filters to delivered");
    let mut out = String::new();
    for (i, (v, lat)) in delivered_route(chain).into_iter().enumerate() {
        if i == 0 {
            out.push_str(&format!("v{v}"));
        } else {
            out.push_str(&format!(" -> v{v} ({lat}us)"));
        }
    }
    out.push_str(&format!(" => v{dst}"));
    out
}

/// The causal section: delivery percentiles, the hop-count
/// distribution, and the slowest end-to-end chains.
fn print_causal(chains: &BTreeMap<u64, TraceChain>, top: usize) {
    println!("\ncausal traces");
    if chains.is_empty() {
        println!("  no causal events (E8's trace carries them; a --job trace does not)");
        return;
    }
    let (delivered, lats, hop_dist) = causal_rollup(chains);
    let unresolved = chains.len() - delivered.len();
    let drops: u64 = chains.values().map(|c| c.drops).sum();
    println!(
        "  {} traces: {} delivered, {} unresolved, {} dropped copies",
        chains.len(),
        delivered.len(),
        unresolved,
        drops
    );
    if delivered.is_empty() {
        return;
    }
    println!(
        "  e2e delivery latency: p50 {:.3}s  p90 {:.3}s  p99 {:.3}s",
        percentile(&lats, 0.50),
        percentile(&lats, 0.90),
        percentile(&lats, 0.99),
    );
    println!("\n  hop-count distribution (delivered traces)");
    let peak = *hop_dist.values().max().expect("delivered is non-empty");
    for (hops, count) in &hop_dist {
        let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
        println!("  {hops:>4} hops  {count:>6}  {bar}");
    }
    println!("\n  top {} slowest causal chains", top.min(delivered.len()));
    for (trace, chain, e2e) in delivered.iter().take(top) {
        let (hops, _, _, _) = chain.deliver.expect("filtered to delivered");
        println!("  {e2e:>9.3}s  {hops:>3} hops  trace {trace:<16}  {}", route_string(chain));
    }
}

/// The causal section's JSON (same rollup as [`print_causal`]).
fn causal_json(chains: &BTreeMap<u64, TraceChain>, top: usize) -> Json {
    let (delivered, lats, hop_dist) = causal_rollup(chains);
    let drops: u64 = chains.values().map(|c| c.drops).sum();
    Json::object([
        ("traces", Json::from(chains.len() as u64)),
        ("delivered", Json::from(delivered.len() as u64)),
        ("unresolved", Json::from((chains.len() - delivered.len()) as u64)),
        ("dropped_copies", Json::from(drops)),
        (
            "e2e_latency_s",
            Json::object([
                ("p50", Json::from(percentile(&lats, 0.50))),
                ("p90", Json::from(percentile(&lats, 0.90))),
                ("p99", Json::from(percentile(&lats, 0.99))),
            ]),
        ),
        (
            "hop_distribution",
            Json::Obj(hop_dist.iter().map(|(h, n)| (h.to_string(), Json::from(*n))).collect()),
        ),
        (
            "slowest",
            Json::array(delivered.iter().take(top).map(|(trace, chain, e2e)| {
                let (hops, _, dst, _) = chain.deliver.expect("filtered to delivered");
                Json::object([
                    ("trace", Json::from(*trace)),
                    ("e2e_s", Json::from(*e2e)),
                    ("hops", Json::from(hops)),
                    ("dst", Json::from(dst)),
                    (
                        "route",
                        Json::array(delivered_route(chain).into_iter().map(|(v, _)| Json::from(v))),
                    ),
                ])
            })),
        ),
    ])
}

/// Renders a time-ordered series as a fixed-alphabet sparkline, chunking
/// (by mean) down to at most 60 columns.
fn series_sparkline(values: &[f64]) -> String {
    const MAX_COLS: usize = 60;
    if values.is_empty() {
        return String::new();
    }
    let chunk = values.len().div_ceil(MAX_COLS);
    let cols: Vec<f64> =
        values.chunks(chunk).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect();
    let peak = cols.iter().cloned().fold(0.0f64, f64::max);
    cols.into_iter()
        .map(|v| {
            if v <= 0.0 || peak <= 0.0 {
                ' '
            } else {
                let level = ((v / peak) * (LEVELS.len() - 1) as f64).ceil() as usize;
                LEVELS[level.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

/// A time-series file (`experiments --timeseries`) read back: the
/// header's window counts, each retained sample's tick and sim-time, and
/// every metric's value per sample (0 where a sample lacks it).
struct SeriesFile {
    capacity: u64,
    dropped: u64,
    ticks: Vec<u64>,
    at_us: Vec<u64>,
    series: BTreeMap<String, Vec<f64>>,
}

/// Reads the samples after `header`, the file's first non-blank line.
fn read_timeseries(path: &str, header: &Json, text: &str) -> SeriesFile {
    let count = |key: &str| header["timeseries"][key].as_f64().unwrap_or(0.0) as u64;
    let mut file = SeriesFile {
        capacity: count("capacity"),
        dropped: count("dropped"),
        ticks: Vec::new(),
        at_us: Vec::new(),
        series: BTreeMap::new(),
    };
    let lines = text.lines().enumerate().map(|(n, l)| (n + 1, l));
    for (lineno, line) in lines.filter(|(_, l)| !l.trim().is_empty()).skip(1) {
        let doc =
            Json::parse(line).unwrap_or_else(|e| die(format!("{path}:{lineno}: bad JSON: {e}")));
        let Some(tick) = doc["tick"].as_f64() else {
            die(format!("{path}:{lineno}: sample lacks numeric \"tick\""));
        };
        let Some(at) = doc["at_us"].as_f64() else {
            die(format!("{path}:{lineno}: sample lacks numeric \"at_us\""));
        };
        let sample_idx = file.ticks.len();
        file.ticks.push(tick as u64);
        file.at_us.push(at as u64);
        for section in ["counters", "gauges", "histogram_counts"] {
            let Json::Obj(pairs) = &doc[section] else { continue };
            for (name, value) in pairs {
                let Some(v) = value.as_f64() else {
                    die(format!("{path}:{lineno}: non-numeric value for \"{name}\""));
                };
                let values = file.series.entry(name.clone()).or_default();
                values.resize(sample_idx, 0.0);
                values.push(v);
            }
        }
    }
    for values in file.series.values_mut() {
        values.resize(file.ticks.len(), 0.0);
    }
    file
}

/// One metric's rollup over the retained ticks: its total, its peak, and
/// its spike ticks (value > [`SPIKE_MULT`] × the median over active ticks,
/// needing at least 4 active ticks so sparse metrics don't self-flag).
struct Rollup {
    total: f64,
    peak: f64,
    peak_tick: u64,
    spikes: Vec<u64>,
}

fn rollup(ticks: &[u64], values: &[f64]) -> Rollup {
    let total = values.iter().sum();
    let (mut peak, mut peak_tick) = (0.0f64, 0u64);
    for (i, &v) in values.iter().enumerate() {
        if v > peak {
            peak = v;
            peak_tick = ticks[i];
        }
    }
    let mut active: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    active.sort_by(|a, b| a.partial_cmp(b).expect("finite metric values"));
    let spikes = if active.len() >= 4 {
        let median = active[active.len() / 2];
        values
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > SPIKE_MULT * median)
            .map(|(i, _)| ticks[i])
            .collect()
    } else {
        Vec::new()
    };
    Rollup { total, peak, peak_tick, spikes }
}

/// The time-series report: how every metric evolved tick over tick, then
/// the `top` `mem.*` deep-footprint gauges by peak.
fn timeseries_report(path: &str, file: &SeriesFile, top: usize, json_out: bool) {
    let SeriesFile { capacity, dropped, ticks, at_us, series } = file;
    let rollups: BTreeMap<&str, Rollup> =
        series.iter().map(|(name, values)| (name.as_str(), rollup(ticks, values))).collect();
    let mem: Vec<&str> = rollups.keys().copied().filter(|n| n.starts_with("mem.")).collect();
    // The `top` gauges with the highest peaks, listed by name.
    let mut gauges = mem.clone();
    gauges.sort_by(|a, b| rollups[b].peak.total_cmp(&rollups[a].peak).then(a.cmp(b)));
    gauges.truncate(top);
    gauges.sort_unstable();
    let first_last = |name: &str| {
        let values = &series[name];
        (values.first().copied().unwrap_or(0.0), values.last().copied().unwrap_or(0.0))
    };

    if json_out {
        let metrics = rollups.iter().map(|(name, m)| {
            let spikes = Json::array(m.spikes.iter().map(|&t| Json::from(t)));
            let rollup = Json::object([
                ("total", Json::from(m.total)),
                ("peak", Json::from(m.peak)),
                ("peak_tick", Json::from(m.peak_tick)),
                ("spike_ticks", spikes),
            ]);
            (name.to_string(), rollup)
        });
        let gauges = gauges.iter().map(|&name| {
            let ((first, last), m) = (first_last(name), &rollups[name]);
            let gauge = Json::object([
                ("first", Json::from(first)),
                ("last", Json::from(last)),
                ("peak", Json::from(m.peak)),
                ("peak_tick", Json::from(m.peak_tick)),
            ]);
            (name.to_owned(), gauge)
        });
        let doc = Json::object([
            (
                "timeline",
                Json::object([
                    ("ticks", Json::from(ticks.len() as u64)),
                    ("capacity", Json::from(*capacity)),
                    ("dropped", Json::from(*dropped)),
                    ("spike_mult", Json::from(SPIKE_MULT)),
                    ("metrics", Json::Obj(metrics.collect())),
                ]),
            ),
            (
                "memory",
                Json::object([
                    ("source", Json::from("timeseries")),
                    ("ticks", Json::from(ticks.len() as u64)),
                    ("metrics", Json::Obj(gauges.collect())),
                ]),
            ),
        ]);
        println!("{}", doc.to_string_pretty());
        return;
    }

    if ticks.is_empty() {
        println!("timeline — {path}: header only, no samples");
    } else {
        println!(
            "timeline — {} ticks (window capacity {capacity}, dropped {dropped}), sim-time \
{:.3}s..{:.3}s\n",
            ticks.len(),
            at_us[0] as f64 / 1e6,
            at_us[at_us.len() - 1] as f64 / 1e6,
        );
        if *dropped > 0 {
            println!(
                "!!! TRUNCATED WINDOW: {dropped} older ticks fell out of the ring; totals below \
cover only the retained window\n"
            );
        }
        let name_width = rollups.keys().map(|n| n.len()).max().unwrap_or(6).max(6);
        println!(
            "{:<name_width$}  {:>12}  {:>10}  {:>10}  {:>6}  spikes (>{SPIKE_MULT}x median)",
            "metric", "total", "mean/tick", "peak", "@tick"
        );
        for (name, m) in &rollups {
            let spikes = if m.spikes.is_empty() {
                "-".to_owned()
            } else {
                m.spikes.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",")
            };
            println!(
                "{name:<name_width$}  {:>12.0}  {:>10.2}  {:>10.0}  {:>6}  {spikes}",
                m.total,
                m.total / ticks.len() as f64,
                m.peak,
                m.peak_tick,
            );
            println!("{:<name_width$}  |{}|", "", series_sparkline(&series[*name]));
        }
    }

    if mem.is_empty() {
        println!(
            "memory — {path}: no mem.* gauges in {} ticks (run an instrumented experiment \
with --timeseries to record deep footprints)",
            ticks.len()
        );
        return;
    }
    println!("memory — {path}: deep-footprint gauges over {} retained ticks\n", ticks.len());
    let name_width = mem.iter().map(|n| n.len()).max().unwrap_or(6).max(6);
    println!(
        "{:<name_width$}  {:>12}  {:>12}  {:>12}  {:>6}  evolution",
        "gauge", "first B", "last B", "peak B", "@tick"
    );
    for name in gauges {
        let ((first, last), m) = (first_last(name), &rollups[name]);
        println!(
            "{name:<name_width$}  {first:>12.0}  {last:>12.0}  {:>12.0}  {:>6}  |{}|",
            m.peak,
            m.peak_tick,
            series_sparkline(&series[name]),
        );
    }
    let last_total: f64 = mem.iter().map(|&name| first_last(name).1).sum();
    println!("\n  total deep footprint at last tick: {:.1} KB", last_total / 1024.0);
}

/// One profile frame flattened out of a `profile.json` tree: the
/// `;`-joined stack plus its self (children-excluded) allocation numbers.
struct AllocFrame {
    stack: String,
    calls: u64,
    self_allocs: u64,
    self_bytes: u64,
}

/// Recursively flattens a `profile.json` frame (and its children) into
/// [`AllocFrame`]s, subtracting child totals to get self numbers.
fn collect_alloc_frames(doc: &Json, prefix: &str, out: &mut Vec<AllocFrame>) {
    let Some(label) = doc["label"].as_str() else { return };
    let stack = if prefix.is_empty() { label.to_owned() } else { format!("{prefix};{label}") };
    let get = |key: &str| doc[key].as_f64().unwrap_or(0.0) as u64;
    let (mut self_allocs, mut self_bytes) = (get("allocs"), get("bytes"));
    if let Json::Arr(children) = &doc["children"] {
        for child in children {
            let child_get = |key: &str| child[key].as_f64().unwrap_or(0.0) as u64;
            self_allocs = self_allocs.saturating_sub(child_get("allocs"));
            self_bytes = self_bytes.saturating_sub(child_get("bytes"));
            collect_alloc_frames(child, &stack, out);
        }
    }
    out.push(AllocFrame { stack, calls: get("calls"), self_allocs, self_bytes });
}

/// The allocation critical path: from the frame tree's heaviest root (by
/// total bytes) descend into the heaviest child at every level.
fn print_alloc_critical_path(frames: &Json) {
    let Json::Arr(roots) = frames else { return };
    let bytes_of = |d: &Json| d["bytes"].as_f64().unwrap_or(0.0);
    let Some(mut at) = roots.iter().max_by(|a, b| bytes_of(a).total_cmp(&bytes_of(b))) else {
        return;
    };
    println!("\nallocation critical path (heaviest frame chain by bytes)");
    let mut depth = 0usize;
    loop {
        let bytes = bytes_of(at) as u64;
        println!(
            "  {:indent$}{}  {} allocs, {bytes} bytes",
            "",
            at["label"].as_str().unwrap_or("?"),
            at["allocs"].as_f64().unwrap_or(0.0) as u64,
            indent = depth * 2
        );
        let Json::Arr(children) = &at["children"] else { break };
        let Some(next) = children.iter().max_by(|a, b| bytes_of(a).total_cmp(&bytes_of(b))) else {
            break;
        };
        if bytes_of(next) <= 0.0 {
            break;
        }
        at = next;
        depth += 1;
    }
}

/// The profile report: top frames by self (children-excluded) allocated
/// bytes, plus the allocation critical path.
fn profile_report(doc: &Json, path: &str, top: usize, json_out: bool) {
    let mut frames: Vec<AllocFrame> = Vec::new();
    if let Json::Arr(roots) = &doc["frames"] {
        for root in roots {
            collect_alloc_frames(root, "", &mut frames);
        }
    }
    frames.sort_by(|a, b| {
        b.self_bytes
            .cmp(&a.self_bytes)
            .then(b.self_allocs.cmp(&a.self_allocs))
            .then(a.stack.cmp(&b.stack))
    });
    let total_bytes: u64 = frames.iter().map(|f| f.self_bytes).sum();
    let total_allocs: u64 = frames.iter().map(|f| f.self_allocs).sum();

    if json_out {
        let doc = Json::object([(
            "memory",
            Json::object([
                ("source", Json::from("profile")),
                ("total_allocs", Json::from(total_allocs)),
                ("total_bytes", Json::from(total_bytes)),
                (
                    "frames",
                    Json::array(frames.iter().take(top).map(|f| {
                        Json::object([
                            ("stack", Json::from(f.stack.as_str())),
                            ("calls", Json::from(f.calls)),
                            ("self_allocs", Json::from(f.self_allocs)),
                            ("self_bytes", Json::from(f.self_bytes)),
                        ])
                    })),
                ),
            ]),
        )]);
        println!("{}", doc.to_string_pretty());
        return;
    }

    println!(
        "memory — {path}: {total_allocs} allocations, {total_bytes} bytes across {} frames",
        frames.len()
    );
    if total_bytes == 0 {
        println!(
            "  all alloc columns are zero (binary run without the counting allocator, \
or an old profile.json)"
        );
        return;
    }
    println!("\ntop {} allocating frames (self bytes, children excluded)", top.min(frames.len()));
    println!("  {:>12}  {:>10}  {:>8}  {:>10}  stack", "self_bytes", "allocs", "calls", "B/call");
    for f in frames.iter().take(top) {
        println!(
            "  {:>12}  {:>10}  {:>8}  {:>10.1}  {}",
            f.self_bytes,
            f.self_allocs,
            f.calls,
            f.self_bytes as f64 / f.calls.max(1) as f64,
            f.stack
        );
    }
    print_alloc_critical_path(&doc["frames"]);
}

/// For each component, follows the slowest root span down through its
/// slowest child at every level — the chain where that component's
/// sim-time actually went.
fn print_critical_path(nodes: &[SpanNode]) {
    println!("\ncritical path (slowest nested-span chain per component)");
    // Slowest closed root span per component, ties broken by tree order.
    let mut slowest_root: BTreeMap<&str, usize> = BTreeMap::new();
    for (idx, node) in nodes.iter().enumerate() {
        if node.parent.is_some() {
            continue;
        }
        let Some(elapsed) = node.elapsed_us else { continue };
        let current = slowest_root.entry(&node.component).or_insert(idx);
        if elapsed > nodes[*current].elapsed_us.unwrap_or(0) {
            *current = idx;
        }
    }
    if slowest_root.is_empty() {
        println!("  no closed root spans");
        return;
    }
    for (component, root) in slowest_root {
        println!("  [{component}]");
        let mut at = root;
        let mut depth = 0usize;
        loop {
            let node = &nodes[at];
            let elapsed = node.elapsed_us.expect("chain only follows closed spans");
            let share = node
                .parent
                .filter(|_| depth > 0)
                .and_then(|p| nodes[p].elapsed_us)
                .filter(|&p| p > 0)
                .map(|p| format!("  ({:.1}% of parent)", elapsed as f64 / p as f64 * 100.0))
                .unwrap_or_default();
            println!("  {:indent$}{}  {elapsed} us{share}", "", node.label, indent = depth * 2);
            // Descend into the slowest closed child, if any.
            let next = node.children.iter().filter(|&&c| nodes[c].elapsed_us.is_some()).max_by_key(
                |&&c| (nodes[c].elapsed_us.expect("filtered to closed"), usize::MAX - c),
            );
            match next {
                Some(&c) => {
                    at = c;
                    depth += 1;
                }
                None => break,
            }
        }
    }
}
