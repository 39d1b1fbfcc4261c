//! Micro-benches for the PR 7 observability surfaces: the causal sampling
//! decision (on every `NetSim::send`, so it must stay branch-cheap), the
//! per-tick time-series diff, a fully traced routing run at each sample rate, and
//! the JSONL export of a traced service job.

use vc_net::netsim::NetSim;
use vc_net::routing::Epidemic;
use vc_obs::{Recorder, SampleRate, Sampler};
use vc_sim::scenario::ScenarioBuilder;
use vc_sim::time::SimTime;
use vc_testkit::bench::{black_box, Suite};

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns.
vc_obs::counting_allocator!();

fn main() {
    vc_obs::mem::register_bench_probe();
    let mut suite = Suite::new("obs");

    // ---- sampling decision: a pure hash per packet id ----
    for (label, rate) in
        [("off", SampleRate::OFF), ("1_in_100", SampleRate::one_in(100)), ("all", SampleRate::ALL)]
    {
        let sampler = Sampler::new(42, rate);
        let mut id = 0u64;
        suite.bench_elems(&format!("causal/decide/{label}"), 1024, || {
            let mut hits = 0u32;
            for _ in 0..1024 {
                id = id.wrapping_add(1);
                hits += sampler.decide(id).is_some() as u32;
            }
            black_box(hits)
        });
    }

    // ---- per-tick time-series diff against a busy hub ----
    suite.bench("timeseries/tick_128_counters", || {
        let mut rec = Recorder::new();
        rec.enable_timeseries(64);
        for tick in 0..32u64 {
            for c in 0..128u64 {
                rec.hub_mut().counter_add(COUNTER_NAMES[c as usize % COUNTER_NAMES.len()], c);
            }
            rec.timeseries_tick(SimTime::from_secs(tick));
        }
        rec.timeseries().map(|ts| ts.len()).unwrap_or(0)
    });

    // ---- traced routing rounds by sample rate ----
    for (label, rate) in
        [("off", SampleRate::OFF), ("1_in_10", SampleRate::one_in(10)), ("all", SampleRate::ALL)]
    {
        suite.bench(&format!("netsim/10_rounds_150v_traced/{label}"), || {
            let mut b = ScenarioBuilder::new();
            b.seed(11).vehicles(150);
            let mut scenario = b.urban_with_rsus();
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.set_sampler(Sampler::new(11, rate));
            let mut rec = Recorder::new();
            sim.send_random_pairs(30, 128, Some(&mut rec));
            sim.run_rounds_obs(10, Some(&mut rec));
            black_box(rec.len());
            sim.stats().delivered
        });
    }

    // ---- JSONL export of a traced `vcloudd` job ----
    // 3 000 events in the mix the catalogue's `urban-epidemic` job records
    // (40 vehicles, 24 packets; repeated from the start if the run is
    // shorter): radio and routing events with two to four fields each,
    // about 100 bytes a line.
    {
        let mut b = ScenarioBuilder::new();
        b.seed(11).vehicles(40);
        let mut scenario = b.urban_with_rsus();
        let mut sim = NetSim::new(&mut scenario, Epidemic);
        let mut traced = Recorder::new();
        sim.send_random_pairs(24, 256, Some(&mut traced));
        sim.run_rounds_obs(256, Some(&mut traced));
        let mut rec = Recorder::new();
        let events: Vec<_> = traced.events().collect();
        for e in events.iter().cycle().take(3_000) {
            rec.event(e.at, e.component, e.kind, e.fields.clone());
        }
        let mut out = Vec::with_capacity(512 * 1024);
        suite.bench_elems("recorder/write_jsonl/3000_events", 3_000, || {
            out.clear();
            rec.write_jsonl(&mut out).expect("Vec<u8> write cannot fail");
            out.len()
        });
    }

    suite.finish();
}

// Distinct static names so the diff walks a realistically wide counter map.
const COUNTER_NAMES: [&str; 8] = [
    "net.radio.tx",
    "net.radio.rx",
    "net.radio.drop",
    "net.routing.forward",
    "net.routing.deliver",
    "net.causal.origin",
    "net.causal.hop",
    "net.causal.deliver",
];
