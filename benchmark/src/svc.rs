//! `svc-mix`: one op is one job round trip against an in-process `vcloudd`:
//! SUBMIT, wait, RESULT streamed back in chunks. Two closed-loop client
//! connections (tenants submit and wait, so the loop is closed) share one
//! worker; jobs come round-robin from the whole scenario catalog and one in
//! sixteen asks for its recorder trace.
//!
//! It has no crypto, so crypto work must not move it, and it drives
//! `vc_sim`/`vc_net` with 36–48 vehicles, so a large-fleet optimisation that
//! adds fixed cost per round shows up here as a loss.

use std::thread::JoinHandle;
use std::time::Instant;

use vc_net::svc::{JobPhase, JobTimes, FLAG_TRACE};
use vc_service::job::SCENARIOS;
use vc_service::{run_job, Client, JobSpec, Server, ServerConfig, SupervisorConfig};
use vc_testkit::json::Json;

use crate::harness::{mix, quantile, Cfg, Driven, Fnv, Lane, Layer, Sizes, Tracer, Workload};

struct Dims {
    ticks: u32,
    warmup: u64,
    horizon: u64,
}

/// The warm-up is most of this workload's set-up; 48 jobs make it long enough
/// to be timed steadily.
const FULL: Dims = Dims { ticks: 256, warmup: 48, horizon: 800 };
const SMOKE: Dims = Dims { ticks: 16, warmup: 4, horizon: 200 };

fn dims(smoke: bool) -> &'static Dims {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// One per core of the two-core hosts this runs on.
const CLIENTS: usize = 2;
const WORKERS: usize = 1;
const QUEUE_CAP: usize = 64;
/// Every this-many-th job is re-run in process and must give the same bytes.
const ORACLE_EVERY: u64 = 64;

fn job(seed: u64, ticks: u32, i: u64) -> JobSpec {
    // One job in 16 asks for its trace, spread over both lanes and all six
    // scenarios.
    let traced = matches!(i % 32, 0 | 17);
    JobSpec {
        scenario: SCENARIOS[(i % SCENARIOS.len() as u64) as usize].id.into(),
        seed: mix(seed, i, 1),
        ticks,
        flags: if traced { FLAG_TRACE } else { 0 },
    }
}

struct Done {
    i: u64,
    checksum: u64,
    times: JobTimes,
    wall_ns: u64,
    trace_bytes: u64,
    traced: bool,
}

#[derive(Default)]
struct LaneLog {
    done: Vec<Done>,
    rejected: u64,
    failed: u64,
}

pub struct SvcMix {
    seed: u64,
    ticks: u32,
    clients: Vec<Client>,
    logs: Vec<LaneLog>,
    server: Option<JoinHandle<std::io::Result<u64>>>,
}

impl Workload for SvcMix {
    const NAME: &'static str = "svc-mix";

    fn sizes(smoke: bool) -> Sizes {
        let d = dims(smoke);
        Sizes {
            warmup: d.warmup,
            horizon: d.horizon,
            desc: format!(
                "clients={CLIENTS} closed-loop workers={WORKERS} queue_cap={QUEUE_CAP} \
                 scenarios={} ticks={} flag_trace=1/16 oracle=1/{ORACLE_EVERY} loopback-tcp",
                SCENARIOS.len(),
                d.ticks
            ),
        }
    }

    fn plan_hash(seed: u64, smoke: bool, i: u64) -> u64 {
        let spec = job(seed, dims(smoke).ticks, i);
        Fnv::new()
            .words(spec.scenario.bytes().map(u64::from))
            .words([spec.seed, spec.ticks as u64, spec.flags as u64])
            .0
    }

    fn setup(cfg: &Cfg, _sizes: &Sizes, _tr: &mut Tracer) -> SvcMix {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            pool: SupervisorConfig { workers: WORKERS, queue_cap: QUEUE_CAP },
        };
        let server = Server::bind(&config).expect("bind a loopback port");
        let addr = server.local_addr().expect("a bound listener has an address");
        let server = std::thread::spawn(move || server.run());
        let clients =
            (0..CLIENTS).map(|_| Client::connect(addr).expect("connect to own daemon")).collect();
        SvcMix {
            seed: cfg.seed,
            ticks: dims(cfg.smoke).ticks,
            clients,
            logs: (0..CLIENTS).map(|_| LaneLog::default()).collect(),
            server: Some(server),
        }
    }

    fn lanes(&mut self) -> Vec<Lane<'_>> {
        let (seed, ticks) = (self.seed, self.ticks);
        self.clients
            .iter_mut()
            .zip(&mut self.logs)
            .map(|(client, log)| -> Lane<'_> {
                Box::new(move |i, tr: &mut Tracer| {
                    let spec = job(seed, ticks, i);
                    let t0 = Instant::now();
                    let id = match tr.span("service.submit", 1, || client.submit(&spec)) {
                        Ok(Ok(id)) => id,
                        Ok(Err((reason, detail))) => {
                            log.rejected += 1;
                            return Err(format!("rejected: {reason:?} {detail}"));
                        }
                        Err(e) => return Err(format!("submit: {e}")),
                    };
                    let result = tr
                        .span("service.fetch", 1, || client.fetch_result(id))
                        .map_err(|e| format!("fetch: {e}"))?;
                    let wall_ns = t0.elapsed().as_nanos() as u64;
                    if result.phase != JobPhase::Done {
                        log.failed += 1;
                        return Err(format!("job ended {:?}: {}", result.phase, result.detail));
                    }
                    log.done.push(Done {
                        i,
                        checksum: result.checksum,
                        times: result.times,
                        wall_ns,
                        trace_bytes: result.trace.len() as u64,
                        traced: spec.flags & FLAG_TRACE != 0,
                    });
                    Ok(result.checksum)
                })
            })
            .collect()
    }

    fn finish(mut self, run: &Driven, layer: &mut Layer) -> Vec<String> {
        let mut wrong = Vec::new();
        let metrics =
            self.clients[0].metrics().map_err(|e| e.to_string()).and_then(|j| Json::parse(&j));
        let jobs_done = match &metrics {
            Ok(json) => json["counters"]["svc.done"].as_f64().unwrap_or(0.0),
            Err(e) => {
                wrong.push(format!("METRICS: {e}"));
                0.0
            }
        };
        if let Err(e) = self.shutdown() {
            wrong.push(format!("shutdown: {e}"));
        }

        let done: Vec<&Done> = self.logs.iter().flat_map(|l| &l.done).collect();
        let mean = |xs: Vec<u64>| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        let p50_ms = |traced: bool| {
            let mut walls: Vec<u64> =
                done.iter().filter(|d| d.traced == traced).map(|d| d.wall_ns).collect();
            walls.sort_unstable();
            if walls.is_empty() {
                0.0
            } else {
                run.us(quantile(&walls, 0.5) as f64) / 1e3
            }
        };
        let queue = |d: &&Done| d.times.started_ns - d.times.accepted_ns;
        let running = |d: &&Done| d.times.finished_ns - d.times.started_ns;
        let stream =
            |d: &&Done| d.wall_ns.saturating_sub(d.times.finished_ns - d.times.accepted_ns);

        // The oracle: the daemon may only return bytes `run_job` produces.
        let (mut mismatch, mut oracle_ns) = (0u64, Vec::new());
        for d in done.iter().filter(|d| d.i % ORACLE_EVERY == 1) {
            let spec = job(self.seed, self.ticks, d.i);
            let t0 = Instant::now();
            let local = run_job(&spec, None);
            oracle_ns.push(t0.elapsed().as_nanos() as u64);
            if local.map(|out| out.checksum) != Ok(d.checksum) {
                mismatch += 1;
                wrong.push(format!("job {}: RESULT checksum differs from in-process run_job", d.i));
            }
        }

        let busy_ns: u64 = done.iter().map(running).sum();
        layer.set("service.submit_us", run.us_per_call("service.submit"));
        layer.set("service.queue_ms", run.us(mean(done.iter().map(queue).collect())) / 1e3);
        layer.set("service.run_ms", run.us(mean(done.iter().map(running).collect())) / 1e3);
        layer.set("service.worker_busy_share", busy_ns as f64 / run.wall.as_nanos() as f64);
        layer.set("service.stream_ms", run.us(mean(done.iter().map(stream).collect())) / 1e3);
        layer.set("service.plain.p50_ms", p50_ms(false));
        layer.set("service.traced.p50_ms", p50_ms(true));
        layer.set(
            "service.traced.bytes_per_job",
            mean(done.iter().filter(|d| d.traced).map(|d| d.trace_bytes).collect()),
        );
        layer.set("service.inproc.run_ms", run.us(mean(oracle_ns)) / 1e3);
        layer.set("service.rejected", self.logs.iter().map(|l| l.rejected).sum::<u64>() as f64);
        layer.set("service.failed", self.logs.iter().map(|l| l.failed).sum::<u64>() as f64);
        layer.set("service.checksum_mismatch", mismatch as f64);
        layer.set("service.metrics.jobs_done", jobs_done);
        wrong
    }
}

impl SvcMix {
    /// Clean SHUTDOWN, then waits for the daemon's thread to end.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        // The daemon waits for open connections to end; keep only the one
        // that carries the SHUTDOWN.
        self.clients.truncate(1);
        self.clients[0].shutdown().map_err(|e| e.to_string())?;
        match server.join() {
            Ok(Ok(_connections)) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("the daemon thread panicked".into()),
        }
    }
}

impl Drop for SvcMix {
    /// A set-up that is measured and thrown away still stops its daemon.
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}
