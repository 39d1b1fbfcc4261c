//! Job lifecycle management: a bounded worker pool over a bounded queue.
//!
//! The supervisor is the multi-tenant heart of `vcloudd`. It owns every
//! job's lifecycle record (queued → running → done/failed/cancelled),
//! admits or rejects SUBMITs with explicit backpressure, hands jobs to a
//! fixed pool of `std::thread` workers, and keeps the `svc.*` metrics
//! registry. Determinism note: workers call [`crate::job::run_job`] with
//! nothing but the spec and a cancel flag — concurrency here can reorder
//! *when* results appear, never *what* they contain.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use vc_net::svc::{JobPhase, JobTimes, RejectReason};
use vc_obs::MetricsHub;

use crate::job::{run_job, JobError, JobOutput, JobSpec};

/// Worker-pool and admission-control knobs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum jobs waiting in the queue before SUBMITs are rejected
    /// with [`RejectReason::QueueFull`].
    pub queue_cap: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { workers: 4, queue_cap: 64 }
    }
}

/// A finished job's payload as held by the supervisor.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The job ran to completion. Shared, so that handing the payload to a
    /// RESULT stream under the state lock copies a pointer, not the trace.
    Done(Arc<JobOutput>),
    /// The job failed (budget, internal error); human-readable detail.
    Failed(String),
    /// The job was cancelled before or during execution.
    Cancelled,
}

/// Everything a RESULT response needs about a terminal job.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Terminal phase ([`JobPhase::Done`] / Failed / Cancelled).
    pub phase: JobPhase,
    /// The deterministic payload (empty stats/trace unless `Done`), shared
    /// with the supervisor's job table.
    pub output: Arc<JobOutput>,
    /// Failure detail when `phase` is `Failed` (empty otherwise).
    pub detail: String,
    /// Lifecycle timestamps.
    pub times: JobTimes,
}

struct JobRecord {
    spec: JobSpec,
    phase: JobPhase,
    cancel: Arc<AtomicBool>,
    times: JobTimes,
    outcome: Option<Outcome>,
}

struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
    queue_cap: usize,
    draining: bool,
    running: usize,
    hub: MetricsHub,
}

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    epoch: Instant,
}

/// The bounded worker pool plus the job table. Cheap to share: handler
/// threads clone the inner [`Arc`] via [`Supervisor::handle`].
pub struct Supervisor {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// A shareable reference to a running supervisor (what connection
/// handlers hold).
#[derive(Clone)]
pub struct SupervisorHandle {
    inner: Arc<Inner>,
}

impl Supervisor {
    /// Starts `config.workers` worker threads over an empty queue.
    pub fn start(config: SupervisorConfig) -> Supervisor {
        let workers_n = config.workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                next_id: 1,
                queue_cap: config.queue_cap.max(1),
                draining: false,
                running: 0,
                hub: MetricsHub::new(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch: Instant::now(),
        });
        {
            let mut st = inner.state.lock().unwrap();
            st.hub.gauge_set("svc.workers", workers_n as f64);
            st.hub.gauge_set("svc.queue.cap", config.queue_cap as f64);
        }
        let workers = (0..workers_n)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Supervisor { inner, workers }
    }

    /// Returns a shareable handle for connection handlers.
    pub fn handle(&self) -> SupervisorHandle {
        SupervisorHandle { inner: Arc::clone(&self.inner) }
    }

    /// Stops admitting jobs, lets the queue and running jobs finish, and
    /// joins the workers. Returns once every admitted job is terminal.
    pub fn drain(mut self) {
        self.handle().begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl SupervisorHandle {
    fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Admits a job or rejects it with backpressure. On admission the job
    /// is queued and its id returned; the `svc.submit` / `svc.accept` /
    /// `svc.reject` counters and `svc.queue.depth` gauge track the
    /// decision.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, (RejectReason, String)> {
        let mut st = self.inner.state.lock().unwrap();
        st.hub.counter_add("svc.submit", 1);
        let reject = |st: &mut State, reason: RejectReason, detail: String| {
            st.hub.counter_add("svc.reject", 1);
            Err((reason, detail))
        };
        if st.draining {
            return reject(&mut st, RejectReason::Draining, "service is draining".into());
        }
        if let Err(e) = spec.validate() {
            let reason = match e {
                JobError::UnknownScenario(_) => RejectReason::UnknownScenario,
                _ => RejectReason::BadRequest,
            };
            return reject(&mut st, reason, e.to_string());
        }
        if st.queue.len() >= st.queue_cap {
            let cap = st.queue_cap;
            return reject(
                &mut st,
                RejectReason::QueueFull,
                format!("queue full ({cap} jobs waiting)"),
            );
        }
        let id = st.next_id;
        st.next_id += 1;
        let times = JobTimes { accepted_ns: self.now_ns(), ..JobTimes::default() };
        st.jobs.insert(
            id,
            JobRecord {
                spec,
                phase: JobPhase::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                times,
                outcome: None,
            },
        );
        st.queue.push_back(id);
        st.hub.counter_add("svc.accept", 1);
        let depth = st.queue.len() as f64;
        st.hub.gauge_set("svc.queue.depth", depth);
        drop(st);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    /// Reports a job's phase, queue position, and timestamps.
    pub fn status(&self, job: u64) -> Option<(JobPhase, u32, JobTimes)> {
        let st = self.inner.state.lock().unwrap();
        let rec = st.jobs.get(&job)?;
        let ahead = st.queue.iter().take_while(|&&id| id != job).count() as u32;
        let depth = if rec.phase == JobPhase::Queued { ahead } else { 0 };
        Some((rec.phase, depth, rec.times))
    }

    /// Requests cancellation. A queued job is cancelled immediately; a
    /// running job observes the flag at its next check and stops. Returns
    /// `false` for unknown job ids.
    pub fn cancel(&self, job: u64) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        let now = self.now_ns();
        let Some(rec) = st.jobs.get_mut(&job) else { return false };
        rec.cancel.store(true, Ordering::Relaxed);
        if rec.phase == JobPhase::Queued {
            rec.phase = JobPhase::Cancelled;
            rec.times.finished_ns = now;
            rec.outcome = Some(Outcome::Cancelled);
            st.queue.retain(|&id| id != job);
            st.hub.counter_add("svc.cancel", 1);
            let depth = st.queue.len() as f64;
            st.hub.gauge_set("svc.queue.depth", depth);
            drop(st);
            self.inner.done_cv.notify_all();
        }
        true
    }

    /// Blocks until the job is terminal and returns its result. `None`
    /// for unknown job ids.
    pub fn wait_result(&self, job: u64) -> Option<Finished> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            let rec = st.jobs.get(&job)?;
            if rec.phase.is_terminal() {
                let (phase, times) = (rec.phase, rec.times);
                let (output, detail) = match rec.outcome.clone() {
                    Some(Outcome::Done(out)) => (out, String::new()),
                    Some(Outcome::Failed(why)) => (empty_output(), why),
                    Some(Outcome::Cancelled) | None => (empty_output(), String::new()),
                };
                return Some(Finished { phase, output, detail, times });
            }
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Renders the `svc.*` metrics registry as compact JSON.
    pub fn metrics_json(&self) -> String {
        let st = self.inner.state.lock().unwrap();
        st.hub.snapshot().to_json().to_string_compact()
    }

    /// Stops admission and blocks until the queue is empty and no job is
    /// running. Does not join the workers (only [`Supervisor::drain`]
    /// can, since it owns the handles) — but on return every admitted job
    /// is terminal, which is the contract SHUTDOWN acknowledges.
    pub fn begin_drain(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.draining = true;
        self.inner.work_cv.notify_all();
        while !st.queue.is_empty() || st.running > 0 {
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Whether drain has begun.
    pub fn draining(&self) -> bool {
        self.inner.state.lock().unwrap().draining
    }
}

fn empty_output() -> Arc<JobOutput> {
    // Checksum of the (empty) payload, so clients can verify every
    // result stream the same way regardless of terminal phase.
    Arc::new(JobOutput {
        stats: Vec::new(),
        trace: Vec::new(),
        checksum: vc_net::svc::fnv1a64(&[]),
    })
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim the next job (or exit if draining with nothing left).
        let (id, spec, cancel) = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    let depth = st.queue.len() as f64;
                    st.hub.gauge_set("svc.queue.depth", depth);
                    let now = inner.epoch.elapsed().as_nanos() as u64;
                    let rec = st.jobs.get_mut(&id).expect("queued job has a record");
                    rec.phase = JobPhase::Running;
                    rec.times.started_ns = now;
                    let queue_us = (now - rec.times.accepted_ns) as f64 / 1_000.0;
                    let (spec, cancel) = (rec.spec.clone(), Arc::clone(&rec.cancel));
                    st.hub.observe("svc.job.queue_us", queue_us);
                    st.running += 1;
                    break (id, spec, cancel);
                }
                if st.draining {
                    return;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };

        // Run without the lock; the job sees only its spec + cancel flag.
        let result = run_job(&spec, Some(&cancel)).map(Arc::new);

        let mut st = inner.state.lock().unwrap();
        let now = inner.epoch.elapsed().as_nanos() as u64;
        st.running -= 1;
        let rec = st.jobs.get_mut(&id).expect("running job has a record");
        rec.times.finished_ns = now;
        let run_us = (now - rec.times.started_ns) as f64 / 1_000.0;
        let (phase, outcome, counter) = match result {
            Ok(out) => (JobPhase::Done, Outcome::Done(out), "svc.done"),
            Err(JobError::Cancelled) => (JobPhase::Cancelled, Outcome::Cancelled, "svc.cancel"),
            Err(e) => (JobPhase::Failed, Outcome::Failed(e.to_string()), "svc.fail"),
        };
        rec.phase = phase;
        rec.outcome = Some(outcome);
        st.hub.counter_add(counter, 1);
        st.hub.observe("svc.job.run_us", run_us);
        drop(st);
        inner.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_net::svc::FLAG_TRACE;

    fn spec(scenario: &str, seed: u64, ticks: u32, flags: u32) -> JobSpec {
        JobSpec { scenario: scenario.into(), seed, ticks, flags }
    }

    #[test]
    fn submit_run_and_fetch_matches_run_job() {
        let sup = Supervisor::start(SupervisorConfig { workers: 2, queue_cap: 8 });
        let h = sup.handle();
        let s = spec("urban-epidemic", 11, 48, FLAG_TRACE);
        let id = h.submit(s.clone()).unwrap();
        let fin = h.wait_result(id).unwrap();
        assert_eq!(fin.phase, JobPhase::Done);
        let reference = run_job(&s, None).unwrap();
        assert_eq!(*fin.output, reference);
        // Every RESULT reads the one stored payload; none copies it.
        assert!(Arc::ptr_eq(&fin.output, &h.wait_result(id).unwrap().output));
        assert!(fin.times.accepted_ns <= fin.times.started_ns);
        assert!(fin.times.started_ns <= fin.times.finished_ns);
        sup.drain();
    }

    #[test]
    fn unknown_scenario_and_bad_ticks_are_rejected() {
        let sup = Supervisor::start(SupervisorConfig { workers: 1, queue_cap: 8 });
        let h = sup.handle();
        let (reason, _) = h.submit(spec("no-such", 1, 10, 0)).unwrap_err();
        assert_eq!(reason, RejectReason::UnknownScenario);
        let (reason, _) = h.submit(spec("urban-epidemic", 1, 0, 0)).unwrap_err();
        assert_eq!(reason, RejectReason::BadRequest);
        let (reason, _) = h.submit(spec("urban-epidemic", 1, 10, 0xffff_0000)).unwrap_err();
        assert_eq!(reason, RejectReason::BadRequest);
        sup.drain();
    }

    #[test]
    fn queue_overflow_rejects_with_queue_full() {
        let sup = Supervisor::start(SupervisorConfig { workers: 1, queue_cap: 2 });
        let h = sup.handle();
        // Long jobs so the queue stays occupied while we overflow it.
        let mut accepted = Vec::new();
        let mut saw_full = false;
        for i in 0..24 {
            match h.submit(spec("urban-epidemic", i, 400, 0)) {
                Ok(id) => accepted.push(id),
                Err((reason, _)) => {
                    assert_eq!(reason, RejectReason::QueueFull);
                    saw_full = true;
                }
            }
        }
        assert!(saw_full, "24 fast submits into a 2-slot queue must overflow");
        for id in accepted {
            let fin = h.wait_result(id).unwrap();
            assert_eq!(fin.phase, JobPhase::Done);
        }
        sup.drain();
    }

    #[test]
    fn cancel_queued_and_running_jobs() {
        let sup = Supervisor::start(SupervisorConfig { workers: 1, queue_cap: 8 });
        let h = sup.handle();
        // Occupy the single worker, then cancel a queued job behind it.
        let long = h.submit(spec("urban-epidemic", 1, 2_000, 0)).unwrap();
        let queued = h.submit(spec("urban-greedy", 2, 2_000, 0)).unwrap();
        assert!(h.cancel(queued));
        let fin = h.wait_result(queued).unwrap();
        assert_eq!(fin.phase, JobPhase::Cancelled);
        assert!(fin.output.stats.is_empty());
        // Cancel the running one too; it stops at a cancel check.
        assert!(h.cancel(long));
        let fin = h.wait_result(long).unwrap();
        assert_eq!(fin.phase, JobPhase::Cancelled);
        assert!(!h.cancel(9999), "unknown job id");
        sup.drain();
    }

    #[test]
    fn drain_finishes_queued_work_then_rejects() {
        let sup = Supervisor::start(SupervisorConfig { workers: 2, queue_cap: 16 });
        let h = sup.handle();
        let ids: Vec<u64> =
            (0..6).map(|i| h.submit(spec("urban-cluster", i, 64, 0)).unwrap()).collect();
        sup.drain();
        for id in ids {
            let fin = h.wait_result(id).unwrap();
            assert_eq!(fin.phase, JobPhase::Done, "drained job must have completed");
        }
        let (reason, _) = h.submit(spec("urban-epidemic", 9, 10, 0)).unwrap_err();
        assert_eq!(reason, RejectReason::Draining);
    }

    #[test]
    fn metrics_register_lifecycle_counters() {
        let sup = Supervisor::start(SupervisorConfig { workers: 1, queue_cap: 4 });
        let h = sup.handle();
        let id = h.submit(spec("canyon-greedy", 3, 32, 0)).unwrap();
        h.wait_result(id).unwrap();
        let json = h.metrics_json();
        for key in ["svc.submit", "svc.accept", "svc.done", "svc.job.queue_us", "svc.job.run_us"] {
            assert!(json.contains(key), "metrics JSON missing {key}: {json}");
        }
        sup.drain();
    }
}
