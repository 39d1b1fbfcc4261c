//! Job lifecycle management: a bounded worker pool over a bounded queue.
//!
//! The supervisor is the multi-tenant heart of `vcloudd`. It owns every
//! job's lifecycle record (queued → running → done/failed/cancelled),
//! admits or rejects SUBMITs with explicit backpressure, hands jobs to a
//! fixed pool of `std::thread` workers, and keeps the `svc.*` metrics
//! registry. Determinism note: workers call [`crate::job::run_job`] with
//! nothing but the spec and a cancel flag — concurrency here can reorder
//! *when* results appear, never *what* they contain.
//!
//! The job table is bounded. A terminal record is handed to exactly one
//! RESULT and dropped; records no RESULT has taken are charged against a
//! 64 MiB cap and evicted oldest-finished-first, except while a
//! RESULT is waiting on them. A client that loses a result resubmits its
//! spec and gets the same bytes.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use vc_net::svc::{JobPhase, JobTimes, RejectReason};
use vc_obs::MetricsHub;

use crate::job::{run_job, JobError, JobOutput, JobSpec, MEM_BUDGET_BYTES};

/// Bytes of finished results no RESULT has taken yet that the supervisor
/// keeps before it evicts the oldest: one job's heap budget.
const RESULTS_CAP_BYTES: u64 = MEM_BUDGET_BYTES;

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

/// Why a job id names no record in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Missing {
    /// The id was never issued.
    Unknown,
    /// The id was issued, and its result was delivered to a RESULT or
    /// evicted under the cap.
    Gone,
}

impl Missing {
    /// The ERROR detail a client gets for `job`.
    pub fn detail(self, job: u64) -> String {
        match self {
            Missing::Unknown => format!("unknown job {job}"),
            Missing::Gone => {
                format!("job {job} was delivered or evicted; resubmit its spec for the same bytes")
            }
        }
    }
}

/// A finished job's payload as held by the supervisor.
#[derive(Debug)]
enum Outcome {
    /// The job ran to completion.
    Done(JobOutput),
    /// The job failed (budget, panic); human-readable detail.
    Failed(String),
    /// The job was cancelled before or during execution.
    Cancelled,
}

/// Everything a RESULT response needs about a terminal job.
#[derive(Debug, Clone)]
pub(crate) struct Finished {
    /// Terminal phase ([`JobPhase::Done`] / Failed / Cancelled).
    pub phase: JobPhase,
    /// The deterministic payload (empty stats/trace unless `Done`), moved
    /// out of the supervisor's job table.
    pub output: JobOutput,
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
    /// RESULT handlers blocked on this job; the cap never evicts it while
    /// any are.
    waiters: u32,
}

impl JobRecord {
    /// What this record costs against [`RESULTS_CAP_BYTES`] once terminal.
    fn charge(&self) -> u64 {
        let payload = match &self.outcome {
            Some(Outcome::Done(out)) => out.stats.capacity() + out.trace.capacity(),
            _ => 0,
        };
        (payload + std::mem::size_of::<JobRecord>()) as u64
    }
}

struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobRecord>,
    /// Terminal records no RESULT has taken, as `(finished_ns, id)`: oldest
    /// finished first.
    undelivered: BTreeSet<(u64, u64)>,
    /// The sum of `undelivered`'s charges.
    results_bytes: u64,
    next_id: u64,
    queue_cap: usize,
    draining: bool,
    running: usize,
    hub: MetricsHub,
}

impl State {
    /// `job`'s record, or why there is none.
    fn record(&mut self, job: u64) -> Result<&mut JobRecord, Missing> {
        let issued = (1..self.next_id).contains(&job);
        self.jobs.get_mut(&job).ok_or(if issued { Missing::Gone } else { Missing::Unknown })
    }

    /// Makes `job` terminal, charges it against the cap, and evicts the
    /// oldest unwatched records while the charge is over it.
    fn finish(&mut self, job: u64, phase: JobPhase, outcome: Outcome, now_ns: u64) {
        let rec = self.jobs.get_mut(&job).expect("a finishing job has a record");
        rec.phase = phase;
        rec.times.finished_ns = now_ns;
        rec.outcome = Some(outcome);
        self.results_bytes += rec.charge();
        self.undelivered.insert((now_ns, job));
        let mut over = self.results_bytes.saturating_sub(RESULTS_CAP_BYTES);
        let mut victims = Vec::new();
        for &(finished_ns, id) in &self.undelivered {
            if over == 0 {
                break;
            }
            let rec = &self.jobs[&id];
            if rec.waiters == 0 {
                over = over.saturating_sub(rec.charge());
                victims.push((finished_ns, id));
            }
        }
        for (finished_ns, id) in victims {
            self.undelivered.remove(&(finished_ns, id));
            let rec = self.jobs.remove(&id).expect("an undelivered job has a record");
            self.results_bytes -= rec.charge();
            self.hub.counter_add("svc.results.evicted", 1);
        }
        self.hub.gauge_set("svc.results.bytes", self.results_bytes as f64);
    }

    /// Takes terminal `job` out of the table for the one RESULT it gets.
    fn deliver(&mut self, job: u64) -> Finished {
        let rec = self.jobs.remove(&job).expect("a delivered job has a record");
        self.undelivered.remove(&(rec.times.finished_ns, job));
        self.results_bytes -= rec.charge();
        self.hub.gauge_set("svc.results.bytes", self.results_bytes as f64);
        let (output, detail) = match rec.outcome {
            Some(Outcome::Done(out)) => (out, String::new()),
            Some(Outcome::Failed(why)) => (empty_output(), why),
            Some(Outcome::Cancelled) | None => (empty_output(), String::new()),
        };
        Finished { phase: rec.phase, output, detail, times: rec.times }
    }
}

/// How a worker runs a job: [`run_job`] in production; tests substitute
/// a gated or panicking one.
pub(crate) type Runner = dyn Fn(&JobSpec, &AtomicBool) -> Result<JobOutput, JobError> + Send + Sync;

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    epoch: Instant,
    run: Box<Runner>,
}

impl Inner {
    /// Locks the state. Jobs run outside the lock and under
    /// `catch_unwind`, and every critical section leaves the table
    /// consistent, so a poisoned lock is taken over rather than spread.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Condvar::wait`] on the state lock, recovering from poisoning as
    /// [`Inner::lock`] does.
    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
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
        Supervisor::start_with(config, Box::new(|spec, cancel| run_job(spec, Some(cancel))))
    }

    pub(crate) fn start_with(config: SupervisorConfig, run: Box<Runner>) -> Supervisor {
        let workers_n = config.workers.max(1);
        let queue_cap = config.queue_cap.max(1);
        let mut hub = MetricsHub::new();
        hub.gauge_set("svc.workers", workers_n as f64);
        hub.gauge_set("svc.queue.cap", queue_cap as f64);
        hub.gauge_set("svc.results.bytes", 0.0);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                undelivered: BTreeSet::new(),
                results_bytes: 0,
                next_id: 1,
                queue_cap,
                draining: false,
                running: 0,
                hub,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch: Instant::now(),
            run,
        });
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
    /// Admits a job or rejects it with backpressure. On admission the job
    /// is queued and its id returned; the `svc.submit` / `svc.accept` /
    /// `svc.reject` counters and `svc.queue.depth` gauge track the
    /// decision.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, (RejectReason, String)> {
        let mut st = self.inner.lock();
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
        let times = JobTimes { accepted_ns: self.inner.now_ns(), ..JobTimes::default() };
        st.jobs.insert(
            id,
            JobRecord {
                spec,
                phase: JobPhase::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                times,
                outcome: None,
                waiters: 0,
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
    pub fn status(&self, job: u64) -> Result<(JobPhase, u32, JobTimes), Missing> {
        let mut st = self.inner.lock();
        let rec = st.record(job)?;
        let (phase, times) = (rec.phase, rec.times);
        let depth = if phase == JobPhase::Queued {
            st.queue.iter().take_while(|&&id| id != job).count() as u32
        } else {
            0
        };
        Ok((phase, depth, times))
    }

    /// Requests cancellation. A queued job is cancelled immediately; a
    /// running job observes the flag at its next check and stops; a
    /// terminal one is left as it is.
    pub fn cancel(&self, job: u64) -> Result<(), Missing> {
        let mut st = self.inner.lock();
        let now = self.inner.now_ns();
        let rec = st.record(job)?;
        rec.cancel.store(true, Ordering::Relaxed);
        if rec.phase == JobPhase::Queued {
            st.queue.retain(|&id| id != job);
            st.hub.counter_add("svc.cancel", 1);
            let depth = st.queue.len() as f64;
            st.hub.gauge_set("svc.queue.depth", depth);
            st.finish(job, JobPhase::Cancelled, Outcome::Cancelled, now);
            drop(st);
            self.inner.done_cv.notify_all();
        }
        Ok(())
    }

    /// Blocks until the job is terminal, then takes its result out of the
    /// table: each result is delivered once. A job delivered to another
    /// RESULT — before or while this one waited — is [`Missing::Gone`].
    pub(crate) fn wait_result(&self, job: u64) -> Result<Finished, Missing> {
        let mut st = self.inner.lock();
        loop {
            let rec = st.record(job)?;
            if rec.phase.is_terminal() {
                return Ok(st.deliver(job));
            }
            rec.waiters += 1;
            st = self.inner.wait(&self.inner.done_cv, st);
            if let Ok(rec) = st.record(job) {
                rec.waiters -= 1;
            }
        }
    }

    /// Renders the `svc.*` metrics registry as compact JSON.
    pub fn metrics_json(&self) -> String {
        self.inner.lock().hub.to_json().to_string_compact()
    }

    /// Stops admission and blocks until the queue is empty and no job is
    /// running. Does not join the workers (only [`Supervisor::drain`]
    /// can, since it owns the handles) — but on return every admitted job
    /// is terminal, which is the contract SHUTDOWN acknowledges.
    pub(crate) fn begin_drain(&self) {
        let mut st = self.inner.lock();
        st.draining = true;
        self.inner.work_cv.notify_all();
        while !st.queue.is_empty() || st.running > 0 {
            st = self.inner.wait(&self.inner.done_cv, st);
        }
    }
}

fn empty_output() -> JobOutput {
    // Checksum of the (empty) payload, so clients can verify every
    // result stream the same way regardless of terminal phase.
    JobOutput {
        stats: Vec::new(),
        trace: Vec::new(),
        checksum: vc_net::svc::fnv1a64(&[]),
        rounds: 0,
    }
}

fn panic_text(payload: &(dyn Any + Send)) -> &str {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s,
        _ => "non-string payload",
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim the next job (or exit if draining with nothing left).
        let (id, spec, cancel) = {
            let mut st = inner.lock();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    let depth = st.queue.len() as f64;
                    st.hub.gauge_set("svc.queue.depth", depth);
                    let now = inner.now_ns();
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
                st = inner.wait(&inner.work_cv, st);
            }
        };

        // Run without the lock; the job sees only its spec + cancel flag,
        // so a panic leaves nothing shared half-updated and ends the job
        // `Failed` instead of taking the worker (and `running`) with it.
        let result = catch_unwind(AssertUnwindSafe(|| (inner.run)(&spec, &cancel)));

        let mut st = inner.lock();
        let now = inner.now_ns();
        st.running -= 1;
        let run_us = (now - st.jobs[&id].times.started_ns) as f64 / 1_000.0;
        st.hub.observe("svc.job.run_us", run_us);
        if let Ok(Ok(out)) = &result {
            st.hub.observe("svc.job.rounds", f64::from(out.rounds));
        }
        let (phase, outcome, counter) = match result {
            Ok(Ok(out)) => (JobPhase::Done, Outcome::Done(out), "svc.done"),
            Ok(Err(JobError::Cancelled)) => (JobPhase::Cancelled, Outcome::Cancelled, "svc.cancel"),
            Ok(Err(e)) => (JobPhase::Failed, Outcome::Failed(e.to_string()), "svc.fail"),
            Err(panic) => {
                let why = format!("job panicked: {}", panic_text(&*panic));
                (JobPhase::Failed, Outcome::Failed(why), "svc.fail")
            }
        };
        st.hub.counter_add(counter, 1);
        st.finish(id, phase, outcome, now);
        drop(st);
        inner.done_cv.notify_all();
    }
}

#[cfg(test)]
pub(crate) mod model;

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
        assert_eq!(fin.output, run_job(&s, None).unwrap());
        assert!(fin.times.accepted_ns <= fin.times.started_ns);
        assert!(fin.times.started_ns <= fin.times.finished_ns);
        // The result was handed out once; the table no longer holds it.
        assert_eq!(h.wait_result(id).unwrap_err(), Missing::Gone);
        assert_eq!(h.status(id).unwrap_err(), Missing::Gone);
        assert_eq!(h.cancel(id).unwrap_err(), Missing::Gone);
        for never_issued in [0, id + 1] {
            assert_eq!(h.status(never_issued).unwrap_err(), Missing::Unknown);
        }
        assert_eq!(h.inner.lock().hub.gauge("svc.results.bytes"), Some(0.0));
        sup.drain();
    }

    #[test]
    fn gauges_report_the_pool_that_runs() {
        // Zero workers or queue slots run as one; the gauges say so.
        let sup = Supervisor::start(SupervisorConfig { workers: 0, queue_cap: 0 });
        let st = sup.inner.lock();
        assert_eq!((st.queue_cap, sup.workers.len()), (1, 1));
        assert_eq!(st.hub.gauge("svc.queue.cap"), Some(1.0));
        assert_eq!(st.hub.gauge("svc.workers"), Some(1.0));
        drop(st);
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
        // Every job is held at the gate, so the queue stays occupied while
        // we overflow it.
        let gate = Arc::new(model::Gate::default());
        let config = SupervisorConfig { workers: 1, queue_cap: 2 };
        let sup = Supervisor::start_with(config, model::gated_run_job(&gate));
        let h = sup.handle();
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
        assert!(saw_full, "24 submits into a 2-slot queue must overflow");
        gate.open();
        for id in accepted {
            let fin = h.wait_result(id).unwrap();
            assert_eq!(fin.phase, JobPhase::Done);
        }
        sup.drain();
    }

    #[test]
    fn cancel_queued_and_running_jobs() {
        let gate = Arc::new(model::Gate::default());
        let config = SupervisorConfig { workers: 1, queue_cap: 8 };
        let sup = Supervisor::start_with(config, model::gated_run_job(&gate));
        let h = sup.handle();
        // Hold the single worker, then cancel a queued job behind it.
        let long = h.submit(spec("urban-epidemic", 1, 2_000, 0)).unwrap();
        let queued = h.submit(spec("urban-greedy", 2, 2_000, 0)).unwrap();
        gate.wait_started(1);
        h.cancel(queued).unwrap();
        let fin = h.wait_result(queued).unwrap();
        assert_eq!(fin.phase, JobPhase::Cancelled);
        assert!(fin.output.stats.is_empty());
        // Cancel the running one too; released, it stops at a cancel check.
        h.cancel(long).unwrap();
        assert_eq!(h.status(long).unwrap().0, JobPhase::Running);
        gate.open();
        let fin = h.wait_result(long).unwrap();
        assert_eq!(fin.phase, JobPhase::Cancelled);
        assert_eq!(h.cancel(9999), Err(Missing::Unknown));
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
        for key in [
            "svc.submit",
            "svc.accept",
            "svc.done",
            "svc.job.queue_us",
            "svc.job.run_us",
            "svc.job.rounds",
            "svc.results.bytes",
        ] {
            assert!(json.contains(key), "metrics JSON missing {key}: {json}");
        }
        sup.drain();
    }

    #[test]
    fn a_panicking_job_fails_and_drain_returns() {
        // On a thread with a deadline: a worker killed by the panic would
        // leave `running` raised and this test blocked forever.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sup = Supervisor::start_with(
                SupervisorConfig { workers: 1, queue_cap: 4 },
                Box::new(|spec, cancel| {
                    assert_ne!(spec.seed, 13, "seed 13 is unlucky");
                    run_job(spec, Some(cancel))
                }),
            );
            let h = sup.handle();
            let bad = h.submit(spec("urban-greedy", 13, 16, 0)).unwrap();
            let good = h.submit(spec("urban-greedy", 14, 16, 0)).unwrap();
            let fin = h.wait_result(bad).unwrap();
            assert_eq!(fin.phase, JobPhase::Failed);
            assert!(fin.detail.starts_with("job panicked: "), "{}", fin.detail);
            assert!(fin.detail.contains("seed 13 is unlucky"), "{}", fin.detail);
            // The worker survived the panic and runs the next job.
            assert_eq!(h.wait_result(good).unwrap().phase, JobPhase::Done);
            assert_eq!(h.inner.lock().hub.counter("svc.fail"), 1);
            sup.drain();
            done.send(()).unwrap();
        });
        finished.recv_timeout(std::time::Duration::from_secs(30)).expect("drain returned");
    }

    #[test]
    fn a_poisoned_lock_is_taken_over() {
        let sup = Supervisor::start(SupervisorConfig { workers: 1, queue_cap: 4 });
        let h = sup.handle();
        let poisoner = h.clone();
        let _ = std::thread::spawn(move || {
            let _st = poisoner.inner.state.lock();
            panic!("poison the state lock");
        })
        .join();
        assert!(h.inner.state.is_poisoned());
        let id = h.submit(spec("urban-greedy", 1, 16, 0)).unwrap();
        assert_eq!(h.wait_result(id).unwrap().phase, JobPhase::Done);
        sup.drain();
    }
}
