//! A pure model of the supervisor — queue cap, workers, phases, cancel of
//! queued and running jobs, drain, one-shot RESULT, and the results cap —
//! and a seeded property that drives it and the real [`Supervisor`] through
//! the same op sequences, comparing every id's phase (or `Missing`), the
//! `svc.*` counters and `svc.results.bytes` after each op.
//!
//! The real pool runs a gated runner: a claimed job starts, then blocks
//! until the sequence says `Finish`, so the sequence alone fixes every
//! interleaving. Outputs reserve capacity they never touch, so three
//! undelivered `Big` jobs, or one `Huge` one, cross the real
//! [`RESULTS_CAP_BYTES`] at no cost. Every op is followed by a STATUS of
//! every id.
//!
//! The supervisor and server tests that need a job still running hold it
//! with the same [`Gate`], through [`gated_run_job`]: a catalogue job ends
//! when its last packet copy dies, so no spec keeps a worker busy.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use vc_sim::rng::SimRng;
use vc_testkit::prop::strategy::{from_fn, vec};
use vc_testkit::prop::{self, CaseResult};

use super::*;

/// What a job does when the sequence finishes it; carried in `ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Small,
    Big,
    Huge,
    Fails,
    Panics,
}

const KINDS: [Kind; 5] = [Kind::Small, Kind::Big, Kind::Huge, Kind::Fails, Kind::Panics];

impl Kind {
    /// Stats and trace capacity of a finished job's output.
    fn capacities(self) -> (usize, usize) {
        match self {
            Kind::Small => (512, 2048),
            Kind::Big => (512, 24 << 20),
            Kind::Huge => (512, 80 << 20),
            Kind::Fails | Kind::Panics => (0, 0),
        }
    }

    /// Terminal phase and failure-detail prefix of an uncancelled run.
    fn end(self) -> (JobPhase, &'static str) {
        match self {
            Kind::Small | Kind::Big | Kind::Huge => (JobPhase::Done, ""),
            Kind::Fails => (JobPhase::Failed, "memory budget exceeded"),
            Kind::Panics => (JobPhase::Failed, "job panicked: "),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit(Kind),
    Cancel(u64),
    /// RESULT: answered at once for a terminal or missing id, otherwise a
    /// handler thread waits on it.
    Fetch(u64),
    /// Lets the `n % running`-th running job end.
    Finish(usize),
    Drain,
}

fn any_op(rng: &mut SimRng) -> Op {
    let pick = rng.range_u64(0, 12);
    match rng.index(100) {
        0..=39 => Op::Submit(KINDS[[0, 0, 0, 1, 1, 1, 2, 3, 4][rng.index(9)]]),
        40..=67 => Op::Finish(rng.index(4)),
        68..=84 => Op::Fetch(pick),
        85..=97 => Op::Cancel(pick),
        _ => Op::Drain,
    }
}

struct MJob {
    kind: Kind,
    phase: JobPhase,
    cancel: bool,
    waiters: usize,
}

#[derive(Default)]
struct Model {
    workers: usize,
    queue_cap: usize,
    next_id: u64,
    draining: bool,
    queue: VecDeque<u64>,
    running: Vec<u64>,
    jobs: BTreeMap<u64, MJob>,
    /// Terminal jobs nobody fetched, oldest finished first.
    undelivered: VecDeque<u64>,
    bytes: u64,
    counters: BTreeMap<&'static str, u64>,
    /// Jobs the last op let a worker claim.
    claimed: Vec<u64>,
    /// Jobs the last op handed to waiting RESULTs: `(id, phase, waiters)`.
    woken: Vec<(u64, JobPhase, usize)>,
}

const COUNTERS: [&str; 7] = [
    "svc.submit",
    "svc.accept",
    "svc.reject",
    "svc.done",
    "svc.fail",
    "svc.cancel",
    "svc.results.evicted",
];

impl Model {
    fn bump(&mut self, counter: &'static str) {
        *self.counters.entry(counter).or_default() += 1;
    }

    fn charge(job: &MJob) -> u64 {
        let (stats, trace) =
            if job.phase == JobPhase::Done { job.kind.capacities() } else { (0, 0) };
        (stats + trace + std::mem::size_of::<JobRecord>()) as u64
    }

    fn missing(&self, id: u64) -> Missing {
        if (1..self.next_id).contains(&id) {
            Missing::Gone
        } else {
            Missing::Unknown
        }
    }

    fn claim(&mut self) {
        while self.running.len() < self.workers {
            let Some(id) = self.queue.pop_front() else { break };
            self.jobs.get_mut(&id).unwrap().phase = JobPhase::Running;
            self.running.push(id);
            self.claimed.push(id);
        }
    }

    fn submit(&mut self, kind: Kind) -> Result<u64, RejectReason> {
        self.bump("svc.submit");
        let refusal = if self.draining {
            Some(RejectReason::Draining)
        } else if self.queue.len() >= self.queue_cap {
            Some(RejectReason::QueueFull)
        } else {
            None
        };
        if let Some(reason) = refusal {
            self.bump("svc.reject");
            return Err(reason);
        }
        self.bump("svc.accept");
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(id, MJob { kind, phase: JobPhase::Queued, cancel: false, waiters: 0 });
        self.queue.push_back(id);
        self.claim();
        Ok(id)
    }

    /// Charges a newly terminal job, evicts over the cap (sparing watched
    /// jobs), then hands the job to its waiters, if any.
    fn terminal(&mut self, id: u64, phase: JobPhase) {
        self.jobs.get_mut(&id).unwrap().phase = phase;
        self.bytes += Model::charge(&self.jobs[&id]);
        self.undelivered.push_back(id);
        let mut i = 0;
        while self.bytes > RESULTS_CAP_BYTES && i < self.undelivered.len() {
            let victim = self.undelivered[i];
            if self.jobs[&victim].waiters > 0 {
                i += 1;
                continue;
            }
            self.undelivered.remove(i);
            self.bytes -= Model::charge(&self.jobs.remove(&victim).unwrap());
            self.bump("svc.results.evicted");
        }
        let waiters = self.jobs.get(&id).map_or(0, |job| job.waiters);
        if waiters > 0 {
            self.deliver(id);
            self.woken.push((id, phase, waiters));
        }
    }

    fn deliver(&mut self, id: u64) -> MJob {
        self.undelivered.retain(|&j| j != id);
        let job = self.jobs.remove(&id).unwrap();
        self.bytes -= Model::charge(&job);
        job
    }

    fn finish(&mut self, n: usize) -> Option<u64> {
        if self.running.is_empty() {
            return None;
        }
        let id = self.running.remove(n % self.running.len());
        let job = &self.jobs[&id];
        let phase = if job.cancel { JobPhase::Cancelled } else { job.kind.end().0 };
        self.bump(match phase {
            JobPhase::Done => "svc.done",
            JobPhase::Cancelled => "svc.cancel",
            _ => "svc.fail",
        });
        self.terminal(id, phase);
        self.claim();
        Some(id)
    }

    fn status(&self, id: u64) -> Result<(JobPhase, u32), Missing> {
        let job = self.jobs.get(&id).ok_or(self.missing(id))?;
        let depth = self.queue.iter().position(|&j| j == id).unwrap_or(0);
        Ok((job.phase, depth as u32))
    }

    fn cancel(&mut self, id: u64) -> Result<(), Missing> {
        let missing = self.missing(id);
        let job = self.jobs.get_mut(&id).ok_or(missing)?;
        job.cancel = true;
        if job.phase == JobPhase::Queued {
            self.queue.retain(|&j| j != id);
            self.bump("svc.cancel");
            self.terminal(id, JobPhase::Cancelled);
        }
        Ok(())
    }

    /// `Some` answer for a RESULT that returns at once; `None` when it
    /// waits.
    fn fetch(&mut self, id: u64) -> Option<Result<(JobPhase, &'static str), Missing>> {
        let Some(job) = self.jobs.get_mut(&id) else { return Some(Err(self.missing(id))) };
        if !job.phase.is_terminal() {
            job.waiters += 1;
            return None;
        }
        let job = self.deliver(id);
        let detail = if job.phase == JobPhase::Cancelled { "" } else { job.kind.end().1 };
        Some(Ok((job.phase, detail)))
    }
}

/// The gate a gated runner waits at: each job, named by its seed, starts
/// and then blocks until it is released or the gate opens, so a test fixes
/// when every job ends.
#[derive(Default)]
pub(crate) struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    started: BTreeSet<u64>,
    released: BTreeSet<u64>,
    open: bool,
}

/// A runner that holds each job at `gate`, then runs it with [`run_job`].
pub(crate) fn gated_run_job(gate: &Arc<Gate>) -> Box<Runner> {
    let gate = Arc::clone(gate);
    Box::new(move |spec, cancel| {
        gate.hold(spec.seed);
        run_job(spec, Some(cancel))
    })
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks job `id` started, then blocks until it is released or the
    /// gate opens.
    fn hold(&self, id: u64) {
        let mut g = self.lock();
        g.started.insert(id);
        self.cv.notify_all();
        while !g.open && !g.released.contains(&id) {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until job `id` has started, so a worker is holding it.
    pub(crate) fn wait_started(&self, id: u64) {
        let g = self.lock();
        let (_g, wait) = self
            .cv
            .wait_timeout_while(g, DEADLINE, |g| !g.started.contains(&id))
            .unwrap_or_else(PoisonError::into_inner);
        assert!(!wait.timed_out(), "job {id} {WEDGED} before it started");
    }

    /// Lets every held job, and every later one, run.
    pub(crate) fn open(&self) {
        self.lock().open = true;
        self.cv.notify_all();
    }

    /// The runner: the job's `seed` is its id, its `ticks` its [`Kind`].
    fn run(&self, spec: &JobSpec, cancel: &AtomicBool) -> Result<JobOutput, JobError> {
        self.hold(spec.seed);
        if cancel.load(Ordering::Relaxed) {
            return Err(JobError::Cancelled);
        }
        let kind = KINDS[spec.ticks as usize - 1];
        match kind {
            Kind::Small | Kind::Big | Kind::Huge => {
                let (stats, trace) = kind.capacities();
                let (stats, trace) = (Vec::with_capacity(stats), Vec::with_capacity(trace));
                Ok(JobOutput { checksum: vc_net::svc::fnv1a64(&[]), stats, trace, rounds: 0 })
            }
            Kind::Fails => Err(JobError::BudgetExceeded { used: 1, budget: 0 }),
            Kind::Panics => panic!("job {} was built to panic", spec.seed),
        }
    }

    fn release(&self, id: u64) {
        self.lock().released.insert(id);
        self.cv.notify_all();
    }
}

const DEADLINE: Duration = Duration::from_secs(5);

/// How an error says the pool stopped making progress.
const WEDGED: &str = "timed out";

/// Polls `ready` until it holds; an error names what never happened.
fn wait_until(what: impl Fn() -> String, ready: impl Fn() -> bool) -> Result<(), String> {
    let end = Instant::now() + DEADLINE;
    while !ready() {
        if Instant::now() > end {
            return Err(format!("{WEDGED} waiting for {}", what()));
        }
        std::thread::yield_now();
    }
    Ok(())
}

type Fetched = Result<(JobPhase, String), Missing>;

fn fetch_on_thread(h: &SupervisorHandle, id: u64) -> Receiver<Fetched> {
    let (tx, rx) = mpsc::channel();
    let h = h.clone();
    std::thread::spawn(move || {
        let _ = tx.send(h.wait_result(id).map(|fin| (fin.phase, fin.detail)));
    });
    rx
}

fn expect_fetched(got: Fetched, want: Result<(JobPhase, &str), Missing>) -> Result<(), String> {
    let ok = match (&got, want) {
        (Ok((phase, detail)), Ok((want_phase, prefix))) => {
            *phase == want_phase
                && detail.starts_with(prefix)
                && (prefix.is_empty() == detail.is_empty())
        }
        (Err(a), Err(b)) => *a == b,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("RESULT gave {got:?}, model {want:?}"))
    }
}

/// Every id's status, the counters, the bytes gauge and the queue depth
/// agree between the model and the real supervisor.
fn compare(h: &SupervisorHandle, m: &Model) -> Result<(), String> {
    for id in 0..=m.next_id {
        let real = h.status(id).map(|(phase, depth, _)| (phase, depth));
        if real != m.status(id) {
            return Err(format!("job {id}: real {real:?}, model {:?}", m.status(id)));
        }
    }
    let st = h.inner.lock();
    for name in COUNTERS {
        let want = m.counters.get(name).copied().unwrap_or(0);
        if st.hub.counter(name) != want {
            return Err(format!("{name}: real {}, model {want}", st.hub.counter(name)));
        }
    }
    for (name, want) in [("svc.results.bytes", m.bytes), ("svc.queue.depth", m.queue.len() as u64)]
    {
        let real = st.hub.gauge(name).unwrap_or(0.0);
        if real != want as f64 {
            return Err(format!("{name}: real {real}, model {want}"));
        }
    }
    Ok(())
}

/// Runs `ops` on a model and on a gated real pool; returns the model's
/// final counters.
fn run_case(
    workers: usize,
    queue_cap: usize,
    ops: &[Op],
) -> Result<BTreeMap<&'static str, u64>, String> {
    let gate = Arc::new(Gate::default());
    let runner = Arc::clone(&gate);
    let sup = Supervisor::start_with(
        SupervisorConfig { workers, queue_cap },
        Box::new(move |spec, cancel| runner.run(spec, cancel)),
    );
    let h = sup.handle();
    let mut m = Model { workers, queue_cap, next_id: 1, ..Model::default() };
    let mut waiting: Vec<(u64, Receiver<Fetched>)> = Vec::new();
    let mut drainer = None;
    let mut outcome = Ok(());
    for (step, op) in ops.iter().enumerate() {
        let result = apply(*op, &h, &gate, &mut m, &mut waiting, &mut drainer)
            .and_then(|()| compare(&h, &m));
        if let Err(why) = result {
            outcome = Err(format!("op {step} {op:?}: {why}"));
            break;
        }
    }
    gate.open();
    // A pool wedged by a bug fails the case instead of hanging the test.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        sup.drain();
        let _ = done_tx.send(drainer.map(JoinHandle::join));
    });
    let drained = done_rx.recv_timeout(DEADLINE).map_err(|_| format!("{WEDGED} on drain"));
    outcome?;
    match drained? {
        Some(Err(_)) => Err("begin_drain panicked".into()),
        _ => Ok(m.counters),
    }
}

fn apply(
    op: Op,
    h: &SupervisorHandle,
    gate: &Gate,
    m: &mut Model,
    waiting: &mut Vec<(u64, Receiver<Fetched>)>,
    drainer: &mut Option<JoinHandle<()>>,
) -> Result<(), String> {
    m.claimed.clear();
    m.woken.clear();
    match op {
        Op::Submit(kind) => {
            let ticks = KINDS.iter().position(|&k| k == kind).unwrap() as u32 + 1;
            let spec =
                JobSpec { scenario: "urban-epidemic".into(), seed: m.next_id, ticks, flags: 0 };
            let real = h.submit(spec).map_err(|(reason, _)| reason);
            let want = m.submit(kind);
            if real != want {
                return Err(format!("SUBMIT gave {real:?}, model {want:?}"));
            }
        }
        Op::Cancel(pick) => {
            let id = pick % (m.next_id + 1);
            let (real, want) = (h.cancel(id), m.cancel(id));
            if real != want {
                return Err(format!("CANCEL {id} gave {real:?}, model {want:?}"));
            }
        }
        Op::Fetch(pick) => {
            let id = pick % (m.next_id + 1);
            let rx = fetch_on_thread(h, id);
            match m.fetch(id) {
                Some(want) => {
                    let got =
                        rx.recv_timeout(DEADLINE).map_err(|_| format!("RESULT {id} {WEDGED}"))?;
                    expect_fetched(got, want)?;
                }
                None => {
                    waiting.push((id, rx));
                    let n = m.jobs[&id].waiters as u32;
                    wait_until(
                        || format!("{n} RESULTs to wait on job {id}"),
                        || h.inner.lock().jobs.get(&id).is_some_and(|r| r.waiters == n),
                    )?;
                }
            }
        }
        Op::Finish(n) => {
            if let Some(id) = m.finish(n) {
                gate.release(id);
                wait_until(
                    || format!("job {id} to end"),
                    || h.inner.lock().jobs.get(&id).is_none_or(|r| r.phase.is_terminal()),
                )?;
            }
        }
        Op::Drain => {
            if drainer.is_none() {
                let h2 = h.clone();
                *drainer = Some(std::thread::spawn(move || h2.begin_drain()));
                wait_until(|| "drain to begin".into(), || h.inner.lock().draining)?;
            }
            m.draining = true;
        }
    }
    // RESULTs the op woke: exactly one gets the job, the rest find it gone.
    for (id, phase, n) in std::mem::take(&mut m.woken) {
        let (mine, rest): (Vec<_>, Vec<_>) = waiting.drain(..).partition(|(j, _)| *j == id);
        *waiting = rest;
        let mut got = Vec::new();
        for (_, rx) in mine {
            let wedged = |_| format!("waiting RESULT {id} {WEDGED}");
            got.push(rx.recv_timeout(DEADLINE).map_err(wedged)?);
        }
        let delivered = got.iter().filter(|g| matches!(g, Ok((p, _)) if *p == phase)).count();
        let gone = got.iter().filter(|g| **g == Err(Missing::Gone)).count();
        if (got.len(), delivered, gone) != (n, 1, n - 1) {
            return Err(format!("job {id}: {n} waiting RESULTs got {got:?}, model {phase:?}"));
        }
    }
    for &id in &m.claimed {
        wait_until(|| format!("job {id} to start"), || gate.lock().started.contains(&id))?;
    }
    Ok(())
}

#[test]
fn the_supervisor_matches_its_model() {
    let ops = vec(from_fn(any_op), 0..48);
    // A wedged pool costs a deadline per run, so the first case that
    // wedges is reported as it is, not shrunk.
    let mut wedged = false;
    prop::run("supervisor_matches_model", 48, (1usize..=3, 1usize..=4, ops), |(w, q, ops)| {
        if wedged {
            return CaseResult::Pass;
        }
        match run_case(w, q, &ops) {
            Ok(_) => CaseResult::Pass,
            Err(why) => {
                wedged = why.contains(WEDGED);
                CaseResult::Fail(why)
            }
        }
    });
}

#[test]
fn the_cap_evicts_the_oldest_unwatched_result_and_spares_a_waited_one() {
    use Op::*;
    // A result larger than the cap survives only for the RESULT already
    // waiting on it (job 1); unwatched, it is evicted as it ends (job 2).
    // Three undelivered 24 MiB results are over the cap too: the oldest
    // (job 3) goes.
    let ops = [
        Submit(Kind::Huge),
        Fetch(1),
        Finish(0),
        Submit(Kind::Huge),
        Finish(0),
        Fetch(2),
        Submit(Kind::Big),
        Submit(Kind::Big),
        Submit(Kind::Big),
        Finish(0),
        Finish(0),
        Finish(0),
    ];
    let counters = run_case(1, 4, &ops).unwrap();
    assert_eq!(counters.get("svc.results.evicted"), Some(&2));
    assert_eq!(counters.get("svc.done"), Some(&5));
}
