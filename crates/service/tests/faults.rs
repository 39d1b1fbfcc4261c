//! `vcloudd` beside misbehaving clients. A seeded plan runs, next to
//! well-behaved clients, connections that never read their RESULT, stop
//! half-way through a frame, declare an oversized frame, submit and never
//! fetch, or storm the listener, and a wave that fills every handler and
//! every waiting slot. The daemon serves from a fixed handler pool, so:
//!
//! - every well-behaved job returns `run_job`'s bytes;
//! - the process's thread count is back at its warm-up value after each
//!   wave, with the wave's misbehaving connections still open (this test's
//!   own client threads joined);
//! - `VmRSS` stays within [`RSS_SLACK_KIB`] of its warm-up value;
//! - the connection past the handlers and the waiting slots reads a busy
//!   `ERROR`, and `svc.conn.refused` counts it.
//!
//! The file holds one test, so the process's thread count is this test's.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use vc_net::svc::{read_decode, write_frame, Frame, FLAG_TRACE};
use vc_service::client::Client;
use vc_service::job::{run_job, JobSpec, SCENARIOS};
use vc_service::server::{Server, ServerConfig};
use vc_service::supervisor::SupervisorConfig;
use vc_sim::rng::SimRng;
use vc_testkit::json::Json;

const SEED: u64 = 43;

/// Connections that may wait for a free handler (`WAITING` in `server.rs`).
const WAITING: usize = 16;

/// Well-behaved clients per wave.
const GOOD: usize = 2;

/// Misbehaving connections per mixed wave: with [`GOOD`] they stay under
/// the handlers, so no good client waits out a deadline.
const MISBEHAVING: usize = 10;

/// Connect/close pairs in a reconnect storm, and in each of its bursts.
const STORM: usize = 300;
const STORM_BURST: usize = 60;

/// How far `VmRSS` may rise over its warm-up value. The waves leave a few
/// KiB of unfetched results; the rest is the allocator's arenas settling
/// under new jobs and client threads: 1.2–4.1 MiB on a 2-core x86-64
/// host, in debug and release builds.
const RSS_SLACK_KIB: u64 = 8 * 1024;

#[derive(Debug, Clone, Copy)]
enum Misbehaviour {
    /// Submits a traced job, asks for its RESULT and never reads.
    NeverReads,
    /// Sends the first half of a SUBMIT frame, then nothing.
    HalfFrame,
    /// Declares a frame longer than `MAX_FRAME_LEN`.
    Oversized,
    /// Submits a job and never asks for its RESULT.
    SubmitNoFetch,
}

const KINDS: [Misbehaviour; 4] = [
    Misbehaviour::NeverReads,
    Misbehaviour::HalfFrame,
    Misbehaviour::Oversized,
    Misbehaviour::SubmitNoFetch,
];

#[derive(Debug, Clone, Copy)]
enum Wave {
    /// Every misbehaviour at least once, the rest drawn from the seed.
    Mixed,
    /// [`STORM`] connections opened and closed back to back.
    Storm,
    /// Every handler held, every waiting slot taken, and one more.
    OverCap,
}

fn spec(rng: &mut SimRng, flags: u32) -> JobSpec {
    let scenario = SCENARIOS[rng.index(SCENARIOS.len())].id.into();
    JobSpec { scenario, seed: rng.range_u64(0, 1_000), ticks: 32, flags }
}

/// A field of this process's status, in its own unit (`VmRSS:` in KiB).
fn status(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with(name)).expect("status field");
    line[name.len()..].trim().trim_end_matches(" kB").parse().expect("a number")
}

/// `Threads:`, read again for up to 2 s while it is not `want`: a joined
/// thread leaves the count when the kernel reaps it, a moment after `join`
/// returns.
fn threads_settled(want: u64) -> u64 {
    let mut threads = status("Threads:");
    for _ in 0..400 {
        if threads == want {
            break;
        }
        thread::sleep(Duration::from_millis(5));
        threads = status("Threads:");
    }
    threads
}

fn send(stream: &mut TcpStream, frame: &Frame) {
    write_frame(stream, frame).expect("send a frame");
}

fn recv(stream: &mut TcpStream) -> Frame {
    read_decode(stream).expect("read a frame").expect("a frame, not EOF")
}

/// Opens a connection that misbehaves as `kind` and returns it, still open.
fn misbehave(addr: SocketAddr, kind: Misbehaviour, rng: &mut SimRng) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let submit = |rng: &mut SimRng, flags| {
        let JobSpec { scenario, seed, ticks, flags } = spec(rng, flags);
        Frame::Submit { scenario, seed, ticks, flags }
    };
    match kind {
        Misbehaviour::NeverReads | Misbehaviour::SubmitNoFetch => {
            let never_reads = matches!(kind, Misbehaviour::NeverReads);
            send(&mut stream, &submit(rng, if never_reads { FLAG_TRACE } else { 0 }));
            let Frame::Accepted { job } = recv(&mut stream) else { panic!("SUBMIT refused") };
            if never_reads {
                send(&mut stream, &Frame::Result { job });
            }
        }
        Misbehaviour::HalfFrame => {
            let mut frame = Vec::new();
            write_frame(&mut frame, &submit(rng, 0)).unwrap();
            stream.write_all(&frame[..frame.len() / 2]).unwrap();
        }
        Misbehaviour::Oversized => {
            stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
            let Frame::Error { detail } = recv(&mut stream) else { panic!("no ERROR") };
            assert!(detail.contains("protocol error"), "{detail}");
        }
    }
    stream
}

/// Opens a connection and shows, with a METRICS round trip, that a handler
/// holds it; the connection then falls silent.
fn hold_a_handler(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    send(&mut stream, &Frame::Metrics);
    assert!(matches!(recv(&mut stream), Frame::MetricsReply { .. }));
    stream
}

/// A client a handler has taken: a METRICS round trip, repeated while the
/// daemon turns it away (a storm may still fill its queue). A refused
/// client reads the busy `ERROR`, or a reset when its METRICS frame reached
/// the socket before the daemon closed it unread.
fn served_client(addr: SocketAddr) -> Client {
    for _ in 0..500 {
        let mut client = Client::connect(addr).expect("connect");
        match client.metrics() {
            Ok(_) => return client,
            Err(e) if e.to_string().contains("server busy") => {}
            Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {}
            Err(e) => panic!("METRICS: {e}"),
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("the daemon stayed busy for 5 s")
}

/// Runs one job per client, each on its own thread, and checks every
/// result against an in-process `run_job`.
fn well_behaved(addr: SocketAddr, n: usize, rng: &mut SimRng) -> Vec<thread::JoinHandle<()>> {
    (0..n)
        .map(|_| {
            let mut client = served_client(addr);
            let flags = if rng.chance(0.5) { FLAG_TRACE } else { 0 };
            let s = spec(rng, flags);
            thread::spawn(move || {
                let job = client.submit(&s).expect("SUBMIT").expect("admitted");
                let result = client.fetch_result(job).expect("RESULT");
                let reference = run_job(&s, None).expect("run_job");
                assert_eq!(result.stats, reference.stats, "{}/{}", s.scenario, s.seed);
                assert_eq!(result.trace, reference.trace, "{}/{}", s.scenario, s.seed);
                assert_eq!(result.checksum, reference.checksum);
            })
        })
        .collect()
}

/// Runs `wave` beside [`GOOD`] well-behaved clients and returns the
/// process's threads (settled towards `threads0`) and `VmRSS` with the
/// wave's connections still open.
fn run_wave(
    addr: SocketAddr,
    handlers: usize,
    threads0: u64,
    wave: Wave,
    rng: &mut SimRng,
) -> (u64, u64) {
    let good = well_behaved(addr, GOOD, rng);
    let mut open = Vec::new();
    let mut refused_before = None;
    match wave {
        Wave::Mixed => {
            let drawn = (KINDS.len()..MISBEHAVING).map(|_| KINDS[rng.index(KINDS.len())]);
            let kinds: Vec<Misbehaviour> = KINDS.into_iter().chain(drawn).collect();
            open.extend(kinds.into_iter().map(|kind| misbehave(addr, kind, rng)));
        }
        Wave::Storm => {
            // In bursts the listen backlog (128 in std) holds: past it the
            // kernel drops SYNs, and a dropped SYN is resent after 1 s.
            for _ in 0..STORM / STORM_BURST {
                for _ in 0..STORM_BURST {
                    drop(TcpStream::connect(addr).expect("connect"));
                }
                drop(served_client(addr));
            }
        }
        Wave::OverCap => {
            refused_before = Some(refused(&served_client(addr).metrics().expect("METRICS")));
            open.extend((0..handlers).map(|_| hold_a_handler(addr)));
            open.extend((0..WAITING).map(|_| TcpStream::connect(addr).expect("connect")));
            let mut over = TcpStream::connect(addr).expect("connect");
            over.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            match read_decode(&mut over) {
                Ok(Some(Frame::Error { detail })) => {
                    assert!(detail.starts_with("server busy"), "{detail}")
                }
                other => panic!("the connection over the cap read {other:?}"),
            }
            assert!(matches!(read_decode(&mut over), Ok(None)), "closed after the ERROR");
        }
    }
    for good in good {
        good.join().expect("a well-behaved client failed");
    }
    let measured = (threads_settled(threads0), status("VmRSS:"));
    if let Some(before) = refused_before {
        // The freed handlers take the waiting connections; the last one
        // asks for the count.
        let mut last = open.pop().expect("a waiting connection");
        drop(open);
        send(&mut last, &Frame::Metrics);
        let Frame::MetricsReply { json } = recv(&mut last) else { panic!("no METRICS reply") };
        assert_eq!(refused(&json), before + 1.0, "svc.conn.refused");
    }
    measured
}

/// The `svc.conn.refused` counter in a METRICS reply.
fn refused(json: &str) -> f64 {
    let json = Json::parse(json).expect("METRICS JSON");
    json["counters"]["svc.conn.refused"].as_f64().expect("svc.conn.refused")
}

#[cfg(target_os = "linux")]
#[test]
fn misbehaving_clients_leave_threads_and_memory_flat() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        pool: SupervisorConfig { workers: 2, queue_cap: 64 },
    };
    let server = Server::bind(&config).expect("bind ephemeral loopback");
    let addr = server.local_addr().unwrap();
    let daemon = thread::spawn(move || server.run().expect("server run"));
    let mut rng = SimRng::seed_from(SEED);

    let json = served_client(addr).metrics().expect("METRICS");
    let handlers = Json::parse(&json).unwrap()["gauges"]["svc.handlers"].as_f64().unwrap();
    let handlers = handlers as usize;
    let threads0 = status("Threads:");
    // Warm-up: one wave of each kind, so every handler, worker and allocator
    // arena has served before memory is read.
    for wave in [Wave::Mixed, Wave::Storm, Wave::OverCap] {
        let (threads, _) = run_wave(addr, handlers, threads0, wave, &mut rng);
        assert_eq!(threads, threads0, "warm-up {wave:?}: threads follow connections");
    }
    let rss0 = status("VmRSS:");

    let mut plan = [Wave::Mixed, Wave::Storm, Wave::Mixed, Wave::OverCap, Wave::Mixed];
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.index(i + 1));
    }
    for (n, wave) in plan.into_iter().enumerate() {
        let (threads, rss) = run_wave(addr, handlers, threads0, wave, &mut rng);
        assert_eq!(threads, threads0, "wave {n} ({wave:?}): threads follow connections");
        assert!(rss <= rss0 + RSS_SLACK_KIB, "wave {n} ({wave:?}): VmRSS {rss0} -> {rss} KiB");
    }

    served_client(addr).shutdown().expect("SHUTDOWN");
    daemon.join().expect("the daemon ran to its end");
}
