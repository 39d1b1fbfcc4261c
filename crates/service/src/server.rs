//! The `vcloudd` TCP front end: accept loop, a fixed pool of connection
//! handlers, result streaming, and graceful shutdown.
//!
//! Networking is plain `std::net` over loopback by default — the daemon is
//! an in-lab scenario service, not an internet-facing one. `HANDLERS`
//! threads each serve one connection at a time, speaking [`vc_net::svc`]
//! frames; `WAITING` more connections may wait, the next is refused, and a
//! read or write blocked past `IO_DEADLINE` drops its connection.

use std::io::ErrorKind::{ConnectionAborted, Interrupted, TimedOut, WouldBlock};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError::Disconnected, TrySendError::Full};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use vc_net::svc::{read_decode, write_chunk, write_frame, Channel, Frame, JobPhase, CHUNK_LEN};

use crate::job::JobSpec;
use crate::supervisor::{Finished, Supervisor, SupervisorConfig, SupervisorHandle};

/// Connections served at once, one handler thread each.
pub(crate) const HANDLERS: usize = 16;

/// Accepted connections that wait for a free handler.
const WAITING: usize = 16;

/// How long one read or write on a connection may block before its handler
/// drops it; so also the longest a handler keeps SHUTDOWN waiting.
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// Daemon configuration (worker pool + listen address).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; `127.0.0.1:0` picks an ephemeral loopback port.
    pub addr: String,
    /// Worker pool / admission settings.
    pub pool: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { addr: "127.0.0.1:0".into(), pool: SupervisorConfig::default() }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until a client
/// sends SHUTDOWN and the drain completes.
pub struct Server {
    listener: TcpListener,
    supervisor: Supervisor,
    io_deadline: Duration,
}

impl Server {
    /// Binds the listener and starts the worker pool.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        Server::bind_with(config, IO_DEADLINE, Supervisor::start)
    }

    /// [`Server::bind`] with the connections' `io_deadline` and the pool
    /// `start` builds once the listener is bound.
    fn bind_with(
        config: &ServerConfig,
        io_deadline: Duration,
        start: impl FnOnce(SupervisorConfig) -> Supervisor,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server { listener, supervisor: start(config.pool), io_deadline })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until SHUTDOWN: accepts, queues each connection
    /// for the handler pool or refuses it, and after the drain joins the
    /// handlers and the worker pool. Returns the number of connections
    /// served.
    pub fn run(self) -> io::Result<u64> {
        let Server { listener, supervisor, io_deadline } = self;
        let addr = listener.local_addr()?;
        let sup = supervisor.handle();
        let shutdown = AtomicBool::new(false);
        let (tx, rx) = sync_channel::<TcpStream>(WAITING);
        let rx = Mutex::new(rx);
        let mut served = 0u64;
        let fatal = std::thread::scope(|scope| {
            for _ in 0..HANDLERS {
                scope.spawn(|| loop {
                    // The guard drops at the end of the `let`, so only the
                    // handlers without a connection queue for the lock.
                    let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok(stream) = next else { return };
                    let _ = handle_conn(stream, io_deadline, &sup, &shutdown, addr);
                });
            }
            let fatal = loop {
                let stream = match listener.accept() {
                    _ if shutdown.load(Ordering::SeqCst) => break None,
                    Ok((stream, _)) => stream,
                    Err(e) if accept_error_is_fatal(e.kind()) => break Some(e),
                    Err(e) => {
                        // Out of descriptors (EMFILE/ENFILE have no stable
                        // `ErrorKind`; they arrive as uncategorised errors):
                        // connections ending is what frees them, so wait
                        // for that instead of spinning on the error.
                        if !matches!(e.kind(), ConnectionAborted | Interrupted) {
                            std::thread::sleep(ACCEPT_BACKOFF);
                        }
                        continue;
                    }
                };
                match tx.try_send(stream) {
                    Ok(()) => served += 1,
                    Err(Full(mut stream) | Disconnected(mut stream)) => {
                        sup.conn_refused();
                        let _ = stream.set_write_timeout(Some(io_deadline));
                        let detail = format!("server busy: {HANDLERS} handlers, {WAITING} waiting");
                        let _ = write_frame(&mut stream, &Frame::Error { detail });
                    }
                }
            };
            // The handlers empty the channel, then find it closed.
            // SHUTDOWN's Okay is only sent after the drain, so every
            // admitted job is terminal here and joining the pool is
            // instant; after a fatal accept error this is where the
            // admitted jobs finish.
            drop(tx);
            supervisor.drain();
            fatal
        });
        fatal.map_or(Ok(served), Err)
    }
}

/// How long the accept loop waits after an error that will repeat until a
/// connection closes.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Does an `accept` error mean the listener itself is unusable? Only when
/// the socket is not listening (`EINVAL`) or cannot accept at all
/// (`EOPNOTSUPP`): retrying those would spin. Everything else belongs to the
/// one connection that failed to arrive (reset while it queued, refused by a
/// firewall, the call interrupted by a signal) or to a shortage that passes
/// (descriptors, buffers), and the daemon keeps serving.
fn accept_error_is_fatal(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::InvalidInput | io::ErrorKind::Unsupported)
}

/// Serves one connection: a loop of client frames, each answered in order
/// on the same stream, until the client leaves or stalls past its deadline
/// or the daemon shuts down.
fn handle_conn(
    stream: TcpStream,
    io_deadline: Duration,
    sup: &SupervisorHandle,
    shutdown: &AtomicBool,
    server_addr: SocketAddr,
) -> io::Result<()> {
    // Without this a RESULT's second segment waits for the ACK of its
    // first, which the client — it has nothing to send — delays 40 ms.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_deadline))?;
    stream.set_write_timeout(Some(io_deadline))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(FRAME_BUF_LEN, stream);
    while !shutdown.load(Ordering::SeqCst) {
        let frame = match read_decode(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // client closed cleanly
            // Past the deadline: no answer, which could stall as long.
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => return Err(e),
            Err(e) => {
                // Protocol violation: answer once, then drop the
                // connection (the stream may be unsynchronized).
                let detail = format!("protocol error: {e}");
                let _ = write_frame(&mut writer, &Frame::Error { detail });
                let _ = writer.flush();
                return Ok(());
            }
        };
        let reply = match frame {
            Frame::Submit { scenario, seed, ticks, flags } => {
                match sup.submit(JobSpec { scenario, seed, ticks, flags }) {
                    Ok(job) => Frame::Accepted { job },
                    Err((reason, detail)) => Frame::Rejected { reason, detail },
                }
            }
            Frame::Status { job } => match sup.status(job) {
                Ok((phase, depth, times)) => {
                    Frame::JobStatus { job, phase, queue_depth: depth, times }
                }
                Err(missing) => Frame::Error { detail: missing.detail(job) },
            },
            Frame::Result { job } => match sup.wait_result(job) {
                Ok(fin) => stream_result(&mut writer, job, &fin)?,
                Err(missing) => Frame::Error { detail: missing.detail(job) },
            },
            Frame::Cancel { job } => match sup.cancel(job) {
                Ok(()) => Frame::Okay,
                Err(missing) => Frame::Error { detail: missing.detail(job) },
            },
            Frame::Metrics => Frame::MetricsReply { json: sup.metrics_json() },
            Frame::Shutdown => {
                // Drain first so Okay certifies "every admitted job is
                // terminal", then wake the accept loop with a loopback
                // connect so Server::run can exit; this loop ends after
                // the Okay.
                sup.begin_drain();
                shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(server_addr);
                Frame::Okay
            }
            other => Frame::Error { detail: format!("unexpected client frame: {other:?}") },
        };
        write_frame(&mut writer, &reply)?;
        writer.flush()?;
    }
    Ok(())
}

/// Room for the largest frame the daemon sends, a full chunk. With the
/// socket on `TCP_NODELAY` every `write` is a segment, so a frame must reach
/// the socket whole, not as its 18-byte head and then its data; a RESULT
/// whose trace is one short chunk (header, stats and trace) is one `write`.
const FRAME_BUF_LEN: usize = CHUNK_FRAME_OVERHEAD + CHUNK_LEN;

/// Length prefix (4), kind (1), job (8), channel (1), data length (4).
const CHUNK_FRAME_OVERHEAD: usize = 18;

/// Streams a terminal job back: header (exact lengths + checksum), stats
/// chunks and trace chunks. Returns the end marker, which the caller
/// writes as the reply.
fn stream_result<W: Write>(writer: &mut W, job: u64, fin: &Finished) -> io::Result<Frame> {
    write_frame(
        writer,
        &Frame::ResultHeader {
            job,
            phase: fin.phase,
            checksum: fin.output.checksum,
            stats_len: fin.output.stats.len() as u64,
            trace_len: fin.output.trace.len() as u64,
            times: fin.times,
        },
    )?;
    for (channel, bytes) in
        [(Channel::Stats, &fin.output.stats), (Channel::Trace, &fin.output.trace)]
    {
        for data in bytes.chunks(CHUNK_LEN) {
            write_chunk(writer, job, channel, data)?;
        }
    }
    if fin.phase == JobPhase::Failed && !fin.detail.is_empty() {
        // Failure detail rides after the (empty) payload so clients can
        // surface it; it is advisory and outside the checksum.
        write_frame(writer, &Frame::Error { detail: fin.detail.clone() })?;
    }
    Ok(Frame::ResultEnd { job })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::supervisor::model::{gated_run_job, Gate};
    use std::io::Read;
    use std::sync::Arc;
    use std::time::Instant;

    /// Starts a daemon on an ephemeral loopback port whose workers hold
    /// every job at `gate`; returns its address and the accept-loop thread.
    fn start_gated_server(
        workers: usize,
        queue_cap: usize,
        gate: &Arc<Gate>,
    ) -> (String, std::thread::JoinHandle<()>) {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            pool: SupervisorConfig { workers, queue_cap },
        };
        let run = gated_run_job(gate);
        let server =
            Server::bind_with(&config, IO_DEADLINE, |pool| Supervisor::start_with(pool, run))
                .expect("bind ephemeral loopback");
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            server.run().expect("server run");
        });
        (addr, handle)
    }

    fn spec(scenario: &str, seed: u64, ticks: u32) -> JobSpec {
        JobSpec { scenario: scenario.into(), seed, ticks, flags: 0 }
    }

    #[test]
    fn status_cancel_and_metrics_over_the_wire() {
        let gate = Arc::new(Gate::default());
        let (addr, server) = start_gated_server(1, 16, &gate);
        let mut client = Client::connect(&addr).unwrap();

        // Hold the single worker, then watch a queued job behind it.
        let long = client.submit(&spec("urban-epidemic", 1, 2_000)).unwrap().unwrap();
        let queued = client.submit(&spec("urban-greedy", 2, 2_000)).unwrap().unwrap();
        gate.wait_started(1);
        let (_, depth, times) = client.status(queued).unwrap();
        assert!(depth <= 1, "at most the long job is ahead");
        assert!(times.accepted_ns > 0);

        client.cancel(queued).unwrap();
        let result = client.fetch_result(queued).unwrap();
        assert_eq!(result.phase, JobPhase::Cancelled);
        assert!(result.stats.is_empty());

        client.cancel(long).unwrap();
        gate.open();
        let result = client.fetch_result(long).unwrap();
        assert_eq!(result.phase, JobPhase::Cancelled);

        let metrics = client.metrics().unwrap();
        assert!(metrics.contains("svc.submit"), "metrics JSON: {metrics}");
        assert!(metrics.contains("svc.cancel"), "metrics JSON: {metrics}");

        assert!(client.status(999).is_err(), "unknown job must error");
        assert!(client.cancel(999).is_err(), "unknown job must error");

        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn backpressure_rejections_reach_the_client() {
        let gate = Arc::new(Gate::default());
        let (addr, server) = start_gated_server(1, 1, &gate);
        let mut client = Client::connect(&addr).unwrap();
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for i in 0..16 {
            match client.submit(&spec("urban-epidemic", i, 400)).unwrap() {
                Ok(id) => accepted.push(id),
                Err((reason, _)) => {
                    assert_eq!(reason, vc_net::svc::RejectReason::QueueFull);
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 0, "a 1-slot queue must reject under a 16-job burst");
        gate.open();
        for id in accepted {
            assert_eq!(client.fetch_result(id).unwrap().phase, JobPhase::Done);
        }
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn a_stalled_client_loses_its_handler_within_the_deadline() {
        let deadline = Duration::from_millis(200);
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            pool: SupervisorConfig { workers: 1, queue_cap: 4 },
        };
        let server = Server::bind_with(&config, deadline, Supervisor::start).unwrap();
        let addr = server.local_addr().unwrap();
        let (ran, run) = std::sync::mpsc::channel();
        std::thread::spawn(move || ran.send(server.run().map_err(|e| e.to_string())));
        // A METRICS round trip on a raw stream whose own reads give up after
        // 5 s, so a daemon that never frees a handler fails the test.
        let metrics = |stream: &mut TcpStream| {
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write_frame(stream, &Frame::Metrics).unwrap();
            let reply = read_decode(stream).expect("a reply within 5 s");
            assert!(matches!(reply, Some(Frame::MetricsReply { .. })), "{reply:?}");
        };

        // Every handler takes a client that asks for METRICS, which shows it
        // holds a handler, then sends half a length prefix and falls silent;
        // the next connection waits for one of them.
        let stalled: Vec<TcpStream> = (0..HANDLERS)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).unwrap();
                metrics(&mut stream);
                stream.write_all(&[0, 0]).unwrap();
                stream
            })
            .collect();
        let t0 = Instant::now();
        let mut idle = TcpStream::connect(addr).unwrap();
        metrics(&mut idle);
        let waited = t0.elapsed();
        assert!(waited >= deadline / 2, "served after {waited:?}, before any handler freed up");
        assert!(waited < 10 * deadline, "served after {waited:?}");
        // The stalled clients were dropped unanswered.
        for mut stream in stalled {
            assert_eq!(stream.read(&mut [0; 64]).unwrap(), 0, "closed without a reply");
        }

        // SHUTDOWN waits at most one deadline for a client that holds its
        // handler and never speaks again, and ends the connection of one
        // that keeps talking.
        let mut chatty = TcpStream::connect(addr).unwrap();
        metrics(&mut chatty);
        let chatter = std::thread::spawn(move || {
            while write_frame(&mut chatty, &Frame::Metrics).is_ok()
                && matches!(read_decode(&mut chatty), Ok(Some(Frame::MetricsReply { .. })))
            {
                std::thread::sleep(deadline / 10);
            }
        });
        let t1 = Instant::now();
        Client::connect(addr).unwrap().shutdown().unwrap();
        let served = run.recv_timeout(Duration::from_secs(5)).expect("run returned");
        assert_eq!(served, Ok(HANDLERS as u64 + 3));
        assert!(t1.elapsed() < 10 * deadline, "run returned {:?} after SHUTDOWN", t1.elapsed());
        chatter.join().unwrap();
        drop(idle);
    }

    #[test]
    fn the_frame_buffer_holds_exactly_one_full_chunk_frame() {
        let mut frame = Vec::new();
        write_chunk(&mut frame, u64::MAX, Channel::Trace, &vec![0; CHUNK_LEN]).unwrap();
        assert_eq!(frame.len(), FRAME_BUF_LEN);
    }

    #[test]
    fn only_a_dead_listener_ends_the_accept_loop() {
        use io::ErrorKind::*;
        // EMFILE and ENFILE have no stable kind; take them from the OS code.
        let exhausted = [23, 24].map(|code| io::Error::from_raw_os_error(code).kind());
        for kind in [ConnectionAborted, ConnectionReset, Interrupted, PermissionDenied, OutOfMemory]
            .into_iter()
            .chain(exhausted)
        {
            assert!(!accept_error_is_fatal(kind), "{kind:?} must not stop the daemon");
        }
        for kind in [InvalidInput, Unsupported] {
            assert!(accept_error_is_fatal(kind), "{kind:?} cannot be retried");
        }
    }
}
