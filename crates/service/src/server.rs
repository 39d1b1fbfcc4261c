//! The `vcloudd` TCP front end: accept loop, per-connection handlers,
//! result streaming, and graceful shutdown.
//!
//! Networking is plain `std::net` over loopback by default — the daemon is
//! an in-lab scenario service, not an internet-facing one. Each accepted
//! connection gets its own handler thread speaking [`vc_net::svc`] frames;
//! all of them share one [`SupervisorHandle`].

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use vc_net::svc::{read_decode, write_chunk, write_frame, Channel, Frame, JobPhase, CHUNK_LEN};

use crate::job::JobSpec;
use crate::supervisor::{Finished, Supervisor, SupervisorConfig, SupervisorHandle};

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
    shutdown: Arc<AtomicBool>,
    active_conns: Arc<AtomicU64>,
}

impl Server {
    /// Binds the listener and starts the worker pool.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        Server::bind_with(config, Supervisor::start)
    }

    /// [`Server::bind`] with the pool `start` builds once the listener is
    /// bound.
    fn bind_with(
        config: &ServerConfig,
        start: impl FnOnce(SupervisorConfig) -> Supervisor,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            supervisor: start(config.pool),
            shutdown: Arc::new(AtomicBool::new(false)),
            active_conns: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until SHUTDOWN: accepts, spawns one handler
    /// thread per connection, and after the drain joins the worker pool.
    /// Returns the number of connections served.
    pub fn run(self) -> io::Result<u64> {
        let addr = self.listener.local_addr()?;
        let mut served = 0u64;
        let mut fatal = None;
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) if accept_error_is_fatal(e.kind()) => {
                    fatal = Some(e);
                    break;
                }
                Err(e) => {
                    // Out of descriptors (EMFILE/ENFILE have no stable
                    // `ErrorKind`; they arrive as uncategorised errors):
                    // handlers ending is what frees them, so wait for that
                    // instead of spinning on the error.
                    if !matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) {
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                    continue;
                }
            };
            served += 1;
            self.active_conns.fetch_add(1, Ordering::SeqCst);
            let sup = self.supervisor.handle();
            let shutdown = Arc::clone(&self.shutdown);
            let conns = Arc::clone(&self.active_conns);
            std::thread::spawn(move || {
                let _ = handle_conn(stream, &sup, &shutdown, addr);
                conns.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // SHUTDOWN's Okay is only sent after the drain, so every admitted
        // job is terminal here and joining the pool is instant; after a
        // fatal accept error this is where the admitted jobs finish.
        self.supervisor.drain();
        // Give in-flight responses on other connections a bounded window
        // to finish streaming before the process (in the binary) exits.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while self.active_conns.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(served),
        }
    }
}

/// How long the accept loop waits after an error that will repeat until a
/// connection closes.
const ACCEPT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(50);

/// Does an `accept` error mean the listener itself is unusable? Only when
/// the socket is not listening (`EINVAL`) or cannot accept at all
/// (`EOPNOTSUPP`): retrying those would spin. Everything else belongs to the
/// one connection that failed to arrive (reset while it queued, refused by a
/// firewall, the call interrupted by a signal) or to a shortage that passes
/// (descriptors, buffers), and the daemon keeps serving.
fn accept_error_is_fatal(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::InvalidInput | io::ErrorKind::Unsupported)
}

/// Serves one connection: a loop of client frames, each answered in
/// order on the same stream.
fn handle_conn(
    stream: TcpStream,
    sup: &SupervisorHandle,
    shutdown: &AtomicBool,
    server_addr: std::net::SocketAddr,
) -> io::Result<()> {
    // Without this a RESULT's second segment waits for the ACK of its
    // first, which the client — it has nothing to send — delays 40 ms.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(FRAME_BUF_LEN, stream);
    loop {
        let frame = match read_decode(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // client closed cleanly
            Err(e) => {
                // Protocol violation: answer once, then drop the
                // connection (the stream may be unsynchronized).
                let detail = format!("protocol error: {e}");
                let _ = write_frame(&mut writer, &Frame::Error { detail });
                let _ = writer.flush();
                return Ok(());
            }
        };
        match frame {
            Frame::Submit { scenario, seed, ticks, flags } => {
                let spec = JobSpec { scenario, seed, ticks, flags };
                let reply = match sup.submit(spec) {
                    Ok(job) => Frame::Accepted { job },
                    Err((reason, detail)) => Frame::Rejected { reason, detail },
                };
                write_frame(&mut writer, &reply)?;
            }
            Frame::Status { job } => {
                let reply = match sup.status(job) {
                    Ok((phase, queue_depth, times)) => {
                        Frame::JobStatus { job, phase, queue_depth, times }
                    }
                    Err(missing) => Frame::Error { detail: missing.detail(job) },
                };
                write_frame(&mut writer, &reply)?;
            }
            Frame::Result { job } => match sup.wait_result(job) {
                Ok(fin) => stream_result(&mut writer, job, &fin)?,
                Err(missing) => {
                    write_frame(&mut writer, &Frame::Error { detail: missing.detail(job) })?
                }
            },
            Frame::Cancel { job } => {
                let reply = match sup.cancel(job) {
                    Ok(()) => Frame::Okay,
                    Err(missing) => Frame::Error { detail: missing.detail(job) },
                };
                write_frame(&mut writer, &reply)?;
            }
            Frame::Metrics => {
                write_frame(&mut writer, &Frame::MetricsReply { json: sup.metrics_json() })?;
            }
            Frame::Shutdown => {
                // Drain first so Okay certifies "every admitted job is
                // terminal", then wake the accept loop with a loopback
                // connect so Server::run can exit.
                sup.begin_drain();
                write_frame(&mut writer, &Frame::Okay)?;
                writer.flush()?;
                shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(server_addr);
                return Ok(());
            }
            other => {
                let detail = format!("unexpected client frame: {other:?}");
                write_frame(&mut writer, &Frame::Error { detail })?;
            }
        }
        writer.flush()?;
    }
}

/// Room for the largest frame the daemon sends, a full chunk. With the
/// socket on `TCP_NODELAY` every `write` is a segment, so a frame must reach
/// the socket whole, not as its 18-byte head and then its data; a RESULT
/// whose trace is one short chunk (header, stats and trace) is one `write`.
const FRAME_BUF_LEN: usize = CHUNK_FRAME_OVERHEAD + CHUNK_LEN;

/// Length prefix (4), kind (1), job (8), channel (1), data length (4).
const CHUNK_FRAME_OVERHEAD: usize = 18;

/// Streams a terminal job back: header (exact lengths + checksum), stats
/// chunks, trace chunks, end marker.
fn stream_result<W: Write>(writer: &mut W, job: u64, fin: &Finished) -> io::Result<()> {
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
    write_frame(writer, &Frame::ResultEnd { job })?;
    Ok(())
}

/// Convenience for tests and the binary: bind + report + run.
pub fn bind_and_announce(config: &ServerConfig) -> io::Result<(Server, std::net::SocketAddr)> {
    let server = Server::bind(config)?;
    let addr = server.local_addr()?;
    Ok((server, addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::supervisor::model::{gated_run_job, Gate};

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
        let server = Server::bind_with(&config, |pool| Supervisor::start_with(pool, run))
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
