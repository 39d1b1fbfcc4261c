//! End-to-end tests over real loopback sockets: wire round-trips, the
//! determinism contract under concurrent load, and drain. Wire tests that
//! need a worker held busy (STATUS/CANCEL of a running job, backpressure)
//! are `server.rs` unit tests, which can hold it with a gated runner.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::thread;

use vc_net::svc::JobPhase;
use vc_net::svc::{read_decode, FLAG_TRACE};
use vc_service::client::Client;
use vc_service::job::{run_job, JobSpec};
use vc_service::loadgen::{run_load, LoadConfig, Mode};
use vc_service::server::{Server, ServerConfig};
use vc_service::supervisor::SupervisorConfig;

/// Starts a daemon on an ephemeral loopback port; returns its address
/// and the thread running the accept loop.
fn start_server(workers: usize, queue_cap: usize) -> (String, thread::JoinHandle<()>) {
    let config =
        ServerConfig { addr: "127.0.0.1:0".into(), pool: SupervisorConfig { workers, queue_cap } };
    let server = Server::bind(&config).expect("bind ephemeral loopback");
    let addr = server.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle)
}

fn spec(scenario: &str, seed: u64, ticks: u32, flags: u32) -> JobSpec {
    JobSpec { scenario: scenario.into(), seed, ticks, flags }
}

#[test]
fn daemon_result_is_byte_identical_to_in_process_run() {
    let (addr, server) = start_server(2, 16);
    let s = spec("urban-cluster", 42, 64, FLAG_TRACE);
    let reference = run_job(&s, None).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(&s).unwrap().expect("admitted");
    let result = client.fetch_result(job).unwrap();
    assert_eq!(result.phase, JobPhase::Done);
    assert_eq!(result.stats, reference.stats, "stats bytes must match in-process run");
    assert_eq!(result.trace, reference.trace, "trace bytes must match in-process run");
    assert_eq!(result.checksum, reference.checksum);
    assert!(!result.trace.is_empty(), "FLAG_TRACE must produce trace bytes");

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn concurrent_identical_jobs_all_return_identical_bytes() {
    // The tentpole's multi-tenancy claim: N copies of the same job racing
    // across the worker pool and different connections produce N
    // byte-identical results.
    let (addr, server) = start_server(4, 32);
    let s = spec("urban-epidemic", 7, 48, FLAG_TRACE);
    let reference = run_job(&s, None).unwrap();

    let results: Vec<_> = (0..8)
        .map(|_| {
            let (addr, s) = (addr.clone(), s.clone());
            thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let job = client.submit(&s).unwrap().expect("admitted");
                client.fetch_result(job).unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    assert_eq!(results.len(), 8);
    for r in &results {
        assert_eq!(r.phase, JobPhase::Done);
        assert_eq!(r.stats, reference.stats);
        assert_eq!(r.trace, reference.trace);
        assert_eq!(r.checksum, reference.checksum);
    }

    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn mixed_concurrent_load_does_not_leak_observability_between_jobs() {
    // Run different (scenario, seed) jobs concurrently with tracing on;
    // every result must still match its own isolated in-process run —
    // i.e. no tenant's Recorder sees another tenant's events.
    let (addr, server) = start_server(4, 32);
    let specs: Vec<JobSpec> = vec![
        spec("urban-epidemic", 1, 48, FLAG_TRACE),
        spec("urban-greedy", 2, 48, FLAG_TRACE),
        spec("highway-mozo", 3, 48, FLAG_TRACE),
        spec("canyon-greedy", 4, 48, FLAG_TRACE),
        spec("urban-epidemic", 5, 48, 0),
        spec("highway-epidemic", 6, 48, FLAG_TRACE),
    ];
    let handles: Vec<_> = specs
        .iter()
        .cloned()
        .map(|s| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let job = client.submit(&s).unwrap().expect("admitted");
                (s, client.fetch_result(job).unwrap())
            })
        })
        .collect();
    for h in handles {
        let (s, result) = h.join().unwrap();
        let reference = run_job(&s, None).unwrap();
        assert_eq!(result.stats, reference.stats, "{}/{}", s.scenario, s.seed);
        assert_eq!(result.trace, reference.trace, "{}/{}", s.scenario, s.seed);
        assert_eq!(result.checksum, reference.checksum);
    }
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.join().unwrap();
}

// The delayed-ACK timer and Nagle's rule for sub-MSS writes on a 64 KiB-MTU
// loopback are Linux's; other stacks stall differently or not at all.
#[cfg(target_os = "linux")]
#[test]
fn a_traced_result_does_not_wait_for_a_delayed_ack() {
    // This job's 45 KB trace is one chunk, smaller than loopback's segment. Sent
    // as a second small write after the RESULT header it waits for the
    // header's ACK, which an idle client delays 40 ms: without TCP_NODELAY
    // on the accepted socket five round trips in six took 40–55 ms. Median
    // of nine, so a host that hiccups twice still passes.
    let (addr, server) = start_server(1, 4);
    let mut client = Client::connect(&addr).unwrap();
    let mut walls: Vec<std::time::Duration> = (0..9)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let job = client.submit(&spec("urban-greedy", 1, 256, FLAG_TRACE)).unwrap().unwrap();
            let result = client.fetch_result(job).unwrap();
            assert_eq!(result.phase, JobPhase::Done);
            assert!(result.trace.len() < vc_net::svc::CHUNK_LEN, "one short chunk");
            t0.elapsed()
        })
        .collect();
    walls.sort_unstable();
    assert!(walls[4].as_millis() < 20, "median round trip {:?} of {walls:?}", walls[4]);
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn a_result_is_delivered_once_and_then_reported_gone() {
    let (addr, server) = start_server(1, 4);
    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(&spec("urban-greedy", 3, 32, 0)).unwrap().unwrap();
    assert_eq!(client.fetch_result(job).unwrap().phase, JobPhase::Done);

    let gone = |e: std::io::Error| e.to_string();
    for detail in [
        client.fetch_result(job).map(|_| ()).map_err(gone),
        client.status(job).map(|_| ()).map_err(gone),
        client.cancel(job).map_err(gone),
    ] {
        let detail = detail.expect_err("a delivered job is gone");
        assert!(detail.contains("delivered or evicted"), "detail: {detail}");
    }
    // An id the daemon never issued is still "unknown".
    let detail = client.status(999).unwrap_err().to_string();
    assert!(detail.contains("unknown job 999"), "detail: {detail}");

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn malformed_bytes_get_an_error_frame_not_a_crash() {
    let (addr, server) = start_server(1, 4);
    let mut stream = TcpStream::connect(&addr).unwrap();
    // A declared length beyond MAX_FRAME_LEN must be answered and the
    // connection closed without taking the daemon down.
    stream.write_all(&(u32::MAX).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    match read_decode(&mut reader) {
        Ok(Some(vc_net::svc::Frame::Error { detail })) => {
            assert!(detail.contains("protocol error"), "detail: {detail}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    // The daemon is still alive and serving.
    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(&spec("urban-epidemic", 1, 16, 0)).unwrap().unwrap();
    assert_eq!(client.fetch_result(job).unwrap().phase, JobPhase::Done);
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn loadgen_closed_and_open_loops_report_sane_numbers() {
    let (addr, server) = start_server(4, 64);
    let closed = LoadConfig {
        addr: addr.clone(),
        clients: 3,
        jobs_per_client: 4,
        mix: vec!["urban-epidemic".into(), "canyon-greedy".into()],
        ticks: 32,
        flags: 0,
        seed: 5,
        mode: Mode::Closed,
    };
    let report = run_load(&closed).unwrap();
    assert_eq!(report.submitted, 12);
    assert_eq!(report.completed, 12);
    assert_eq!(report.rejected, 0);
    // Every result was fetched, so the daemon holds none of them.
    let metrics = Client::connect(&addr).unwrap().metrics().unwrap();
    let metrics = vc_testkit::json::Json::parse(&metrics).unwrap();
    assert_eq!(metrics["gauges"]["svc.results.bytes"].as_f64(), Some(0.0), "{metrics:?}");
    assert!(report.jobs_per_sec > 0.0);
    assert!(report.e2e_us.p99 >= report.e2e_us.p50);
    // The JSON schema is fixed: every key present regardless of values.
    let json = report.to_json(&closed).to_string_compact();
    for key in
        ["\"submitted\"", "\"jobs_per_sec\"", "\"queue_us\"", "\"run_us\"", "\"e2e_us\"", "\"p99\""]
    {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }

    let open = LoadConfig { mode: Mode::Open { rate_hz: 200.0 }, ..closed };
    let report = run_load(&open).unwrap();
    assert_eq!(report.completed + report.failed + report.cancelled, report.accepted);
    assert!(report.completed > 0);

    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn run_job_rejects_bad_specs_and_honours_cancel() {
    assert!(run_job(&spec("nope", 1, 10, 0), None).is_err());
    assert!(run_job(&spec("urban-epidemic", 1, 0, 0), None).is_err());
    assert!(run_job(&spec("urban-epidemic", 1, 10, 0x8000_0000), None).is_err());
    let cancel = AtomicBool::new(true);
    let err = run_job(&spec("urban-epidemic", 1, 500, 0), Some(&cancel)).unwrap_err();
    assert_eq!(err, vc_service::job::JobError::Cancelled);
}
