//! The service determinism contract, enforced against the real `vcloudd`
//! binary: N identical jobs submitted concurrently from separate client
//! threads return byte-identical RESULT payloads — identical to each
//! other and to the in-process [`run_job`] reference.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::thread;

use vc_net::svc::{fnv1a64, JobPhase, FLAG_TRACE};
use vc_service::client::Client;
use vc_service::job::{run_job, JobSpec};

struct Daemon {
    child: Child,
    addr: String,
}

/// Spawns `vcloudd`, parses the announced address.
fn spawn_daemon(workers: usize) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vcloudd"))
        .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn vcloudd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("vcloudd announces its address").unwrap();
    let addr = banner
        .strip_prefix("vcloudd listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    // Keep draining stdout so the daemon never blocks on a full pipe.
    thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    Daemon { child, addr }
}

impl Daemon {
    fn stop(mut self) {
        let mut client = Client::connect(&self.addr).expect("connect for shutdown");
        client.shutdown().expect("graceful drain");
        let status = self.child.wait().expect("wait vcloudd");
        assert!(status.success(), "vcloudd must exit 0 after drain, got {status:?}");
    }
}

/// Submits `n` copies of `spec` concurrently, one client thread each,
/// and returns the (stats, trace, checksum) triples.
fn submit_burst(addr: &str, spec: &JobSpec, n: usize) -> Vec<(Vec<u8>, Vec<u8>, u64)> {
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let (addr, spec) = (addr.to_string(), spec.clone());
            thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let job = client.submit(&spec).unwrap().expect("admitted");
                let r = client.fetch_result(job).unwrap();
                assert_eq!(r.phase, JobPhase::Done);
                (r.stats, r.trace, r.checksum)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn concurrent_results_are_byte_identical_to_the_in_process_run() {
    let spec =
        JobSpec { scenario: "urban-epidemic".into(), seed: 1234, ticks: 48, flags: FLAG_TRACE };
    let reference = run_job(&spec, None).unwrap();
    assert!(!reference.trace.is_empty());

    let daemon = spawn_daemon(4);
    let results = submit_burst(&daemon.addr, &spec, 8);
    assert_eq!(results.len(), 8);
    for (stats, trace, checksum) in &results {
        assert_eq!(stats, &reference.stats, "daemon stats differ from in-process run");
        assert_eq!(trace, &reference.trace, "daemon trace differs from in-process run");
        assert_eq!(*checksum, reference.checksum);
    }
    daemon.stop();
}

#[test]
fn interleaved_mixed_jobs_stay_independent_under_contention() {
    // Two different job identities interleaved across 8 submitting
    // threads on a 2-worker daemon: every result must match its own
    // reference, proving neither concurrency nor submission order leaks
    // into the payload.
    let spec_a = JobSpec { scenario: "highway-mozo".into(), seed: 9, ticks: 40, flags: FLAG_TRACE };
    let spec_b = JobSpec { scenario: "urban-greedy".into(), seed: 10, ticks: 56, flags: 0 };
    let ref_a = run_job(&spec_a, None).unwrap();
    let ref_b = run_job(&spec_b, None).unwrap();

    let daemon = spawn_daemon(2);
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let addr = daemon.addr.clone();
            let spec = if i % 2 == 0 { spec_a.clone() } else { spec_b.clone() };
            thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let job = client.submit(&spec).unwrap().expect("admitted");
                (i, client.fetch_result(job).unwrap())
            })
        })
        .collect();
    for h in handles {
        let (i, r) = h.join().unwrap();
        let reference = if i % 2 == 0 { &ref_a } else { &ref_b };
        assert_eq!(r.stats, reference.stats, "submitter {i}");
        assert_eq!(r.trace, reference.trace, "submitter {i}");
        assert_eq!(r.checksum, reference.checksum, "submitter {i}");
    }
    daemon.stop();
}

/// `(scenario, seed, trace length, fnv1a64(trace), fnv1a64(stats.json minus
/// its heap_bytes line))` for every catalogue id × seeds {1, 1234} × 256
/// ticks × `FLAG_TRACE`, recorded at PR 19 (427ed6f). `heap_bytes` is derived
/// from buffer capacities, so it is the one value an optimisation may move;
/// everything the simulation computes is pinned here.
const PINNED: &[(&str, u64, usize, u64, u64)] = &[
    ("urban-epidemic", 1, 335292, 0x887692692913f42b, 0xb6127754f732c4b3),
    ("urban-epidemic", 1234, 345534, 0x270fa1ff78e26f09, 0x62e261a4884ef66d),
    ("urban-greedy", 1, 45226, 0xeeb4cac95a8b6d60, 0xc087081286957157),
    ("urban-greedy", 1234, 64061, 0xc7906188824fe319, 0xeba26ed4569c06f3),
    ("urban-cluster", 1, 49378, 0xa3a1658c3a02c9ee, 0x5660306e267445d1),
    ("urban-cluster", 1234, 74167, 0x059d5171a9362af5, 0xb6f1608b5ff7f8fb),
    ("highway-epidemic", 1, 366169, 0x98158a6d484b5e92, 0x8de70cee5056541e),
    ("highway-epidemic", 1234, 341427, 0xc6c7b0ab7ec72539, 0x2567e14e2570580a),
    ("highway-mozo", 1, 64082, 0x735d7f2eb63aba36, 0x2f572d3af4f375a6),
    ("highway-mozo", 1234, 62156, 0x007f8415ffe5477d, 0xb643b9c74da57027),
    ("canyon-greedy", 1, 134731, 0x0d5bcd922b67fb5b, 0x60732f78abc62b79),
    ("canyon-greedy", 1234, 137751, 0xe9d75a4b77a876bd, 0x7b523ee138696925),
];

#[test]
fn catalogue_jobs_return_the_pinned_bytes() {
    let mut seen = Vec::new();
    for entry in vc_service::job::SCENARIOS {
        for seed in [1, 1234] {
            let spec = JobSpec { scenario: entry.id.into(), seed, ticks: 256, flags: FLAG_TRACE };
            let out = run_job(&spec, None).unwrap();
            let stats = String::from_utf8(out.stats).unwrap();
            assert_eq!(stats.matches("\"heap_bytes\"").count(), 1, "{stats}");
            let simulated: Vec<&[u8]> = stats
                .split_inclusive('\n')
                .filter(|line| !line.contains("\"heap_bytes\""))
                .map(str::as_bytes)
                .collect();
            seen.push((
                entry.id,
                seed,
                out.trace.len(),
                fnv1a64(&[&out.trace]),
                fnv1a64(&simulated),
            ));
        }
    }
    assert_eq!(seen, PINNED, "simulated bytes moved");
}
