//! The benchmark's contract in code: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root says the same, and a self-test holds the two together.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for a per-layer metric, which has no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// What `--seconds` is when the command line does not say.
pub const RUN_SECONDS: u64 = 24;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "city-secure",
        "10 000-vehicle secure-beacon city tick: large-fleet vc_sim/vc_net cost does most of the work, crypto about 40 %",
    ),
    (
        "beacon-auth",
        "reception windows with no simulator: vc_crypto/vc_auth do all the work; sign|verify, valid|forged, cold|warm CRL, full|resumed handshake side by side",
    ),
    (
        "cloud-pipeline",
        "the paper's Fig. 3 chain on a Fig. 4 dynamic cloud: the only path into vc_cloud, vc_access and vc_trust",
    ),
    (
        "svc-mix",
        "closed-loop vcload-shaped jobs against an in-process vcloudd: no crypto, small fleets, frame codec and queue",
    ),
];

pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "op/s", "higher", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("op_p95_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

pub const PER_LAYER: [Metric; 48] = [
    // city-secure
    layer("sim.mobility.step_ms", "ms", "lower"),
    layer("sim.shard.step_speedup_2", "ratio", "higher"),
    layer("sim.neighbor.rebuild_ms", "ms", "lower"),
    layer("sim.neighbor.mean_degree", "count", "lower"),
    layer("net.cluster.form_ms", "ms", "lower"),
    layer("net.round.ms", "ms", "lower"),
    layer("net.round.rest_ms", "ms", "lower"),
    layer("net.round.transmissions", "count", "lower"),
    layer("net.round.delivered", "count", "higher"),
    // city-secure and beacon-auth: the per-message budget row
    layer("crypto.sign.us", "us", "lower"),
    layer("net.beacon.ingest_us_per_beacon", "us", "lower"),
    layer("net.beacon.accepted_share", "ratio", "higher"),
    // beacon-auth
    layer("net.beacon.fallback_us_per_beacon", "us", "lower"),
    layer("net.beacon.culprit_exact_share", "ratio", "higher"),
    layer("crypto.keygen.us", "us", "lower"),
    layer("auth.pseudonym.sign_us", "us", "lower"),
    layer("auth.pseudonym.verify_cold_us", "us", "lower"),
    layer("auth.pseudonym.verify_warm_us", "us", "lower"),
    layer("auth.crl.memo_hit_share", "ratio", "higher"),
    layer("auth.revoked.rejected_share", "ratio", "higher"),
    layer("auth.handshake.full_ms", "ms", "lower"),
    layer("auth.handshake.resume_us", "us", "lower"),
    layer("auth.handshake.resume_share", "ratio", "higher"),
    // cloud-pipeline
    layer("cloud.tick_ms", "ms", "lower"),
    layer("cloud.tasks.completed", "count", "higher"),
    layer("cloud.tasks.handovers", "count", "lower"),
    layer("auth.admit_ms", "ms", "lower"),
    layer("access.proof_us", "us", "lower"),
    layer("access.authorize_ms", "ms", "lower"),
    layer("access.deny_ms", "ms", "lower"),
    layer("access.denied_exact_share", "ratio", "higher"),
    layer("access.audit.len", "count", "lower"),
    layer("trust.validate_us", "us", "lower"),
    // svc-mix
    layer("service.submit_us", "us", "lower"),
    layer("service.queue_ms", "ms", "lower"),
    layer("service.run_ms", "ms", "lower"),
    layer("service.worker_busy_share", "ratio", "higher"),
    layer("service.stream_ms", "ms", "lower"),
    layer("service.plain.p50_ms", "ms", "lower"),
    layer("service.traced.p50_ms", "ms", "lower"),
    layer("service.traced.bytes_per_job", "B", "lower"),
    layer("service.inproc.run_ms", "ms", "lower"),
    layer("service.rejected", "count", "lower"),
    layer("service.failed", "count", "lower"),
    layer("service.checksum_mismatch", "count", "lower"),
    layer("service.metrics.jobs_done", "count", "higher"),
    // every workload
    layer("trace.overhead_share", "ratio", "lower"),
    layer("span.coverage_share", "ratio", "higher"),
];
