//! Integration: the extension modules working together — secure beaconing
//! feeding clustering, encrypted checkpoint handover between scheduler
//! hosts, directory-driven placement, verifiable execution with reputation
//! feedback, batch-verified beacon floods.

use std::collections::BTreeMap;
use vcloud::cloud::handover::{open_checkpoint, seal_checkpoint, Checkpoint};
use vcloud::cloud::verify::{adjudicate, honest_digest, Adjudication, ResultReceipt};
use vcloud::crypto::dh::EphemeralSecret;
use vcloud::crypto::schnorr::{verify_batch, Signature, SigningKey, VerifyingKey};
use vcloud::net::beacon::{sign_beacon, Beacon, BeaconStore};
use vcloud::prelude::*;

#[test]
fn signed_beacon_flood_batch_verifies() {
    // 30 vehicles beacon once; the receiver batch-verifies the whole flood,
    // then ingests into the store — the batch fast path end to end.
    let keys: Vec<SigningKey> = (0..30u8).map(|i| SigningKey::from_seed(&[i, 1])).collect();
    let now = SimTime::from_secs(10);
    let beacons: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let b = Beacon {
                sender: VehicleId(i as u32),
                pos: Point::new(i as f64 * 10.0, 0.0),
                vel: Point::new(13.0, 0.0),
                sent_at: now,
            };
            sign_beacon(b, k)
        })
        .collect();

    // Batch path: reconstruct the signed bytes exactly as the beacon module
    // does (via verify_beacon equivalence on each item first).
    for (i, sb) in beacons.iter().enumerate() {
        assert!(vcloud::net::beacon::verify_beacon(sb, &keys[i].verifying_key()));
    }
    // And the underlying signatures batch-verify as one multi-exponentiation.
    let payloads: Vec<Vec<u8>> = beacons
        .iter()
        .map(|sb| {
            // The beacon byte encoding is private; sign an equal payload to
            // exercise verify_batch at flood scale.
            sb.beacon.sender.0.to_be_bytes().to_vec()
        })
        .collect();
    let items: Vec<(Vec<u8>, VerifyingKey, Signature)> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), keys[i].verifying_key(), keys[i].sign(p)))
        .collect();
    let refs: Vec<(&[u8], VerifyingKey, Signature)> =
        items.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
    assert_eq!(verify_batch(&refs, b"flood"), Ok(()));

    // Store ingestion gives the verified neighbor view.
    let mut store = BeaconStore::new(SimDuration::from_secs(1));
    for (i, sb) in beacons.iter().enumerate() {
        store.ingest(sb, &keys[i].verifying_key(), now).unwrap();
    }
    assert_eq!(store.len(), 30);
}

#[test]
fn checkpoint_survives_host_hop_and_feeds_scheduler_state() {
    // Host A runs half a task, seals a checkpoint to host B, B opens it and
    // the scheduler-level progress number carries over.
    let b_secret = EphemeralSecret::from_seed(b"host-b-longterm");
    let cp = Checkpoint { task: TaskId(5), done_gflop: 250.0, state: vec![9u8; 2048] };
    let sealed = seal_checkpoint(&cp, VehicleId(1), VehicleId(2), &b_secret.public_share(), 77);
    // ... radio transfer (cost = sealed.wire_len() bytes) ...
    assert!(sealed.wire_len() > 2048);
    let received = open_checkpoint(&sealed, &b_secret).expect("B opens");
    assert_eq!(received.done_gflop, 250.0);

    // B resumes: remaining work only.
    let spec = TaskSpec::compute(TaskId(5), 400.0);
    let remaining = spec.work_gflop - received.done_gflop;
    assert_eq!(remaining, 150.0);
}

#[test]
fn directory_feeds_scheduler_hosts() {
    let mut dir = vcloud::cloud::directory::ResourceDirectory::new();
    for i in 0..6u32 {
        let res = if i < 3 { Resources::high_end() } else { Resources::modest() };
        let level = if i < 3 { SaeLevel::L5 } else { SaeLevel::L2 };
        dir.register(VehicleId(i), res, level);
    }
    // A lidar-requiring task can only land on the high-end trio.
    let req = vcloud::cloud::directory::Requirement {
        min_cpu_gflops: 50.0,
        min_automation: Some(SaeLevel::L3),
        sensors: SensorSuite { lidar: true, ..SensorSuite::default() },
        ..Default::default()
    };
    let eligible = dir.query(&req);
    assert_eq!(eligible.len(), 3);

    // Turn the query result into scheduler hosts and run a job.
    let hosts: Vec<HostInfo> = eligible
        .iter()
        .map(|&id| HostInfo {
            id,
            cpu_gflops: dir.free_cpu(id),
            automation: SaeLevel::L5,
            stay_estimate_s: 600.0,
        })
        .collect();
    let mut sched = Scheduler::new(SchedulerConfig::default());
    for i in 0..3 {
        sched.submit(TaskSpec::compute(TaskId(i), 100.0), SimTime::ZERO);
    }
    let mut now = SimTime::ZERO;
    for _ in 0..5 {
        now += SimDuration::from_secs(1);
        sched.tick(now, 1.0, &hosts, None);
    }
    assert_eq!(sched.stats().completed, 3);
}

#[test]
fn verifiable_execution_feeds_reputation() {
    // Adjudication dissenters become reputation evidence; after a few jobs
    // the trust layer discounts the cheater.
    let keys: Vec<SigningKey> = (0..3u8).map(|i| SigningKey::from_seed(&[i, 2])).collect();
    let directory: BTreeMap<VehicleId, VerifyingKey> =
        keys.iter().enumerate().map(|(i, k)| (VehicleId(i as u32), k.verifying_key())).collect();
    let mut reputation = ReputationStore::new();
    for job in 0..6u64 {
        let receipts: Vec<ResultReceipt> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let payload: &[u8] = if i == 2 { b"cheat" } else { b"ok" };
                ResultReceipt::sign(job, VehicleId(i as u32), payload, SimTime::from_secs(job), k)
            })
            .collect();
        match adjudicate(&receipts, &directory) {
            Adjudication::Accepted { result, dissenters } => {
                assert_eq!(result, honest_digest(b"ok"));
                for d in &dissenters {
                    reputation.record(d.0 as u64, false);
                }
                for h in 0..3u64 {
                    if !dissenters.contains(&VehicleId(h as u32)) {
                        reputation.record(h, true);
                    }
                }
            }
            Adjudication::Inconclusive => panic!("majority exists"),
        }
    }
    assert!(reputation.reliability(2) < 0.2, "cheater discounted");
    assert!(reputation.reliability(0) > 0.8, "honest hosts credited");
}

#[test]
fn provenance_trust_integrates_with_node_history() {
    use vcloud::trust::provenance::{
        multi_path_trust, NodeTrust, ProvenanceConfig, ProvenancePath,
    };
    // Node trust bootstrapped from verifiable-execution outcomes above:
    let mut nodes = NodeTrust::new();
    nodes.set(VehicleId(0), 0.9);
    nodes.set(VehicleId(1), 0.9);
    nodes.set(VehicleId(2), 0.1); // the known cheater relays too
    let cfg = ProvenanceConfig::default();
    let clean = ProvenancePath::new(VehicleId(0), &[VehicleId(1)]);
    let dirty = ProvenancePath::new(VehicleId(0), &[VehicleId(2)]);
    let clean_trust = multi_path_trust(std::slice::from_ref(&clean), &nodes, &cfg);
    let dirty_trust = multi_path_trust(std::slice::from_ref(&dirty), &nodes, &cfg);
    assert!(clean_trust > 3.0 * dirty_trust);
    // Corroboration over both paths beats the dirty path alone but cannot
    // exceed 1.
    let both = multi_path_trust(&[clean, dirty], &nodes, &cfg);
    assert!(both > dirty_trust && both <= 1.0);
}
