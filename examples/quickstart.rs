//! Quickstart: provision a vehicle, form a dynamic v-cloud, run a secure
//! job through the full Fig. 3 pipeline.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use vcloud::access::policy::{Action, Context, Expr, Policy, Role};
use vcloud::access::prelude::{Attributes, DataPackage};
use vcloud::auth::token::ServiceId;
use vcloud::cloud::prelude::*;
use vcloud::crypto::schnorr::SigningKey;
use vcloud::prelude::{Point, SaeLevel, ScenarioBuilder, SimTime, VehicleId};

fn main() {
    println!("== vcloud quickstart ==\n");

    // 1. A 40-vehicle urban scenario; the dynamic architecture elects a
    //    broker from the largest self-organized cluster.
    let mut builder = ScenarioBuilder::new();
    builder.seed(2024).vehicles(40);
    let mut cloud = CloudSim::new(
        builder.urban_with_rsus(),
        ArchitectureKind::Dynamic,
        SchedulerConfig::default(),
        Kinematic,
    );
    cloud.run_ticks(10, None);
    let membership = cloud.membership();
    println!(
        "dynamic v-cloud formed: {} members, broker {:?}",
        membership.members.len(),
        membership.broker
    );

    // 2. Submit a compute job and let the cloud work.
    let tasks = cloud.submit_batch(12, 400.0, None);
    println!("submitted {} tasks of 400 GFLOP each", tasks.len());
    cloud.run_ticks(400, None);
    let stats = cloud.scheduler().stats();
    println!(
        "completed {}/{} tasks, mean turnaround {:.1}s, {} handovers, {:.1} MB moved\n",
        stats.completed,
        tasks.len(),
        stats.mean_turnaround_s(),
        stats.handovers,
        stats.network_mb
    );

    // 3. The secure pipeline: identity -> token -> policy-gated data access.
    let mut pipeline = SecurePipeline::new(b"quickstart-domain");
    let now = SimTime::from_secs(30);
    let attrs = Attributes {
        role: Role::Storage,
        automation: SaeLevel::L4,
        storage_provider: true,
        compute_provider: true,
    };
    let creds = pipeline.provision(VehicleId(3), attrs, now).expect("provisioning");
    println!("vehicle v3 provisioned: pseudonym pool ready, attributes certified");

    let hello = creds.wallet.sign(b"hello, cloud", now);
    let token = pipeline.admit(&hello, ServiceId(1), now).expect("admission");
    println!("admitted pseudonymously; service token expires at {}", token.expires_at);

    let owner = SigningKey::from_seed(b"data-owner");
    let policy = Policy::new()
        .allow(Action::Read, Expr::HasRole(Role::Storage))
        .allow_in_emergency(Action::Read, Expr::True);
    let mut package =
        DataPackage::seal_new(1, b"hd-map tile #451", policy, &owner, &pipeline.tpd_share(), 7);
    let ctx = Context::member_at(Point::new(10.0, 10.0), now);
    let proof = SecurePipeline::make_proof(&creds, 1, now);
    let data = pipeline
        .authorize(&mut package, Action::Read, &token, ServiceId(1), &proof, &ctx)
        .expect("authorized read");
    println!(
        "policy-gated read returned {} bytes; audit log holds {} chained record(s)",
        data.len(),
        package.audit.len()
    );
    assert!(package.audit.verify(None));
    println!("\nquickstart complete.");
}
