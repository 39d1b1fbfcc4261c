//! # vc-net — VANET networking on top of the simulator
//!
//! The basic supporting architecture of the paper's §III-A/§IV-A.1:
//! neighbor-aware routing protocols ([`routing`]: epidemic, greedy
//! geographic, cluster backbone, moving-zone, street-aware) over lossy V2V
//! radio, signed beaconing ([`beacon`]), the `vcloudd` service frame
//! protocol ([`svc`]) over length-checked byte buffers ([`bytebuf`]), vehicle
//! clustering with incremental maintenance ([`cluster`]), and a packet-level
//! driver ([`netsim`]) measuring delivery ratio, latency, hops, and overhead
//! — the metrics experiments E8/E14 report.
//!
//! ## Example
//!
//! ```
//! use vc_net::netsim::NetSim;
//! use vc_net::routing::Epidemic;
//! use vc_sim::scenario::ScenarioBuilder;
//!
//! let mut builder = ScenarioBuilder::new();
//! builder.seed(1).vehicles(30);
//! let mut scenario = builder.urban_with_rsus();
//! let mut sim = NetSim::new(&mut scenario, Epidemic);
//! sim.send_random_pairs(5, 256, None);
//! sim.run_rounds(60);
//! assert!(sim.stats().sent == 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod beacon;
pub mod bytebuf;
pub mod cluster;
pub mod holders;
pub mod message;
pub mod netsim;
pub mod routing;
pub mod svc;
pub mod world;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::beacon::{
        sign_beacon, verify_beacon, Beacon, BeaconReject, BeaconStore, SignedBeacon,
    };
    pub use crate::bytebuf::{ByteReader, ByteWriter};
    pub use crate::cluster::{
        form_clusters, head_churn, maintain_clusters, ClusterConfig, Clustering,
    };
    pub use crate::message::{Outcome, Packet, PacketId, RoutingStats};
    pub use crate::netsim::NetSim;
    pub use crate::routing::{
        ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol, StreetAware,
    };
    pub use crate::svc::{
        read_decode, read_frame, write_frame, Channel as SvcChannel, Frame, FrameError, JobPhase,
        JobTimes, RejectReason, CHUNK_LEN, FLAG_TRACE, MAX_FRAME_LEN,
    };
    pub use crate::world::WorldView;
}
