//! # vc-sim — tick-driven VANET simulation substrate
//!
//! The simulation substrate for the `vcloud` workspace: a virtual clock
//! advanced in fixed ticks ([`scenario::Scenario::tick`]), planar geometry,
//! synthetic road networks, mobility models for the three vehicular-cloud
//! regimes (parked, urban, highway), and a probabilistic V2V radio with
//! roadside units and a cellular uplink.
//!
//! Everything is deterministic given a seed: the RNG is a self-contained
//! xoshiro256**, and mobility uses fixed integer-microsecond time.
//!
//! The crate carries no instrumentation: it sits below `vc-obs`, whose
//! `tick_scenario` wraps [`scenario::Scenario::tick`] in the `sim.tick`
//! profiler frame and the `sim`/`tick` trace event.
//!
//! ## Example
//!
//! ```
//! use vc_sim::prelude::*;
//!
//! // A 50-vehicle urban scenario with RSUs, advanced for 30 simulated seconds.
//! let mut builder = ScenarioBuilder::new();
//! builder.seed(7).vehicles(50);
//! let mut scenario = builder.urban_with_rsus();
//! scenario.run_ticks(60);
//! let neighbors = scenario.neighbor_table();
//! assert!(neighbors.mean_degree() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod geom;
pub mod mobility;
pub mod node;
pub mod radio;
pub mod rng;
pub mod roadnet;
pub mod scenario;
pub mod shard;
pub mod time;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::geom::{Point, Rect, Segment, SpatialGrid};
    pub use crate::mobility::{idm_acceleration, Fleet, IdmParams, Mobility, Vehicle};
    pub use crate::node::{
        Kinematics, Resources, SaeLevel, SensorSuite, VehicleId, VehicleProfile,
    };
    pub use crate::radio::{Cellular, Channel, NeighborTable, Rsu, RsuId, RsuNetwork};
    pub use crate::rng::SimRng;
    pub use crate::roadnet::{NodeId, RoadId, RoadNetwork};
    pub use crate::scenario::{CanyonModel, Regime, Scenario, ScenarioBuilder};
    pub use crate::shard::ShardPlan;
    pub use crate::time::{SimDuration, SimTime};
}
