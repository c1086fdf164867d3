//! # cryowire-noc
//!
//! Cycle-level network-on-chip simulation for cryogenic computing
//! (Section 5 of the paper) — the BookSim substitute.
//!
//! The crate models every NoC the paper evaluates on the 64-core CPU
//! (Fig. 15): the router-based **Mesh**, **Concentrated Mesh** and
//! **Flattened Butterfly** (1-cycle and 3-cycle routers), the bidirectional
//! **Shared bus**, the **H-tree bus**, and the paper's proposed
//! **CryoBus** — an H-tree snooping bus with a central matrix arbiter and
//! dynamic link connection — plus k-way address interleaving and the
//! 256-core hybrid CryoBus of Section 7.3.
//!
//! Contention is simulated with a resource-reservation engine
//! ([`sim`]): each packet claims the links/bus segments along its path in
//! injection order, which reproduces zero-load latency exactly and
//! saturation behaviour faithfully enough for the paper's load–latency
//! comparisons.
//!
//! ```
//! use cryowire_device::Temperature;
//! use cryowire_noc::{CryoBus, SharedBus};
//!
//! let t77 = Temperature::liquid_nitrogen();
//! let cryobus = CryoBus::new(64, t77);
//! let shared = SharedBus::new(64, t77);
//! // CryoBus reaches the 1-cycle broadcast the shared bus cannot.
//! assert!(cryobus.occupancy_cycles() < shared.occupancy_cycles());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod cryobus;
pub mod deadlock;
pub mod error;
pub mod flit;
pub mod hybrid;
pub mod link;
pub mod load_latency;
pub mod route_cache;
pub mod router;
pub mod router_timing;
pub mod sim;
pub mod topology;
pub mod traffic;

pub use bus::{BusKind, SharedBus};
pub use cryobus::{CryoBus, MatrixArbiter};
pub use deadlock::{xy_route, yx_route, ChannelDependencyGraph, DetourPolicy, DetourRouter};
pub use error::{NocError, SimError};
pub use flit::{flit_load_latency, FlitConfig, FlitNetwork, FlitSimResult};
pub use hybrid::HybridCryoBus;
pub use link::LinkModel;
pub use load_latency::{
    LoadLatencyCurve, LoadLatencyPoint, LoadLatencySweep, WorkloadBand, WORKLOAD_BANDS,
};
pub use route_cache::PathTable;
pub use router::{NextHopTable, RouterClass, RouterNetwork};
pub use router_timing::{RouterStage, RouterTimingModel};
pub use sim::{Network, PacketLeg, SimConfig, SimResult, SimScratch, Simulator};
pub use topology::{NocKind, Topology};
pub use traffic::TrafficPattern;
