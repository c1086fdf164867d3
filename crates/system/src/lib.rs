//! # cryowire-system
//!
//! System-level performance modelling of the 64-core cryogenic computer —
//! the Gem5+Garnet substitute behind Fig. 3, 17, 23, 24 and 27.
//!
//! Real PARSEC/SPEC binaries cannot run here, so each workload is a
//! calibrated profile (base CPI, L2 MPKI, L3 miss ratio, barrier rate)
//! drawn from the paper's own characterisation. The simulator composes
//! per-instruction time from four mechanisms:
//!
//! * **core time** — base CPI over the design's clock and IPC factor
//!   (Table 3),
//! * **memory time** — L2-miss traffic through the L3/DRAM paths of
//!   [`cryowire_memory`], with NoC latency *including contention* from the
//!   queueing model in [`contention`] (self-consistently iterated, since
//!   faster cores inject more traffic),
//! * **synchronisation time** — barrier cost, where snooping buses
//!   pipeline the barrier line while directory meshes ping-pong it,
//! * **prefetcher traffic** — the aggressive stride prefetcher of
//!   Section 7.1 multiplies NoC traffic for the SPEC rate-mode runs.
//!
//! ```
//! use cryowire_system::{SystemDesign, SystemSimulator, Workload};
//!
//! let sim = SystemSimulator::new();
//! let base = sim.evaluate(&Workload::parsec()[0], &SystemDesign::baseline_300k());
//! let cryo = sim.evaluate(&Workload::parsec()[0], &SystemDesign::cryosp_cryobus());
//! assert!(cryo.performance() > base.performance());
//! ```
//!
//! Sampling a design's NoC paths is the costly part of an evaluation and
//! depends only on the design, so a loop over workloads prepares the
//! design once:
//!
//! ```
//! use cryowire_system::{PreparedDesign, SystemDesign, SystemSimulator, Workload};
//!
//! let sim = SystemSimulator::new();
//! let design = SystemDesign::cryosp_cryobus();
//! let prepared = PreparedDesign::new(&design)?;
//! for w in Workload::parsec() {
//!     let m = sim.evaluate_prepared(&w, &prepared);
//!     assert_eq!(m, sim.evaluate(&w, &design));
//! }
//! # Ok::<(), cryowire_noc::NocError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod contention;
pub mod event_sim;
pub mod simulator;
pub mod workloads;

pub use config::{SystemDesign, SystemNoc};
pub use contention::ContentionEstimate;
pub use event_sim::{EventMetrics, EventSimConfig, EventSimulator};
pub use simulator::{CpiStack, PreparedDesign, SystemMetrics, SystemSimulator};
pub use workloads::{Suite, Workload};
