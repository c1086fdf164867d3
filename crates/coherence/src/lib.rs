//! Cycle-level snooping-coherence engine over the simulated CryoBus.
//!
//! The CryoWire paper's coherence story (Section 7.2) is architectural:
//! a single-cycle 77 K broadcast bus makes *snooping* coherence cheap
//! again at 64 cores, where a 300 K design would be forced onto a
//! directory mesh. The hop-count models in `cryowire-memory` price one
//! access at a time; this crate closes the loop with a **cycle-level**
//! multi-core engine where those prices emerge from contention:
//!
//! - [`SnoopEngine`] — MESI *and* Dragon (update-based) over an
//!   arbitrated broadcast bus. Per-core blocking caches with one MSHR
//!   each, a [`MatrixArbiter`](cryowire_noc::MatrixArbiter) per
//!   interleaving way, snoop transitions at grant time (the bus
//!   serialization point), cache-to-cache transfers, and delayed
//!   completions priced by the bus's own phase decomposition.
//! - [`DirectoryEngine`] — MESI over a routed mesh, with per-pair
//!   message latencies from the network's actual paths, owner
//!   forwarding and parallel invalidation fan-out at each line's home.
//! - [`TraceGenConfig`] — deterministic sharing-pattern traces
//!   (barrier-heavy, producer–consumer, private streaming) seeded from
//!   the calibrated PARSEC workload profiles.
//! - Fault integration: a dead CryoBus H-tree segment re-forms the bus
//!   with degraded timing, router stalls delay grants, and severed
//!   routes trip a progress watchdog into a typed
//!   [`CoherenceError::Stalled`] instead of a hang.
//!
//! Correctness is anchored to the hop-count reference engines: with the
//! `reference-sim` feature, every run's serialization-order commit log
//! replays through `SnoopingMesi`/`DirectoryMesi` and must reproduce
//! identical data versions (see [`reference`](mod@reference)).

#![warn(missing_docs)]

pub mod cache;
pub mod directory;
pub mod engine;
pub mod error;
pub mod metrics;
#[cfg(feature = "reference-sim")]
pub mod reference;
pub mod snoop;
pub mod timing;
pub mod trace;

#[cfg(any(test, feature = "reference-sim"))]
pub mod baseline;

#[cfg(any(test, feature = "reference-sim"))]
pub use baseline::{verify_invariants, BaselineScratch};
pub use cache::{CacheGeometry, LineState, PrivateCache};
pub use directory::DirectoryEngine;
pub use engine::{
    CoherenceConfig, CoherenceScratch, CoherenceSystem, Protocol, RunOutcome, SystemFabric,
};
pub use error::CoherenceError;
pub use metrics::{CoherenceMetrics, CommitEntry};
pub use snoop::{verify_all_line_invariants, verify_line_invariant, SnoopEngine, SnoopFabric};
pub use timing::{BusTiming, DirectoryTiming, LINE_BEATS};
pub use trace::{AccessTrace, CoreAccess, SharingPattern, TraceGenConfig};
