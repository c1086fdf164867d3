//! Cycle-level snooping-coherence engine over the simulated CryoBus.
//!
//! The CryoWire paper's coherence story (Section 7.2) is architectural:
//! a single-cycle 77 K broadcast bus makes *snooping* coherence cheap
//! again at 64 cores, where a 300 K design would be forced onto a
//! directory mesh. The hop-count models in `cryowire-memory` price one
//! access at a time; this crate closes the loop with a **cycle-level**
//! multi-core engine where those prices emerge from contention:
//!
//! - [`CoherenceSystem`] — a fabric and a memory design with one
//!   [`run`](CoherenceSystem::run) call, which takes the engine
//!   configuration per run, validates it once for both fabrics, and
//!   drives the one run loop in [`engine`](mod@engine): per-core
//!   blocking caches with one MSHR each, the one-cycle hit path,
//!   delayed completions, the event skip and the watchdog. The loop is
//!   generic over the fabric's step, which each fabric module holds
//!   beside its protocol:
//!   - on a bus, the [`snoop`](mod@snoop) bus grant: MESI *and* Dragon
//!     (update-based) over an arbitrated broadcast bus. A
//!     [`MatrixArbiter`](cryowire_noc::MatrixArbiter) per interleaving
//!     way, snoop transitions at grant time (the bus serialization
//!     point), cache-to-cache transfers, and completions priced by the
//!     bus's own phase decomposition;
//!   - on a mesh, the [`directory`](mod@directory) home step: MESI over
//!     a routed mesh, with per-pair message latencies from the
//!     network's actual paths, owner forwarding and parallel
//!     invalidation fan-out at each line's home.
//! - [`TraceGenConfig`] — deterministic sharing-pattern traces
//!   (barrier-heavy, producer–consumer, private streaming) seeded from
//!   the calibrated PARSEC workload profiles.
//! - Fault integration: a dead CryoBus H-tree segment re-forms the bus
//!   with degraded timing, router stalls delay grants, and severed
//!   routes trip a progress watchdog into a typed
//!   [`CoherenceError::Stalled`] instead of a hang.
//!
//! Two independent models check the engines. Every run's
//! serialization-order commit log replays through the hop-count
//! `SnoopingMesi`/`DirectoryMesi` engines and must reproduce identical
//! data versions (see [`reference`](mod@reference)), and a plain
//! per-cycle model in `tests/oracle.rs` must reproduce every counter and
//! the whole commit log.

#![warn(missing_docs)]

pub mod cache;
pub mod directory;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod reference;
pub mod snoop;
pub mod timing;
pub mod trace;

pub use cache::{CacheGeometry, LineState, PrivateCache};
pub use engine::{
    CoherenceConfig, CoherenceScratch, CoherenceSystem, Protocol, RunOutcome, SystemFabric,
};
pub use error::CoherenceError;
pub use metrics::{CoherenceMetrics, CommitEntry};
pub use timing::{BusTiming, DirectoryTiming, LINE_BEATS};
pub use trace::{AccessTrace, CoreAccess, SharingPattern, TraceGenConfig};
