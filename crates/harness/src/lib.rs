//! cryowire-harness: parallel, cached design-space sweeps with
//! structured run artifacts.
//!
//! The CryoWire experiments are all shaped the same way: enumerate a
//! parameter grid (temperatures, pipeline depths, injection rates,
//! wire configurations), evaluate an analytical or simulated model at
//! every point, and tabulate. This crate factors that shape out:
//!
//! * [`SweepSpec`] — declarative grids: named axes (Cartesian
//!   product) and explicit points.
//! * [`Executor`] — a scoped worker pool pulling points from a shared
//!   queue; results are slot-addressed so output order never depends
//!   on scheduling.
//! * [`ResultCache`] — a content-addressed directory, one checksummed
//!   file per [`content_key`] over the evaluator tag and the point's
//!   canonical encoding; overlapping sweeps re-evaluate only new points.
//! * [`RunArtifact`] — the JSON-serialisable record of a run:
//!   per-point parameters, seed, cache provenance, timing and value.
//! * [`Sweep`] — the driver tying those together.
//! * [`RunJournal`] — an append-only, checksummed WAL of completed
//!   points; `--resume` replays it so a killed run continues where it
//!   stopped, byte-identically.
//! * [`supervise`] — per-point retry/backoff/deadline supervision with
//!   a typed failure taxonomy and poison-point quarantine.
//! * [`failpoint`] — injectable fail points the chaos suite uses to
//!   simulate torn writes, ENOSPC and crashes.
//!
//! Determinism contract: evaluators receive a [`point_seed`] derived
//! from the evaluator tag, the point identity and the sweep's base
//! seed — never from thread schedule or enumeration index. A sweep
//! run with 1 thread and with N threads therefore produces
//! bit-identical canonical artifacts ([`RunArtifact::canonical_json`]),
//! and cached replays are indistinguishable from fresh evaluation.

#![warn(missing_docs)]

mod artifact;
mod cache;
mod executor;
pub mod failpoint;
mod hash;
pub mod journal;
mod spec;
pub mod supervise;
mod sweep;
mod value;

pub use artifact::{PointRecord, RunArtifact, RunStats};
pub use cache::{CacheStats, ResultCache};
pub use executor::{CancelToken, Executor};
pub use hash::{content_key, point_seed, stable_hash64};
pub use journal::{JournalHeader, RunJournal};
pub use spec::{Point, SweepSpec};
pub use supervise::{Failure, FailureClass, SupervisePolicy};
pub use sweep::Sweep;
pub use value::ParamValue;
