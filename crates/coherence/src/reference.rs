//! Reference replay: the equivalence contract with the hop-count
//! engines.
//!
//! The cycle-level engines record a serialization-order commit log —
//! one entry per access, in the order the fabric serialized it (grant
//! order for transactions, execute order for hits). Replaying that log
//! through the hop-count [`SnoopingMesi`] / [`DirectoryMesi`] reference
//! engines must observe/produce **exactly the same version** at every
//! step: the cycle-level machinery (arbitration, MSHRs, delayed
//! completions, fault detours) may reorder *which* access serializes
//! when, but once the order is fixed, the protocol outcome is fully
//! determined. A Dragon log replays through the MESI reference too —
//! version semantics (read the latest committed write) are
//! protocol-independent.
//!
//! With a no-eviction geometry ([`CacheGeometry::no_evict`]) the
//! replayed cost counters must also agree: same bus transactions
//! (snooping) and same network messages (directory). Finite caches add
//! refetch transactions the infinite-cache references never see, so
//! those comparisons hold only without evictions.
//!
//! [`CacheGeometry::no_evict`]: crate::cache::CacheGeometry::no_evict

use cryowire_memory::coherence::{Access, CoherenceCost, DirectoryMesi, SnoopingMesi};

use crate::metrics::CommitEntry;

/// A replay divergence: the reference observed a different version than
/// the cycle-level engine committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Index into the commit log.
    pub index: usize,
    /// The diverging entry.
    pub entry: CommitEntry,
    /// What the reference engine observed/produced instead.
    pub reference_version: u64,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at entry {}: core {} {} line {} saw version {} in the engine \
             but {} in the reference",
            self.index,
            self.entry.core,
            if self.entry.write { "wrote" } else { "read" },
            self.entry.line,
            self.entry.version,
            self.reference_version,
        )
    }
}

impl std::error::Error for ReplayMismatch {}

fn access_of(entry: &CommitEntry) -> Access {
    if entry.write {
        Access::Write
    } else {
        Access::Read
    }
}

/// Replays a commit log through the hop-count snooping reference;
/// returns the reference's aggregate cost on success.
///
/// # Errors
///
/// [`ReplayMismatch`] at the first diverging version.
pub fn replay_snooping(
    commits: &[CommitEntry],
    cores: usize,
) -> Result<CoherenceCost, ReplayMismatch> {
    let mut reference = SnoopingMesi::new(cores);
    for (index, entry) in commits.iter().enumerate() {
        let (_, version) = reference.access(entry.core, entry.line, access_of(entry));
        if version != entry.version {
            return Err(ReplayMismatch {
                index,
                entry: *entry,
                reference_version: version,
            });
        }
        debug_assert!(reference.invariant_holds(entry.line));
    }
    Ok(reference.total_cost())
}

/// Replays a commit log through the hop-count directory reference;
/// returns the reference's aggregate cost on success.
///
/// # Errors
///
/// [`ReplayMismatch`] at the first diverging version.
pub fn replay_directory(
    commits: &[CommitEntry],
    cores: usize,
) -> Result<CoherenceCost, ReplayMismatch> {
    let mut reference = DirectoryMesi::new(cores);
    for (index, entry) in commits.iter().enumerate() {
        let (_, version) = reference.access(entry.core, entry.line, access_of(entry));
        if version != entry.version {
            return Err(ReplayMismatch {
                index,
                entry: *entry,
                reference_version: version,
            });
        }
    }
    Ok(reference.total_cost())
}
