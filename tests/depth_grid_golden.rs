//! Golden digest of the temperature × pipeline-depth grid: the canonical
//! artifact of the 1024-temperature × 8-split depth sweep must hash to
//! the recorded value.
//!
//! `tests/determinism.rs` compares serial depth runs with parallel ones,
//! which a change to the model's arithmetic passes on both sides; this
//! test pins the bits themselves. The grid is the one the end-to-end
//! benchmark digests as `depth/1024x8/seed=0`, so the two agree on what
//! the depth sweep computes.
//!
//! The value changes only by a deliberate re-baseline, which says why in
//! the changelog.

use cryowire::experiments::{self, SweepOptions};
use cryowire_harness::stable_hash64;

const GOLDEN: u64 = 0xf765_df98_337f_88a8;

#[test]
fn depth_grid_matches_golden_digest() {
    let spec = experiments::depth_grid_spec(&experiments::linspace_temperatures(1024), 8);
    let artifact = experiments::depth_sweep_artifact(spec, SweepOptions::serial());
    let digest = stable_hash64(artifact.canonical_json().as_bytes());
    assert_eq!(
        digest, GOLDEN,
        "depth grid digest {digest:016x}, golden {GOLDEN:016x}"
    );
}
