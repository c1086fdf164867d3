//! Property-based bit-identity of the lockstep engine against the
//! retained reference engine: for random configuration grids, random
//! traces and random batch widths (including 1, 2, the whole grid, and
//! widths that do not divide the grid size), every lane of
//! [`run_batch_with_scratch`] must equal the `ReferenceCoreSimulator`
//! result for that configuration — the whole `CoreMetrics`, not just
//! IPC.

use cryowire_ooo::core::reference::ReferenceCoreSimulator;
use cryowire_ooo::{
    run_batch_into, run_batch_with_scratch, CoreConfig, CoreMetrics, CoreScratch, TraceConfig,
};
use proptest::prelude::*;

/// A random-but-valid core configuration spanning the structural axes
/// the batched recurrence gates on (window sizes straddle both sides of
/// the "constraint active" thresholds for short traces).
fn arb_config() -> impl Strategy<Value = CoreConfig> {
    (
        1usize..=8,   // width
        1u32..=14,    // frontend depth
        1u32..=4,     // bypass cycles
        4usize..=224, // rob
        2usize..=97,  // issue queue
        2usize..=72,  // load queue
        2usize..=56,  // store queue
    )
        .prop_map(
            |(width, frontend_depth, bypass_cycles, rob, issue_queue, load_queue, store_queue)| {
                CoreConfig {
                    width,
                    frontend_depth,
                    bypass_cycles,
                    rob,
                    issue_queue,
                    load_queue,
                    store_queue,
                    ..CoreConfig::skylake_8_wide()
                }
            },
        )
}

fn reference_lanes(configs: &[CoreConfig], trace: &cryowire_ooo::Trace) -> Vec<CoreMetrics> {
    configs
        .iter()
        .map(|cfg| ReferenceCoreSimulator::new(*cfg).run(trace))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_lanes_are_bit_identical_to_scalar(
        configs in proptest::collection::vec(arb_config(), 1..7),
        batch_width in 1usize..=7,
        insts in 1_500usize..6_000,
        seed in 0u64..500,
        serial in any::<bool>(),
    ) {
        let trace_config = if serial {
            TraceConfig::serial_chain()
        } else {
            TraceConfig::parsec_like()
        };
        let trace = trace_config.generate(insts, seed);
        let want = reference_lanes(&configs, &trace);

        // One scratch across every chunk — slab reuse between batches of
        // different widths is part of the contract under test.
        let mut scratch = CoreScratch::new();
        let mut out = Vec::new();
        let mut got = Vec::new();
        for chunk in configs.chunks(batch_width) {
            run_batch_into(chunk, &trace, &mut scratch, &mut out);
            got.append(&mut out);
        }
        prop_assert_eq!(got, want);
    }
}

#[test]
fn named_batch_widths_cover_the_grid_splits() {
    // The grid has 5 lanes; widths 1 (degenerate), 2 (even split with
    // remainder), 5 (whole grid in one batch) and 3 (does not divide 5)
    // must all reproduce the reference results lane for lane.
    let configs = vec![
        CoreConfig::skylake_8_wide(),
        CoreConfig::superpipelined_8_wide(),
        CoreConfig::cryocore_4_wide(),
        CoreConfig::cryosp(),
        CoreConfig::skylake_8_wide().with_bypass_cycles(2),
    ];
    let trace = TraceConfig::parsec_like().generate(25_000, 7);
    let want = reference_lanes(&configs, &trace);
    for batch_width in [1usize, 2, 5, 3] {
        let mut scratch = CoreScratch::new();
        let got: Vec<CoreMetrics> = configs
            .chunks(batch_width)
            .flat_map(|chunk| run_batch_with_scratch(chunk, &trace, &mut scratch))
            .collect();
        assert_eq!(got, want, "batch width {batch_width} diverged");
    }
}
