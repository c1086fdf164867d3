//! A reused scratch must never answer for a trace it did not see.
//!
//! A decode cache keyed by anything short of the whole trace (its
//! address, its length and 32 sampled instructions, say) matches a
//! different trace that the allocator rebuilds into the same block and
//! that differs only between the samples. This test builds that case:
//! the freed block goes back to a same-sized `Vec`, and the change sits
//! at instruction 1, between the samples at 0 and 64 of a
//! 2 048-instruction trace. A reused `CoreScratch` and a reused
//! `BatchScratch` must return what fresh ones do.

use cryowire_ooo::{
    run_batch_with_scratch, BatchScratch, CoreConfig, CoreScratch, CoreSimulator, Inst, InstKind,
    Trace, TraceConfig,
};

#[test]
fn reused_scratch_does_not_replay_a_previous_traces_decode() {
    let configs = [CoreConfig::skylake_8_wide(), CoreConfig::cryosp()];
    let sim = CoreSimulator::new(configs[0]);
    let mut scratch = CoreScratch::new();
    let mut batch = BatchScratch::new();

    let first = TraceConfig::parsec_like().generate(2_048, 1);
    let _ = sim.run_with_scratch(&first, &mut scratch);
    let _ = run_batch_with_scratch(&configs, &first, &mut batch);

    // Instruction 1 becomes a 400-cycle load; its operands stay valid.
    let mut changed: Vec<Inst> = first.insts().to_vec();
    changed[1].kind = InstKind::Load { latency: 400 };
    drop(first);
    // A fresh same-sized allocation right after the free: the allocator
    // tends to return the block the first trace occupied.
    let rebuilt: Vec<Inst> = changed.to_vec();
    let second = Trace::new(rebuilt).expect("the operands were left as generated");

    let fresh = sim.run(&second);
    assert_eq!(
        sim.run_with_scratch(&second, &mut scratch),
        fresh,
        "a reused CoreScratch returned another trace's metrics"
    );
    let fresh_lanes = run_batch_with_scratch(&configs, &second, &mut BatchScratch::new());
    assert_eq!(fresh_lanes[0], fresh);
    assert_eq!(
        run_batch_with_scratch(&configs, &second, &mut batch),
        fresh_lanes,
        "a reused BatchScratch returned another trace's metrics"
    );
}
