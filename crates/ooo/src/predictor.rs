//! Branch prediction: BTB, GShare, and the overriding structure
//! (Fig. 11's frontend).
//!
//! Modern frontends hide the latency of an accurate predictor behind a
//! fast one: the BTB provides a same-cycle prediction, the multi-cycle
//! GShare ("backup predictor") can override it a couple of cycles later
//! at a small bubble cost, and the real outcome at execute costs a full
//! pipeline refill. Superpipelining the frontend (CryoSP) lengthens only
//! the *refill* path — which is why its IPC cost is a few percent and not
//! tens (Section 4.4).

/// Direct-mapped branch target buffer with an embedded bimodal
/// taken/not-taken hint — the fast 1-cycle predictor.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(u64, bool)>>, // (tag pc, last outcome)
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "BTB needs at least one entry");
        Btb {
            entries: vec![None; entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize >> 2) % self.entries.len()
    }

    /// Fast prediction: hit → last outcome, miss → not-taken.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        match self.entries[self.index(pc)] {
            Some((tag, taken)) if tag == pc => taken,
            _ => false,
        }
    }

    /// Records the actual outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        self.entries[idx] = Some((pc, taken));
    }
}

/// GShare-family history predictor: 2-bit saturating counters indexed by
/// PC and global history — the slow but accurate backup predictor.
/// Indexing is gselect-style (PC bits concatenated above the history
/// bits) rather than the classic XOR fold: with small synthetic branch
/// working sets, XOR folding aliases contexts whose outcomes are exact
/// opposites, destroying the counters.
#[derive(Debug, Clone)]
pub struct GShare {
    counters: Vec<u8>,
    history: u64,
    history_bits: u32,
}

impl GShare {
    /// Creates a GShare with `2^index_bits` counters and `history_bits`
    /// of global history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is zero or above 24.
    #[must_use]
    pub fn new(index_bits: u32, history_bits: u32) -> Self {
        assert!(
            index_bits > 0 && index_bits <= 24,
            "unreasonable table size"
        );
        GShare {
            counters: vec![2; 1 << index_bits], // weakly taken
            history: 0,
            history_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (self.counters.len() - 1) as u64;
        let hist = self.history & ((1 << self.history_bits) - 1);
        ((((pc >> 4) << self.history_bits) | hist) & mask) as usize
    }

    /// Prediction from the current history.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Trains on the actual outcome and shifts the history.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | u64::from(taken);
    }
}

/// What the overriding frontend did for one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictOutcome {
    /// Fast and backup predictors agreed with the real outcome.
    Correct,
    /// Backup predictor overrode a wrong fast prediction (small bubble).
    Overridden,
    /// Both were wrong: full pipeline refill.
    Mispredicted,
}

/// The overriding predictor: BTB (fast) + GShare (backup) + checker.
#[derive(Debug, Clone)]
pub struct OverridingPredictor {
    btb: Btb,
    gshare: GShare,
}

impl OverridingPredictor {
    /// The BOOM-like configuration used throughout (512-entry BTB,
    /// 4K-counter GShare over 4 bits of global history — enough context
    /// for the synthetic traces without starving the counters of
    /// training updates).
    #[must_use]
    pub fn boom_like() -> Self {
        OverridingPredictor {
            btb: Btb::new(512),
            gshare: GShare::new(12, 4),
        }
    }

    /// Runs one branch through the overriding structure and trains both
    /// predictors.
    pub fn predict_and_train(&mut self, pc: u64, taken: bool) -> PredictOutcome {
        let fast = self.btb.predict(pc);
        let backup = self.gshare.predict(pc);
        self.btb.update(pc, taken);
        self.gshare.update(pc, taken);
        if backup == taken {
            if fast == taken {
                PredictOutcome::Correct
            } else {
                PredictOutcome::Overridden
            }
        } else {
            PredictOutcome::Mispredicted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{InstKind, TraceConfig};

    fn branch_stream(n: usize, seed: u64) -> Vec<(u64, bool)> {
        TraceConfig::parsec_like()
            .generate(n, seed)
            .insts()
            .iter()
            .filter_map(|i| match i.kind {
                InstKind::Branch { taken } => Some((i.pc, taken)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn gshare_learns_the_hidden_rule() {
        let mut g = GShare::new(12, 4);
        let stream = branch_stream(60_000, 5);
        let half = stream.len() / 2;
        let mut correct = 0;
        for (i, &(pc, taken)) in stream.iter().enumerate() {
            if i >= half && g.predict(pc) == taken {
                correct += 1;
            }
            g.update(pc, taken);
        }
        let acc = correct as f64 / half as f64;
        // Outcomes are 93 % rule-driven; a trained GShare should approach
        // that ceiling.
        assert!(acc > 0.85, "GShare accuracy = {acc}");
    }

    #[test]
    fn gshare_beats_bimodal_btb() {
        let stream = branch_stream(60_000, 6);
        let mut g = GShare::new(12, 4);
        let mut b = Btb::new(512);
        let (mut gc, mut bc) = (0, 0);
        let half = stream.len() / 2;
        for (i, &(pc, taken)) in stream.iter().enumerate() {
            if i >= half {
                if g.predict(pc) == taken {
                    gc += 1;
                }
                if b.predict(pc) == taken {
                    bc += 1;
                }
            }
            g.update(pc, taken);
            b.update(pc, taken);
        }
        assert!(
            gc > bc,
            "history predictor must beat last-outcome on correlated branches ({gc} vs {bc})"
        );
    }

    #[test]
    fn overriding_reduces_full_mispredicts() {
        // The override path converts would-be mispredicts of the fast
        // predictor into small bubbles.
        let mut p = OverridingPredictor::boom_like();
        let stream = branch_stream(60_000, 7);
        let mut overridden = 0;
        let mut mispredicted = 0;
        for &(pc, taken) in &stream {
            match p.predict_and_train(pc, taken) {
                PredictOutcome::Overridden => overridden += 1,
                PredictOutcome::Mispredicted => mispredicted += 1,
                PredictOutcome::Correct => {}
            }
        }
        assert!(overridden > 0, "override path never used");
        let mispredict_rate = mispredicted as f64 / stream.len() as f64;
        assert!(
            mispredict_rate < 0.15,
            "overall mispredict rate = {mispredict_rate}"
        );
    }

    #[test]
    fn btb_remembers_small_working_sets() {
        let mut b = Btb::new(512);
        for pc in (0..64u64).map(|i| 0x1000 + i * 16) {
            b.update(pc, true);
        }
        for pc in (0..64u64).map(|i| 0x1000 + i * 16) {
            assert!(b.predict(pc));
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entry_btb_rejected() {
        let _ = Btb::new(0);
    }
}
