//! Synthetic instruction traces.
//!
//! Real PARSEC/SPEC binaries are unavailable, so traces are generated
//! from a statistical profile: instruction mix, register-dependency
//! distances, load-miss behaviour, and *learnable* branch outcomes
//! (branches follow a hidden function of recent history plus noise, so a
//! history-based predictor like GShare genuinely has something to learn —
//! and a too-shallow predictor genuinely mispredicts).
//!
//! Traces are validated at construction: every source-operand distance
//! must point at an earlier instruction ([`Trace::new`] returns a
//! [`TraceError`] otherwise), so the simulation engines can index
//! producers without per-instruction bounds logic — a malformed trace is
//! a structured error at the boundary, never a panic in the hot loop.
//!
//! A trace also owns its **decoded form**: one packed 16-byte record per
//! instruction (flags with the predictor outcome baked in, pre-resolved
//! execute latency, both dependency distances), the form the scalar and
//! batched hot loops iterate. It is built on the first simulation, not
//! at construction (generation stays as cheap as it was), and then
//! shared by every run, scratch and thread that simulates the trace, so
//! a sweep of many configurations over one trace decodes it once.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::predictor::{OverridingPredictor, PredictOutcome};

/// Instruction class with its execution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// Single-cycle integer op.
    Alu,
    /// 3-cycle multiply/FP op.
    Mul,
    /// Load: cache-hit latency plus occasional misses (per trace config).
    Load {
        /// Memory latency in cycles for this load (hit or miss).
        latency: u32,
    },
    /// Store (retires through the store queue).
    Store,
    /// Conditional branch with its actual outcome.
    Branch {
        /// Whether the branch is taken.
        taken: bool,
    },
}

/// One instruction of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Program counter (synthetic).
    pub pc: u64,
    /// Class and latency.
    pub kind: InstKind,
    /// Producer instructions (distance backward in the trace); `None`
    /// means the operand is ready.
    pub srcs: [Option<u32>; 2],
}

/// A malformed instruction stream, rejected at [`Trace`] construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// A source-operand distance reaches before the start of the trace
    /// (`distance > index`) or names the instruction itself
    /// (`distance == 0`); the producer does not exist.
    DanglingDependency {
        /// Index of the offending instruction.
        index: usize,
        /// The invalid backward distance.
        distance: u32,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::DanglingDependency { index, distance } => write!(
                f,
                "instruction {index} depends on a producer {distance} back, \
                 which does not exist"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Decoded-instruction flag bits.
pub(crate) const FLAG_LOAD: u32 = 1;
pub(crate) const FLAG_STORE: u32 = 2;
pub(crate) const FLAG_BRANCH: u32 = 4;
/// The overriding predictor's outcome for this branch, resolved at
/// decode time: the predictor train sequence is a pure function of the
/// branch stream (PCs and outcomes in program order), independent of
/// the core configuration, so one decode serves every config run over
/// the trace — the hot loop never touches the predictor tables.
pub(crate) const FLAG_OVERRIDE: u32 = 16;
pub(crate) const FLAG_MISPREDICT: u32 = 32;

/// One decoded instruction: `[flags, execute latency, src1 distance,
/// src2 distance]`. A single 16-byte record keeps the hot loop's
/// per-instruction decode traffic to one pointer and one cache line
/// instead of four parallel arrays.
pub(crate) type DecodedInst = [u32; 4];

/// A trace in the form the hot loops iterate, plus the branch totals of
/// the predictor replay that produced it.
#[derive(Debug, Clone)]
pub(crate) struct Decoded {
    pub(crate) insts: Vec<DecodedInst>,
    pub(crate) branches: u64,
    pub(crate) mispredicts: u64,
    pub(crate) overrides: u64,
}

impl Decoded {
    /// Decodes `insts`, replaying the overriding predictor over the
    /// branch stream and baking each branch's [`PredictOutcome`] into
    /// its flags: the predictor trains on (PC, outcome) in program order
    /// only, so the outcome sequence — and therefore the
    /// branch/override/mispredict totals — is identical for every
    /// configuration run over the trace.
    fn new(insts: &[Inst]) -> Self {
        let mut predictor = OverridingPredictor::boom_like();
        let mut decoded = Decoded {
            insts: Vec::with_capacity(insts.len()),
            branches: 0,
            mispredicts: 0,
            overrides: 0,
        };
        for inst in insts {
            let (flag, latency) = match inst.kind {
                InstKind::Alu => (0, 1),
                InstKind::Mul => (0, 3),
                // Pre-clamped hit/miss latency; the engine substitutes
                // the memory model's (clamped) answer when one exists.
                InstKind::Load { latency } => (FLAG_LOAD, latency.max(1)),
                InstKind::Store => (FLAG_STORE, 1),
                InstKind::Branch { taken } => {
                    decoded.branches += 1;
                    let outcome = match predictor.predict_and_train(inst.pc, taken) {
                        PredictOutcome::Correct => 0,
                        PredictOutcome::Overridden => {
                            decoded.overrides += 1;
                            FLAG_OVERRIDE
                        }
                        PredictOutcome::Mispredicted => {
                            decoded.mispredicts += 1;
                            FLAG_MISPREDICT
                        }
                    };
                    (FLAG_BRANCH | outcome, 1)
                }
            };
            // Distance 0 never occurs in a validated trace, so it is
            // free to mean "operand ready".
            decoded.insts.push([
                flag,
                latency,
                inst.srcs[0].unwrap_or(0),
                inst.srcs[1].unwrap_or(0),
            ]);
        }
        decoded
    }
}

/// A generated instruction stream, validated at construction.
///
/// Equality, hashing and `Debug` see the instructions only, never
/// whether the decoded form has been built yet.
#[derive(Clone)]
pub struct Trace {
    /// The instructions, in program order. Private so the construction
    /// invariant (no dangling dependencies) cannot be broken after
    /// validation.
    insts: Vec<Inst>,
    /// Largest source-operand distance in the trace — the dependency
    /// window the simulation engines must keep live.
    max_src: u32,
    /// The decoded form, built on first use. Private, like `insts`, so
    /// it cannot fall out of step with the instructions it decodes.
    decoded: OnceLock<Decoded>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.insts == other.insts && self.max_src == other.max_src
    }
}

impl Eq for Trace {}

impl std::hash::Hash for Trace {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.insts.hash(state);
        self.max_src.hash(state);
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("insts", &self.insts)
            .field("max_src", &self.max_src)
            .finish()
    }
}

impl Trace {
    /// Builds a trace from raw instructions, validating every
    /// source-operand distance.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::DanglingDependency`] if any source distance
    /// is zero (self-dependency) or reaches before the trace start.
    pub fn new(insts: Vec<Inst>) -> Result<Self, TraceError> {
        let mut max_src = 0u32;
        for (i, inst) in insts.iter().enumerate() {
            for src in inst.srcs.into_iter().flatten() {
                if src == 0 || src as usize > i {
                    return Err(TraceError::DanglingDependency {
                        index: i,
                        distance: src,
                    });
                }
                max_src = max_src.max(src);
            }
        }
        Ok(Trace {
            insts,
            max_src,
            decoded: OnceLock::new(),
        })
    }

    /// The instructions, in program order.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Largest source-operand distance in the trace (0 for a trace with
    /// no register dependencies). The engines size their completion
    /// window by this.
    #[must_use]
    pub fn max_src_distance(&self) -> u32 {
        self.max_src
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Fraction of branches in the trace.
    #[must_use]
    pub fn branch_fraction(&self) -> f64 {
        let b = self
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Branch { .. }))
            .count();
        b as f64 / self.len().max(1) as f64
    }

    /// The decoded form, built by the first caller (concurrent first
    /// callers wait for that one decode) and shared by every later one.
    pub(crate) fn decoded(&self) -> &Decoded {
        self.decoded.get_or_init(|| Decoded::new(&self.insts))
    }
}

/// Statistical profile a trace is generated from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Fraction of loads.
    pub load_frac: f64,
    /// Fraction of stores.
    pub store_frac: f64,
    /// Fraction of branches.
    pub branch_frac: f64,
    /// Fraction of 3-cycle ops among non-memory, non-branch instructions.
    pub mul_frac: f64,
    /// Load miss probability (miss latency applies).
    pub load_miss_rate: f64,
    /// Load hit latency, cycles (L1).
    pub load_hit_latency: u32,
    /// Load miss latency, cycles (L2/LLC average).
    pub load_miss_latency: u32,
    /// Mean register-dependency distance (geometric distribution).
    pub mean_dep_distance: f64,
    /// Probability a branch outcome follows the hidden history function
    /// (the rest is noise — the floor of any predictor's accuracy).
    pub branch_predictability: f64,
    /// Number of distinct branch PCs (BTB working set).
    pub branch_sites: u64,
}

impl TraceConfig {
    /// A PARSEC-like integer-heavy profile (the paper's Table 3 IPC
    /// methodology runs PARSEC 2.1).
    #[must_use]
    pub fn parsec_like() -> Self {
        TraceConfig {
            load_frac: 0.25,
            store_frac: 0.10,
            branch_frac: 0.18,
            mul_frac: 0.15,
            load_miss_rate: 0.06,
            load_hit_latency: 3,
            load_miss_latency: 18,
            mean_dep_distance: 6.0,
            branch_predictability: 0.93,
            branch_sites: 64,
        }
    }

    /// A dependency-chain microbenchmark: every instruction depends on
    /// the previous one (exposes the bypass latency directly).
    #[must_use]
    pub fn serial_chain() -> Self {
        TraceConfig {
            load_frac: 0.0,
            store_frac: 0.0,
            branch_frac: 0.0,
            mul_frac: 0.0,
            load_miss_rate: 0.0,
            load_hit_latency: 3,
            load_miss_latency: 18,
            mean_dep_distance: 1.0,
            branch_predictability: 1.0,
            branch_sites: 1,
        }
    }

    /// An embarrassingly parallel profile (no dependencies, no branches).
    #[must_use]
    pub fn independent() -> Self {
        TraceConfig {
            mean_dep_distance: 1_000.0,
            branch_frac: 0.0,
            load_frac: 0.0,
            store_frac: 0.0,
            mul_frac: 0.0,
            load_miss_rate: 0.0,
            load_hit_latency: 3,
            load_miss_latency: 18,
            branch_predictability: 1.0,
            branch_sites: 1,
        }
    }

    /// A stable content key over the profile's parameters, used by
    /// [`TraceArena`](crate::arena::TraceArena) to share generated
    /// traces between experiments. Two configs with identical field
    /// values (bit-for-bit for the floats) share one key.
    #[must_use]
    pub fn content_key(&self) -> u64 {
        // FNV-1a over the field bits: stable across runs and platforms,
        // unlike `DefaultHasher`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.load_frac.to_bits());
        mix(self.store_frac.to_bits());
        mix(self.branch_frac.to_bits());
        mix(self.mul_frac.to_bits());
        mix(self.load_miss_rate.to_bits());
        mix(u64::from(self.load_hit_latency));
        mix(u64::from(self.load_miss_latency));
        mix(self.mean_dep_distance.to_bits());
        mix(self.branch_predictability.to_bits());
        mix(self.branch_sites);
        h
    }

    /// Generates `n` instructions with RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction-class fractions exceed 1.
    #[must_use]
    pub fn generate(&self, n: usize, seed: u64) -> Trace {
        assert!(
            self.load_frac + self.store_frac + self.branch_frac <= 1.0,
            "instruction-class fractions must sum to at most 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut insts = Vec::with_capacity(n);
        let mut history: u64 = 0;
        let mut pc: u64 = 0x1000;

        for i in 0..n {
            let r = rng.gen::<f64>();
            let serial = self.mean_dep_distance <= 1.0;
            let dep = |rng: &mut StdRng, i: usize| -> Option<u32> {
                if i == 0 {
                    return None;
                }
                if serial {
                    return Some(1);
                }
                // Geometric-ish dependency distance.
                let d = (-(rng.gen::<f64>().max(1e-9)).ln() * self.mean_dep_distance)
                    .ceil()
                    .max(1.0) as u32;
                (d as usize <= i).then_some(d)
            };

            let kind = if r < self.branch_frac {
                // Hidden rule: taken iff parity of the last 3 outcomes,
                // obeyed with probability `branch_predictability`.
                let rule = (history & 0b111).count_ones().is_multiple_of(2);
                let taken = if rng.gen::<f64>() < self.branch_predictability {
                    rule
                } else {
                    !rule
                };
                history = (history << 1) | u64::from(taken);
                pc = 0x1000 + (rng.gen::<u64>() % self.branch_sites) * 16;
                InstKind::Branch { taken }
            } else if r < self.branch_frac + self.load_frac {
                let latency = if rng.gen::<f64>() < self.load_miss_rate {
                    self.load_miss_latency
                } else {
                    self.load_hit_latency
                };
                InstKind::Load { latency }
            } else if r < self.branch_frac + self.load_frac + self.store_frac {
                InstKind::Store
            } else if rng.gen::<f64>() < self.mul_frac {
                InstKind::Mul
            } else {
                InstKind::Alu
            };

            let srcs = [dep(&mut rng, i), dep(&mut rng, i)];
            insts.push(Inst { pc, kind, srcs });
            pc += 4;
        }
        Trace::new(insts).expect("the generator emits only in-range dependency distances")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn mix_matches_config() {
        let t = TraceConfig::parsec_like().generate(50_000, 1);
        assert!((t.branch_fraction() - 0.18).abs() < 0.01);
        let loads = t
            .insts()
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Load { .. }))
            .count() as f64
            / t.len() as f64;
        assert!((loads - 0.25).abs() < 0.01);
    }

    #[test]
    fn serial_chain_depends_on_previous() {
        let t = TraceConfig::serial_chain().generate(100, 2);
        for (i, inst) in t.insts().iter().enumerate().skip(1) {
            assert_eq!(inst.srcs[0], Some(1), "inst {i} must depend on {}", i - 1);
        }
        assert_eq!(t.max_src_distance(), 1);
    }

    #[test]
    fn dependencies_never_dangle() {
        let t = TraceConfig::parsec_like().generate(10_000, 3);
        for (i, inst) in t.insts().iter().enumerate() {
            for src in inst.srcs.into_iter().flatten() {
                assert!(src as usize <= i, "dependency before trace start");
                assert!(src <= t.max_src_distance());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TraceConfig::parsec_like().generate(1_000, 9);
        let b = TraceConfig::parsec_like().generate(1_000, 9);
        assert_eq!(a, b);
        let c = TraceConfig::parsec_like().generate(1_000, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn malformed_distance_is_a_structured_error() {
        // An out-of-range backward distance must be rejected at
        // construction (the engines would otherwise underflow computing
        // `i - distance`).
        let bad = vec![Inst {
            pc: 0x1000,
            kind: InstKind::Alu,
            srcs: [Some(3), None],
        }];
        assert_eq!(
            Trace::new(bad),
            Err(TraceError::DanglingDependency {
                index: 0,
                distance: 3
            })
        );
        // A self-dependency (distance 0) is equally impossible.
        let cyclic = vec![
            Inst {
                pc: 0x1000,
                kind: InstKind::Alu,
                srcs: [None, None],
            },
            Inst {
                pc: 0x1004,
                kind: InstKind::Alu,
                srcs: [None, Some(0)],
            },
        ];
        let err = Trace::new(cyclic).unwrap_err();
        assert_eq!(
            err,
            TraceError::DanglingDependency {
                index: 1,
                distance: 0
            }
        );
        assert!(err.to_string().contains("instruction 1"));
    }

    #[test]
    fn valid_insts_round_trip() {
        let t = TraceConfig::parsec_like().generate(500, 4);
        let rebuilt = Trace::new(t.insts().to_vec()).expect("generated traces validate");
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn content_key_separates_configs() {
        let a = TraceConfig::parsec_like().content_key();
        let b = TraceConfig::parsec_like().content_key();
        assert_eq!(a, b);
        assert_ne!(a, TraceConfig::serial_chain().content_key());
        let mut tweaked = TraceConfig::parsec_like();
        tweaked.load_miss_rate += 1e-9;
        assert_ne!(a, tweaked.content_key());
    }

    #[test]
    fn decode_is_cached_by_content() {
        let t = TraceConfig::parsec_like().generate(2_000, 1);
        // Generation does not decode: the first simulation does.
        assert!(t.decoded.get().is_none(), "decoded at construction");
        let d = t.decoded();
        assert!(d.branches > 100, "parsec-like traces are branchy");
        assert_eq!(d.insts.len(), 2_000);
        // Asking again returns the same decode.
        assert!(std::ptr::eq(t.decoded(), d));
        // An equal trace decodes to equal records, and equality and
        // hashing ignore whether either side has decoded yet.
        let twin = Trace::new(t.insts().to_vec()).expect("generated traces validate");
        assert_eq!(twin, t);
        let state = std::hash::RandomState::new();
        assert_eq!(state.hash_one(&twin), state.hash_one(&t));
        assert_eq!(format!("{twin:?}"), format!("{t:?}"));
        assert_eq!(twin.decoded().insts, d.insts);
        // A different trace decodes to its own records.
        let t2 = TraceConfig::parsec_like().generate(2_000, 2);
        let d2 = t2.decoded();
        assert_ne!((d2.branches, d2.mispredicts), (d.branches, d.mispredicts));
        assert_eq!(d2.insts.len(), 2_000);
    }

    #[test]
    fn decode_replays_the_predictor_once_per_trace() {
        use crate::predictor::{OverridingPredictor, PredictOutcome};
        let t = TraceConfig::parsec_like().generate(5_000, 3);
        let d = t.decoded();
        // Replaying by hand must agree with the baked-in flags.
        let mut predictor = OverridingPredictor::boom_like();
        let mut mispredicts = 0u64;
        let mut overrides = 0u64;
        for (i, inst) in t.insts().iter().enumerate() {
            if let InstKind::Branch { taken } = inst.kind {
                let expect = match predictor.predict_and_train(inst.pc, taken) {
                    PredictOutcome::Correct => 0,
                    PredictOutcome::Overridden => {
                        overrides += 1;
                        FLAG_OVERRIDE
                    }
                    PredictOutcome::Mispredicted => {
                        mispredicts += 1;
                        FLAG_MISPREDICT
                    }
                };
                assert_eq!(d.insts[i][0] & (FLAG_OVERRIDE | FLAG_MISPREDICT), expect);
            }
        }
        assert_eq!(d.mispredicts, mispredicts);
        assert_eq!(d.overrides, overrides);
    }

    #[test]
    fn branch_outcomes_are_learnable() {
        // The hidden rule must produce a non-trivially-biased stream
        // (history matters, not a constant).
        let t = TraceConfig::parsec_like().generate(20_000, 4);
        let taken: Vec<bool> = t
            .insts()
            .iter()
            .filter_map(|i| match i.kind {
                InstKind::Branch { taken } => Some(taken),
                _ => None,
            })
            .collect();
        let frac = taken.iter().filter(|&&b| b).count() as f64 / taken.len() as f64;
        assert!(frac > 0.25 && frac < 0.75, "taken fraction {frac}");
    }
}
