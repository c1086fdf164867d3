//! Coherence access streams and the sharing-pattern trace generator.
//!
//! Real multi-threaded memory traces are unavailable, so streams are
//! generated from sharing *patterns* — the structures that decide
//! whether snooping or directory coherence wins: barrier ping-pong
//! (streamcluster's story), producer–consumer hand-off, and private
//! streaming. Patterns are parameterised from the calibrated
//! [`Workload`] profiles
//! (`barriers_per_kinst` sets the sharing rate, `l2_mpki` the think
//! time between references), and generation is seeded and
//! deterministic.
//!
//! Streams are validated at construction ([`AccessTrace::new`] /
//! [`AccessTrace::interleaved`]): an out-of-range core id, an
//! unaligned address, or an address past the modelled range is a typed
//! [`CoherenceError`], never a panic inside the engine.

use cryowire_system::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::CoherenceError;

/// One memory reference of a core's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreAccess {
    /// Byte address (line-aligned).
    pub addr: u64,
    /// Store (true) or load (false).
    pub write: bool,
    /// Non-memory instructions executed before this reference — the
    /// core is busy for this many cycles between references
    /// (the `cachesim-rs-mp` "other instructions" counter).
    pub think: u32,
}

/// Validated per-core access streams over a shared line space.
///
/// Construction also interns every distinct line the trace touches into
/// a dense index space (`u32` indices, deterministic first-appearance
/// order over core-major stream iteration), so the engines keep their
/// per-line state — version maps, directory entries, MSHR line masks —
/// in flat `Vec`s indexed by line index instead of hash maps keyed by
/// line number. The interner is built exactly once per trace; the hot
/// loops never hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessTrace {
    streams: Vec<Vec<CoreAccess>>,
    /// Per-access interned line index, parallel to `streams`.
    line_idx: Vec<Vec<u32>>,
    /// Interned line numbers, index → line.
    lines: Vec<u64>,
    line_bytes: u32,
    addr_limit: u64,
    total: u64,
}

impl AccessTrace {
    /// Builds a trace from per-core streams, validating every access.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::UnalignedAddress`] /
    /// [`CoherenceError::AddressOutOfRange`] name the first offending
    /// access; [`CoherenceError::InvalidConfig`] rejects zero cores or a
    /// non-power-of-two line size.
    pub fn new(
        streams: Vec<Vec<CoreAccess>>,
        line_bytes: u32,
        addr_limit: u64,
    ) -> Result<Self, CoherenceError> {
        if streams.is_empty() {
            return Err(CoherenceError::InvalidConfig {
                reason: "trace needs at least one core stream".to_string(),
            });
        }
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(CoherenceError::InvalidConfig {
                reason: "line size must be a non-zero power of two".to_string(),
            });
        }
        for (core, stream) in streams.iter().enumerate() {
            for (index, a) in stream.iter().enumerate() {
                if a.addr % u64::from(line_bytes) != 0 {
                    return Err(CoherenceError::UnalignedAddress {
                        core,
                        index,
                        addr: a.addr,
                        line_bytes: u64::from(line_bytes),
                    });
                }
                if a.addr >= addr_limit {
                    return Err(CoherenceError::AddressOutOfRange {
                        core,
                        index,
                        addr: a.addr,
                        limit: addr_limit,
                    });
                }
            }
        }
        let total = streams.iter().map(|s| s.len() as u64).sum();
        // Intern every distinct line once, in core-major first-appearance
        // order, so engines can use dense per-line arenas.
        let mut interner: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut lines = Vec::new();
        let line_idx = streams
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .map(|a| {
                        let line = a.addr / u64::from(line_bytes);
                        *interner.entry(line).or_insert_with(|| {
                            lines.push(line);
                            u32::try_from(lines.len() - 1).expect("line index fits u32")
                        })
                    })
                    .collect()
            })
            .collect();
        Ok(AccessTrace {
            streams,
            line_idx,
            lines,
            line_bytes,
            addr_limit,
            total,
        })
    }

    /// Builds a trace from one interleaved `(core, addr, write)` event
    /// list (round-robin think time of zero), validating core ids
    /// before splitting.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::CoreOutOfRange`] for a bad core id, plus
    /// everything [`AccessTrace::new`] rejects.
    pub fn interleaved(
        events: &[(usize, u64, bool)],
        cores: usize,
        line_bytes: u32,
        addr_limit: u64,
    ) -> Result<Self, CoherenceError> {
        if cores == 0 {
            return Err(CoherenceError::InvalidConfig {
                reason: "trace needs at least one core".to_string(),
            });
        }
        let mut streams = vec![Vec::new(); cores];
        for (index, &(core, addr, write)) in events.iter().enumerate() {
            if core >= cores {
                return Err(CoherenceError::CoreOutOfRange { index, core, cores });
            }
            streams[core].push(CoreAccess {
                addr,
                write,
                think: 0,
            });
        }
        AccessTrace::new(streams, line_bytes, addr_limit)
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.streams.len()
    }

    /// Line size, bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total accesses across all cores.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// One core's stream.
    #[must_use]
    pub fn stream(&self, core: usize) -> &[CoreAccess] {
        &self.streams[core]
    }

    /// Line number of an access address.
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / u64::from(self.line_bytes)
    }

    /// One core's interned line indices, parallel to
    /// [`AccessTrace::stream`].
    #[must_use]
    pub fn line_indices(&self, core: usize) -> &[u32] {
        &self.line_idx[core]
    }

    /// Number of distinct lines the trace touches — the size of every
    /// per-line engine arena.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Interned line numbers, index → line (first-appearance order over
    /// core-major stream iteration).
    #[must_use]
    pub fn lines(&self) -> &[u64] {
        &self.lines
    }
}

/// The sharing structures the generator can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingPattern {
    /// All cores periodically read-modify-write a small set of barrier
    /// lines between stretches of private work — the streamcluster
    /// ping-pong that favours one-broadcast snooping.
    BarrierHeavy,
    /// Core *i* writes a buffer that core *i+1* reads next phase —
    /// migratory sharing with one producer and one consumer per line.
    ProducerConsumer,
    /// Every core streams over its own region; no sharing at all, the
    /// directory's best case.
    PrivateStreaming,
    /// One third of the cores runs each of the above.
    Mixed,
}

impl SharingPattern {
    /// Display name used by sweep artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SharingPattern::BarrierHeavy => "barrier-heavy",
            SharingPattern::ProducerConsumer => "producer-consumer",
            SharingPattern::PrivateStreaming => "private-streaming",
            SharingPattern::Mixed => "mixed",
        }
    }

    /// All patterns, in sweep order.
    #[must_use]
    pub fn all() -> [SharingPattern; 4] {
        [
            SharingPattern::BarrierHeavy,
            SharingPattern::ProducerConsumer,
            SharingPattern::PrivateStreaming,
            SharingPattern::Mixed,
        ]
    }
}

/// Parameters of one generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenConfig {
    /// Number of cores.
    pub cores: usize,
    /// References per core.
    pub accesses_per_core: usize,
    /// The sharing structure.
    pub pattern: SharingPattern,
    /// Line size, bytes.
    pub line_bytes: u32,
    /// Shared lines (barrier/buffer pool size).
    pub shared_lines: u64,
    /// Private lines per core.
    pub private_lines: u64,
    /// Store fraction of private work in `[0, 1]`.
    pub write_fraction: f64,
    /// Mean think cycles between references (uniform on
    /// `0..=2*mean`).
    pub think_mean: u32,
    /// Accesses of private work between sharing events.
    pub sharing_period: u32,
    /// Generator seed.
    pub seed: u64,
}

impl TraceGenConfig {
    /// A small default configuration for `pattern` over `cores` cores.
    #[must_use]
    pub fn new(pattern: SharingPattern, cores: usize) -> Self {
        TraceGenConfig {
            cores,
            accesses_per_core: 2_000,
            pattern,
            line_bytes: 64,
            shared_lines: 8,
            private_lines: 64,
            write_fraction: 0.3,
            think_mean: 4,
            sharing_period: 16,
            seed: 0xC0_11E5,
        }
    }

    /// Derives a configuration from a calibrated workload profile:
    /// `barriers_per_kinst` sets how often a core touches a shared line
    /// (one sharing event per `1000 / barriers_per_kinst`
    /// instructions, converted to references), `l2_mpki` sets the think
    /// time between the references that reach the coherence fabric, and
    /// barrier-free profiles degrade to private streaming.
    #[must_use]
    pub fn from_workload(w: &Workload, cores: usize, accesses_per_core: usize, seed: u64) -> Self {
        // Instructions per L2-reaching reference, bounded to keep the
        // simulation dense enough to be interesting.
        let think = (1000.0 / w.l2_mpki.max(0.5)).clamp(1.0, 200.0) as u32;
        let pattern = if w.barriers_per_kinst >= 1.0 {
            SharingPattern::BarrierHeavy
        } else if w.barriers_per_kinst >= 0.2 {
            SharingPattern::Mixed
        } else if w.barriers_per_kinst > 0.0 {
            SharingPattern::ProducerConsumer
        } else {
            SharingPattern::PrivateStreaming
        };
        // Sharing events per kilo-instruction → private references
        // between sharing events for this workload's reference rate.
        let insts_per_sharing = 1000.0 / w.barriers_per_kinst.max(1e-3);
        let refs_per_sharing = (insts_per_sharing / f64::from(think)).clamp(2.0, 256.0);
        TraceGenConfig {
            cores,
            accesses_per_core,
            pattern,
            line_bytes: 64,
            shared_lines: 8,
            private_lines: 128,
            write_fraction: 0.3,
            think_mean: think,
            sharing_period: refs_per_sharing as u32,
            seed,
        }
    }

    /// Address of shared line `i`.
    fn shared_addr(&self, i: u64) -> u64 {
        i % self.shared_lines.max(1) * u64::from(self.line_bytes)
    }

    /// Address of `core`'s private line `i`.
    fn private_addr(&self, core: usize, i: u64) -> u64 {
        let base = self.shared_lines + core as u64 * self.private_lines;
        (base + i % self.private_lines.max(1)) * u64::from(self.line_bytes)
    }

    /// First byte address past the generated range.
    #[must_use]
    pub fn addr_limit(&self) -> u64 {
        (self.shared_lines + self.cores as u64 * self.private_lines) * u64::from(self.line_bytes)
    }

    /// Generates the validated trace.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] for zero cores/accesses or a
    /// write fraction outside `[0, 1]`.
    pub fn generate(&self) -> Result<AccessTrace, CoherenceError> {
        if self.cores == 0 || self.accesses_per_core == 0 {
            return Err(CoherenceError::InvalidConfig {
                reason: "generator needs at least one core and one access".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err(CoherenceError::InvalidConfig {
                reason: "write fraction must be within [0, 1]".to_string(),
            });
        }
        let streams = (0..self.cores)
            .map(|core| {
                let pattern = match self.pattern {
                    SharingPattern::Mixed => match core % 3 {
                        0 => SharingPattern::BarrierHeavy,
                        1 => SharingPattern::ProducerConsumer,
                        _ => SharingPattern::PrivateStreaming,
                    },
                    p => p,
                };
                self.core_stream(core, pattern)
            })
            .collect();
        AccessTrace::new(streams, self.line_bytes, self.addr_limit())
    }

    fn core_stream(&self, core: usize, pattern: SharingPattern) -> Vec<CoreAccess> {
        // Per-core seed so streams are independent of core count
        // iteration order.
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut out = Vec::with_capacity(self.accesses_per_core);
        let period = self.sharing_period.max(2) as usize;
        let mut private_cursor = rng.gen_range(0..self.private_lines.max(1));
        let mut phase = 0u64;
        let think = |rng: &mut StdRng| -> u32 {
            if self.think_mean == 0 {
                0
            } else {
                rng.gen_range(0..=2 * self.think_mean)
            }
        };
        while out.len() < self.accesses_per_core {
            match pattern {
                SharingPattern::BarrierHeavy => {
                    // Private stretch, then RMW the phase's barrier line.
                    for _ in 0..period.saturating_sub(2) {
                        if out.len() >= self.accesses_per_core {
                            break;
                        }
                        private_cursor += 1;
                        out.push(CoreAccess {
                            addr: self.private_addr(core, private_cursor),
                            write: rng.gen_bool(self.write_fraction),
                            think: think(&mut rng),
                        });
                    }
                    let barrier = self.shared_addr(phase);
                    out.push(CoreAccess {
                        addr: barrier,
                        write: false,
                        think: think(&mut rng),
                    });
                    out.push(CoreAccess {
                        addr: barrier,
                        write: true,
                        think: 0,
                    });
                }
                SharingPattern::ProducerConsumer => {
                    // Produce into this core's buffer, consume the left
                    // neighbour's previous-phase buffer.
                    let n = self.cores as u64;
                    let mine = core as u64;
                    let left = (mine + n - 1) % n;
                    for i in 0..period / 2 {
                        if out.len() >= self.accesses_per_core {
                            break;
                        }
                        out.push(CoreAccess {
                            addr: self.shared_addr(mine + n * (i as u64 % 2)),
                            write: true,
                            think: think(&mut rng),
                        });
                    }
                    for i in 0..period / 2 {
                        if out.len() >= self.accesses_per_core {
                            break;
                        }
                        out.push(CoreAccess {
                            addr: self.shared_addr(left + n * (i as u64 % 2)),
                            write: false,
                            think: think(&mut rng),
                        });
                    }
                }
                SharingPattern::PrivateStreaming | SharingPattern::Mixed => {
                    private_cursor += 1;
                    out.push(CoreAccess {
                        addr: self.private_addr(core, private_cursor),
                        write: rng.gen_bool(self.write_fraction),
                        think: think(&mut rng),
                    });
                }
            }
            phase += 1;
        }
        out.truncate(self.accesses_per_core);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_traces_validate_and_are_deterministic() {
        for pattern in SharingPattern::all() {
            let cfg = TraceGenConfig::new(pattern, 4);
            let a = cfg.generate().unwrap();
            let b = cfg.generate().unwrap();
            assert_eq!(a, b, "{pattern:?} generation must be deterministic");
            assert_eq!(a.cores(), 4);
            assert_eq!(a.total_accesses(), 4 * 2_000);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenConfig::new(SharingPattern::BarrierHeavy, 4)
            .generate()
            .unwrap();
        let b = TraceGenConfig {
            seed: 99,
            ..TraceGenConfig::new(SharingPattern::BarrierHeavy, 4)
        }
        .generate()
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn barrier_heavy_shares_lines_across_cores() {
        let cfg = TraceGenConfig::new(SharingPattern::BarrierHeavy, 4);
        let t = cfg.generate().unwrap();
        let shared_limit = cfg.shared_lines * u64::from(cfg.line_bytes);
        for core in 0..4 {
            assert!(
                t.stream(core)
                    .iter()
                    .any(|a| a.addr < shared_limit && a.write),
                "core {core} never writes a shared line"
            );
        }
    }

    #[test]
    fn private_streaming_never_shares() {
        let cfg = TraceGenConfig::new(SharingPattern::PrivateStreaming, 4);
        let t = cfg.generate().unwrap();
        let shared_limit = cfg.shared_lines * u64::from(cfg.line_bytes);
        for core in 0..4 {
            assert!(t.stream(core).iter().all(|a| a.addr >= shared_limit));
        }
    }

    #[test]
    fn interleaved_rejects_bad_core_ids() {
        let err =
            AccessTrace::interleaved(&[(0, 0, false), (5, 64, true)], 4, 64, 1 << 20).unwrap_err();
        assert_eq!(
            err,
            CoherenceError::CoreOutOfRange {
                index: 1,
                core: 5,
                cores: 4
            }
        );
    }

    #[test]
    fn unaligned_and_out_of_range_addresses_are_typed_errors() {
        let unaligned = AccessTrace::new(
            vec![vec![CoreAccess {
                addr: 33,
                write: false,
                think: 0,
            }]],
            64,
            1 << 20,
        )
        .unwrap_err();
        assert!(matches!(
            unaligned,
            CoherenceError::UnalignedAddress { addr: 33, .. }
        ));
        let oob = AccessTrace::new(
            vec![vec![CoreAccess {
                addr: 1 << 30,
                write: false,
                think: 0,
            }]],
            64,
            1 << 20,
        )
        .unwrap_err();
        assert!(matches!(
            oob,
            CoherenceError::AddressOutOfRange { addr, .. } if addr == 1 << 30
        ));
    }

    #[test]
    fn interner_is_dense_deterministic_and_parallel_to_streams() {
        let t = AccessTrace::interleaved(
            &[(0, 0, false), (1, 128, true), (0, 0, true), (1, 64, false)],
            2,
            64,
            1 << 20,
        )
        .unwrap();
        // First-appearance order over core-major iteration:
        // core 0 touches line 0 twice, core 1 touches lines 2 then 1.
        assert_eq!(t.lines(), &[0, 2, 1]);
        assert_eq!(t.num_lines(), 3);
        assert_eq!(t.line_indices(0), &[0, 0]);
        assert_eq!(t.line_indices(1), &[1, 2]);
        for core in 0..2 {
            assert_eq!(t.line_indices(core).len(), t.stream(core).len());
            for (a, &idx) in t.stream(core).iter().zip(t.line_indices(core)) {
                assert_eq!(t.lines()[idx as usize], t.line_of(a.addr));
            }
        }
    }

    #[test]
    fn workload_derivation_maps_barriers_to_patterns() {
        let parsec = Workload::parsec();
        let sc = parsec.iter().find(|w| w.name == "streamcluster").unwrap();
        let bs = parsec.iter().find(|w| w.name == "blackscholes").unwrap();
        let sc_cfg = TraceGenConfig::from_workload(sc, 8, 1000, 1);
        let bs_cfg = TraceGenConfig::from_workload(bs, 8, 1000, 1);
        assert_eq!(sc_cfg.pattern, SharingPattern::BarrierHeavy);
        assert_ne!(bs_cfg.pattern, SharingPattern::BarrierHeavy);
        // The barrier-heavy profile shares far more often.
        assert!(sc_cfg.sharing_period < bs_cfg.sharing_period);
        sc_cfg.generate().unwrap();
        bs_cfg.generate().unwrap();
    }
}
