//! Per-point supervision: typed failure taxonomy, wall-clock
//! deadlines, bounded deterministic backoff, and poison-point
//! quarantine.
//!
//! Every sweep evaluation runs under a [`SupervisePolicy`]. A failing
//! attempt is *classified* into a [`FailureClass`]: evaluators can
//! signal a class explicitly ([`fail`]), and untyped panics are
//! classified from their message (the simulators' progress watchdogs
//! already stamp `Stalled` into theirs). Transient classes (I/O,
//! timeout, stall, cache corruption) are retried with bounded
//! exponential backoff whose jitter derives from the point seed — the
//! retry schedule is a pure function of (policy, seed), never of the
//! wall clock or thread schedule. A point that exhausts its attempt
//! budget is **quarantined**: its record carries the failure, nothing
//! is cached or journaled for it, and the rest of the grid proceeds
//! (or stops early under fail-fast).
//!
//! Deadlines are cooperative, matching the codebase's watchdog
//! philosophy (hangs are converted into typed errors at the source,
//! never waited out): the supervisor arms a thread-local deadline
//! around each attempt, and long-running evaluators call
//! [`checkpoint`] from their loops to convert an overrun into a typed
//! `Timeout` failure. A truly wedged process is the journal's problem,
//! not the supervisor's: `kill -9` + `--resume` is the documented
//! recovery path for that.

use crate::hash::stable_hash64;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The typed failure taxonomy of one evaluation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The evaluator panicked for a reason the taxonomy cannot name —
    /// treated as deterministic (a retry would panic again).
    Panic,
    /// A cooperative wall-clock deadline fired ([`checkpoint`]).
    Timeout,
    /// A progress watchdog tripped (the simulators' `SimError::Stalled`).
    Stalled,
    /// A cache entry failed its checksum or envelope parse.
    CacheCorrupt,
    /// A filesystem or OS error (ENOSPC, EIO, permission).
    Io,
}

impl FailureClass {
    /// Stable lowercase label, used in artifacts and log lines.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureClass::Panic => "panic",
            FailureClass::Timeout => "timeout",
            FailureClass::Stalled => "stalled",
            FailureClass::CacheCorrupt => "cache-corrupt",
            FailureClass::Io => "io",
        }
    }

    /// Parses [`FailureClass::as_str`] back.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "panic" => FailureClass::Panic,
            "timeout" => FailureClass::Timeout,
            "stalled" => FailureClass::Stalled,
            "cache-corrupt" => FailureClass::CacheCorrupt,
            "io" => FailureClass::Io,
            _ => return None,
        })
    }

    /// Whether failures of this class are worth retrying: anything
    /// environmental (I/O, stall, timeout, corruption) may heal;
    /// a plain panic is assumed deterministic.
    #[must_use]
    pub fn is_transient(self) -> bool {
        !matches!(self, FailureClass::Panic)
    }
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One classified evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The taxonomy class.
    pub class: FailureClass,
    /// Human-readable message (deterministic — it lands in canonical
    /// artifacts).
    pub message: String,
}

impl Failure {
    /// A failure of `class` with `message`.
    #[must_use]
    pub fn new(class: FailureClass, message: impl Into<String>) -> Self {
        Failure {
            class,
            message: message.into(),
        }
    }
}

/// Aborts the current evaluation attempt with a typed failure. The
/// supervisor catches the unwind and classifies it exactly (no message
/// heuristics involved).
pub fn fail(class: FailureClass, message: impl Into<String>) -> ! {
    std::panic::panic_any(Failure::new(class, message.into()))
}

/// Classifies a caught panic payload: typed [`Failure`] payloads pass
/// through verbatim; string payloads are classified from their text
/// (the simulators' watchdogs stamp `Stalled`/`stalled`, I/O errors
/// carry `os error`); anything else is a plain [`FailureClass::Panic`].
#[must_use]
pub fn classify(payload: &(dyn std::any::Any + Send)) -> Failure {
    if let Some(f) = payload.downcast_ref::<Failure>() {
        return f.clone();
    }
    let message = payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string());
    let lower = message.to_lowercase();
    let class = if lower.contains("stalled") || lower.contains("watchdog") {
        FailureClass::Stalled
    } else if lower.contains("deadline exceeded") || lower.contains("timed out") {
        FailureClass::Timeout
    } else if lower.contains("corrupt") || lower.contains("checksum") {
        FailureClass::CacheCorrupt
    } else if lower.contains("os error") || lower.contains("no space") || lower.contains("i/o") {
        FailureClass::Io
    } else {
        FailureClass::Panic
    };
    Failure { class, message }
}

/// Upper bound on a single backoff delay.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Retry/deadline/backoff policy for supervised evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Per-attempt wall-clock budget enforced cooperatively through
    /// [`checkpoint`]; `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Total attempts a transient failure is allowed (≥ 1). `1` means
    /// no retries — the pre-supervision behavior.
    pub max_attempts: u32,
    /// First backoff delay; each further retry doubles it, up to 2 s.
    pub backoff_base: Duration,
    /// Stop dispatching new points after the first quarantined one.
    /// The artifact still lists every point; undispatched ones are
    /// marked skipped. Which points were skipped depends on timing, so
    /// fail-fast runs trade canonical determinism for early exit.
    pub fail_fast: bool,
    /// Sleep inserted before every attempt — chaos-test pacing so a
    /// mid-grid `kill -9` lands predictably. Zero in production.
    pub pace: Duration,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            deadline: None,
            max_attempts: 1,
            backoff_base: Duration::from_millis(25),
            fail_fast: false,
            pace: Duration::ZERO,
        }
    }
}

impl SupervisePolicy {
    /// A policy allowing `retries` retries (so `retries + 1` attempts).
    #[must_use]
    pub fn with_retries(retries: u32) -> Self {
        SupervisePolicy {
            max_attempts: retries + 1,
            ..SupervisePolicy::default()
        }
    }

    /// The backoff before retry number `attempt + 1`, after failing
    /// attempt `attempt` (1-based): exponential in the attempt, capped,
    /// with jitter derived from (`seed`, `attempt`) — deterministic for
    /// a given point, decorrelated across points.
    #[must_use]
    pub fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.backoff_base.as_millis() as u64;
        let cap = BACKOFF_CAP.as_millis() as u64;
        let exp = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(cap);
        let half = exp / 2;
        let mut bytes = [0u8; 12];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..].copy_from_slice(&attempt.to_le_bytes());
        let jitter = if half == 0 {
            0
        } else {
            stable_hash64(&bytes) % (half + 1)
        };
        Duration::from_millis(half + jitter)
    }
}

/// The result of supervising one evaluation to completion.
#[derive(Debug)]
pub struct Supervised<T> {
    /// The value of the first successful attempt, or the failure of
    /// the last attempt.
    pub result: Result<T, Failure>,
    /// Attempts made (1-based; ≥ 1).
    pub attempts: u32,
}

thread_local! {
    /// Attempt number of the evaluation running on this thread
    /// (0 = not under supervision).
    static ATTEMPT: Cell<u32> = const { Cell::new(0) };
    /// Cooperative deadline of the running attempt.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The 1-based attempt number of the supervised evaluation running on
/// this thread, or 1 outside supervision (so evaluators written for
/// retry-awareness behave as "first attempt" under plain execution).
#[must_use]
pub fn current_attempt() -> u32 {
    ATTEMPT.with(|a| a.get().max(1))
}

/// True if the running attempt's cooperative deadline has passed.
#[must_use]
pub fn deadline_exceeded() -> bool {
    DEADLINE.with(|d| d.get().is_some_and(|dl| Instant::now() > dl))
}

/// Cooperative deadline check for long-running evaluators: call from
/// the hot loop; past the deadline it aborts the attempt with a typed
/// [`FailureClass::Timeout`]. A no-op when no deadline is armed.
pub fn checkpoint() {
    if deadline_exceeded() {
        fail(
            FailureClass::Timeout,
            "deadline exceeded (cooperative checkpoint)",
        );
    }
}

/// Runs `eval` under `policy`: attempts are isolated with
/// `catch_unwind`, failures classified, transient classes retried with
/// [`SupervisePolicy::backoff`], and the thread-local attempt/deadline
/// context armed around each attempt.
pub fn supervised<T>(
    policy: &SupervisePolicy,
    seed: u64,
    mut eval: impl FnMut() -> T,
) -> Supervised<T> {
    let max = policy.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        attempt += 1;
        if !policy.pace.is_zero() {
            std::thread::sleep(policy.pace);
        }
        ATTEMPT.with(|a| a.set(attempt));
        DEADLINE.with(|d| d.set(policy.deadline.map(|dl| Instant::now() + dl)));
        let outcome = catch_unwind(AssertUnwindSafe(&mut eval));
        ATTEMPT.with(|a| a.set(0));
        DEADLINE.with(|d| d.set(None));
        match outcome {
            Ok(value) => {
                return Supervised {
                    result: Ok(value),
                    attempts: attempt,
                }
            }
            Err(payload) => {
                let failure = classify(payload.as_ref());
                if attempt >= max || !failure.class.is_transient() {
                    return Supervised {
                        result: Err(failure),
                        attempts: attempt,
                    };
                }
                std::thread::sleep(policy.backoff(attempt, seed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn quick_policy(max_attempts: u32) -> SupervisePolicy {
        SupervisePolicy {
            max_attempts,
            backoff_base: Duration::from_millis(1),
            ..SupervisePolicy::default()
        }
    }

    #[test]
    fn success_is_single_attempt() {
        let s = supervised(&quick_policy(5), 7, || 42);
        assert_eq!(s.result.unwrap(), 42);
        assert_eq!(s.attempts, 1);
    }

    #[test]
    fn transient_failures_heal_within_budget() {
        let calls = AtomicU32::new(0);
        let s = supervised(&quick_policy(4), 7, || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                fail(FailureClass::Io, "flaky I/O");
            }
            "ok"
        });
        assert_eq!(s.result.unwrap(), "ok");
        assert_eq!(s.attempts, 3);
        assert_eq!(current_attempt(), 1, "context cleared after supervision");
    }

    #[test]
    fn poison_point_quarantined_after_budget() {
        let calls = AtomicU32::new(0);
        let s = supervised(&quick_policy(3), 7, || -> u32 {
            calls.fetch_add(1, Ordering::Relaxed);
            fail(FailureClass::Stalled, "never heals");
        });
        let failure = s.result.unwrap_err();
        assert_eq!(failure.class, FailureClass::Stalled);
        assert_eq!(s.attempts, 3);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "full budget spent");
    }

    #[test]
    fn plain_panics_are_not_retried() {
        let calls = AtomicU32::new(0);
        let s = supervised(&quick_policy(5), 7, || -> u32 {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("deterministic bug");
        });
        assert_eq!(s.result.unwrap_err().class, FailureClass::Panic);
        assert_eq!(s.attempts, 1);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cooperative_deadline_times_out_and_quarantines() {
        let policy = SupervisePolicy {
            deadline: Some(Duration::from_millis(20)),
            ..quick_policy(2)
        };
        let s = supervised(&policy, 7, || -> u32 {
            loop {
                std::thread::sleep(Duration::from_millis(2));
                checkpoint();
            }
        });
        let failure = s.result.unwrap_err();
        assert_eq!(failure.class, FailureClass::Timeout);
        assert_eq!(s.attempts, 2, "timeouts are transient, so retried once");
    }

    #[test]
    fn attempt_context_visible_to_evaluator() {
        let s = supervised(&quick_policy(3), 7, || {
            let a = current_attempt();
            if a < 3 {
                fail(FailureClass::Io, "warm-up");
            }
            a
        });
        assert_eq!(s.result.unwrap(), 3);
    }

    #[test]
    fn classification_heuristics() {
        let cases: &[(&str, FailureClass)] = &[
            ("simulation Stalled { blocked: 3 }", FailureClass::Stalled),
            ("progress watchdog tripped", FailureClass::Stalled),
            ("deadline exceeded (cooperative)", FailureClass::Timeout),
            ("cache entry corrupt", FailureClass::CacheCorrupt),
            ("No space left on device (os error 28)", FailureClass::Io),
            ("index out of bounds", FailureClass::Panic),
        ];
        for (msg, want) in cases {
            let payload: Box<dyn std::any::Any + Send> = Box::new((*msg).to_string());
            let f = classify(payload.as_ref());
            assert_eq!(f.class, *want, "{msg}");
            assert_eq!(f.message, *msg, "message preserved verbatim");
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = SupervisePolicy::default();
        let a = policy.backoff(1, 42);
        let b = policy.backoff(1, 42);
        assert_eq!(a, b, "same (seed, attempt) => same delay");
        assert_ne!(
            policy.backoff(1, 42),
            policy.backoff(1, 43),
            "different seeds decorrelate"
        );
        for attempt in 1..12 {
            let d = policy.backoff(attempt, 7);
            assert!(d <= BACKOFF_CAP, "attempt {attempt} capped");
            let exp = policy
                .backoff_base
                .as_millis()
                .saturating_mul(1 << (attempt - 1).min(20))
                .min(BACKOFF_CAP.as_millis());
            assert!(
                u128::from(d.as_millis() as u64) >= exp / 2,
                "attempt {attempt} at least half the exponential step"
            );
        }
    }

    #[test]
    fn class_labels_round_trip() {
        for class in [
            FailureClass::Panic,
            FailureClass::Timeout,
            FailureClass::Stalled,
            FailureClass::CacheCorrupt,
            FailureClass::Io,
        ] {
            assert_eq!(FailureClass::parse(class.as_str()), Some(class));
        }
        assert_eq!(FailureClass::parse("nope"), None);
    }
}
