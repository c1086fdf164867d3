//! Structured run artifacts: every sweep serializes to one JSON
//! document with per-point parameters, seeds, cache provenance, timing
//! and the evaluated value.

use crate::spec::Point;
use crate::supervise::FailureClass;
use serde_json::Value;
use std::io;
use std::path::Path;

/// One evaluated point in an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Enumeration index within the sweep.
    pub index: usize,
    /// The point's parameters.
    pub params: Point,
    /// Content-address key (cache filename).
    pub key: String,
    /// Deterministic RNG seed handed to the evaluator.
    pub seed: u64,
    /// Whether the value came from the cache.
    pub cached: bool,
    /// Evaluation wall time, ms (0 for cache hits).
    pub eval_ms: f64,
    /// The evaluated result ([`Value::Null`] when the evaluator
    /// panicked).
    pub value: Value,
    /// The panic message, when the evaluator panicked on this point.
    /// Failed points never enter the cache.
    pub error: Option<String>,
    /// Evaluation attempts made (1 for first-try successes and cache
    /// hits; > 1 when the supervisor retried a transient failure).
    pub attempts: u32,
    /// Whether the value was replayed from a run journal (`--resume`)
    /// instead of evaluated or cache-hit.
    pub resumed: bool,
    /// Failure taxonomy class, when the point exhausted its attempt
    /// budget and was quarantined. `None` with `error` set means the
    /// point was *skipped* (fail-fast stopped the grid before it ran).
    pub failure_class: Option<FailureClass>,
}

impl PointRecord {
    /// True if the evaluator failed on this point (quarantined or
    /// skipped).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// True if this point failed with a classified failure after
    /// exhausting its attempt budget.
    #[must_use]
    pub fn quarantined(&self) -> bool {
        self.error.is_some() && self.failure_class.is_some()
    }

    /// True if this point was never dispatched because fail-fast
    /// stopped the grid first.
    #[must_use]
    pub fn skipped(&self) -> bool {
        self.error.is_some() && self.failure_class.is_none()
    }
}

/// Aggregate counters of one sweep run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Points enumerated.
    pub points: usize,
    /// Points answered from cache.
    pub cache_hits: usize,
    /// Points actually evaluated.
    pub evaluated: usize,
    /// Points answered by an identical point earlier in the same grid
    /// (content-key duplicates collapsed before dispatch).
    pub deduped: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Points whose evaluator failed (isolated, not cached) —
    /// quarantined and skipped points both count.
    pub failed: usize,
    /// Points answered from the run journal (`--resume`).
    pub resumed: usize,
    /// Points that exhausted their attempt budget with a classified
    /// failure.
    pub quarantined: usize,
    /// Points skipped because fail-fast stopped the grid.
    pub skipped: usize,
    /// Extra evaluation attempts spent on transient failures (total
    /// attempts minus one, summed over points).
    pub retried: u64,
    /// Journal write and sync failures, plus the appends dropped after
    /// them (best-effort: the lost records are recomputed on resume).
    pub journal_errors: u64,
    /// Journal group commits (`fdatasync`s) the run issued; concurrent
    /// workers share them, so this falls below
    /// [`journal_appended`](Self::journal_appended).
    pub journal_syncs: u64,
    /// Records the run appended to its journal: every point it resolved
    /// without failing, cache hits included (resumed points are in the
    /// file already).
    pub journal_appended: u64,
    /// End-to-end wall time, ms.
    pub wall_ms: f64,
}

/// The serialized output of one sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifact {
    /// Sweep name (from the spec).
    pub sweep: String,
    /// Evaluator tag (cache namespace / version).
    pub eval_tag: String,
    /// Base seed the per-point seeds derive from.
    pub base_seed: u64,
    /// Per-point records, in enumeration order.
    pub points: Vec<PointRecord>,
    /// Run counters.
    pub stats: RunStats,
}

impl RunArtifact {
    /// The deterministic portion of the artifact: everything except
    /// timing and cache provenance. Two runs of the same spec —
    /// whatever their thread counts or cache states — produce
    /// identical canonical values.
    #[must_use]
    pub fn canonical_value(&self) -> Value {
        Value::Object(vec![
            ("sweep".into(), Value::String(self.sweep.clone())),
            ("eval_tag".into(), Value::String(self.eval_tag.clone())),
            ("base_seed".into(), Value::UInt(self.base_seed)),
            (
                "points".into(),
                Value::Array(
                    self.points
                        .iter()
                        .map(|p| {
                            let mut fields = vec![
                                ("params".into(), p.params.to_json()),
                                ("key".into(), Value::String(p.key.clone())),
                                ("seed".into(), Value::UInt(p.seed)),
                                ("value".into(), p.value.clone()),
                            ];
                            if let Some(e) = &p.error {
                                fields.push(("error".into(), Value::String(e.clone())));
                            }
                            Value::Object(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Canonical JSON text (see [`RunArtifact::canonical_value`]).
    #[must_use]
    pub fn canonical_json(&self) -> String {
        let mut out = String::new();
        self.canonical_value().write_json_pretty(&mut out, 0);
        out
    }

    /// The full artifact document, timing and provenance included.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("sweep".into(), Value::String(self.sweep.clone())),
            ("eval_tag".into(), Value::String(self.eval_tag.clone())),
            ("base_seed".into(), Value::UInt(self.base_seed)),
            (
                "stats".into(),
                Value::Object(vec![
                    ("points".into(), Value::UInt(self.stats.points as u64)),
                    (
                        "cache_hits".into(),
                        Value::UInt(self.stats.cache_hits as u64),
                    ),
                    ("evaluated".into(), Value::UInt(self.stats.evaluated as u64)),
                    ("deduped".into(), Value::UInt(self.stats.deduped as u64)),
                    ("threads".into(), Value::UInt(self.stats.threads as u64)),
                    ("failed".into(), Value::UInt(self.stats.failed as u64)),
                    ("resumed".into(), Value::UInt(self.stats.resumed as u64)),
                    (
                        "quarantined".into(),
                        Value::UInt(self.stats.quarantined as u64),
                    ),
                    ("skipped".into(), Value::UInt(self.stats.skipped as u64)),
                    ("retried".into(), Value::UInt(self.stats.retried)),
                    (
                        "journal_errors".into(),
                        Value::UInt(self.stats.journal_errors),
                    ),
                    (
                        "journal_syncs".into(),
                        Value::UInt(self.stats.journal_syncs),
                    ),
                    (
                        "journal_appended".into(),
                        Value::UInt(self.stats.journal_appended),
                    ),
                    ("wall_ms".into(), Value::Float(self.stats.wall_ms)),
                ]),
            ),
            (
                "points".into(),
                Value::Array(
                    self.points
                        .iter()
                        .map(|p| {
                            let mut fields = vec![
                                ("index".into(), Value::UInt(p.index as u64)),
                                ("params".into(), p.params.to_json()),
                                ("key".into(), Value::String(p.key.clone())),
                                ("seed".into(), Value::UInt(p.seed)),
                                ("cached".into(), Value::Bool(p.cached)),
                                ("eval_ms".into(), Value::Float(p.eval_ms)),
                                ("attempts".into(), Value::UInt(u64::from(p.attempts))),
                                ("resumed".into(), Value::Bool(p.resumed)),
                                ("value".into(), p.value.clone()),
                            ];
                            if let Some(e) = &p.error {
                                fields.push(("error".into(), Value::String(e.clone())));
                            }
                            if let Some(c) = p.failure_class {
                                fields.push((
                                    "failure_class".into(),
                                    Value::String(c.as_str().into()),
                                ));
                            }
                            Value::Object(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the full artifact as pretty JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut out = String::new();
        self.to_value().write_json_pretty(&mut out, 0);
        out.push('\n');
        std::fs::write(path, out)
    }

    /// Looks a point up by predicate over its parameters.
    #[must_use]
    pub fn find(&self, pred: impl Fn(&Point) -> bool) -> Option<&PointRecord> {
        self.points.iter().find(|p| pred(&p.params))
    }

    /// True if any point's evaluator failed.
    #[must_use]
    pub fn has_failures(&self) -> bool {
        self.stats.failed > 0
    }

    /// The records of failed points, in enumeration order.
    pub fn failed_points(&self) -> impl Iterator<Item = &PointRecord> {
        self.points.iter().filter(|p| p.failed())
    }
}

impl serde::Serialize for RunArtifact {
    fn serialize_value(&self) -> Value {
        self.to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Point;

    fn artifact(threads: usize, cached: bool, eval_ms: f64) -> RunArtifact {
        RunArtifact {
            sweep: "s".into(),
            eval_tag: "t/v1".into(),
            base_seed: 1,
            points: vec![PointRecord {
                index: 0,
                params: Point::from_pairs([("x", 1i64)]),
                key: "ab".into(),
                seed: 9,
                cached,
                eval_ms,
                value: Value::Float(2.5),
                error: None,
                attempts: 1,
                resumed: false,
                failure_class: None,
            }],
            stats: RunStats {
                points: 1,
                cache_hits: usize::from(cached),
                evaluated: usize::from(!cached),
                deduped: 0,
                threads,
                failed: 0,
                resumed: 0,
                quarantined: 0,
                skipped: 0,
                retried: 0,
                journal_errors: 0,
                journal_syncs: 0,
                journal_appended: 0,
                wall_ms: eval_ms,
            },
        }
    }

    #[test]
    fn canonical_ignores_timing_and_provenance() {
        let fresh = artifact(1, false, 12.0);
        let cached = artifact(8, true, 0.0);
        assert_eq!(fresh.canonical_json(), cached.canonical_json());
        assert_ne!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&cached).unwrap(),
            "full artifacts do record provenance"
        );
    }

    #[test]
    fn supervision_fields_stay_out_of_canonical_but_in_full_doc() {
        let plain = artifact(1, false, 12.0);
        let mut supervised = artifact(1, false, 12.0);
        supervised.points[0].attempts = 3;
        supervised.points[0].resumed = true;
        supervised.stats.resumed = 1;
        supervised.stats.retried = 2;
        supervised.stats.journal_syncs = 5;
        supervised.stats.journal_appended = 9;
        assert_eq!(
            plain.canonical_json(),
            supervised.canonical_json(),
            "retry/resume/journal provenance must not change the canonical artifact"
        );
        let doc = serde_json::from_str(&serde_json::to_string(&supervised).unwrap()).unwrap();
        let pt = &doc.get("points").and_then(Value::as_array).unwrap()[0];
        assert_eq!(pt.get("attempts").and_then(Value::as_u64), Some(3));
        assert_eq!(pt.get("resumed").and_then(Value::as_bool), Some(true));
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("retried"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("journal_syncs"))
                .and_then(Value::as_u64),
            Some(5)
        );
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("journal_appended"))
                .and_then(Value::as_u64),
            Some(9)
        );
    }

    #[test]
    fn quarantined_vs_skipped_taxonomy() {
        let mut a = artifact(1, false, 1.0);
        let p = &mut a.points[0];
        assert!(!p.quarantined() && !p.skipped());
        p.error = Some("stalled".into());
        p.failure_class = Some(FailureClass::Stalled);
        assert!(p.failed() && p.quarantined() && !p.skipped());
        p.failure_class = None;
        assert!(p.failed() && !p.quarantined() && p.skipped());
        let doc = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        let pt = &doc.get("points").and_then(Value::as_array).unwrap()[0];
        assert_eq!(pt.get("failure_class"), None, "skipped has no class");
    }

    #[test]
    fn full_document_round_trips() {
        let a = artifact(2, false, 3.5);
        let text = serde_json::to_string_pretty(&a).unwrap();
        let doc = serde_json::from_str(&text).unwrap();
        assert_eq!(doc.get("sweep").and_then(Value::as_str), Some("s"));
        let pts = doc.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(
            pts[0]
                .get("params")
                .and_then(|p| p.get("x"))
                .and_then(Value::as_i64),
            Some(1)
        );
    }
}
