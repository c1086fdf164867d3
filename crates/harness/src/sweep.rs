//! The sweep driver: ties a [`SweepSpec`] to the executor, cache,
//! journal, supervision and artifact layers.
//!
//! Every sweep runs through one dispatch path that runs groups of
//! points: [`Sweep::run`] dispatches each point as a group of one,
//! [`Sweep::run_batched`] the caller's groups. A group's worker looks
//! its members up in the cache, evaluates the misses as one batch, and
//! caches and journals what it resolved, so the cache, journal and
//! supervision rules are the same for both.

use crate::artifact::{PointRecord, RunArtifact, RunStats};
use crate::cache::ResultCache;
use crate::executor::{partition, CancelToken, Executor};
use crate::hash::{content_key, point_seed};
use crate::journal::{JournalHeader, RunJournal};
use crate::spec::{Point, SweepSpec};
use crate::supervise::{self, supervised, Failure, FailureClass, SupervisePolicy};
use serde_json::Value;
use std::collections::HashMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// A configured sweep run over a [`SweepSpec`].
///
/// ```
/// use cryowire_harness::{Sweep, SweepSpec};
/// use serde_json::Value;
///
/// let spec = SweepSpec::new("demo").axis("x", [1i64, 2, 3]);
/// let artifact = Sweep::new(spec)
///     .eval_tag("demo/v1")
///     .threads(2)
///     .run(|point, _seed| Value::Int(point.i64("x") * 10));
/// assert_eq!(artifact.points.len(), 3);
/// assert_eq!(artifact.points[2].value, Value::Int(30));
/// ```
pub struct Sweep<'c> {
    spec: SweepSpec,
    executor: Executor,
    cache: Option<&'c ResultCache>,
    eval_tag: String,
    base_seed: u64,
    policy: SupervisePolicy,
    journal_path: Option<PathBuf>,
    resume: bool,
}

impl<'c> Sweep<'c> {
    /// A sweep over `spec` with default settings: one thread, no
    /// cache, the spec name as evaluator tag, base seed 0, no journal,
    /// single-attempt supervision.
    #[must_use]
    pub fn new(spec: SweepSpec) -> Self {
        let eval_tag = spec.name().to_string();
        Sweep {
            spec,
            executor: Executor::new(1),
            cache: None,
            eval_tag,
            base_seed: 0,
            policy: SupervisePolicy::default(),
            journal_path: None,
            resume: false,
        }
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.executor = Executor::new(threads);
        self
    }

    /// Uses a pre-built executor (e.g. [`Executor::per_cpu`]).
    #[must_use]
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Attaches a result cache; points whose keys are present are not
    /// re-evaluated.
    #[must_use]
    pub fn cache(mut self, cache: &'c ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the evaluator tag — the cache namespace. Bump it (e.g.
    /// `fig27/v2`) whenever evaluator semantics change, so stale
    /// cached values cannot be replayed.
    #[must_use]
    pub fn eval_tag(mut self, tag: impl Into<String>) -> Self {
        self.eval_tag = tag.into();
        self
    }

    /// Sets the base RNG seed the per-point seeds derive from.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the supervision policy: per-attempt deadline, retry budget
    /// and backoff for transient failures, fail-fast vs keep-going.
    /// The default policy (one attempt, keep going) reproduces plain
    /// panic isolation.
    #[must_use]
    pub fn supervise(mut self, policy: SupervisePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Journals every completed point to an append-only, checksummed
    /// WAL at `path` (truncating any previous journal there). A run
    /// killed at any moment can then be continued with
    /// [`Sweep::resume`].
    #[must_use]
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self.resume = false;
        self
    }

    /// Resumes from (and keeps journaling to) the WAL at `path`:
    /// points whose keys are recorded in the journal are replayed
    /// instead of evaluated, and the canonical artifact is
    /// byte-identical to an uninterrupted run. A missing journal file
    /// degrades to a fresh [`Sweep::journal`] run.
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self.resume = true;
        self
    }

    /// Opens (or resumes) the run journal and, when resuming, moves
    /// journal-recorded points out of the dispatch list.
    ///
    /// Journal open failures panic: an unusable journal the caller
    /// explicitly asked for is a configuration error, not a per-point
    /// fault (the CLI pre-checks with [`RunJournal::recover`] for a
    /// friendlier message).
    fn open_journal(&self, plan: &mut DispatchPlan) -> Option<RunJournal> {
        let path = self.journal_path.as_ref()?;
        let header = JournalHeader {
            sweep: self.spec.name().to_string(),
            eval_tag: self.eval_tag.clone(),
            base_seed: self.base_seed,
            grid_key: plan.grid_key(),
        };
        if self.resume {
            match RunJournal::resume(path, &header) {
                Ok((journal, records)) => {
                    let replay: HashMap<String, Value> = records.into_iter().collect();
                    plan.probe_journal(&replay);
                    Some(journal)
                }
                Err(e) => panic!("cannot resume journal {}: {e}", path.display()),
            }
        } else {
            match RunJournal::create(path, &header) {
                Ok(journal) => Some(journal),
                Err(e) => panic!("cannot create journal {}: {e}", path.display()),
            }
        }
    }

    /// Evaluates every point and returns the assembled artifact.
    ///
    /// `eval` receives the point and its deterministic seed
    /// ([`point_seed`]); it must be a pure function of those two
    /// inputs for caching and parallel determinism to hold. Each point
    /// is dispatched as a group of one, through the same path as
    /// [`Sweep::run_batched`]'s groups.
    ///
    /// Every evaluation runs under the sweep's [`SupervisePolicy`]: a
    /// panicking evaluator is isolated to its point and classified
    /// ([`crate::supervise::classify`]); transient failure classes are
    /// retried with deterministic backoff; a point that exhausts its
    /// budget is quarantined — the run completes, the point's record
    /// carries the message in [`PointRecord::error`] and the class in
    /// [`PointRecord::failure_class`] with a [`Value::Null`] value,
    /// nothing is cached or journaled for it, and [`RunStats::failed`]
    /// counts it. All other points are unaffected — their records are
    /// bit-identical to a run without the failure. Under
    /// [`SupervisePolicy::fail_fast`], the first quarantined point
    /// stops dispatch; undispatched points are marked skipped (which
    /// makes the canonical artifact schedule-dependent — fail-fast
    /// trades determinism for early exit).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`SweepSpec::validate`] (empty axis or
    /// zero points) — a spec bug, not a data error — or if a requested
    /// journal cannot be opened.
    #[must_use]
    pub fn run<F>(self, eval: F) -> RunArtifact
    where
        F: Fn(&Point, u64) -> Value + Sync,
    {
        self.dispatch(
            // A group of one per dispatched point, keyed by its
            // position: nothing to hash or reorder.
            |plan, _| {
                (0..plan.dispatch.len())
                    .map(|at| (at, at..at + 1))
                    .collect()
            },
            |_, batch| {
                batch
                    .iter()
                    .map(|&(point, seed)| eval(point, seed))
                    .collect()
            },
        )
    }

    /// Evaluates the grid in **batch jobs**: points are grouped by
    /// `group` (e.g. the content key of the trace they share), every
    /// group is handed to `eval_batch` as one unit, and the batch
    /// results are split back into ordinary per-point records — the
    /// artifact is byte-identical (canonically) to a [`Sweep::run`]
    /// whose `eval` returns the same per-point values, at any thread
    /// count.
    ///
    /// `eval_batch` receives the group key and the group's unresolved
    /// points with their deterministic seeds (enumeration order), and
    /// must return exactly one value per point, in order. A mismatched
    /// count or a panic fails every point it was handed (isolated from
    /// other groups, never cached or journaled). Journal replays and
    /// content-key duplicates are resolved before grouping, and cache
    /// hits inside the group's worker exactly as in [`Sweep::run`], so
    /// a batch job only ever computes distinct, unresolved points, and
    /// a group the cache answers whole never reaches `eval_batch`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`SweepSpec::validate`] or a requested
    /// journal cannot be opened.
    #[must_use]
    pub fn run_batched<G, F>(self, group: G, eval_batch: F) -> RunArtifact
    where
        G: Fn(&Point) -> String,
        F: Fn(&str, &[(&Point, u64)]) -> Vec<Value> + Sync,
    {
        self.dispatch(
            |plan, points| {
                let (order, groups) = partition(&plan.dispatch, |_, &i| group(&points[i]));
                // Every group's members contiguous in the dispatch list.
                plan.dispatch = order.iter().map(|&at| plan.dispatch[at]).collect();
                groups
            },
            |key, batch| eval_batch(key, batch),
        )
    }

    /// The one dispatch path. `group` splits the plan's dispatch list
    /// into groups, each a key and a contiguous range of the list; each
    /// group's worker probes the cache for every member under
    /// supervision, hands the misses to `eval` as one batch, then
    /// caches what it evaluated and journals every member it resolved.
    fn dispatch<K, G, F>(self, group: G, eval: F) -> RunArtifact
    where
        K: Sync,
        G: FnOnce(&mut DispatchPlan, &[Point]) -> Vec<(K, Range<usize>)>,
        F: Fn(&K, &[(&Point, u64)]) -> Vec<Value> + Sync,
    {
        if let Err(msg) = self.spec.validate() {
            panic!("{msg}");
        }
        let started = Instant::now();
        let points = self.spec.points();
        let mut plan = DispatchPlan::new(&points, &self.eval_tag, self.base_seed);
        let journal = self.open_journal(&mut plan);
        let groups = group(&mut plan, &points);
        let cancel = CancelToken::new();
        let policy = self.policy;
        // One outcome per dispatch position, set by the group's worker.
        let resolved: Vec<OnceLock<Outcome>> =
            plan.dispatch.iter().map(|_| OnceLock::new()).collect();
        self.executor.run(&groups, |_, (group_key, range)| {
            let members = &plan.dispatch[range.clone()];
            let slots = &resolved[range.clone()];
            if policy.fail_fast && cancel.is_cancelled() {
                for slot in slots {
                    slot.get_or_init(Outcome::skipped);
                }
                return;
            }
            let t0 = Instant::now();
            // Supervision wraps the cache probe too: a corrupt cache
            // read that escalates is retried like any transient fault.
            // A retry probes only the members still unresolved. The
            // group's seed is its first member's, deterministic at any
            // thread count (group membership and order are
            // schedule-independent).
            let sup = supervised(&policy, plan.seeds[members[0]], || {
                let mut batch = Vec::new();
                for (slot, &i) in slots.iter().zip(members) {
                    if slot.get().is_some() {
                        continue;
                    }
                    match self.cache.and_then(|cache| cache.lookup(&plan.keys[i])) {
                        Some(value) => {
                            let attempt = supervise::current_attempt();
                            slot.get_or_init(|| Outcome::resolved(value, true, 0.0, attempt));
                        }
                        None => batch.push((&points[i], plan.seeds[i])),
                    }
                }
                if batch.is_empty() {
                    Vec::new()
                } else {
                    eval(group_key, &batch)
                }
            });
            let misses = slots.iter().filter(|slot| slot.get().is_none()).count();
            // The group's wall time is attributed evenly across the
            // members it evaluated.
            let eval_ms = t0.elapsed().as_secs_f64() * 1e3 / misses.max(1) as f64;
            let mut values = match sup.result {
                Ok(values) if values.len() == misses => Ok(values.into_iter()),
                Ok(values) => Err(Failure::new(
                    FailureClass::Panic,
                    format!(
                        "batch evaluator returned {} values for {misses} points",
                        values.len()
                    ),
                )),
                Err(failure) => Err(failure),
            };
            if values.is_err() && policy.fail_fast {
                cancel.cancel();
            }
            for (slot, &i) in slots.iter().zip(members) {
                let key = &plan.keys[i];
                let outcome = slot.get_or_init(|| match &mut values {
                    Ok(values) => {
                        let value = values.next().expect("one value per miss");
                        if let Some(cache) = self.cache {
                            cache.insert(key, &value);
                        }
                        Outcome::resolved(value, false, eval_ms, sup.attempts)
                    }
                    Err(failure) => Outcome::failed(failure.clone(), eval_ms, sup.attempts),
                });
                // Write through inside the worker, not after the run: a
                // `kill -9` mid-grid must find every resolved point
                // already in the file. Failures are never journaled.
                if let (Some(journal), None) = (&journal, &outcome.error) {
                    journal.append(key, &outcome.value);
                }
            }
        });
        let outcomes = resolved
            .into_iter()
            .map(|slot| slot.into_inner().expect("every dispatched point resolves"))
            .collect();
        self.assemble(points, plan, outcomes, journal, started)
    }

    /// Scatters dispatch outcomes back over the full grid (mirroring
    /// duplicates from their representatives, and filling journal
    /// replays) and assembles the artifact.
    fn assemble(
        self,
        points: Vec<Point>,
        plan: DispatchPlan,
        outcomes: Vec<Outcome>,
        journal: Option<RunJournal>,
        started: Instant,
    ) -> RunArtifact {
        let outcome_of: HashMap<usize, &Outcome> =
            plan.dispatch.iter().copied().zip(&outcomes).collect();
        let resumed_of: HashMap<usize, &Value> =
            plan.resumed.iter().map(|(i, v)| (*i, v)).collect();
        let mut records: Vec<PointRecord> = Vec::with_capacity(points.len());
        for (index, point) in points.iter().enumerate() {
            let rep = plan.representative[index];
            let record = if let Some(outcome) = outcome_of.get(&rep) {
                let mirrored = rep != index;
                PointRecord {
                    index,
                    params: point.clone(),
                    key: plan.keys[index].clone(),
                    seed: plan.seeds[index],
                    // A duplicate of a successful evaluation is a hit
                    // by construction (answered without evaluating);
                    // mirrored failures stay failures.
                    cached: if mirrored {
                        outcome.error.is_none()
                    } else {
                        outcome.cached
                    },
                    eval_ms: if mirrored { 0.0 } else { outcome.eval_ms },
                    value: outcome.value.clone(),
                    error: outcome.error.clone(),
                    attempts: outcome.attempts,
                    resumed: false,
                    failure_class: outcome.class,
                }
            } else {
                // Not dispatched: the representative was recorded in
                // the run journal, so it is replayed, not evaluated.
                let value = *resumed_of
                    .get(&rep)
                    .expect("a representative is dispatched or replayed");
                PointRecord {
                    index,
                    params: point.clone(),
                    key: plan.keys[index].clone(),
                    seed: plan.seeds[index],
                    cached: false,
                    eval_ms: 0.0,
                    value: value.clone(),
                    error: None,
                    attempts: 0,
                    resumed: true,
                    failure_class: None,
                }
            };
            records.push(record);
        }
        // Final group commit: every journaled point is durable before
        // the journal's counters are read and the artifact returned.
        if let Some(journal) = &journal {
            journal.sync();
        }
        let cache_hits = records.iter().filter(|r| r.cached).count();
        let resumed = records.iter().filter(|r| r.resumed).count();
        let skipped = records.iter().filter(|r| r.skipped()).count();
        let failed = records.iter().filter(|r| r.failed()).count();
        let quarantined = records.iter().filter(|r| r.quarantined()).count();
        let retried = outcomes
            .iter()
            .map(|o| u64::from(o.attempts.saturating_sub(1)))
            .sum();
        let stats = RunStats {
            points: records.len(),
            cache_hits,
            evaluated: records.len() - cache_hits - resumed - skipped,
            deduped: records.len() - plan.dispatch.len() - plan.resumed.len(),
            threads: self.executor.threads(),
            failed,
            resumed,
            quarantined,
            skipped,
            retried,
            journal_errors: journal.as_ref().map_or(0, RunJournal::write_errors),
            journal_syncs: journal.as_ref().map_or(0, RunJournal::syncs),
            journal_appended: journal.as_ref().map_or(0, RunJournal::appended),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        };
        RunArtifact {
            sweep: self.spec.name().to_string(),
            eval_tag: self.eval_tag,
            base_seed: self.base_seed,
            points: records,
            stats,
        }
    }
}

/// One dispatched point's outcome.
struct Outcome {
    value: Value,
    cached: bool,
    error: Option<String>,
    eval_ms: f64,
    attempts: u32,
    class: Option<FailureClass>,
}

impl Outcome {
    /// A point answered by the cache (`cached`) or by its evaluator.
    fn resolved(value: Value, cached: bool, eval_ms: f64, attempts: u32) -> Outcome {
        Outcome {
            value,
            cached,
            error: None,
            eval_ms,
            attempts,
            class: None,
        }
    }

    /// A point that never ran because fail-fast stopped the grid.
    fn skipped() -> Outcome {
        Outcome {
            value: Value::Null,
            cached: false,
            error: Some("skipped: fail-fast stopped the grid after an earlier failure".into()),
            eval_ms: 0.0,
            attempts: 0,
            class: None,
        }
    }

    /// A point quarantined with a classified failure.
    fn failed(failure: Failure, eval_ms: f64, attempts: u32) -> Outcome {
        Outcome {
            value: Value::Null,
            cached: false,
            error: Some(failure.message),
            eval_ms,
            attempts,
            class: Some(failure.class),
        }
    }
}

/// The dispatch plan of a grid: per-point keys and seeds, the
/// first-occurrence representative of every content key, and the list
/// of indices that the workers resolve (representatives minus journal
/// replays). Cache hits are not planned: each group's worker probes the
/// cache itself. Only representatives are dispatched, so no two workers
/// write one cache entry: the cache's temporary files are named by
/// process, not by worker.
struct DispatchPlan {
    keys: Vec<String>,
    seeds: Vec<u64>,
    /// `representative[i]` is the smallest index with the same content
    /// key as point `i` (itself, when first).
    representative: Vec<usize>,
    /// Indices dispatched to the workers: in enumeration order, then
    /// reordered group by group when points are grouped.
    dispatch: Vec<usize>,
    /// Journal replays (`--resume` only): `(index, value)`.
    resumed: Vec<(usize, Value)>,
}

impl DispatchPlan {
    fn new(points: &[Point], eval_tag: &str, base_seed: u64) -> Self {
        let mut keys = Vec::with_capacity(points.len());
        let mut seeds = Vec::with_capacity(points.len());
        for point in points {
            let canonical = point.canonical();
            keys.push(content_key(eval_tag, &canonical));
            seeds.push(point_seed(eval_tag, &canonical, base_seed));
        }
        let mut first: HashMap<&str, usize> = HashMap::new();
        let mut representative = Vec::with_capacity(points.len());
        let mut dispatch = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let rep = *first.entry(key.as_str()).or_insert(i);
            representative.push(rep);
            if rep == i {
                dispatch.push(i);
            }
        }
        DispatchPlan {
            keys,
            seeds,
            representative,
            dispatch,
            resumed: Vec::new(),
        }
    }

    /// Content key pinning the exact point set and enumeration order
    /// of this grid — the journal header's identity check. Point keys
    /// are fixed-width hex, so plain concatenation is unambiguous.
    fn grid_key(&self) -> String {
        content_key("cryowire-grid", &self.keys.concat())
    }

    /// Removes dispatch entries recorded in a recovered journal,
    /// recording them as replays.
    fn probe_journal(&mut self, replay: &HashMap<String, Value>) {
        let keys = &self.keys;
        let resumed = &mut self.resumed;
        self.dispatch.retain(|&i| match replay.get(&keys[i]) {
            Some(value) => {
                resumed.push((i, value.clone()));
                false
            }
            None => true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheStats, TempCache};

    fn spec() -> SweepSpec {
        SweepSpec::new("unit")
            .axis("t", [77.0, 300.0])
            .axis("d", [1i64, 2])
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cryowire-sweep-{tag}-{}.wal", std::process::id()))
    }

    fn quick_policy(max_attempts: u32) -> SupervisePolicy {
        SupervisePolicy {
            max_attempts,
            backoff_base: std::time::Duration::from_millis(1),
            ..SupervisePolicy::default()
        }
    }

    #[test]
    fn serial_and_parallel_artifacts_agree() {
        let eval =
            |p: &Point, seed: u64| Value::Float(p.f64("t") * p.i64("d") as f64 + (seed % 7) as f64);
        let a1 = Sweep::new(spec()).eval_tag("unit/v1").run(eval);
        let a4 = Sweep::new(spec()).eval_tag("unit/v1").threads(4).run(eval);
        assert_eq!(a1.canonical_json(), a4.canonical_json());
        assert_eq!(a1.stats.threads, 1);
        assert_eq!(a4.stats.threads, 4);
    }

    #[test]
    fn cache_skips_overlapping_points() {
        let cache = TempCache::new("sweep-overlap");
        let first = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2]))
            .eval_tag("s/v1")
            .cache(&cache)
            .run(|p, _| Value::Int(p.i64("x")));
        assert_eq!(first.stats.evaluated, 2);
        let second = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .cache(&cache)
            .run(|p, _| Value::Int(p.i64("x")));
        assert_eq!(second.stats.cache_hits, 2);
        assert_eq!(second.stats.evaluated, 1);
        assert_eq!(second.points[2].value, Value::Int(3));
    }

    #[test]
    fn eval_tag_namespaces_the_cache() {
        let cache = TempCache::new("sweep-eval-tag");
        let run = |tag: &str| {
            Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
                .eval_tag(tag)
                .cache(&cache)
                .run(|_, _| Value::Int(0))
        };
        assert_eq!(run("s/v1").stats.evaluated, 1);
        assert_eq!(run("s/v2").stats.evaluated, 1, "new tag, new namespace");
        assert_eq!(run("s/v1").stats.cache_hits, 1);
    }

    #[test]
    fn panicking_point_is_isolated() {
        let eval = |p: &Point, _: u64| {
            assert_ne!(p.i64("x"), 2, "injected failure");
            Value::Int(p.i64("x") * 10)
        };
        let clean = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 3]))
            .eval_tag("s/v1")
            .run(eval);
        let faulted = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .threads(3)
            .run(eval);
        assert_eq!(faulted.stats.failed, 1);
        assert_eq!(faulted.stats.quarantined, 1);
        assert_eq!(faulted.stats.points, 3);
        let bad = &faulted.points[1];
        assert!(bad.failed());
        assert!(bad.quarantined());
        assert_eq!(bad.failure_class, Some(FailureClass::Panic));
        assert_eq!(bad.value, Value::Null);
        assert!(bad.error.as_deref().unwrap().contains("injected failure"));
        // The surviving points are bit-identical to the clean run
        // (modulo wall-clock timing, which is not part of the
        // canonical artifact).
        let survivors: Vec<&PointRecord> = faulted.points.iter().filter(|p| !p.failed()).collect();
        assert_eq!(survivors.len(), 2);
        for (s, c) in survivors.iter().zip(&clean.points) {
            assert_eq!(s.value, c.value);
            assert_eq!(s.key, c.key);
            assert_eq!(s.seed, c.seed);
        }
    }

    #[test]
    fn failed_points_are_not_cached() {
        let cache = TempCache::new("sweep-failed");
        let first = Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
            .eval_tag("s/v1")
            .cache(&cache)
            .run(|_, _| panic!("boom"));
        assert_eq!(first.stats.failed, 1);
        let second = Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
            .eval_tag("s/v1")
            .cache(&cache)
            .run(|p, _| Value::Int(p.i64("x")));
        assert_eq!(second.stats.cache_hits, 0, "error must not be replayed");
        assert_eq!(second.points[0].value, Value::Int(1));
    }

    #[test]
    #[should_panic(expected = "axis `x` has no values")]
    fn empty_axis_is_rejected() {
        let _ =
            Sweep::new(SweepSpec::new("s").axis("x", Vec::<i64>::new())).run(|_, _| Value::Int(0));
    }

    #[test]
    fn validate_explains_empty_specs() {
        assert!(SweepSpec::new("ok").axis("x", [1i64]).validate().is_ok());
        let none = SweepSpec::new("none").validate().unwrap_err();
        assert!(none.contains("enumerates no points"), "{none}");
    }

    #[test]
    fn intra_grid_duplicates_collapse_but_stay_listed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // An axis with repeated values enumerates content-identical
        // points; they must be evaluated once yet all appear in the
        // artifact.
        let calls = AtomicUsize::new(0);
        let artifact = Sweep::new(SweepSpec::new("dup").axis("x", [1i64, 2, 1, 1, 2]))
            .eval_tag("dup/v1")
            .threads(4)
            .run(|p, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Value::Int(p.i64("x") * 10)
            });
        assert_eq!(calls.load(Ordering::Relaxed), 2, "two distinct points");
        assert_eq!(artifact.stats.points, 5, "every requested point listed");
        assert_eq!(artifact.stats.deduped, 3);
        assert_eq!(artifact.points.len(), 5);
        let values: Vec<_> = artifact.points.iter().map(|p| p.value.clone()).collect();
        assert_eq!(
            values,
            vec![
                Value::Int(10),
                Value::Int(20),
                Value::Int(10),
                Value::Int(10),
                Value::Int(20)
            ]
        );
        // Duplicates share their representative's key and seed, so the
        // canonical artifact is identical to a no-dedupe evaluation.
        assert_eq!(artifact.points[0].key, artifact.points[2].key);
        assert_eq!(artifact.points[0].seed, artifact.points[2].seed);
        assert!(artifact.points[2].cached, "duplicate answered w/o eval");
    }

    #[test]
    fn deduped_duplicate_of_failed_point_mirrors_the_failure() {
        let artifact = Sweep::new(SweepSpec::new("dup").axis("x", [1i64, 1]))
            .eval_tag("dup/v1")
            .run(|_, _| panic!("boom"));
        assert_eq!(artifact.stats.failed, 2);
        assert_eq!(artifact.stats.quarantined, 2);
        assert!(artifact.points[1].failed());
        assert!(!artifact.points[1].cached);
    }

    #[test]
    fn batched_artifact_is_canonically_identical_to_scalar() {
        let eval =
            |p: &Point, seed: u64| Value::Float(p.f64("t") * p.i64("d") as f64 + (seed % 7) as f64);
        let scalar = Sweep::new(spec()).eval_tag("unit/v1").run(eval);
        for threads in [1, 4] {
            let batched = Sweep::new(spec())
                .eval_tag("unit/v1")
                .threads(threads)
                .run_batched(
                    |p| format!("t={}", p.f64("t")),
                    |_, batch| batch.iter().map(|&(p, seed)| eval(p, seed)).collect(),
                );
            assert_eq!(
                scalar.canonical_json(),
                batched.canonical_json(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn batched_groups_see_whole_groups_and_cache_fills() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = TempCache::new("sweep-batch-fill");
        let jobs = AtomicUsize::new(0);
        let spec4 = SweepSpec::new("b")
            .axis("g", [1i64, 2])
            .axis("x", [10i64, 20]);
        let batched = Sweep::new(spec4.clone())
            .eval_tag("b/v1")
            .cache(&cache)
            .threads(4)
            .run_batched(
                |p| p.i64("g").to_string(),
                |_, batch| {
                    jobs.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(batch.len(), 2, "group sees both of its points");
                    batch
                        .iter()
                        .map(|&(p, _)| Value::Int(p.i64("g") * 100 + p.i64("x")))
                        .collect()
                },
            );
        assert_eq!(jobs.load(Ordering::Relaxed), 2, "one job per group");
        assert_eq!(batched.stats.evaluated, 4);
        // Batch results were published to the cache: a re-run over the
        // same grid evaluates nothing.
        let rerun = Sweep::new(spec4)
            .eval_tag("b/v1")
            .cache(&cache)
            .run_batched(
                |p| p.i64("g").to_string(),
                |_, _| unreachable!("all points cached"),
            );
        assert_eq!(rerun.stats.cache_hits, 4);
        assert_eq!(rerun.canonical_json(), batched.canonical_json());
    }

    #[test]
    fn batched_group_failure_is_isolated_to_the_group() {
        let artifact = Sweep::new(
            SweepSpec::new("b")
                .axis("g", [1i64, 2])
                .axis("x", [1i64, 2]),
        )
        .eval_tag("b/v1")
        .run_batched(
            |p| p.i64("g").to_string(),
            |key, batch| {
                assert_ne!(key, "2", "injected group failure");
                batch.iter().map(|&(p, _)| Value::Int(p.i64("x"))).collect()
            },
        );
        assert_eq!(artifact.stats.failed, 2, "both points of group 2");
        assert!(!artifact.points[0].failed());
        assert!(artifact.points[2].failed());
        assert!(artifact.points[2]
            .error
            .as_deref()
            .unwrap()
            .contains("injected group failure"));
    }

    #[test]
    fn batched_evaluator_result_count_mismatch_fails_the_group() {
        let artifact = Sweep::new(SweepSpec::new("b").axis("x", [1i64, 2]))
            .eval_tag("b/v1")
            .run_batched(|_| "all".to_string(), |_, _| vec![Value::Int(1)]);
        assert_eq!(artifact.stats.failed, 2);
        assert!(artifact.points[0]
            .error
            .as_deref()
            .unwrap()
            .contains("returned 1 values for 2 points"));
    }

    #[test]
    fn seeds_are_schedule_independent() {
        let base = Sweep::new(spec()).eval_tag("unit/v1").base_seed(42);
        let a = base.run(|_, seed| Value::UInt(seed));
        // Different axis order enumerates the same logical points at
        // different indices; matching points still get matching seeds
        // only when their canonical encodings match — which requires
        // the same entry order. Same spec, different threads:
        let b = Sweep::new(spec())
            .eval_tag("unit/v1")
            .base_seed(42)
            .threads(3)
            .run(|_, seed| Value::UInt(seed));
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.seed, pb.seed);
            assert_eq!(pa.value, pb.value);
        }
    }

    #[test]
    fn transient_lane_heals_under_retry_budget() {
        // A point that fails on its first two attempts succeeds under a
        // budget of 3; the record carries the attempt count, and the
        // canonical artifact equals an always-healthy run.
        let eval = |p: &Point, _: u64| {
            if p.i64("x") == 2 && supervise::current_attempt() < 3 {
                supervise::fail(FailureClass::Io, "flaky I/O");
            }
            Value::Int(p.i64("x") * 10)
        };
        let healthy = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .run(|p, _| Value::Int(p.i64("x") * 10));
        let healed = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .supervise(quick_policy(3))
            .run(eval);
        assert_eq!(healed.canonical_json(), healthy.canonical_json());
        assert_eq!(healed.stats.failed, 0);
        assert_eq!(healed.stats.retried, 2);
        assert_eq!(healed.points[1].attempts, 3);
        assert_eq!(healed.points[0].attempts, 1);
    }

    #[test]
    fn poison_point_quarantined_after_budget_and_grid_survives() {
        let artifact = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .supervise(quick_policy(3))
            .run(|p, _| {
                if p.i64("x") == 2 {
                    supervise::fail(FailureClass::Stalled, "always wedged");
                }
                Value::Int(p.i64("x"))
            });
        assert_eq!(artifact.stats.quarantined, 1);
        assert_eq!(artifact.stats.failed, 1);
        assert_eq!(
            artifact.stats.retried, 2,
            "budget of 3 spent on the poison point"
        );
        let bad = &artifact.points[1];
        assert_eq!(bad.failure_class, Some(FailureClass::Stalled));
        assert_eq!(bad.attempts, 3);
        assert_eq!(artifact.points[2].value, Value::Int(3), "grid completed");
    }

    #[test]
    fn fail_fast_skips_undispatched_points() {
        let policy = SupervisePolicy {
            fail_fast: true,
            ..quick_policy(1)
        };
        // Serial execution makes the skip set deterministic: point 1
        // fails, point 2 is skipped.
        let artifact = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .supervise(policy)
            .run(|p, _| {
                assert_ne!(p.i64("x"), 2, "poison");
                Value::Int(p.i64("x"))
            });
        assert_eq!(artifact.stats.quarantined, 1);
        assert_eq!(artifact.stats.skipped, 1);
        assert_eq!(artifact.stats.failed, 2, "quarantined + skipped");
        let skipped = &artifact.points[2];
        assert!(skipped.skipped() && !skipped.quarantined());
        assert_eq!(skipped.attempts, 0);
        assert!(skipped.error.as_deref().unwrap().contains("fail-fast"));
    }

    #[test]
    fn journal_roundtrip_resumes_byte_identically() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let eval =
            |p: &Point, seed: u64| Value::Float(p.f64("t") * p.i64("d") as f64 + (seed % 7) as f64);
        let reference = Sweep::new(spec()).eval_tag("unit/v1").run(eval);
        let journaled = Sweep::new(spec())
            .eval_tag("unit/v1")
            .journal(&path)
            .run(eval);
        assert_eq!(journaled.canonical_json(), reference.canonical_json());
        assert_eq!(journaled.stats.journal_errors, 0);
        // Resume with an evaluator that must never run: every point is
        // acknowledged, so the whole grid replays from the journal.
        let resumed = Sweep::new(spec())
            .eval_tag("unit/v1")
            .resume(&path)
            .run(|_, _| unreachable!("fully journaled grid re-evaluated"));
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        assert_eq!(resumed.stats.resumed, 4);
        assert_eq!(resumed.stats.evaluated, 0);
        assert!(resumed.points.iter().all(|p| p.resumed));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partial_journal_resumes_only_missing_points() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = tmp("partial");
        let _ = std::fs::remove_file(&path);
        let eval = |p: &Point, _: u64| Value::Int(p.i64("x") * 10);
        let reference = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3, 4]))
            .eval_tag("s/v1")
            .run(eval);
        // An interrupted run: points 1 and 2 complete and are
        // acknowledged; 3 and 4 fail (standing in for a crash), so the
        // journal holds exactly half the grid.
        let first = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3, 4]))
            .eval_tag("s/v1")
            .journal(&path)
            .run(|p, _| {
                assert!(p.i64("x") <= 2, "simulated crash point");
                Value::Int(p.i64("x") * 10)
            });
        assert_eq!(first.stats.failed, 2);
        let evals = AtomicUsize::new(0);
        let resumed = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3, 4]))
            .eval_tag("s/v1")
            .resume(&path)
            .run(|p, _| {
                evals.fetch_add(1, Ordering::Relaxed);
                Value::Int(p.i64("x") * 10)
            });
        assert_eq!(
            evals.load(Ordering::Relaxed),
            2,
            "only unacknowledged points run"
        );
        assert_eq!(resumed.stats.resumed, 2);
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "different run")]
    fn resume_with_wrong_seed_is_refused() {
        let path = tmp("wrong-seed");
        let _ = std::fs::remove_file(&path);
        let eval = |p: &Point, _: u64| Value::Int(p.i64("x"));
        let _ = Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
            .eval_tag("s/v1")
            .journal(&path)
            .run(eval);
        let result = std::panic::catch_unwind(|| {
            Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
                .eval_tag("s/v1")
                .base_seed(99)
                .resume(&path)
                .run(eval)
        });
        let _ = std::fs::remove_file(&path);
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }

    /// The group key of the four-point `g` × `x` grids below.
    fn by_g(p: &Point) -> String {
        p.i64("g").to_string()
    }

    /// A batch evaluator of the `g` × `x` grids.
    fn eval_gx(_: &str, batch: &[(&Point, u64)]) -> Vec<Value> {
        batch
            .iter()
            .map(|&(p, _)| Value::Int(p.i64("g") * 100 + p.i64("x")))
            .collect()
    }

    fn spec_gx() -> SweepSpec {
        SweepSpec::new("b")
            .axis("g", [1i64, 2])
            .axis("x", [1i64, 2])
    }

    #[test]
    fn batched_cache_hits_are_journaled_so_resume_needs_no_cache() {
        let path = tmp("batched-hits");
        let _ = std::fs::remove_file(&path);
        let cache = TempCache::new("sweep-batch-journal");
        let cold = Sweep::new(spec_gx())
            .eval_tag("b/v1")
            .cache(&cache)
            .run_batched(by_g, eval_gx);
        // A warm cache and a fresh journal: every point is a hit, and
        // every hit is journaled as it resolves.
        let warm = Sweep::new(spec_gx())
            .eval_tag("b/v1")
            .cache(&cache)
            .journal(&path)
            .run_batched(by_g, |_, _| unreachable!("all points cached"));
        assert_eq!(warm.stats.cache_hits, 4);
        assert_eq!(warm.stats.evaluated, 0);
        assert_eq!(
            warm.stats.journal_appended, 4,
            "the journal counts its hits"
        );
        let resumed = Sweep::new(spec_gx())
            .eval_tag("b/v1")
            .resume(&path)
            .run_batched(by_g, |_, _| unreachable!("every hit was journaled"));
        assert_eq!(resumed.stats.resumed, 4);
        assert_eq!(resumed.stats.evaluated, 0);
        assert_eq!(resumed.stats.journal_appended, 0, "replays are in the file");
        assert_eq!(resumed.canonical_json(), cold.canonical_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batched_and_scalar_sweeps_count_the_same_cache_lookups() {
        let scalar = TempCache::new("sweep-count-scalar");
        let batched = TempCache::new("sweep-count-batched");
        for _ in 0..2 {
            let _ = Sweep::new(spec_gx())
                .eval_tag("b/v1")
                .cache(&scalar)
                .run(|p, seed| eval_gx("", &[(p, seed)]).remove(0));
            let _ = Sweep::new(spec_gx())
                .eval_tag("b/v1")
                .cache(&batched)
                .run_batched(by_g, eval_gx);
        }
        let cold_then_warm = CacheStats {
            hits: 4,
            misses: 4,
            quarantined: 0,
            quarantine_failed: 0,
        };
        assert_eq!(scalar.stats(), cold_then_warm);
        assert_eq!(batched.stats(), cold_then_warm);
    }

    #[test]
    fn batched_groups_evaluate_only_their_misses_and_keep_their_hits() {
        let cache = TempCache::new("sweep-batch-misses");
        // Cache the x = 1 member of each group.
        let _ = Sweep::new(SweepSpec::new("b").axis("g", [1i64, 2]).axis("x", [1i64]))
            .eval_tag("b/v1")
            .cache(&cache)
            .run_batched(by_g, eval_gx);
        let artifact = Sweep::new(spec_gx())
            .eval_tag("b/v1")
            .cache(&cache)
            .run_batched(by_g, |key, batch| {
                assert_eq!(batch.len(), 1, "only the miss is evaluated");
                assert_ne!(key, "2", "injected group failure");
                eval_gx(key, batch)
            });
        let values: Vec<&Value> = artifact.points.iter().map(|p| &p.value).collect();
        assert_eq!(
            values,
            [
                &Value::Int(101),
                &Value::Int(102),
                &Value::Int(201),
                &Value::Null
            ]
        );
        assert!(
            artifact.points[2].cached,
            "a hit survives its group's failure"
        );
        assert!(artifact.points[3].failed());
        assert_eq!(artifact.stats.cache_hits, 2);
        assert_eq!(artifact.stats.failed, 1);
    }

    #[test]
    fn batched_journal_resume_skips_acknowledged_groups() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = tmp("batched");
        let _ = std::fs::remove_file(&path);
        let spec4 = SweepSpec::new("b")
            .axis("g", [1i64, 2])
            .axis("x", [1i64, 2]);
        let eval = |p: &Point| Value::Int(p.i64("g") * 100 + p.i64("x"));
        let reference = Sweep::new(spec4.clone()).eval_tag("b/v1").run_batched(
            |p| p.i64("g").to_string(),
            |_, batch| batch.iter().map(|&(p, _)| eval(p)).collect(),
        );
        // First run: group 2 fails — only group 1's lanes are
        // journaled.
        let _ = Sweep::new(spec4.clone())
            .eval_tag("b/v1")
            .journal(&path)
            .run_batched(
                |p| p.i64("g").to_string(),
                |key, batch| {
                    assert_ne!(key, "2", "simulated crash");
                    batch.iter().map(|&(p, _)| eval(p)).collect()
                },
            );
        let jobs = AtomicUsize::new(0);
        let resumed = Sweep::new(spec4)
            .eval_tag("b/v1")
            .resume(&path)
            .run_batched(
                |p| p.i64("g").to_string(),
                |_, batch| {
                    jobs.fetch_add(1, Ordering::Relaxed);
                    batch.iter().map(|&(p, _)| eval(p)).collect()
                },
            );
        assert_eq!(
            jobs.load(Ordering::Relaxed),
            1,
            "only the failed group re-runs"
        );
        assert_eq!(resumed.stats.resumed, 2);
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_write_errors_degrade_gracefully() {
        crate::failpoint::reset();
        let path = tmp("degrade");
        let _ = std::fs::remove_file(&path);
        let eval = |p: &Point, _: u64| Value::Int(p.i64("x"));
        let reference = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .run(eval);
        crate::failpoint::arm(
            "journal::append",
            crate::failpoint::FailAction::Io("No space left on device (os error 28)".into()),
            1,
        );
        let broken = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .journal(&path)
            .run(eval);
        crate::failpoint::reset();
        // The sweep itself is unharmed — full artifact, zero failures —
        // and the drop is visible in the stats.
        assert_eq!(broken.canonical_json(), reference.canonical_json());
        assert_eq!(broken.stats.failed, 0);
        assert_eq!(
            broken.stats.journal_errors, 3,
            "first error breaks the journal"
        );
        // Resume still works: unacknowledged points just recompute.
        let resumed = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .resume(&path)
            .run(eval);
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_sync_failure_degrades_gracefully() {
        crate::failpoint::reset();
        let path = tmp("sync-fail");
        let _ = std::fs::remove_file(&path);
        let spec3 = || SweepSpec::new("s").axis("x", [1i64, 2, 3]);
        let eval = |p: &Point, _: u64| Value::Int(p.i64("x"));
        let reference = Sweep::new(spec3()).eval_tag("s/v1").run(eval);
        crate::failpoint::arm(
            "journal::sync",
            crate::failpoint::FailAction::Io("Input/output error (os error 5)".into()),
            1,
        );
        let broken = Sweep::new(spec3())
            .eval_tag("s/v1")
            .journal(&path)
            .run(eval);
        assert_eq!(crate::failpoint::disarm("journal::sync"), 1);
        assert_eq!(broken.canonical_json(), reference.canonical_json());
        assert_eq!(broken.stats.failed, 0);
        assert_eq!(
            broken.stats.journal_errors, 3,
            "the failed sync, then the two appends it broke the journal for"
        );
        assert_eq!(broken.stats.journal_syncs, 0);
        // The first point was written through before its sync failed:
        // it replays, the other two recompute.
        let resumed = Sweep::new(spec3()).eval_tag("s/v1").resume(&path).run(eval);
        assert_eq!(resumed.stats.resumed, 1);
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        let _ = std::fs::remove_file(&path);
    }
}
