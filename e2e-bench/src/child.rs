//! One pass, run in a fresh child process.
//!
//! The child sets up its inputs, prints `ready` (the parent timestamps
//! that line to measure set-up), runs the timed region by calling the
//! same public library functions the `reproduce` and `sweep` binaries
//! call, and prints one JSON [`PassReport`]. Digests and checks run
//! after the timed region.
//!
//! A traced pass adds spans around the calls into each layer (per
//! `reproduce` task, per depth-grid evaluation) and, for the sweeps,
//! times the harness's public per-point functions over the pass's own
//! records in fresh directories. Spans are kept in memory and reduced
//! to per-name totals when the pass ends.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cryowire::experiments::{self, Fidelity, SweepOptions};
use cryowire::ooo::{
    run_batch_into, BatchScratch, CoreMetrics, CoreScratch, CoreSimulator, Trace, TraceConfig,
};
use cryowire_harness::{
    content_key, stable_hash64, JournalHeader, ResultCache, RunArtifact, RunJournal, Sweep,
    SweepSpec,
};
use serde_json::Value;

use crate::workload::{self, Layer, Size, Workload, DEPTH_TAG, MAX_SPLIT, TASKS, WORKERS};

/// What one pass measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassReport {
    /// Timed region, seconds.
    pub wall_s: f64,
    /// VmHWM at the end of the timed region, MB.
    pub rss_mb: f64,
    /// Failed in-pass checks; any fails the whole pass.
    pub errors: Vec<String>,
    /// Digest of each output part, keyed by everything it depends on.
    pub parts: Vec<(String, String)>,
    /// The `BENCHMARK.json` per-layer metrics (traced passes only).
    pub layers: Vec<(String, f64)>,
    /// Workload-specific figures.
    pub detail: Vec<(String, f64)>,
}

impl PassReport {
    pub fn to_value(&self) -> Value {
        let pairs = |v: &[(String, f64)]| {
            Value::Object(
                v.iter()
                    .map(|(k, x)| (k.clone(), Value::Float(*x)))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("wall_s".into(), Value::Float(self.wall_s)),
            ("rss_mb".into(), Value::Float(self.rss_mb)),
            (
                "errors".into(),
                Value::Array(self.errors.iter().cloned().map(Value::String).collect()),
            ),
            (
                "parts".into(),
                Value::Object(
                    self.parts
                        .iter()
                        .map(|(k, d)| (k.clone(), Value::String(d.clone())))
                        .collect(),
                ),
            ),
            ("layers".into(), pairs(&self.layers)),
            ("detail".into(), pairs(&self.detail)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<PassReport> {
        let pairs = |key: &str| -> Option<Vec<(String, f64)>> {
            v.get(key)?
                .as_object()?
                .iter()
                .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect()
        };
        Some(PassReport {
            wall_s: v.get("wall_s")?.as_f64()?,
            rss_mb: v.get("rss_mb")?.as_f64()?,
            errors: v
                .get("errors")?
                .as_array()?
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            parts: v
                .get("parts")?
                .as_object()?
                .iter()
                .map(|(k, d)| Some((k.clone(), d.as_str()?.to_string())))
                .collect::<Option<_>>()?,
            layers: pairs("layers")?,
            detail: pairs("detail")?,
        })
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    fn put(list: &mut Vec<(String, f64)>, name: impl Into<String>, value: f64) {
        list.push((name.into(), value));
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }

    fn part(&mut self, key: String, bytes: &[u8]) {
        self.parts.push((key, hex(stable_hash64(bytes))));
    }

    /// The per-layer ledger of `BENCHMARK.json` from the pass's
    /// main-thread phases. `compute` lists each compute phase's span and
    /// its worker count; their product is the worker capacity the
    /// engine-busy time is taken from.
    fn set_layers(
        &mut self,
        compute: &[(Duration, usize)],
        output: Duration,
        engine_busy_ms: f64,
        cache_hits: usize,
    ) {
        let compute_ms: f64 = compute.iter().map(|(d, _)| ms(*d)).sum();
        let capacity_ms: f64 = compute.iter().map(|(d, w)| ms(*d) * *w as f64).sum();
        let l = &mut self.layers;
        Self::put(l, "compute_ms", compute_ms);
        Self::put(l, "output_ms", ms(output));
        Self::put(l, "harness.self_ms", capacity_ms - engine_busy_ms);
        Self::put(l, "engine.busy_frac", engine_busy_ms / capacity_ms);
        Self::put(l, "cache_hits", cache_hits as f64);
    }
}

pub fn hex(x: u64) -> String {
    format!("{x:016x}")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// In-memory span log of a traced pass.
struct Spans {
    log: Mutex<Vec<(&'static str, Duration)>>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            log: Mutex::new(Vec::new()),
        }
    }

    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let d = t0.elapsed();
        self.log
            .lock()
            .expect("no span holder panics")
            .push((name, d));
        out
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        let log = self.log.lock().expect("no span holder panics");
        log.iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| ms(*d))
            .collect()
    }

    fn total_ms(&self) -> f64 {
        let log = self.log.lock().expect("no span holder panics");
        log.iter().fold(0.0, |acc, (_, d)| acc + ms(*d))
    }
}

/// Runs `f` inside a span when tracing.
fn span<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Arguments of a child pass.
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    /// Result-cache directory: required by `sweep-warm`; a `sweep-cold`
    /// pass with one fills it (the warm cache's preparation).
    pub cache: Option<PathBuf>,
    pub traced: bool,
    pub smoke: bool,
    /// Stop after set-up: a set-up probe.
    pub setup_only: bool,
}

/// Announces the end of set-up to the parent.
fn ready() {
    println!("ready");
}

/// Runs one pass and prints its report as the last stdout line.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    let size = Size::new(args.smoke);
    let spans = args.traced.then(Spans::new);
    let mut report = PassReport::default();
    match args.workload {
        Workload::Reproduce => {
            ready();
            if args.setup_only {
                return Ok(());
            }
            reproduce(&args.dir, spans.as_ref(), &mut report)?;
        }
        Workload::SweepCold | Workload::SweepWarm => {
            let spec = experiments::depth_grid_spec(
                &workload::temperatures(args.seed, size.temps),
                MAX_SPLIT,
            );
            let cold = args.workload == Workload::SweepCold;
            if !cold && args.cache.is_none() {
                return Err("sweep-warm needs --cache".into());
            }
            let journal = cold.then(|| args.dir.join("journal.wal"));
            ready();
            if args.setup_only {
                return Ok(());
            }
            let key = format!("depth/{}x{MAX_SPLIT}/seed={}", size.temps, args.seed);
            let sweep = SweepPass {
                spec,
                cache: args.cache.clone(),
                journal,
                dir: &args.dir,
                key,
            };
            sweep.run(args.workload, spans.as_ref(), &mut report)?;
        }
        Workload::Engines => {
            let t0 = Instant::now();
            let trace = TraceConfig::parsec_like().generate(size.insts, args.seed);
            let generate = t0.elapsed();
            ready();
            if args.setup_only {
                return Ok(());
            }
            engines(args, size, &trace, &mut report)?;
            PassReport::put(&mut report.detail, "ooo.trace_generate_ms", ms(generate));
        }
    }
    if args.traced {
        let ops = args.workload.ops(size) as f64;
        PassReport::put(&mut report.layers, "ops", ops);
    }
    println!("{}", report.to_value());
    Ok(())
}

/// All 34 `reproduce` tasks at Quick fidelity on two workers, rendered
/// as JSON and written: `reproduce --threads 2 --json --out F`.
fn reproduce(dir: &Path, spans: Option<&Spans>, r: &mut PassReport) -> Result<(), String> {
    let out = dir.join("reproduce.json");
    let t0 = Instant::now();
    let reports = cryowire_harness::Executor::new(WORKERS).run(TASKS, |_, task| {
        span(spans, task.id, || (task.run)(Fidelity::Quick))
    });
    let t1 = Instant::now();
    let mut json = serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?;
    json.push('\n');
    let t2 = Instant::now();
    fs::write(&out, &json).map_err(|e| format!("{}: {e}", out.display()))?;
    let t3 = Instant::now();
    r.wall_s = (t3 - t0).as_secs_f64();
    r.rss_mb = peak_rss_mb();
    r.part("reproduce/quick".into(), json.as_bytes());

    let Some(spans) = spans else { return Ok(()) };
    let busy_ms = spans.total_ms();
    r.set_layers(&[(t1 - t0, WORKERS)], t3 - t1, busy_ms, 0);
    let d = &mut r.detail;
    let mut per_layer = [0.0; Layer::ALL.len()];
    let mut critical: f64 = 0.0;
    for task in TASKS {
        let task_ms = spans.durations(task.id).iter().fold(0.0, |a, d| a + d);
        critical = critical.max(task_ms);
        per_layer[task.layer as usize] += task_ms;
        PassReport::put(d, format!("reproduce.{}_ms", task.id), task_ms);
    }
    PassReport::put(d, "reproduce.render_ms", ms(t2 - t1));
    PassReport::put(d, "reproduce.write_ms", ms(t3 - t2));
    PassReport::put(d, "reproduce.critical_path_ms", critical);
    let idle = 1.0 - busy_ms / (r.wall_s * 1e3 * WORKERS as f64);
    PassReport::put(d, "executor.idle_frac", idle);
    for layer in Layer::ALL {
        PassReport::put(
            d,
            format!("layer.{}_ms", layer.name()),
            per_layer[layer as usize],
        );
    }
    Ok(())
}

/// A depth-grid sweep pass: `sweep --temps N --max-split 8 --threads 2
/// [--journal J] [--cache-dir C] --out A`.
struct SweepPass<'a> {
    spec: SweepSpec,
    cache: Option<PathBuf>,
    journal: Option<PathBuf>,
    dir: &'a Path,
    /// Digest key of the canonical artifact.
    key: String,
}

impl SweepPass<'_> {
    fn run(self, w: Workload, spans: Option<&Spans>, r: &mut PassReport) -> Result<(), String> {
        let out = self.dir.join("artifact.json");
        let points = self.spec.len();
        let t0 = Instant::now();
        let cache = match &self.cache {
            Some(dir) => Some(open_cache(dir)?),
            None => None,
        };
        let artifact = match spans {
            // Exactly what the sweep binary runs.
            None => {
                let mut opts = SweepOptions::threaded(WORKERS);
                if let Some(c) = &cache {
                    opts = opts.with_cache(c);
                }
                if let Some(j) = &self.journal {
                    opts = opts.with_journal(j, false);
                }
                experiments::depth_sweep_artifact(self.spec.clone(), opts)
            }
            // The same sweep built through the public harness API, so
            // each evaluation can carry a span.
            Some(s) => {
                let mut sweep = Sweep::new(self.spec.clone())
                    .eval_tag(DEPTH_TAG)
                    .base_seed(0)
                    .threads(WORKERS);
                if let Some(c) = &cache {
                    sweep = sweep.cache(c);
                }
                if let Some(j) = &self.journal {
                    sweep = sweep.journal(j);
                }
                sweep.run(|p, _| s.time("pipeline.eval", || experiments::depth_grid_eval(p)))
            }
        };
        let t1 = Instant::now();
        artifact
            .write_json(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        let t2 = Instant::now();
        r.wall_s = (t2 - t0).as_secs_f64();
        r.rss_mb = peak_rss_mb();

        let st = artifact.stats;
        r.check(st.points == points && st.failed == 0, || {
            format!("{} of {points} points, {} failed", st.points, st.failed)
        });
        let expect_hits = if w == Workload::SweepWarm { points } else { 0 };
        r.check(st.cache_hits == expect_hits, || {
            format!("{} cache hits, expected {expect_hits}", st.cache_hits)
        });
        r.part(self.key.clone(), artifact.canonical_json().as_bytes());
        PassReport::put(&mut r.detail, "points_per_s", points as f64 / r.wall_s);

        let Some(spans) = spans else { return Ok(()) };
        let eval_ms = spans.total_ms();
        r.set_layers(&[(t1 - t0, WORKERS)], t2 - t1, eval_ms, st.cache_hits);
        let self_ms = ms(t1 - t0) * WORKERS as f64 - eval_ms;
        let d = &mut r.detail;
        PassReport::put(d, "pipeline.eval_ms", eval_ms);
        PassReport::put(d, "harness.points", points as f64);
        PassReport::put(d, "harness.cache_hits", st.cache_hits as f64);
        let attributed_us = self.per_call_costs(w, &artifact, d)?;
        let unattributed = (self_ms - attributed_us / 1e3) / (ms(t1 - t0) * WORKERS as f64);
        PassReport::put(d, "harness.unattributed_frac", unattributed);
        Ok(())
    }

    /// Times the harness's public per-point functions over the pass's
    /// own records, in fresh directories. Returns the per-point calls'
    /// total, µs, the in-sweep harness time they account for.
    fn per_call_costs(
        &self,
        w: Workload,
        artifact: &RunArtifact,
        d: &mut Vec<(String, f64)>,
    ) -> Result<f64, String> {
        let recs = &artifact.points;
        let n = recs.len() as f64;
        let per_call = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / n;

        let t = Instant::now();
        for p in recs {
            black_box(content_key(&artifact.eval_tag, &p.params.canonical()));
        }
        let key_us = per_call(t);
        PassReport::put(d, "harness.content_key_us", key_us);
        let mut total_us = key_us;

        if w == Workload::SweepCold {
            // The pass journals but does not cache; the insert cost is
            // what `--cache-dir` would add to it.
            let cache = open_cache(&self.dir.join("calls-cache"))?;
            let t = Instant::now();
            for p in recs {
                cache.insert(&p.key, &p.value);
            }
            let insert_us = per_call(t);

            let header = JournalHeader {
                sweep: artifact.sweep.clone(),
                eval_tag: artifact.eval_tag.clone(),
                base_seed: artifact.base_seed,
                grid_key: "per-call-costs".into(),
            };
            let path = self.dir.join("calls.wal");
            let journal = RunJournal::create(&path, &header)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let t = Instant::now();
            for p in recs {
                journal.append(&p.key, &p.value);
            }
            let append_us = per_call(t);
            PassReport::put(d, "harness.cache_insert_us", insert_us);
            PassReport::put(d, "harness.journal_append_us", append_us);
            PassReport::put(d, "harness.journal_appends", journal.appended() as f64);
            total_us += append_us;
        } else {
            // A fresh handle has an empty memory map: every get reads disk.
            let cache = open_cache(self.cache.as_deref().expect("warm passes have a cache"))?;
            let t = Instant::now();
            let found = recs.iter().filter(|p| cache.get(&p.key).is_some()).count();
            let get_us = per_call(t);
            if found != recs.len() {
                return Err(format!(
                    "{found} of {} warm-cache entries readable",
                    recs.len()
                ));
            }
            PassReport::put(d, "harness.cache_get_us", get_us);
            total_us += get_us;
        }
        let t = Instant::now();
        black_box(artifact.canonical_json());
        PassReport::put(d, "harness.canonical_json_ms", ms(t.elapsed()));
        let path = self.dir.join("calls.json");
        let t = Instant::now();
        artifact
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        PassReport::put(d, "harness.write_json_ms", ms(t.elapsed()));
        Ok(total_us * n)
    }
}

fn open_cache(dir: &Path) -> Result<ResultCache, String> {
    ResultCache::with_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn core_digest(metrics: &[CoreMetrics]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{} {} {} {} {}\n",
                m.instructions, m.cycles, m.branches, m.mispredicts, m.overrides
            )
        })
        .collect()
}

/// Sum of the per-point `eval_ms` of an artifact, and its largest group
/// (batched points split their group's time evenly, so a group's time
/// is the sum over its members; scalar points are groups of one).
fn group_eval_ms(
    artifact: &RunArtifact,
    group_of: impl Fn(&cryowire_harness::Point) -> String,
) -> (f64, f64) {
    let mut groups: Vec<(String, f64)> = Vec::new();
    for p in &artifact.points {
        let g = group_of(&p.params);
        match groups.iter_mut().find(|(k, _)| *k == g) {
            Some((_, t)) => *t += p.eval_ms,
            None => groups.push((g, p.eval_ms)),
        }
    }
    let total = groups.iter().map(|(_, t)| t).sum();
    let max = groups.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    (total, max)
}

/// The engine phases: the coherence grid (`sweep --sweep coherence
/// --cycles N`), the fig21 grid at Full fidelity (`sweep --sweep fig21
/// --full`), and the ipc-validation configs over one trace, scalar then
/// batched.
fn engines(args: &ChildArgs, size: Size, trace: &Trace, r: &mut PassReport) -> Result<(), String> {
    let grid = experiments::ipc_validation_grid();
    let configs: Vec<_> = grid.iter().map(|(_, c)| *c).collect();
    let t0 = Instant::now();
    let coherence =
        experiments::coherence_sweep_artifact(size.accesses, SweepOptions::threaded(WORKERS));
    let t1 = Instant::now();
    let fig21 = experiments::fig21_sweep_artifact(Fidelity::Full, SweepOptions::threaded(WORKERS));
    let t2 = Instant::now();
    let mut scratch = CoreScratch::new();
    let scalar: Vec<CoreMetrics> = configs
        .iter()
        .map(|c| CoreSimulator::new(*c).run_with_scratch(trace, &mut scratch))
        .collect();
    let t3 = Instant::now();
    let mut batched = Vec::new();
    run_batch_into(&configs, trace, &mut BatchScratch::new(), &mut batched);
    let t4 = Instant::now();
    for (name, artifact) in [("coherence", &coherence), ("fig21", &fig21)] {
        let path = args.dir.join(format!("{name}.json"));
        artifact
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let t5 = Instant::now();
    r.wall_s = (t5 - t0).as_secs_f64();
    r.rss_mb = peak_rss_mb();

    for (name, a) in [("coherence", &coherence), ("fig21", &fig21)] {
        r.check(!a.points.is_empty() && !a.has_failures(), || {
            format!(
                "{name}: {} failed of {} points",
                a.stats.failed,
                a.points.len()
            )
        });
    }
    for ((name, _), (s, b)) in grid.iter().zip(scalar.iter().zip(&batched)) {
        r.check(s == b, || {
            format!("batched lane {name} differs from its scalar run")
        });
    }
    r.check(batched.len() == scalar.len(), || {
        "batched lane count differs".into()
    });
    r.part(
        format!("coherence/{}", size.accesses),
        coherence.canonical_json().as_bytes(),
    );
    r.part("fig21/full".into(), fig21.canonical_json().as_bytes());
    r.part(
        format!("core/{}/seed={}", size.insts, args.seed),
        core_digest(&scalar).as_bytes(),
    );

    let accesses: u64 = coherence
        .points
        .iter()
        .filter_map(|p| p.value.get("accesses").and_then(Value::as_u64))
        .sum();
    let sim_cycles: u64 = scalar.iter().map(|m| m.cycles).sum();
    let core_insts = (size.insts * configs.len()) as f64;
    let (coh_ms, coh_group_max) = group_eval_ms(&coherence, |p| p.str("engine").to_string());
    let (noc_ms, noc_point_max) = group_eval_ms(&fig21, |p| p.str("network").to_string());
    let core_ms = ms(t3 - t2);
    let batch_ms = ms(t4 - t3);
    let compute = [
        (t1 - t0, WORKERS),
        (t2 - t1, WORKERS),
        (t3 - t2, 1),
        (t4 - t3, 1),
    ];
    let busy_ms = coh_ms + noc_ms + core_ms + batch_ms;
    if args.traced {
        r.set_layers(&compute, t5 - t4, busy_ms, 0);
    }
    let d = &mut r.detail;
    PassReport::put(
        d,
        "core_minst_per_s",
        core_insts / (t3 - t2).as_secs_f64() / 1e6,
    );
    PassReport::put(
        d,
        "core_batch_minst_per_s",
        core_insts / (t4 - t3).as_secs_f64() / 1e6,
    );
    PassReport::put(
        d,
        "coherence_maccesses_per_s",
        accesses as f64 / (t1 - t0).as_secs_f64() / 1e6,
    );
    PassReport::put(d, "fig21_full_s", (t2 - t1).as_secs_f64());
    PassReport::put(d, "coherence.eval_ms", coh_ms);
    PassReport::put(d, "coherence.group_max_ms", coh_group_max);
    PassReport::put(d, "noc.eval_ms", noc_ms);
    PassReport::put(d, "noc.point_max_ms", noc_point_max);
    PassReport::put(d, "ooo.run_ms", core_ms);
    PassReport::put(d, "ooo.run_batch_ms", batch_ms);
    PassReport::put(d, "ooo.sim_cycles", sim_cycles as f64);
    PassReport::put(d, "coherence.sim_accesses", accesses as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let r = PassReport {
            wall_s: 1.25,
            rss_mb: 12.5,
            errors: vec!["x".into()],
            parts: vec![("reproduce/quick".into(), hex(7))],
            layers: vec![("compute_ms".into(), 3.0)],
            detail: vec![("reproduce.fig2_ms".into(), 0.5)],
        };
        let text = r.to_value().to_string();
        let back = PassReport::from_value(&serde_json::from_str(&text).expect("parses"));
        assert_eq!(back, Some(r));
    }

    #[test]
    fn layer_ledger_adds_up_to_worker_capacity() {
        let mut r = PassReport::default();
        // 800 ms on two workers and 100 ms on one, 150 ms of output,
        // 1.2 s of engine calls.
        let compute = [
            (Duration::from_millis(800), 2),
            (Duration::from_millis(100), 1),
        ];
        r.set_layers(&compute, Duration::from_millis(150), 1200.0, 0);
        let get = |n: &str| r.layer(n).expect(n);
        assert!((get("compute_ms") - 900.0).abs() < 1e-9);
        assert!((get("output_ms") - 150.0).abs() < 1e-9);
        // capacity 1700 ms = 1200 busy + 500 harness self.
        assert!((get("harness.self_ms") - 500.0).abs() < 1e-9);
        assert!((get("engine.busy_frac") - 1200.0 / 1700.0).abs() < 1e-12);
    }

    #[test]
    fn grouped_eval_time_sums_members() {
        let spec = cryowire_harness::SweepSpec::new("g")
            .axis("engine", ["a", "b"])
            .axis("x", [1i64, 2, 3]);
        let mut artifact = Sweep::new(spec).run(|_, _| Value::Null);
        for (i, p) in artifact.points.iter_mut().enumerate() {
            p.eval_ms = i as f64;
        }
        // Groups: a = 0+1+2, b = 3+4+5.
        let (total, max) = group_eval_ms(&artifact, |p| p.str("engine").to_string());
        assert_eq!((total, max), (15.0, 12.0));
    }
}
