//! The parent: runs passes one child process at a time, checks their
//! outputs, and reduces them to the ledger.
//!
//! Every pass runs in a fresh process because process-wide memo tables
//! (`TraceArena::global()`, the NoC route caches) would make in-process
//! repeats measure a warm program that no user runs.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cryowire_harness::stable_hash64;
use serde_json::Value;

use crate::child::{hex, PassReport};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workload::{Size, Workload};

/// A pass that takes longer than this is killed and counted as failed.
const PASS_TIMEOUT: Duration = Duration::from_secs(120);

/// Rounds (set-up probe, pass, optional traced pass) in one measurement
/// never exceed this, however short the passes.
const MAX_ROUNDS: usize = 400;

/// Seed-0 digests (`stable_hash64`) of every output part, full and
/// smoke sizes. `reproduce`, `depth`, `coherence` and `fig21` are the
/// bytes the `reproduce --threads 2 --json` and `sweep ... --canonical`
/// binaries print (without the trailing newline for `sweep`); `core`
/// has no binary and pins this benchmark's own rendering of the five
/// `CoreMetrics`. Parts of other seeds have no entry and are checked by
/// the in-run identities only. A deliberate model change updates them.
const GOLDEN: &[(&str, &str)] = &[
    ("reproduce/quick", "8a7f1d64775915de"),
    ("depth/1024x8/seed=0", "f765df98337f88a8"),
    ("depth/64x8/seed=0", "a1daa26fc148225f"),
    ("coherence/20000", "d9f2f5e332f001d6"),
    ("coherence/2000", "61a2419f6ac7bc8b"),
    ("fig21/full", "0c1baf64f0a4125d"),
    ("core/100000/seed=0", "93df179ba1d048aa"),
    ("core/2000000/seed=0", "e2f0917241cc0a13"),
];

/// Settings shared by every measurement of one invocation.
pub struct Ctx {
    pub exe: PathBuf,
    pub scratch: PathBuf,
    pub seed: u64,
    pub smoke: bool,
}

/// Removes the scratch tree when the benchmark exits, however it exits.
pub struct ScratchGuard(pub PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        sync_disks();
    }
}

/// One child's outcome.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Spawn until the child's `ready` line.
    pub setup_s: Option<f64>,
    pub report: Option<PassReport>,
    /// Why the pass failed: crash, timeout, or a failed check.
    pub failure: Option<String>,
}

impl Pass {
    fn failed(&self) -> bool {
        self.failure.is_some() || self.report.as_ref().is_some_and(|r| !r.errors.is_empty())
    }

    /// The report of a pass that passed every check.
    fn ok(&self) -> Option<&PassReport> {
        (!self.failed()).then_some(self.report.as_ref()).flatten()
    }
}

/// Every pass of one workload in this invocation.
pub struct Run {
    pub workload: Workload,
    /// Warm-cache preparation (the untimed cold run `sweep-warm` reads).
    pub prep: Vec<Pass>,
    pub untraced: Vec<Pass>,
    pub traced: Vec<Pass>,
    /// Set-up times of set-up-only children.
    pub probes: Vec<f64>,
    /// Check failures that belong to no single pass.
    pub errors: Vec<String>,
}

impl Run {
    pub fn new(workload: Workload) -> Run {
        Run {
            workload,
            prep: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            probes: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn passes_mut(&mut self) -> impl Iterator<Item = &mut Pass> {
        self.prep
            .iter_mut()
            .chain(self.untraced.iter_mut())
            .chain(self.traced.iter_mut())
    }

    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.prep.iter().chain(&self.untraced).chain(&self.traced)
    }
}

/// Spawns one child and collects its set-up time and report.
fn spawn(ctx: &Ctx, w: Workload, dir: &Path, cache: Option<&Path>, mode: &str) -> Pass {
    let mut cmd = Command::new(&ctx.exe);
    cmd.args([
        "--child",
        w.name(),
        "--seed",
        &ctx.seed.to_string(),
        "--dir",
    ])
    .arg(dir);
    if let Some(c) = cache {
        cmd.arg("--cache").arg(c);
    }
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    if !mode.is_empty() {
        cmd.arg(mode);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let failed = |msg: String| Pass {
        setup_s: None,
        report: None,
        failure: Some(msg),
    };
    // The pass directory is made here, outside the child's set-up time:
    // a metadata write can stall behind the filesystem journal.
    if let Err(e) = std::fs::create_dir_all(dir) {
        return failed(format!("{}: {e}", dir.display()));
    }
    let t0 = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed(format!("cannot start {}: {e}", ctx.exe.display())),
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let (setup, last, timed_out) = std::thread::scope(|s| {
        s.spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let deadline = t0 + PASS_TIMEOUT;
        let (mut setup, mut last, mut timed_out) = (None, None, false);
        loop {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((at, line)) if line == "ready" && setup.is_none() => {
                    setup = Some((at - t0).as_secs_f64());
                }
                Ok((_, line)) => last = Some(line),
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    timed_out = true;
                    let _ = child.kill();
                    break;
                }
            }
        }
        (setup, last, timed_out)
    });
    let status = child.wait();
    let mut pass = Pass {
        setup_s: setup,
        report: None,
        failure: None,
    };
    if timed_out {
        pass.failure = Some(format!("killed after {} s", PASS_TIMEOUT.as_secs()));
        return pass;
    }
    match status {
        Ok(st) if st.success() => {}
        Ok(st) => {
            pass.failure = Some(format!("child exited with {st}"));
            return pass;
        }
        Err(e) => {
            pass.failure = Some(format!("cannot wait for child: {e}"));
            return pass;
        }
    }
    if setup.is_none() {
        pass.failure = Some("child never reported ready".into());
    } else if mode != "--setup-only" {
        match last.and_then(|l| serde_json::from_str(&l).ok()) {
            Some(v) => match PassReport::from_value(&v) {
                Some(r) => pass.report = Some(r),
                None => pass.failure = Some("malformed pass report".into()),
            },
            None => pass.failure = Some("no pass report".into()),
        }
    }
    pass
}

/// Flushes dirty pages, so one pass's deferred writeback does not land
/// in the next pass's timed region. Best-effort.
fn sync_disks() {
    let _ = Command::new("sync").status();
}

/// Runs rounds of (set-up probe, untraced pass, traced pass when
/// `traced`) until `budget` has passed and at least `min_rounds` ran.
///
/// Every pass gets fresh directories. They are deleted, and the disks
/// synced, once after the last round: on a filesystem mounted with
/// online discard, deleting a pass's 8192 cache files between passes
/// slows the next pass's file creation several-fold, which would
/// measure the previous pass's cleanup instead of this pass.
pub fn measure(ctx: &Ctx, run: &mut Run, budget: Duration, traced: bool, min_rounds: usize) {
    let w = run.workload;
    let root = ctx.scratch.join(w.name());
    let passes = root.join("passes");
    let warm_cache = root.join("warm-cache");
    let cache = (w == Workload::SweepWarm).then_some(warm_cache.as_path());
    sync_disks();
    if cache.is_some() && run.prep.is_empty() {
        let prep = spawn(ctx, Workload::SweepCold, &passes.join("prep"), cache, "");
        run.prep.push(prep);
        sync_disks();
    }
    let start = Instant::now();
    for round in 0..MAX_ROUNDS {
        if round >= min_rounds && start.elapsed() >= budget {
            break;
        }
        let n = run.untraced.len() + run.traced.len() + run.probes.len();
        let probe = spawn(
            ctx,
            w,
            &passes.join(format!("probe-{n}")),
            cache,
            "--setup-only",
        );
        if let Some(s) = probe.setup_s {
            run.probes.push(s);
        }
        let modes: &[&str] = if traced { &["", "--traced"] } else { &[""] };
        for mode in modes {
            if w == Workload::SweepCold {
                sync_disks();
            }
            let pass = spawn(ctx, w, &passes.join(format!("pass-{n}{mode}")), cache, mode);
            if mode.is_empty() {
                run.untraced.push(pass);
            } else {
                run.traced.push(pass);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&passes);
    sync_disks();
}

/// Cross-checks the benchmark's `reproduce` JSON against the binary's,
/// when a release build of the workspace is present.
pub fn check_reproduce_binary(run: &mut Run) {
    let bin = Path::new("target/release/reproduce");
    if !bin.exists() {
        return;
    }
    let digest = match Command::new(bin)
        .args(["--threads", "2", "--json"])
        .stderr(Stdio::inherit())
        .output()
    {
        Ok(out) if out.status.success() => hex(stable_hash64(&out.stdout)),
        Ok(out) => {
            run.errors
                .push(format!("{} exited with {}", bin.display(), out.status));
            return;
        }
        Err(e) => {
            run.errors
                .push(format!("cannot run {}: {e}", bin.display()));
            return;
        }
    };
    let ours = run
        .passes()
        .filter_map(|p| p.report.as_ref())
        .find_map(|r| r.parts.iter().find(|(k, _)| k == "reproduce/quick"));
    if let Some((_, d)) = ours {
        if *d == digest {
            eprintln!("e2e: reproduce JSON is byte-identical to {}", bin.display());
        } else {
            run.errors.push(format!(
                "reproduce JSON differs from {} (rebuild it with `cargo build --release`, \
                 or update the mirrored task list)",
                bin.display()
            ));
        }
    }
}

/// Checks every output part: each part key must give one digest in
/// the whole run (passes agree, traced equals untraced, the warm sweep
/// equals the cold one), and match its golden digest when there is one.
/// A pass with a mismatching part fails.
fn check_digests(run: &mut Run) -> Vec<(String, String)> {
    let mut seen: Vec<(String, String)> = Vec::new();
    for pass in run.passes_mut() {
        let Some(report) = &pass.report else { continue };
        let mut problems = Vec::new();
        for (key, digest) in &report.parts {
            let golden = GOLDEN.iter().find(|(k, _)| k == key).map(|(_, d)| *d);
            if golden.is_some_and(|g| g != digest) {
                problems.push(format!(
                    "{key}: digest {digest} is not the golden {}",
                    golden.unwrap_or("")
                ));
            }
            match seen.iter().find(|(k, _)| k == key) {
                Some((_, first)) if first != digest => {
                    problems.push(format!(
                        "{key}: digest {digest} differs from {first} earlier in this run"
                    ));
                }
                Some(_) => {}
                None => seen.push((key.clone(), digest.clone())),
            }
        }
        if !problems.is_empty() && pass.failure.is_none() {
            pass.failure = Some(problems.join("; "));
        }
    }
    seen
}

/// Everything reported about one workload.
pub struct Ledger {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<(&'static str, &'static str, Summary)>,
    pub per_layer: Vec<(&'static str, &'static str, Summary)>,
    pub detail: Vec<(String, Summary)>,
    pub digests: Vec<(String, String)>,
    pub golden_checked: usize,
    pub passes: usize,
    pub traced_passes: usize,
}

fn summarize<'a>(
    passes: impl Iterator<Item = &'a PassReport>,
    f: impl Fn(&PassReport) -> Option<f64>,
) -> Option<Summary> {
    let values: Vec<f64> = passes.filter_map(f).collect();
    Summary::of(&values)
}

/// Reduces a run to its ledger.
pub fn ledger(mut run: Run, size: Size) -> Ledger {
    let digests = check_digests(&mut run);
    let golden_checked = digests
        .iter()
        .filter(|(k, _)| GOLDEN.iter().any(|(g, _)| g == k))
        .count();
    if !run.errors.is_empty() {
        let why = run.errors.join("; ");
        for pass in run.passes_mut() {
            pass.failure.get_or_insert_with(|| why.clone());
        }
    }
    let (mut attempted, mut failed) = (0, 0);
    // Distinct failure reasons with the number of passes that hit each.
    let mut reasons: Vec<(String, usize)> = Vec::new();
    for (pass, w) in run.prep.iter().map(|p| (p, Workload::SweepCold)).chain(
        run.untraced
            .iter()
            .chain(&run.traced)
            .map(|p| (p, run.workload)),
    ) {
        let ops = w.ops(size);
        attempted += ops;
        if pass.failed() {
            failed += ops;
            let why = pass.failure.clone().unwrap_or_else(|| {
                pass.report
                    .as_ref()
                    .map_or_else(String::new, |r| r.errors.join("; "))
            });
            let why = format!("{} pass failed: {why}", w.name());
            match reasons.iter_mut().find(|(r, _)| *r == why) {
                Some((_, n)) => *n += 1,
                None => reasons.push((why, 1)),
            }
        }
    }
    let errors: Vec<String> = reasons
        .into_iter()
        .map(|(why, n)| format!("{why} ({n} pass(es))"))
        .collect();
    let untraced = || run.untraced.iter().filter_map(Pass::ok);
    let traced = || run.traced.iter().filter_map(Pass::ok);

    let mut setups: Vec<f64> = run.untraced.iter().filter_map(|p| p.setup_s).collect();
    setups.extend(&run.probes);
    let mut end_to_end = Vec::new();
    for m in END_TO_END {
        let s = match m.name {
            "wall_s" => summarize(untraced(), |r| Some(r.wall_s)),
            "setup_s" => Summary::of(&setups),
            "peak_rss_mb" => summarize(untraced(), |r| Some(r.rss_mb)),
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        if let Some(s) = s {
            end_to_end.push((m.name, m.unit, s));
        }
    }
    let untraced_wall = summarize(untraced(), |r| Some(r.wall_s));
    let mut per_layer = Vec::new();
    for m in PER_LAYER {
        let s = if m.name == "trace.overhead_frac" {
            let base = untraced_wall.map(|s| s.median);
            summarize(traced(), |r| base.map(|b| r.wall_s / b - 1.0))
        } else {
            summarize(traced(), |r| r.layer(m.name))
        };
        if let Some(s) = s {
            per_layer.push((m.name, m.unit, s));
        }
    }
    // Detail figures come from untraced passes when they report them,
    // else from traced passes (the spans and per-call costs).
    let mut detail: Vec<(String, Summary)> = Vec::new();
    for source in [untraced().collect::<Vec<_>>(), traced().collect::<Vec<_>>()] {
        for r in &source {
            for (name, _) in &r.detail {
                if detail.iter().any(|(n, _)| n == name) {
                    continue;
                }
                let find =
                    |r: &PassReport| r.detail.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                if let Some(s) = summarize(source.iter().copied(), find) {
                    detail.push((name.clone(), s));
                }
            }
        }
    }
    Ledger {
        workload: run.workload,
        attempted,
        failed,
        errors,
        end_to_end,
        per_layer,
        detail,
        digests,
        golden_checked,
        passes: run.untraced.len(),
        traced_passes: run.traced.len(),
    }
}

fn summary_value(unit: Option<&str>, s: &Summary) -> Value {
    let mut fields = Vec::new();
    if let Some(u) = unit {
        fields.push(("unit".to_string(), Value::String(u.into())));
    }
    fields.extend([
        ("median".to_string(), Value::Float(s.median)),
        ("p25".to_string(), Value::Float(s.p25)),
        ("p75".to_string(), Value::Float(s.p75)),
        ("n".to_string(), Value::UInt(s.n as u64)),
    ]);
    Value::Object(fields)
}

impl Ledger {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The ledger as written by `--out`.
    pub fn to_value(&self) -> Value {
        let group = |v: &[(&str, &str, Summary)]| {
            Value::Object(
                v.iter()
                    .map(|(n, u, s)| (n.to_string(), summary_value(Some(u), s)))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("passes".into(), Value::UInt(self.passes as u64)),
            (
                "traced_passes".into(),
                Value::UInt(self.traced_passes as u64),
            ),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("failed_frac".into(), Value::Float(self.failed_frac())),
            ("correct".into(), Value::Bool(self.correct())),
            (
                "errors".into(),
                Value::Array(self.errors.iter().cloned().map(Value::String).collect()),
            ),
            (
                "seed_inputs".into(),
                Value::String(self.workload.seed_note().into()),
            ),
            (
                "digests".into(),
                Value::Object(
                    self.digests
                        .iter()
                        .map(|(k, d)| (k.clone(), Value::String(d.clone())))
                        .collect(),
                ),
            ),
            (
                "golden_checked".into(),
                Value::UInt(self.golden_checked as u64),
            ),
            ("end_to_end".into(), group(&self.end_to_end)),
            ("per_layer".into(), group(&self.per_layer)),
            (
                "detail".into(),
                Value::Object(
                    self.detail
                        .iter()
                        .map(|(n, s)| (n.clone(), summary_value(None, s)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable report, one metric per line.
    pub fn print(&self) {
        let w = self.workload.name();
        eprintln!(
            "== {w}: {} passes + {} traced, {} of {} operations failed, {} ({})",
            self.passes,
            self.traced_passes,
            self.failed,
            self.attempted,
            if self.correct() {
                "outputs correct"
            } else {
                "OUTPUTS WRONG"
            },
            self.workload.seed_note()
        );
        eprintln!(
            "   digests: {} part(s), {} checked against golden",
            self.digests.len(),
            self.golden_checked
        );
        for e in &self.errors {
            eprintln!("   error: {e}");
        }
        let line = |name: &str, unit: &str, s: &Summary| {
            eprintln!(
                "   {name:<32} {:>12.5} {unit:<6} p25 {:>12.5}  p75 {:>12.5}  n={}",
                s.median, s.p25, s.p75, s.n
            );
        };
        for (n, u, s) in self.end_to_end.iter().chain(&self.per_layer) {
            line(n, u, s);
        }
        for (n, s) in &self.detail {
            line(n, "", s);
        }
    }
}
