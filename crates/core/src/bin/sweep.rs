//! Parallel, cached design-space sweeps with JSON run artifacts.
//!
//! ```sh
//! cargo run --release --bin sweep -- [--sweep NAME] [--list] \
//!     [--threads N] [--out FILE] [--cache-dir DIR] \
//!     [--temps N] [--max-split K] [--full] \
//!     [--fault-seed N] [--inject-panic] [--canonical] \
//!     [--journal FILE] [--resume] [--retries N] [--deadline-ms N] \
//!     [--backoff-ms N] [--fail-fast] [--point-delay-ms N] \
//!     [--cycles N] [--smoke] [--baseline FILE]
//! ```
//!
//! The default sweep is the temperature × pipeline-depth grid
//! (16 temperatures × 4 split factors = 64 points). `--out` writes the
//! full artifact (per-point parameters, seeds, cache provenance, timing
//! and values) as pretty JSON; without it the artifact goes to stdout.
//! `--cache-dir` persists point results content-addressed on disk, so
//! re-runs and overlapping grids only evaluate new points.
//!
//! `--journal FILE` writes every completed point through to a
//! checksummed WAL whose `fdatasync`s concurrent workers share (group
//! commit; the summary line reports how many ran); `--resume` replays it so a run killed at any moment
//! (including `kill -9`) continues where it stopped, with a canonical
//! artifact byte-identical to an uninterrupted run. `--retries`,
//! `--deadline-ms` and `--backoff-ms` configure the per-point
//! supervision policy (transient failures retried with deterministic
//! backoff, cooperative deadlines converted into typed timeouts);
//! `--fail-fast` stops dispatch after the first quarantined point;
//! `--point-delay-ms` paces attempts for chaos testing.
//!
//! The `degraded` sweep runs the fault-injection scenarios (cooling
//! transient, CryoBus way loss, both) seeded from `--fault-seed`;
//! `--inject-panic` appends a deliberately panicking point to exercise
//! the harness's per-point isolation, and `--inject-flaky` /
//! `--inject-poison` / `--inject-wedge` append typed-failure points
//! that heal on retry, exhaust any retry budget, and trip the
//! cooperative deadline respectively.
//!
//! The `coherence` sweep runs its engine × cache-geometry grid on a
//! shared trace of `--cycles N` accesses per core (default 200).
//!
//! `bench-engines` is the perf gate, not a point sweep: it times every
//! optimized engine domain (NoC, core, coherence, batched core grids)
//! against its baseline with bit-identity asserted on every timed row,
//! writes `BENCH_engines.json` (`--smoke` runs the short CI grids), and
//! with `--baseline FILE` exits 1 when a domain's wall-time-weighted
//! speedup falls below 75 % of the committed figure — relative, so the
//! gate holds across machines of different absolute speed. Two claims
//! exit 1 whatever the baseline: batched grids must beat per-point
//! scalar runs, and the barrier-heavy directory/snoop miss-latency
//! ratio must exceed 1.
//!
//! `--list` prints every registered sweep with a one-line description.
//!
//! Exit codes: 0 on success, 2 when the sweep completed but some
//! points failed (their errors are recorded in the artifact), 1 on
//! fatal errors (bad arguments, unwritable output, benchmark
//! regression).

use cryowire::experiments::{self, Fidelity, InjectFaults, SweepOptions};
use cryowire_harness::{ResultCache, RunArtifact, RunJournal, SupervisePolicy};
use std::path::Path;
use std::time::Duration;

/// How a registered sweep runs: a harness grid producing a
/// [`RunArtifact`], or the benchmark mode that writes its own
/// `BENCH_engines.json` and exits.
enum SweepKind {
    Grid(fn(&Args, SweepOptions) -> RunArtifact),
    Bench(fn(&Args) -> !),
}

/// One registered sweep: its name, a one-line description for
/// `--list`, and its dispatch. The registry drives `--list`, the
/// unknown-sweep error, and `main`'s dispatch, so a sweep cannot be
/// registered without being listed (or listed without running).
struct SweepEntry {
    name: &'static str,
    what: &'static str,
    kind: SweepKind,
}

/// Every registered sweep, in `--list` order.
const SWEEPS: &[SweepEntry] = &[
    SweepEntry {
        name: "depth",
        what: "temperature x pipeline-depth grid (default; 16 temps x 4 splits)",
        kind: SweepKind::Grid(grid_depth),
    },
    SweepEntry {
        name: "fig27",
        what: "Fig. 27 whole-system speedup across operating temperatures",
        kind: SweepKind::Grid(grid_fig27),
    },
    SweepEntry {
        name: "fig21",
        what: "Fig. 21 NoC load-latency curves over the fabric grid",
        kind: SweepKind::Grid(grid_fig21),
    },
    SweepEntry {
        name: "degraded",
        what: "fault-injection scenarios: cooling transient, CryoBus way loss",
        kind: SweepKind::Grid(grid_degraded),
    },
    SweepEntry {
        name: "coherence",
        what: "coherence engine x cache-geometry grid, one batch of sequential lanes per engine",
        kind: SweepKind::Grid(grid_coherence),
    },
    SweepEntry {
        name: "bench-engines",
        what: "times every engine domain vs its baseline; writes BENCH_engines.json",
        kind: SweepKind::Bench(run_bench_engines),
    },
];

struct Args {
    sweep: String,
    threads: usize,
    out: Option<String>,
    cache_dir: Option<String>,
    temps: usize,
    max_split: i64,
    fidelity: Fidelity,
    fault_seed: u64,
    inject: InjectFaults,
    canonical: bool,
    smoke: bool,
    baseline: Option<String>,
    cycles: Option<u64>,
    journal: Option<String>,
    resume: bool,
    retries: u32,
    deadline_ms: Option<u64>,
    backoff_ms: Option<u64>,
    fail_fast: bool,
    point_delay_ms: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        sweep: "depth".to_string(),
        threads: 0,
        out: None,
        cache_dir: None,
        temps: 16,
        max_split: 4,
        fidelity: Fidelity::Quick,
        fault_seed: 0xC0FFEE,
        inject: InjectFaults::default(),
        canonical: false,
        smoke: false,
        baseline: None,
        cycles: None,
        journal: None,
        resume: false,
        retries: 0,
        deadline_ms: None,
        backoff_ms: None,
        fail_fast: false,
        point_delay_ms: 0,
    };
    let mut threads_given = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| die(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--sweep" => args.sweep = value("--sweep"),
            "--threads" => {
                args.threads = parse(&value("--threads"), "--threads");
                threads_given = true;
            }
            "--out" => args.out = Some(value("--out")),
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")),
            "--temps" => args.temps = parse(&value("--temps"), "--temps"),
            "--max-split" => args.max_split = parse(&value("--max-split"), "--max-split"),
            "--full" => args.fidelity = Fidelity::Full,
            "--fault-seed" => args.fault_seed = parse(&value("--fault-seed"), "--fault-seed"),
            "--inject-panic" => args.inject.panic = true,
            "--inject-flaky" => args.inject.flaky = true,
            "--inject-poison" => args.inject.poison = true,
            "--inject-wedge" => args.inject.wedge = true,
            "--journal" => args.journal = Some(value("--journal")),
            "--resume" => args.resume = true,
            "--retries" => args.retries = parse(&value("--retries"), "--retries"),
            "--deadline-ms" => {
                args.deadline_ms = Some(parse(&value("--deadline-ms"), "--deadline-ms"));
            }
            "--backoff-ms" => {
                args.backoff_ms = Some(parse(&value("--backoff-ms"), "--backoff-ms"));
            }
            "--fail-fast" => args.fail_fast = true,
            "--point-delay-ms" => {
                args.point_delay_ms = parse(&value("--point-delay-ms"), "--point-delay-ms");
            }
            "--canonical" => args.canonical = true,
            "--smoke" => args.smoke = true,
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--list" => {
                for entry in SWEEPS {
                    println!("{:<16} {}", entry.name, entry.what);
                }
                std::process::exit(0);
            }
            "--cycles" => args.cycles = Some(parse(&value("--cycles"), "--cycles")),
            "--help" | "-h" => {
                println!(
                    "usage: sweep [--sweep depth|fig27|fig21|degraded|coherence|bench-engines] [--list]\n\
                     \x20            [--threads N] [--out FILE] [--cache-dir DIR] [--temps N]\n\
                     \x20            [--max-split K] [--full] [--fault-seed N] [--inject-panic]\n\
                     \x20            [--inject-flaky] [--inject-poison] [--inject-wedge]\n\
                     \x20            [--journal FILE] [--resume] [--retries N] [--deadline-ms N]\n\
                     \x20            [--backoff-ms N] [--fail-fast] [--point-delay-ms N]\n\
                     \x20            [--canonical] [--cycles N] [--smoke] [--baseline FILE]\n\
                     --list prints the registered sweep names with one-line\n\
                     descriptions and exits.\n\
                     --canonical emits only the deterministic portion (no timing or\n\
                     cache provenance), byte-identical across thread counts.\n\
                     --journal FILE appends completed points to a checksummed,\n\
                     fsync'd WAL; --resume replays it so an interrupted run (even\n\
                     kill -9) continues with a byte-identical canonical artifact.\n\
                     --retries N retries transient failures (I/O, timeout, stall,\n\
                     cache corruption) up to N times with deterministic exponential\n\
                     backoff starting at --backoff-ms (default 25); --deadline-ms\n\
                     arms a cooperative per-attempt watchdog; points that exhaust\n\
                     the budget are quarantined (exit 2) and --fail-fast stops\n\
                     dispatching after the first one. --point-delay-ms paces\n\
                     attempts (chaos testing). --inject-flaky/--inject-poison/\n\
                     --inject-wedge append typed-failure points to the degraded\n\
                     sweep (heals on retry / always fails / trips the deadline).\n\
                     --cycles N sets the coherence sweep's accesses per core.\n\
                     bench-engines: times the NoC, core and coherence engines vs\n\
                     their frozen references and the batched core grids vs scalar\n\
                     runs, asserting bit-identity on every timed row, and writes\n\
                     BENCH_engines.json; --smoke runs the CI grids, --baseline FILE\n\
                     fails (exit 1) when a domain's speedup falls below 75% of the\n\
                     committed figure; a claim at or below 1 (batched vs scalar,\n\
                     barrier-heavy directory/snoop latency) always fails.\n\
                     exit codes: 0 ok, 2 partial point failures, 1 fatal"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }
    if threads_given && args.threads == 0 {
        eprintln!("sweep: warning: --threads 0 clamps to one worker per CPU");
    }
    if args.temps < 2 {
        die("--temps must be at least 2 (the 77 K and 300 K endpoints)");
    }
    if args.max_split < 1 {
        die("--max-split must be at least 1");
    }
    if args.resume && args.journal.is_none() {
        die("--resume requires --journal FILE (the WAL to replay)");
    }
    args
}

fn parse<T: std::str::FromStr>(s: &str, name: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("invalid value `{s}` for {name}")))
}

fn die(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(1);
}

/// The supervision policy the robustness flags describe.
fn supervise_policy(args: &Args) -> SupervisePolicy {
    let mut policy = SupervisePolicy::with_retries(args.retries);
    policy.deadline = args.deadline_ms.map(Duration::from_millis);
    if let Some(ms) = args.backoff_ms {
        policy.backoff_base = Duration::from_millis(ms);
    }
    policy.fail_fast = args.fail_fast;
    policy.pace = Duration::from_millis(args.point_delay_ms);
    policy
}

/// Friendly pre-flight for `--resume`: a journal that exists but cannot
/// be read is a configuration error worth a clean exit-1 diagnosis
/// rather than the harness's panic. A missing file is fine (resume
/// degrades to a fresh run), and so is a torn tail (recovery truncates
/// it) — report what will be replayed.
fn precheck_journal(path: &str) {
    match RunJournal::recover(path) {
        Ok(rec) => {
            let torn = if rec.torn {
                " (torn tail discarded)"
            } else {
                ""
            };
            eprintln!(
                "sweep: resuming from journal `{path}`: {} recorded point(s){torn}",
                rec.records.len()
            );
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("sweep: journal `{path}` does not exist yet; starting fresh");
        }
        Err(e) => die(&format!("cannot read journal `{path}`: {e}")),
    }
}

// ------------------------------------------------------- grid dispatch

fn grid_depth(args: &Args, opts: SweepOptions) -> RunArtifact {
    let spec = experiments::depth_grid_spec(
        &experiments::linspace_temperatures(args.temps),
        args.max_split,
    );
    if let Err(msg) = spec.validate() {
        die(&msg);
    }
    experiments::depth_sweep_artifact(spec, opts)
}

fn grid_fig27(_args: &Args, opts: SweepOptions) -> RunArtifact {
    experiments::fig27_sweep_artifact(opts)
}

fn grid_fig21(args: &Args, opts: SweepOptions) -> RunArtifact {
    experiments::fig21_sweep_artifact(args.fidelity, opts)
}

fn grid_degraded(args: &Args, opts: SweepOptions) -> RunArtifact {
    experiments::degraded_sweep_artifact_injected(args.fault_seed, args.inject, opts)
}

fn grid_coherence(args: &Args, opts: SweepOptions) -> RunArtifact {
    let accesses = args
        .cycles
        .map_or(experiments::COHERENCE_SWEEP_ACCESSES, |c| c as usize);
    experiments::coherence_sweep_artifact(accesses, opts)
}

// ------------------------------------------------------- bench dispatch

/// Runs `bench-engines`: times every engine domain, writes
/// `BENCH_engines.json` and applies the gate. Never returns.
fn run_bench_engines(args: &Args) -> ! {
    // Read the committed figures before anything is written: `--out`
    // may name the same file.
    let baseline = args
        .baseline
        .as_deref()
        .map(|path| cryowire_bench::read_baseline(path).unwrap_or_else(|e| die(&e)));
    let run = experiments::bench_engines(args.smoke);
    for r in &run.rows {
        eprintln!(
            "bench-engines: {:<9} {:<34} {:>2} lane(s)  optimized {:>8.2} ms ({:>7.2} M/s)  \
             baseline {:>8.2} ms  speedup {:.2}x",
            r.domain,
            r.grid,
            r.lanes,
            r.wall_ms_optimized,
            r.throughput,
            r.wall_ms_baseline,
            r.speedup
        );
    }
    let speedups = run.speedups();
    for (domain, speedup) in &speedups {
        eprintln!("bench-engines: {domain} speedup {speedup:.2}x (wall-time weighted)");
    }
    let claims = run.claims();
    for (claim, ratio) in &claims {
        eprintln!("bench-engines: claim: {claim}: {ratio:.2}x");
    }
    let doc = experiments::bench_engines_json(&run);
    let rendered = serde_json::to_string_pretty(&doc).expect("bench document serializes");
    match args.out.as_deref() {
        Some(path) => {
            std::fs::write(path, rendered + "\n")
                .unwrap_or_else(|e| die(&format!("cannot write `{path}`: {e}")));
            eprintln!("bench-engines: artifact written to {path}");
        }
        None => println!("{rendered}"),
    }
    cryowire_bench::gate(&speedups, &claims, baseline.as_ref())
        .unwrap_or_else(|e| die(&format!("bench-engines: {e}")));
    if baseline.is_some() {
        eprintln!("bench-engines: gate ok (every domain at or above 75% of its baseline)");
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    let Some(entry) = SWEEPS.iter().find(|e| e.name == args.sweep) else {
        let names: Vec<&str> = SWEEPS.iter().map(|e| e.name).collect();
        die(&format!(
            "unknown sweep `{}` ({}; `--list` describes each)",
            args.sweep,
            names.join(", ")
        ));
    };
    let artifact: RunArtifact = match entry.kind {
        SweepKind::Bench(run) => run(&args),
        SweepKind::Grid(run) => {
            let cache = args.cache_dir.as_ref().map(|dir| {
                ResultCache::with_dir(dir)
                    .unwrap_or_else(|e| die(&format!("cannot open cache dir `{dir}`: {e}")))
            });
            // threads == 0 means one worker per CPU (the SweepOptions
            // default).
            let mut opts =
                SweepOptions::threaded(args.threads).with_policy(supervise_policy(&args));
            if let Some(cache) = cache.as_ref() {
                opts = opts.with_cache(cache);
            }
            if let Some(journal) = args.journal.as_deref() {
                if args.resume {
                    precheck_journal(journal);
                }
                opts = opts.with_journal(Path::new(journal), args.resume);
            }
            run(&args, opts)
        }
    };

    eprintln!(
        "sweep `{}`: {} points ({} evaluated, {} cached, {} resumed, {} deduped, {} failed) \
         on {} thread(s) in {:.1} ms",
        artifact.sweep,
        artifact.stats.points,
        artifact.stats.evaluated,
        artifact.stats.cache_hits,
        artifact.stats.resumed,
        artifact.stats.deduped,
        artifact.stats.failed,
        artifact.stats.threads,
        artifact.stats.wall_ms
    );
    if let Some(journal) = args.journal.as_deref() {
        eprintln!(
            "sweep: journal `{journal}`: {} group commit(s) (fdatasync) for {} evaluated point(s)",
            artifact.stats.journal_syncs, artifact.stats.evaluated
        );
    }
    if artifact.stats.retried > 0 || artifact.stats.journal_errors > 0 {
        eprintln!(
            "sweep: supervision: {} retried attempt(s), {} quarantined, {} skipped, \
             {} journal write error(s)",
            artifact.stats.retried,
            artifact.stats.quarantined,
            artifact.stats.skipped,
            artifact.stats.journal_errors
        );
    }
    for bad in artifact.failed_points() {
        let class = bad.failure_class.map_or(String::new(), |c| {
            format!(" [{c}, {} attempt(s)]", bad.attempts)
        });
        eprintln!(
            "sweep: point {} ({}) failed{class}: {}",
            bad.index,
            bad.params.label(),
            bad.error.as_deref().unwrap_or("unknown")
        );
    }
    match args.out {
        Some(path) => {
            let result = if args.canonical {
                std::fs::write(&path, artifact.canonical_json() + "\n")
            } else {
                artifact.write_json(&path)
            };
            result.unwrap_or_else(|e| die(&format!("cannot write `{path}`: {e}")));
            eprintln!("artifact written to {path}");
        }
        None if args.canonical => println!("{}", artifact.canonical_json()),
        None => println!(
            "{}",
            serde_json::to_string_pretty(&artifact).expect("artifact serializes")
        ),
    }
    if artifact.has_failures() {
        // Partial failure: the artifact is complete and every healthy
        // point is recorded, but the run cannot claim full success.
        std::process::exit(2);
    }
}
