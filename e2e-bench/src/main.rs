//! End-to-end and per-layer benchmark of the CryoWire reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     [--workload reproduce|sweep-cold|sweep-warm|engines] [--seed N] \
//!     [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --compare A.json B.json
//! ```
//!
//! With `--workload`, one workload is measured for `--seconds`: with
//! `--trace 0` its end-to-end metrics, with `--trace 1` its per-layer
//! metrics. Without it, every workload is measured both ways. The last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the report goes to stderr and, with `--out`, the full
//! ledger to a file that `--compare` reads. See README.md.

mod child;
mod compare;
mod metrics;
mod runner;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Duration;

use serde_json::Value;

use child::ChildArgs;
use runner::{Ctx, Ledger, Run, ScratchGuard};
use workload::{Size, Workload};

/// Measuring time per workload when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

/// Rounds every measurement runs at least, so quartiles exist.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--smoke]\n       e2e --compare A.json B.json\n\
                     workloads: reproduce, sweep-cold, sweep-warm, engines";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
    child: Option<Workload>,
    dir: Option<PathBuf>,
    cache: Option<PathBuf>,
    traced: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        compare: None,
        child: None,
        dir: None,
        cache: None,
        traced: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let workload = |s: String| Workload::parse(&s).ok_or(format!("unknown workload `{s}`"));
        match arg.as_str() {
            "--workload" => a.workload = Some(workload(value()?)?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?),
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((value()?, value()?)),
            "--child" => a.child = Some(workload(value()?)?),
            "--dir" => a.dir = Some(value()?.into()),
            "--cache" => a.cache = Some(value()?.into()),
            "--traced" => a.traced = true,
            "--setup-only" => a.setup_only = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(&format!("{e}\n{USAGE}")));
    if let Some(w) = args.child {
        let dir = args
            .dir
            .clone()
            .unwrap_or_else(|| die("--child needs --dir"));
        let child = ChildArgs {
            workload: w,
            seed: args.seed,
            dir,
            cache: args.cache.clone(),
            traced: args.traced,
            smoke: args.smoke,
            setup_only: args.setup_only,
        };
        if let Err(e) = child::run(&child) {
            die(&format!("{} pass: {e}", w.name()));
        }
        return;
    }
    if let Some((a, b)) = &args.compare {
        match compare::run(a, b) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => die(&e),
        }
    }
    let correct = measure(&args);
    if !correct {
        std::process::exit(1);
    }
}

/// Measures the requested workloads; returns whether every output was
/// correct.
fn measure(args: &Args) -> bool {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("cannot locate self: {e}")));
    // `<target-dir>/release/e2e`: scratch files go on the build disk,
    // never to the temp dir, which may be tmpfs (where fsync is free).
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| die("exe has no target dir"));
    let scratch = target
        .join("e2e-bench")
        .join(std::process::id().to_string());
    let _guard = ScratchGuard(scratch.clone());
    let ctx = Ctx {
        exe: exe.clone(),
        scratch,
        seed: args.seed,
        smoke: args.smoke,
    };
    let size = Size::new(args.smoke);
    let (budget, min_rounds) = if args.smoke {
        (Duration::ZERO, 1)
    } else {
        (Duration::from_secs(args.seconds), MIN_ROUNDS)
    };
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "e2e: seed {}, {} s per measurement{}, 2 workers per pass, {cpus} CPU(s) available",
        args.seed,
        budget.as_secs(),
        if args.smoke { " (smoke)" } else { "" }
    );
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ledgers: Vec<Ledger> = Vec::new();
    for &w in &workloads {
        let mut run = Run::new(w);
        if args.workload.is_some() {
            runner::measure(&ctx, &mut run, budget, args.trace, min_rounds);
        } else {
            runner::measure(&ctx, &mut run, budget, false, min_rounds);
            runner::measure(&ctx, &mut run, Duration::ZERO, true, 1);
        }
        if w == Workload::Reproduce {
            runner::check_reproduce_binary(&mut run);
        }
        let l = runner::ledger(run, size);
        l.print();
        ledgers.push(l);
    }

    if let Some(path) = &args.out {
        let doc = Value::Object(vec![
            ("seed".into(), Value::UInt(args.seed)),
            ("seconds".into(), Value::UInt(budget.as_secs())),
            ("smoke".into(), Value::Bool(args.smoke)),
            ("cpus".into(), Value::UInt(cpus as u64)),
            (
                "workloads".into(),
                Value::Object(
                    ledgers
                        .iter()
                        .map(|l| (l.workload.name().to_string(), l.to_value()))
                        .collect(),
                ),
            ),
        ]);
        let mut text = String::new();
        doc.write_json_pretty(&mut text, 0);
        text.push('\n');
        std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("e2e: ledger written to {path}");
    }

    // The result line: one workload reports the metrics `--trace`
    // selects under their own names; all workloads report both kinds,
    // named `<workload>.<metric>`.
    let mut metrics = Vec::new();
    for l in &ledgers {
        let groups = match (args.workload.is_some(), args.trace) {
            (true, false) => vec![&l.end_to_end],
            (true, true) => vec![&l.per_layer],
            (false, _) => vec![&l.end_to_end, &l.per_layer],
        };
        for (name, unit, s) in groups.into_iter().flatten() {
            let key = if args.workload.is_some() {
                name.to_string()
            } else {
                format!("{}.{name}", l.workload.name())
            };
            let v = Value::Object(vec![
                ("value".into(), Value::Float(s.median)),
                ("unit".into(), Value::String(unit.to_string())),
            ]);
            metrics.push((key, v));
        }
    }
    let correct = ledgers.iter().all(Ledger::correct);
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::UInt(ledgers.iter().map(|l| l.attempted).sum()),
        ),
        (
            "failed".into(),
            Value::UInt(ledgers.iter().map(|l| l.failed).sum()),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{result}");
    correct
}

fn die(msg: &str) -> ! {
    eprintln!("e2e: {msg}");
    std::process::exit(2);
}
