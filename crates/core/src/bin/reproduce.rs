//! Prints every experiment of `cryowire::experiments::REGISTRY`, the
//! reproduced tables and figures and then the ablations, in paper order.
//!
//! ```sh
//! cargo run --release --bin reproduce [--full] [--json] [--threads N] [--out FILE]
//! ```
//!
//! `--json` emits every report as a JSON array instead of tables.
//! `--threads N` generates the reports through the harness executor on
//! `N` worker threads (output order stays paper order). `--out FILE`
//! writes the output to a file instead of stdout.

use cryowire::experiments::{Fidelity, REGISTRY};
use cryowire::Report;
use cryowire_harness::Executor;

fn main() {
    let mut fidelity = Fidelity::Quick;
    let mut json = false;
    let mut threads = 1usize;
    let mut out: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => fidelity = Fidelity::Full,
            "--json" => json = true,
            "--threads" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| die("--threads requires a value"));
                threads = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("invalid thread count `{v}`")));
            }
            "--out" => out = Some(iter.next().unwrap_or_else(|| die("--out requires a value"))),
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    // The harness executor preserves paper order regardless of thread
    // count; with --threads 1 this is the plain serial loop.
    let sections = Executor::new(threads).run(REGISTRY, |_, e| (e.run)(fidelity));

    let output = if json {
        let reports: Vec<&Report> = sections.iter().map(|s| &s.report).collect();
        let mut s = serde_json::to_string_pretty(&reports).expect("reports serialize");
        s.push('\n');
        s
    } else {
        sections.iter().map(ToString::to_string).collect()
    };
    match out {
        Some(path) => std::fs::write(&path, output)
            .unwrap_or_else(|e| die(&format!("cannot write `{path}`: {e}"))),
        None => print!("{output}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    std::process::exit(2);
}
