//! Run a single experiment by id.
//!
//! ```sh
//! cargo run --release --bin experiment -- list
//! cargo run --release --bin experiment -- <id> [--full] [--json]
//! ```
//!
//! The ids are those of `cryowire::experiments::REGISTRY`; with no id,
//! or with `list`, the binary lists them. The output is what
//! `reproduce` prints for that experiment. An unknown flag, a second
//! positional argument or an unknown id prints `experiment: ...` on
//! stderr and exits with status 2.

use cryowire::experiments::{Fidelity, REGISTRY};

fn main() {
    let mut fidelity = Fidelity::Quick;
    let mut json = false;
    let mut id: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => fidelity = Fidelity::Full,
            "--json" => json = true,
            other if other.starts_with('-') => die(&format!("unknown argument `{other}`")),
            other if id.is_some() => die(&format!("unexpected argument `{other}`; give one id")),
            _ => id = Some(arg),
        }
    }

    match id.as_deref() {
        None | Some("list") => {
            println!("available experiments:");
            for experiment in REGISTRY {
                println!("  {}", experiment.id);
            }
            println!("\nusage: experiment <id> [--full] [--json]");
        }
        Some(id) => {
            let experiment = REGISTRY.iter().find(|e| e.id == id).unwrap_or_else(|| {
                die(&format!("unknown experiment `{id}`; try `experiment list`"))
            });
            let section = (experiment.run)(fidelity);
            if json {
                let report =
                    serde_json::to_string_pretty(&section.report).expect("reports serialize");
                println!("{report}");
            } else {
                print!("{section}");
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("experiment: {msg}");
    std::process::exit(2);
}
