//! Times experiments one at a time on the calling thread, at Quick
//! fidelity as `reproduce` runs them: a first (cold) run, then N warm
//! runs, of which it prints the minimum and the median.
//!
//! ```sh
//! cargo run --release --example time_experiments -- [N] ID...
//! taskset -c 0 target/release/examples/time_experiments 5 abl-engine fig16
//! ```
//!
//! N defaults to 5. Experiments that start their own threads still do:
//! one per network in fig18 (2), fig21 and fig25 (9) and fig26 (5); one
//! per workload in fig3, fig17, fig23 and summary (13, summary through
//! fig23) and fig24 (12); one per config in cpi-sim (4) and
//! abl-core-engine (3). Pin the process to one CPU to time them on one
//! thread. (abl-ipc is one batch on the calling thread.)

use std::time::Instant;

use cryowire::experiments::{Fidelity, REGISTRY};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let warm_runs = match args.first().and_then(|a| a.parse::<usize>().ok()) {
        Some(n) => {
            args.remove(0);
            n.max(1)
        }
        None => 5,
    };
    for id in &args {
        let Some(experiment) = REGISTRY.iter().find(|e| e.id == *id) else {
            eprintln!("time_experiments: unknown experiment id `{id}`");
            std::process::exit(2);
        };
        let time_ms = || {
            let start = Instant::now();
            std::hint::black_box((experiment.run)(Fidelity::Quick));
            start.elapsed().as_secs_f64() * 1e3
        };
        let first = time_ms();
        let mut warm: Vec<f64> = (0..warm_runs).map(|_| time_ms()).collect();
        warm.sort_by(f64::total_cmp);
        println!(
            "{id:<16} first {first:8.2} ms   warm min {:8.2} ms   median {:8.2} ms   ({warm_runs} warm runs)",
            warm[0],
            warm[warm_runs / 2]
        );
    }
}
