//! Harness sweep scaling: the same SweepSpec run on 1 vs 2 vs 4
//! executor threads.
//!
//! ```sh
//! cargo run --release --example abl_sweep_scaling
//! ```
//!
//! Two workloads:
//! * `latency-bound`: every point blocks ~2 ms (stand-in for a
//!   simulation that waits on anything other than this CPU). Threads
//!   overlap the blocking, so the speedup shows up even on a single
//!   core — this is the scaling guarantee the executor itself makes.
//! * `depth-grid`: the real 64-point temperature × depth compute grid;
//!   its scaling additionally depends on how many cores the host has.

use cryowire::experiments::{self, SweepOptions};
use cryowire_harness::{RunArtifact, Sweep, SweepSpec};
use serde_json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn latency_bound_artifact(threads: usize) -> RunArtifact {
    let spec = SweepSpec::new("latency-bound").axis("i", 0..16i64);
    Sweep::new(spec)
        .eval_tag("bench/latency-bound")
        .threads(threads)
        .run(|point, _seed| {
            std::thread::sleep(Duration::from_millis(2));
            Value::Int(point.i64("i"))
        })
}

fn depth_grid_artifact(threads: usize) -> RunArtifact {
    experiments::depth_sweep_artifact(
        experiments::depth_grid_spec(&experiments::linspace_temperatures(16), 4),
        SweepOptions::threaded(threads),
    )
}

fn time_of(mut f: impl FnMut()) -> Duration {
    // Median of five, after one warm-up.
    f();
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[2]
}

fn main() {
    println!(
        "host parallelism: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (name, run) in [
        (
            "latency-bound",
            &latency_bound_artifact as &dyn Fn(usize) -> RunArtifact,
        ),
        ("depth-grid", &depth_grid_artifact),
    ] {
        let serial = time_of(|| {
            black_box(run(1));
        });
        for threads in THREAD_COUNTS {
            let t = time_of(|| {
                black_box(run(threads));
            });
            println!(
                "abl_sweep_scaling/{name}: {threads} thread(s) {t:?} \
                 (speedup vs 1 thread: {:.2}x)",
                serial.as_secs_f64() / t.as_secs_f64()
            );
        }
    }
}
