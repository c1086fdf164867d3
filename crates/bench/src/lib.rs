//! The gate behind `sweep --sweep bench-engines` and its
//! `BENCH_engines.json`.
//!
//! The emitter (`cryowire::experiments::bench_engines`) times every
//! engine domain against its baseline in one process, several
//! repetitions per grid, and reports per domain the [`median`] over
//! repetitions of the wall-time-weighted speedup: total baseline wall
//! time over total optimized wall time, each grid weighted by how long
//! it actually takes, which is what a user sweeping the grids
//! experiences. A baseline is a frozen engine or, for the coherence
//! domain, the fixed [`calibration_kernel`]. Being a ratio measured
//! within one run it carries across machines of different absolute
//! speed, so CI gates it against the committed document directly. This
//! library holds that gate and the kernel and depends on `serde_json`
//! only, so the `cryowire` emitter and the sweep binary share it without
//! a dependency cycle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use serde_json::Value;

/// Share of a domain's committed speedup a measurement must keep.
pub const FLOOR: f64 = 0.75;

/// Wall-time-weighted speedup of `(baseline, optimized)` wall-time
/// pairs (any consistent time unit): total baseline over total
/// optimized.
///
/// # Panics
///
/// Panics on no pairs — a domain with no timed grid gates nothing.
#[must_use]
pub fn weighted_speedup(walls: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (mut baseline, mut optimized, mut n) = (0.0, 0.0, 0usize);
    for (b, o) in walls {
        baseline += b;
        optimized += o;
        n += 1;
    }
    assert!(n > 0, "speedup summary needs at least one point");
    baseline / f64::max(optimized, 1e-12)
}

/// The median of `xs` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on no values.
#[must_use]
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    assert!(!xs.is_empty(), "median needs at least one value");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Entries of [`calibration_kernel`]'s table: 4 KiB of `u32`s.
const KERNEL_TABLE: usize = 1024;

/// Independent walks [`calibration_kernel`] interleaves over its table.
const KERNEL_WALKS: usize = 4;

/// Fixed integer work to time an engine against: a figure divided by
/// its time reads the engine's speed relative to the host's at that
/// moment.
///
/// Each of the `rounds` rounds advances four independent walks over
/// one 4 KiB table. A walk steps its own xorshift stream, reads the
/// entry that the stream and its previous entry pick, and rewrites it;
/// the first walk does so down one of two branches that the data picks,
/// one time in eight. The core overlaps the walks, as it overlaps an
/// engine's independent work, so a slow spell of a shared host slows
/// the kernel about as much as the engines, where a single dependent
/// walk slows far less. Returns a checksum of the walks; pass it to
/// [`std::hint::black_box`] so the work is not optimized away.
///
/// The work must never change: every figure divided by its time would
/// move with it. A unit test pins the checksum, so an edit fails the
/// tests.
#[must_use]
pub fn calibration_kernel(rounds: u64) -> u64 {
    let mut table: [u32; KERNEL_TABLE] =
        std::array::from_fn(|i| (i as u32).wrapping_mul(0x9E37_79B9));
    let mut x: [u64; KERNEL_WALKS] = std::array::from_fn(|w| {
        0x2545_F491_4F6C_DD1D ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    let mut at: [usize; KERNEL_WALKS] = std::array::from_fn(|w| w * (KERNEL_TABLE / KERNEL_WALKS));
    let mut sum = [0u64; KERNEL_WALKS];
    for _ in 0..rounds {
        for w in 0..KERNEL_WALKS {
            let mut y = x[w];
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            x[w] = y;
            let v = table[at[w]];
            if w == 0 && (v ^ y as u32) & 7 == 0 {
                sum[w] = sum[w].wrapping_add(u64::from(v));
                table[at[w]] = v.rotate_left(5) ^ (y >> 32) as u32;
            } else {
                sum[w] = sum[w].rotate_left(7) ^ y;
                table[at[w]] = v.wrapping_add(y as u32 | 1);
            }
            at[w] = (v as usize ^ y as usize) % KERNEL_TABLE;
        }
    }
    sum.iter().fold(0, |acc, &s| acc ^ s)
}

/// Reads and parses a committed bench document.
///
/// # Errors
///
/// Returns a message naming an unreadable or unparseable file.
pub fn read_baseline(path: &str) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline `{path}`: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse baseline `{path}`: {e}"))
}

/// The gate. Every claim ratio must exceed 1, baseline or not: a
/// claim is a result the engines must keep reproducing. With a
/// committed `baseline` document, every measured domain speedup must
/// also hold [`FLOOR`] of that domain's figure under the document's
/// `speedups` object.
///
/// # Errors
///
/// Returns every failure, each naming its claim or domain, joined by
/// `"; "`.
pub fn gate(
    speedups: &[(&str, f64)],
    claims: &[(&str, f64)],
    baseline: Option<&Value>,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for &(claim, ratio) in claims {
        if ratio <= 1.0 || ratio.is_nan() {
            failures.push(format!(
                "claim regression: {claim} (ratio {ratio:.2}x <= 1)"
            ));
        }
    }
    if let Some(doc) = baseline {
        for &(domain, measured) in speedups {
            let committed = doc
                .get("speedups")
                .and_then(|s| s.get(domain))
                .and_then(Value::as_f64);
            match committed {
                None => failures.push(format!("baseline lacks a `{domain}` speedup")),
                Some(committed) => {
                    let floor = committed * FLOOR;
                    if measured < floor || measured.is_nan() {
                        failures.push(format!(
                            "{domain} speedup regression: measured {measured:.2}x < 75% of \
                             baseline ({floor:.2}x)"
                        ));
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAINS: [&str; 4] = ["noc", "core", "coherence", "batch"];

    fn committed() -> Value {
        Value::Object(vec![(
            "speedups".into(),
            Value::Object(
                DOMAINS
                    .iter()
                    .map(|d| ((*d).to_string(), Value::Float(4.0)))
                    .collect(),
            ),
        )])
    }

    #[test]
    fn weighted_speedup_weights_by_wall_time() {
        // Two points: 2x on 10 units of baseline work, 8x on 80.
        // Weighted by wall time: 90 / 15 = 6x, not the mean 5x.
        let s = weighted_speedup([(10.0, 5.0), (80.0, 10.0)]);
        assert!((s - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_stats_are_rejected() {
        let _ = weighted_speedup([]);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median([3.0, 9.0, 1.0]), 3.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median([7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_median_is_rejected() {
        let _ = median([]);
    }

    #[test]
    fn claim_gate_fails_at_or_below_one() {
        assert!(gate(&[], &[("x beats y", 1.2), ("z beats w", 1.01)], None).is_ok());
        for ratio in [1.0, 0.9, f64::NAN] {
            for failing in 0..2 {
                let mut claims = [("x beats y", 1.2), ("z beats w", 1.2)];
                claims[failing].1 = ratio;
                let err = gate(&[], &claims, None).unwrap_err();
                let named = format!("claim regression: {}", claims[failing].0);
                assert!(err.contains(&named), "{err}");
                assert_eq!(err.matches("claim regression").count(), 1, "{err}");
            }
        }
    }

    #[test]
    fn baseline_gate_holds_the_75_percent_floor() {
        let doc = committed();
        let all = |speedup| DOMAINS.map(|d| (d, speedup));
        assert!(gate(&all(3.5), &[], Some(&doc)).is_ok());
        assert!(gate(&all(3.0), &[], Some(&doc)).is_ok(), "exactly at floor");
        assert!(gate(&all(0.1), &[], None).is_ok(), "no baseline, no floor");
        for slow in DOMAINS {
            let measured = DOMAINS.map(|d| (d, if d == slow { 2.9 } else { 4.0 }));
            let err = gate(&measured, &[], Some(&doc)).unwrap_err();
            assert!(
                err.starts_with(&format!("{slow} speedup regression")),
                "{err}"
            );
            assert_eq!(err.matches("regression").count(), 1, "{err}");
        }
    }

    #[test]
    fn calibration_kernel_is_pinned() {
        // Every figure timed against the kernel moves if its work does.
        assert_eq!(calibration_kernel(10_000), 7_978_718_181_290_263_879);
        assert_eq!(calibration_kernel(0), 0);
    }

    #[test]
    fn baseline_gate_explains_bad_baselines() {
        let err = read_baseline("/nonexistent/x.json").unwrap_err();
        assert!(err.contains("cannot read baseline"), "{err}");
        let err = gate(&[("noc", 2.0)], &[], Some(&Value::Object(vec![]))).unwrap_err();
        assert!(err.contains("lacks a `noc` speedup"), "{err}");
    }
}
