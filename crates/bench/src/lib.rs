//! The gate behind `sweep --sweep bench-engines` and its
//! `BENCH_engines.json`.
//!
//! The emitter (`cryowire::experiments::bench_engines`) times every
//! engine domain against its baseline in one process and reports, per
//! domain, the wall-time-weighted speedup: total baseline wall time
//! over total optimized wall time, each grid weighted by how long it
//! actually takes, which is what a user sweeping the grids experiences.
//! Being a ratio measured within one run it carries across machines of
//! different absolute speed, so CI gates it against the committed
//! document directly. This library holds that gate and depends on
//! `serde_json` only, so the `cryowire` emitter and the sweep binary
//! share it without a dependency cycle.

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
    fn baseline_gate_explains_bad_baselines() {
        let err = read_baseline("/nonexistent/x.json").unwrap_err();
        assert!(err.contains("cannot read baseline"), "{err}");
        let err = gate(&[("noc", 2.0)], &[], Some(&Value::Object(vec![]))).unwrap_err();
        assert!(err.contains("lacks a `noc` speedup"), "{err}");
    }
}
