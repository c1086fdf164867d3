//! Benchmark harness crate for the CryoWire reproduction.
//!
//! Two things live here:
//!
//! * **The shared bench-report plumbing** (this library): every
//!   `BENCH_*.json` artifact written by the sweep binary's `bench-*`
//!   modes uses one schema — a `benchmark` discriminator, mode-specific
//!   scalar metadata, the `min_speedup` / `geomean_speedup` /
//!   `overall_speedup` summary, and per-point rows — assembled by
//!   [`bench_value`], with [`speedup_stats`] computing the summary,
//!   [`emit`] writing the document, and [`baseline_gate`] /
//!   [`claim_gate`] applying the CI regression checks. The library
//!   depends on `serde_json` only, so the `cryowire` emitters and the
//!   sweep binary can share it without a dependency cycle.
//! * **The Criterion bench targets** under `benches/`: the NoC and core
//!   hot loops against their reference engines, and harness sweep
//!   scaling. Those pull `cryowire` itself as a dev-dependency; the
//!   `reproduce` binary regenerates the paper's tables and figures.
//!
//! The gating figure of every report is `overall_speedup` — total
//! reference (or scalar) wall time over total optimized wall time, i.e.
//! each point weighted by how long it actually takes, which is what a
//! user sweeping the grid experiences. Being a ratio measured within
//! one run it is machine-independent, so CI gates on it directly.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use serde_json::Value;

/// The three-figure speedup summary shared by every bench report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupStats {
    /// Smallest per-point speedup.
    pub min: f64,
    /// Geometric-mean speedup across the points.
    pub geomean: f64,
    /// Wall-time-weighted whole-grid speedup: total reference wall
    /// time over total optimized wall time. The gating figure.
    pub overall: f64,
}

impl SpeedupStats {
    /// A degenerate summary where the claim is a single ratio rather
    /// than a per-point wall-time distribution (the coherence report's
    /// simulated-latency ratio): all three figures are that ratio.
    #[must_use]
    pub fn uniform(ratio: f64) -> Self {
        SpeedupStats {
            min: ratio,
            geomean: ratio,
            overall: ratio,
        }
    }
}

/// Computes the summary from per-point `(wall_reference, wall_optimized)`
/// pairs (any consistent time unit).
///
/// # Panics
///
/// Panics on an empty slice — a report with no points gates nothing.
#[must_use]
pub fn speedup_stats(walls: &[(f64, f64)]) -> SpeedupStats {
    assert!(
        !walls.is_empty(),
        "speedup summary needs at least one point"
    );
    let speedup = |(r, o): &(f64, f64)| r / o.max(1e-12);
    let min = walls.iter().map(speedup).fold(f64::INFINITY, f64::min);
    let geomean = (walls.iter().map(|w| speedup(w).ln()).sum::<f64>() / walls.len() as f64).exp();
    let total_ref: f64 = walls.iter().map(|w| w.0).sum();
    let total_opt: f64 = walls.iter().map(|w| w.1).sum();
    SpeedupStats {
        min,
        geomean,
        overall: total_ref / total_opt.max(1e-12),
    }
}

/// Assembles the shared `BENCH_*.json` document: `benchmark`, the
/// mode-specific `meta` scalars (in the given order), the speedup
/// summary, and the per-point rows.
#[must_use]
pub fn bench_value(
    benchmark: &str,
    meta: Vec<(String, Value)>,
    stats: SpeedupStats,
    points: Vec<Value>,
) -> Value {
    let mut fields = vec![("benchmark".into(), Value::String(benchmark.into()))];
    fields.extend(meta);
    fields.push(("min_speedup".into(), Value::Float(stats.min)));
    fields.push(("geomean_speedup".into(), Value::Float(stats.geomean)));
    fields.push(("overall_speedup".into(), Value::Float(stats.overall)));
    fields.push(("points".into(), Value::Array(points)));
    Value::Object(fields)
}

/// Extracts the gating figure (`overall_speedup`) from a parsed bench
/// document (a current run or a committed baseline).
#[must_use]
pub fn speedup_from_json(v: &Value) -> Option<f64> {
    v.get("overall_speedup").and_then(Value::as_f64)
}

/// Writes `doc` as pretty JSON to `out` (or stdout when `None`),
/// logging the destination on stderr like every bench mode does.
///
/// # Errors
///
/// Returns a message describing an unwritable output path.
pub fn emit(mode: &str, doc: &Value, out: Option<&str>) -> Result<(), String> {
    let rendered = serde_json::to_string_pretty(doc).map_err(|e| format!("{mode}: {e}"))?;
    match out {
        Some(path) => {
            std::fs::write(path, rendered + "\n")
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("{mode}: artifact written to {path}");
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

/// The claim-inversion gate: a report whose gating figure is a paper
/// claim (a ratio that must exceed 1) fails outright when the measured
/// value inverts the claim, baseline or not.
///
/// # Errors
///
/// Returns the regression message when `measured <= 1.0`.
pub fn claim_gate(mode: &str, claim: &str, measured: f64) -> Result<(), String> {
    if measured <= 1.0 {
        return Err(format!(
            "{mode}: claim regression: {claim} (ratio {measured:.2}x <= 1)"
        ));
    }
    Ok(())
}

/// The `--baseline` gate: reads a committed bench document from
/// `baseline` and fails when `measured` regresses more than 25 %
/// against its `overall_speedup`. Relative (speedup vs speedup,
/// measured in the same run each time), so the gate holds across
/// machines of different absolute speed. A `None` baseline is a no-op.
///
/// `noun` names the figure in the failure message (`"speedup"` for
/// wall-time gates, `"ratio"` for simulated-latency gates).
///
/// # Errors
///
/// Returns a message for an unreadable/unparseable baseline, a baseline
/// without `overall_speedup`, or a measured regression below the 75 %
/// floor.
pub fn baseline_gate(
    mode: &str,
    noun: &str,
    measured: f64,
    baseline: Option<&str>,
) -> Result<(), String> {
    let Some(path) = baseline else {
        return Ok(());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline `{path}`: {e}"))?;
    let doc =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse baseline `{path}`: {e}"))?;
    let floor = speedup_from_json(&doc)
        .ok_or_else(|| format!("baseline `{path}` lacks `overall_speedup`"))?
        * 0.75;
    if measured < floor {
        return Err(format!(
            "{mode}: {noun} regression: measured {measured:.2}x < 75% of baseline ({floor:.2}x)"
        ));
    }
    eprintln!("{mode}: baseline gate ok ({measured:.2}x >= {floor:.2}x)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_summarize_min_geomean_and_wall_weighting() {
        // Two points: 2x on 10 units of reference work, 8x on 80.
        let s = speedup_stats(&[(10.0, 5.0), (80.0, 10.0)]);
        assert!((s.min - 2.0).abs() < 1e-12);
        assert!((s.geomean - 4.0).abs() < 1e-12);
        // Overall weights by wall time: 90 / 15 = 6x, not the mean 5x.
        assert!((s.overall - 6.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_stats_carry_one_ratio() {
        let s = SpeedupStats::uniform(1.8);
        assert_eq!((s.min, s.geomean, s.overall), (1.8, 1.8, 1.8));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_stats_are_rejected() {
        let _ = speedup_stats(&[]);
    }

    #[test]
    fn envelope_orders_keys_and_round_trips_the_gate_figure() {
        let doc = bench_value(
            "unit_bench",
            vec![("cycles".into(), Value::UInt(8_000))],
            SpeedupStats {
                min: 1.5,
                geomean: 2.0,
                overall: 2.5,
            },
            vec![Value::Object(vec![("speedup".into(), Value::Float(2.5))])],
        );
        let text = serde_json::to_string(&doc).expect("serializes");
        let keys: Vec<&str> = ["benchmark", "cycles", "min_speedup", "geomean_speedup"]
            .into_iter()
            .collect();
        let mut last = 0;
        for key in keys {
            let at = text.find(&format!("\"{key}\"")).expect("key present");
            assert!(at >= last, "`{key}` out of order in {text}");
            last = at;
        }
        let parsed = serde_json::from_str(&text).expect("parses");
        assert_eq!(speedup_from_json(&parsed), Some(2.5));
    }

    #[test]
    fn claim_gate_fails_at_or_below_one() {
        assert!(claim_gate("bench-x", "x beats y", 1.2).is_ok());
        let err = claim_gate("bench-x", "x beats y", 0.9).unwrap_err();
        assert!(err.contains("claim regression"), "{err}");
        assert!(err.contains("x beats y"), "{err}");
        assert!(claim_gate("bench-x", "x beats y", 1.0).is_err());
    }

    #[test]
    fn baseline_gate_holds_the_75_percent_floor() {
        let dir = std::env::temp_dir().join(format!("cryowire-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_unit.json");
        let doc = bench_value("unit_bench", vec![], SpeedupStats::uniform(4.0), vec![]);
        emit("bench-unit", &doc, Some(path.to_str().expect("utf-8 path"))).expect("writes");

        let p = path.to_str().expect("utf-8 path");
        assert!(baseline_gate("bench-unit", "speedup", 3.5, Some(p)).is_ok());
        assert!(
            baseline_gate("bench-unit", "speedup", 3.0, Some(p)).is_ok(),
            "exactly at floor"
        );
        let err = baseline_gate("bench-unit", "speedup", 2.9, Some(p)).unwrap_err();
        assert!(err.contains("speedup regression"), "{err}");
        assert!(
            baseline_gate("bench-unit", "speedup", 0.1, None).is_ok(),
            "no baseline, no gate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_gate_explains_bad_baselines() {
        let err =
            baseline_gate("bench-unit", "speedup", 2.0, Some("/nonexistent/x.json")).unwrap_err();
        assert!(err.contains("cannot read baseline"), "{err}");
    }
}
