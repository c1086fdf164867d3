//! `--compare A.json B.json`: applies the bounds of `BENCHMARK.json`
//! to two ledgers written by `--out`.

use serde_json::Value;

use crate::stats::{verdict, Better, Summary, Verdict};

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub bound: f64,
    pub better: Better,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The end-to-end bounds listed in a `BENCHMARK.json` document.
pub fn bounds(bench: &Value) -> Result<Vec<Bound>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse);
            match (name, bound, better) {
                (Some(name), Some(bound), Some(better)) => Ok(Bound {
                    name: name.to_string(),
                    bound,
                    better,
                }),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

fn summary(v: &Value) -> Option<Summary> {
    let f = |k: &str| v.get(k).and_then(Value::as_f64);
    Some(Summary {
        median: f("median")?,
        p25: f("p25")?,
        p75: f("p75")?,
        n: v.get("n")?.as_u64()? as usize,
    })
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub cand: f64,
    pub verdict: Verdict,
}

/// Compares every (workload, end-to-end metric) pair present in both
/// ledgers, plus each workload's failed share (bound 0).
pub fn rows(bounds: &[Bound], base: &Value, cand: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    let empty: &[(String, Value)] = &[];
    let workloads = base
        .get("workloads")
        .and_then(Value::as_object)
        .unwrap_or(empty);
    for (name, a) in workloads {
        let Some(b) = cand.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        for m in bounds {
            let pick = |l: &Value| {
                l.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(summary)
            };
            if let (Some(sa), Some(sb)) = (pick(a), pick(b)) {
                out.push(Row {
                    workload: name.clone(),
                    metric: m.name.clone(),
                    base: sa.median,
                    cand: sb.median,
                    verdict: verdict(&sa, &sb, m.bound, m.better),
                });
            }
        }
        let ff = |l: &Value| l.get("failed_frac").and_then(Value::as_f64).unwrap_or(1.0);
        let (fa, fb) = (ff(a), ff(b));
        out.push(Row {
            workload: name.clone(),
            metric: "failed_frac".into(),
            base: fa,
            cand: fb,
            verdict: if fb > fa {
                Verdict::Worse
            } else if fb < fa {
                Verdict::Better
            } else {
                Verdict::Same
            },
        });
    }
    out
}

/// Prints the comparison; `Ok(false)` when any row is worse.
pub fn run(base_path: &str, cand_path: &str) -> Result<bool, String> {
    let bounds = bounds(&load("BENCHMARK.json")?)?;
    let rows = rows(&bounds, &load(base_path)?, &load(cand_path)?);
    if rows.is_empty() {
        return Err(format!("{base_path} and {cand_path} share no workload"));
    }
    for r in &rows {
        let change = if r.base == 0.0 {
            0.0
        } else {
            (r.cand - r.base) / r.base * 100.0
        };
        println!(
            "{:<12} {:<14} {:>12.5} -> {:>12.5}  {change:>+7.2} %  {}",
            r.workload,
            r.metric,
            r.base,
            r.cand,
            r.verdict.as_str()
        );
    }
    Ok(!rows.iter().any(|r| r.verdict == Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(wall: f64, spread: f64, failed_frac: f64) -> Value {
        let s = |m: f64| {
            Value::Object(vec![
                ("unit".into(), Value::String("s".into())),
                ("median".into(), Value::Float(m)),
                ("p25".into(), Value::Float(m * (1.0 - spread))),
                ("p75".into(), Value::Float(m * (1.0 + spread))),
                ("n".into(), Value::UInt(10)),
            ])
        };
        Value::Object(vec![(
            "workloads".into(),
            Value::Object(vec![(
                "reproduce".into(),
                Value::Object(vec![
                    ("failed_frac".into(), Value::Float(failed_frac)),
                    (
                        "end_to_end".into(),
                        Value::Object(vec![("wall_s".into(), s(wall))]),
                    ),
                ]),
            )]),
        )])
    }

    fn bench() -> Value {
        serde_json::from_str(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("parses")
    }

    fn verdicts(a: &Value, b: &Value) -> Vec<(String, Verdict)> {
        rows(&bounds(&bench()).expect("bounds"), a, b)
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn applies_the_benchmark_bound() {
        let base = ledger(1.0, 0.01, 0.0);
        let same = verdicts(&base, &ledger(1.05, 0.01, 0.0));
        assert_eq!(same[0], ("wall_s".into(), Verdict::Same));
        let worse = verdicts(&base, &ledger(1.2, 0.01, 0.0));
        assert_eq!(worse[0].1, Verdict::Worse);
        let better = verdicts(&base, &ledger(0.8, 0.01, 0.0));
        assert_eq!(better[0].1, Verdict::Better);
        // Quartiles 60 % apart overlap a 20 % shift: unresolved.
        let noisy = verdicts(&base, &ledger(1.2, 0.3, 0.0));
        assert_eq!(noisy[0].1, Verdict::Unresolved);
    }

    #[test]
    fn more_failures_are_worse() {
        let v = verdicts(&ledger(1.0, 0.01, 0.0), &ledger(1.0, 0.01, 0.25));
        assert_eq!(v[1], ("failed_frac".into(), Verdict::Worse));
        let v = verdicts(&ledger(1.0, 0.01, 0.0), &ledger(1.0, 0.01, 0.0));
        assert_eq!(v[1].1, Verdict::Same);
    }

    #[test]
    fn malformed_bounds_are_rejected() {
        let doc = serde_json::from_str(r#"{"end_to_end": [{"name": "x", "better": "up"}]}"#)
            .expect("parses");
        assert!(bounds(&doc).is_err());
    }
}
