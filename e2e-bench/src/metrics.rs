//! The metrics this benchmark reports, as `BENCHMARK.json` lists them.
//!
//! Every workload reports every metric of both lists, so the lists hold
//! only quantities that exist on all four workloads. Workload-specific
//! figures (per-task times, per-call harness costs, engine throughputs)
//! go to the ledger's `detail` section instead.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Measured with tracing off, one sample per pass.
pub const END_TO_END: &[MetricDef] = &[
    // Timed region of one pass: what a user waits for after launch.
    def("wall_s", "s"),
    // Child spawn until its inputs are ready.
    def("setup_s", "s"),
    // The child's VmHWM at the end of the timed region.
    def("peak_rss_mb", "MB"),
];

/// Measured in traced passes, one sample per traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    // Main-thread span over the simulation / sweep phases.
    def("compute_ms", "ms"),
    // Main-thread span over rendering and writing the pass's output.
    def("output_ms", "ms"),
    // Worker capacity of the compute phases not spent inside engine or
    // model calls: harness work (hashing, cache, journal, scheduling)
    // plus idle workers.
    def("harness.self_ms", "ms"),
    // Share of that worker capacity spent inside engine or model calls.
    def("engine.busy_frac", "frac"),
    // Traced median wall time over the untraced median, minus one.
    def("trace.overhead_frac", "frac"),
    // Operations of one pass: tasks, grid points, or engine phases.
    def("ops", "count"),
    // Grid points answered from the on-disk result cache.
    def("cache_hits", "count"),
];

/// A metric name: letters, digits, `_`, `.` and `-`, at most 64 long,
/// starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "invalid metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        for bad in ["", "-lead", "a b", "x/y", "q%", &"n".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        for good in ["wall_s", "harness.self_ms", "reproduce.abl-engine_ms", "9x"] {
            assert!(valid_name(good), "{good:?} rejected");
        }
    }

    /// `BENCHMARK.json` and this benchmark must list the same metrics.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str);
                assert_eq!(field("name"), Some(d.name), "{key} order");
                assert_eq!(field("unit"), Some(d.unit), "{} unit", d.name);
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
