//! Sweep specification: named parameter axes composed into grids.
//!
//! A [`SweepSpec`] is a list of named axes. The enumerated point set is
//! the Cartesian product over the axes, in row-major order (last axis
//! fastest), so enumeration order is deterministic and independent of
//! the executor's thread count.

use crate::value::ParamValue;
use serde_json::Value;

/// One named parameter axis.
#[derive(Debug, Clone, PartialEq)]
struct Axis {
    /// Parameter name ("temperature_k", "depth", "network"...).
    name: String,
    /// The values the axis takes, in sweep order.
    values: Vec<ParamValue>,
}

/// One evaluated configuration: an ordered set of named parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    entries: Vec<(String, ParamValue)>,
}

impl Point {
    /// Builds a point from explicit (name, value) pairs.
    pub fn from_pairs<V: Into<ParamValue>>(
        pairs: impl IntoIterator<Item = (&'static str, V)>,
    ) -> Self {
        Point {
            entries: pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into()))
                .collect(),
        }
    }

    /// The parameters in axis order.
    #[must_use]
    pub fn entries(&self) -> &[(String, ParamValue)] {
        &self.entries
    }

    /// Parameter lookup by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// `f64` parameter (integers widen).
    ///
    /// # Panics
    ///
    /// Panics if `name` is missing or non-numeric — sweep evaluators
    /// own their spec, so a miss is a programming error.
    #[must_use]
    pub fn f64(&self, name: &str) -> f64 {
        self.get(name)
            .and_then(ParamValue::as_f64)
            .unwrap_or_else(|| panic!("point has no numeric parameter `{name}`"))
    }

    /// `i64` parameter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is missing or not an integer.
    #[must_use]
    pub fn i64(&self, name: &str) -> i64 {
        self.get(name)
            .and_then(ParamValue::as_i64)
            .unwrap_or_else(|| panic!("point has no integer parameter `{name}`"))
    }

    /// `&str` parameter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is missing or not text.
    #[must_use]
    pub fn str(&self, name: &str) -> &str {
        self.get(name)
            .and_then(ParamValue::as_str)
            .unwrap_or_else(|| panic!("point has no text parameter `{name}`"))
    }

    /// Compact human-readable label: `name=value,name=value`.
    #[must_use]
    pub fn label(&self) -> String {
        self.entries
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Canonical encoding for content addressing (order-, type- and
    /// bit-exact).
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push('=');
            v.write_canonical(&mut out);
            out.push(';');
        }
        out
    }

    /// JSON object rendering of the parameters.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }
}

impl serde::Serialize for Point {
    fn serialize_value(&self) -> Value {
        self.to_json()
    }
}

/// A named sweep over a parameter grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    name: String,
    axes: Vec<Axis>,
    explicit: Vec<Point>,
}

impl SweepSpec {
    /// An empty spec; add grid axes with [`SweepSpec::axis`] or
    /// explicit points with [`SweepSpec::point`].
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            axes: Vec::new(),
            explicit: Vec::new(),
        }
    }

    /// The sweep's name (used in artifacts and cache tags).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an axis: the grid takes the Cartesian product with it.
    #[must_use]
    pub fn axis<V: Into<ParamValue>>(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        self.axes.push(Axis {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Appends one explicit point (enumerated after the grid, in
    /// insertion order).
    #[must_use]
    pub fn point(mut self, point: Point) -> Self {
        self.explicit.push(point);
        self
    }

    /// Number of points the spec enumerates.
    #[must_use]
    pub fn len(&self) -> usize {
        let grid = if self.axes.is_empty() {
            0
        } else {
            self.axes.iter().map(|a| a.values.len()).product()
        };
        grid + self.explicit.len()
    }

    /// True if the spec enumerates no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that the spec enumerates at least one point and no axis
    /// is empty — the usual symptom of a miswired CLI flag or an empty
    /// input list. Rejecting the spec up front beats silently emitting
    /// a zero-point artifact.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(a) = self.axes.iter().find(|a| a.values.is_empty()) {
            return Err(format!(
                "sweep `{}`: axis `{}` has no values",
                self.name, a.name
            ));
        }
        if self.is_empty() {
            return Err(format!(
                "sweep `{}` enumerates no points (no axes or explicit points)",
                self.name
            ));
        }
        Ok(())
    }

    /// Enumerates every point, row-major (last axis fastest), explicit
    /// points last.
    #[must_use]
    pub fn points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.len());
        if !self.axes.is_empty() {
            let lens: Vec<usize> = self.axes.iter().map(|a| a.values.len()).collect();
            let total: usize = lens.iter().product();
            for mut flat in 0..total {
                let mut indices = vec![0usize; lens.len()];
                for (d, &len) in lens.iter().enumerate().rev() {
                    indices[d] = flat % len;
                    flat /= len;
                }
                let entries = self
                    .axes
                    .iter()
                    .zip(&indices)
                    .map(|(a, &idx)| (a.name.clone(), a.values[idx].clone()))
                    .collect();
                out.push(Point { entries });
            }
        }
        out.extend(self.explicit.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_row_major() {
        let spec = SweepSpec::new("g")
            .axis("t", [77.0, 300.0])
            .axis("depth", [1i64, 2, 3]);
        let pts = spec.points();
        assert_eq!(spec.len(), 6);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].f64("t"), 77.0);
        assert_eq!(pts[0].i64("depth"), 1);
        assert_eq!(pts[1].i64("depth"), 2, "last axis fastest");
        assert_eq!(pts[3].f64("t"), 300.0);
    }

    #[test]
    fn explicit_points_follow_grid() {
        let spec = SweepSpec::new("mix")
            .axis("x", [1i64, 2])
            .point(Point::from_pairs([("x", 99i64)]));
        let pts = spec.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2].i64("x"), 99);
    }

    #[test]
    fn canonical_is_stable_and_distinct() {
        let a = Point::from_pairs([("t", 77.0), ("d", 2.0)]);
        let b = Point::from_pairs([("t", 77.0), ("d", 2.0)]);
        let c = Point::from_pairs([("t", 77.0), ("d", 3.0)]);
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.canonical(), c.canonical());
    }

    #[test]
    fn label_reads_naturally() {
        let p = Point::from_pairs([("t", ParamValue::Float(77.0))]);
        assert_eq!(p.label(), "t=77");
    }
}
