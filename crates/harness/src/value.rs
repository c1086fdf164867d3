//! Parameter values: the typed scalars a sweep point is made of.

use serde_json::Value;
use std::fmt;

/// One parameter value of a sweep point.
///
/// Floats are compared and hashed through their bit pattern, so any
/// value that round-trips through a [`ParamValue`] is stable across
/// runs and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Signed integer parameter (counts, ways, depths).
    Int(i64),
    /// Floating-point parameter (temperatures, rates, voltages).
    Float(f64),
    /// Symbolic parameter (design names, topologies, patterns).
    Text(String),
}

impl ParamValue {
    /// The value as `f64` (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Int(i) => Some(*i as f64),
            ParamValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `i64`.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `&str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Canonical encoding used for content addressing: unambiguous
    /// across types and bit-exact for floats.
    pub(crate) fn write_canonical(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            ParamValue::Int(i) => {
                let _ = write!(out, "i{i}");
            }
            ParamValue::Float(f) => {
                let _ = write!(out, "f{:016x}", f.to_bits());
            }
            ParamValue::Text(s) => {
                let _ = write!(out, "s{}:{s}", s.len());
            }
        }
    }

    /// JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> Value {
        match self {
            ParamValue::Int(i) => Value::Int(*i),
            ParamValue::Float(f) => Value::Float(*f),
            ParamValue::Text(s) => Value::String(s.clone()),
        }
    }
}

impl serde::Serialize for ParamValue {
    fn serialize_value(&self) -> Value {
        self.to_json()
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
            ParamValue::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<i32> for ParamValue {
    fn from(v: i32) -> Self {
        ParamValue::Int(i64::from(v))
    }
}

impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as i64)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Text(v.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_distinguishes_types() {
        let mut a = String::new();
        let mut b = String::new();
        ParamValue::Int(1).write_canonical(&mut a);
        ParamValue::Text("1".into()).write_canonical(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn canonical_floats_are_bit_exact() {
        let mut a = String::new();
        let mut b = String::new();
        ParamValue::Float(0.1 + 0.2).write_canonical(&mut a);
        ParamValue::Float(0.3).write_canonical(&mut b);
        assert_ne!(a, b, "0.1+0.2 and 0.3 differ in bits and must not collide");
    }

    #[test]
    fn accessors() {
        assert_eq!(ParamValue::Int(7).as_f64(), Some(7.0));
        assert_eq!(ParamValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(ParamValue::Text("x".into()).as_str(), Some("x"));
        assert_eq!(ParamValue::Float(2.5).as_i64(), None);
        assert_eq!(ParamValue::Text("x".into()).as_i64(), None);
    }
}
