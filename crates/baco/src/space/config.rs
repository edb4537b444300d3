use super::{CVal, SpaceData};
use std::fmt;
use std::sync::Arc;

/// A decoded parameter value as seen by users and black boxes.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Continuous value.
    Real(f64),
    /// Integer value.
    Int(i64),
    /// Ordinal value (one of the declared ordered numbers).
    Ordinal(f64),
    /// Categorical value (one of the declared names).
    Categorical(String),
    /// Permutation of `0..m`.
    Permutation(Vec<u8>),
}

impl ParamValue {
    /// Numeric view of the value.
    ///
    /// # Panics
    /// Panics for categorical and permutation values.
    pub fn as_f64(&self) -> f64 {
        match self {
            ParamValue::Real(v) | ParamValue::Ordinal(v) => *v,
            ParamValue::Int(v) => *v as f64,
            v => panic!("as_f64 on non-numeric value {v:?}"),
        }
    }

    /// Integer view of the value (ordinals/reals must be integral).
    ///
    /// # Panics
    /// Panics for categorical/permutation values or non-integral numbers.
    pub fn as_i64(&self) -> i64 {
        match self {
            ParamValue::Int(v) => *v,
            ParamValue::Real(v) | ParamValue::Ordinal(v) => {
                assert!(v.fract() == 0.0, "as_i64 on non-integral value {v}");
                *v as i64
            }
            v => panic!("as_i64 on non-numeric value {v:?}"),
        }
    }

    /// Boolean view: integer/ordinal `0`/`1`, or categories `"false"`/`"true"`.
    ///
    /// # Panics
    /// Panics if the value is not boolean-like.
    pub fn as_bool(&self) -> bool {
        match self {
            ParamValue::Int(0) => false,
            ParamValue::Int(1) => true,
            ParamValue::Ordinal(v) if *v == 0.0 => false,
            ParamValue::Ordinal(v) if *v == 1.0 => true,
            ParamValue::Categorical(s) if s == "false" => false,
            ParamValue::Categorical(s) if s == "true" => true,
            v => panic!("as_bool on non-boolean value {v:?}"),
        }
    }

    /// Category name.
    ///
    /// # Panics
    /// Panics for non-categorical values.
    pub fn as_str(&self) -> &str {
        match self {
            ParamValue::Categorical(s) => s,
            v => panic!("as_str on non-categorical value {v:?}"),
        }
    }

    /// The permutation.
    ///
    /// # Panics
    /// Panics for non-permutation values.
    pub fn as_permutation(&self) -> &[u8] {
        match self {
            ParamValue::Permutation(p) => p,
            v => panic!("as_permutation on non-permutation value {v:?}"),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Real(v) => write!(f, "{v}"),
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Ordinal(v) => write!(f, "{v}"),
            ParamValue::Categorical(s) => write!(f, "{s}"),
            ParamValue::Permutation(p) => {
                write!(f, "[")?;
                for (i, x) in p.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// One point of the search space: an assignment of a value to every
/// parameter.
///
/// Configurations are produced by the tuner and consumed by
/// [`BlackBox`](crate::tuner::BlackBox) implementations, which read values by
/// parameter name:
///
/// ```
/// # use baco::SearchSpace;
/// let space = SearchSpace::builder().integer("n", 1, 8).build()?;
/// let cfg = space.default_configuration();
/// assert_eq!(cfg.value("n").as_i64(), 1);
/// # Ok::<(), baco::Error>(())
/// ```
#[derive(Clone)]
pub struct Configuration {
    space: Arc<SpaceData>,
    vals: Vec<CVal>,
}

impl Configuration {
    pub(crate) fn new(space: Arc<SpaceData>, vals: Vec<CVal>) -> Self {
        Configuration { space, vals }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the configuration is empty (zero-parameter space).
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Decoded value of the parameter called `name`.
    ///
    /// # Panics
    /// Panics if no parameter has that name; use [`Configuration::try_value`]
    /// for a fallible lookup.
    pub fn value(&self, name: &str) -> ParamValue {
        self.try_value(name)
            .unwrap_or_else(|| panic!("unknown parameter `{name}`"))
    }

    /// Decoded value of the parameter called `name`, if it exists.
    pub fn try_value(&self, name: &str) -> Option<ParamValue> {
        let idx = *self.space.by_name.get(name)?;
        Some(self.value_at(idx))
    }

    /// Decoded value of the parameter at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn value_at(&self, idx: usize) -> ParamValue {
        crate::space::SearchSpace {
            inner: Arc::clone(&self.space),
        }
        .decode(idx, self.vals[idx])
    }

    /// All `(name, value)` pairs in declaration order.
    pub fn values(&self) -> Vec<(&str, ParamValue)> {
        (0..self.len())
            .map(|i| (self.space.params[i].name(), self.value_at(i)))
            .collect()
    }

    pub(crate) fn cvals(&self) -> &[CVal] {
        &self.vals
    }

    pub(crate) fn cval(&self, idx: usize) -> CVal {
        self.vals[idx]
    }

    pub(crate) fn set_cval(&mut self, idx: usize, v: CVal) {
        self.vals[idx] = v;
    }

    pub(crate) fn with_cval(&self, idx: usize, v: CVal) -> Configuration {
        let mut vals = self.vals.clone();
        vals[idx] = v;
        Configuration::new(Arc::clone(&self.space), vals)
    }
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.vals == other.vals
    }
}

impl Eq for Configuration {}

impl std::hash::Hash for Configuration {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.vals.hash(state);
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, v)) in self.values().into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={v}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Configuration{self}")
    }
}

#[cfg(test)]
mod tests {
    use crate::space::{ParamValue, SearchSpace};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 3)
            .categorical("c", vec!["x", "y"])
            .permutation("p", 3)
            .build()
            .unwrap()
    }

    #[test]
    fn display_lists_all_params() {
        let s = space();
        let cfg = s.default_configuration();
        let txt = cfg.to_string();
        assert!(
            txt.contains("a=0") && txt.contains("c=x") && txt.contains("p=[0,1,2]"),
            "{txt}"
        );
    }

    #[test]
    fn eq_and_hash_by_values() {
        use std::collections::HashSet;
        let s = space();
        let a = s.default_configuration();
        let b = s.default_configuration();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn try_value_unknown_is_none() {
        let s = space();
        assert!(s.default_configuration().try_value("zzz").is_none());
    }

    #[test]
    fn param_value_accessors() {
        assert_eq!(ParamValue::Int(3).as_f64(), 3.0);
        assert_eq!(ParamValue::Ordinal(8.0).as_i64(), 8);
        assert!(ParamValue::Int(1).as_bool());
        assert!(!ParamValue::Categorical("false".into()).as_bool());
        assert_eq!(ParamValue::Permutation(vec![1, 0]).to_string(), "[1,0]");
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn value_unknown_panics() {
        space().default_configuration().value("zzz");
    }
}
