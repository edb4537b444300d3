//! Search-space definition: the RIPOC parameter types, configurations and the
//! [`SearchSpace`] itself.
//!
//! A [`SearchSpace`] is an ordered list of named [`Parameter`]s plus the
//! *known constraints* over them. Discrete parameter values are encoded as
//! indices into their domain (permutations via their Lehmer rank), which lets
//! the Chain-of-Trees treat every discrete parameter uniformly.
//!
//! ```
//! use baco::space::{ParamValue, SearchSpace};
//!
//! let space = SearchSpace::builder()
//!     .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
//!     .integer("unroll", 1, 4)
//!     .permutation("order", 3)
//!     .known_constraint("tile >= unroll")
//!     .build()?;
//! assert_eq!(space.len(), 3);
//!
//! let cfg = space.configuration(&[
//!     ("tile", ParamValue::Ordinal(4.0)),
//!     ("unroll", ParamValue::Int(2)),
//!     ("order", ParamValue::Permutation(vec![2, 0, 1])),
//! ])?;
//! assert!(space.satisfies_known(&cfg)?);
//! assert_eq!(cfg.value("order").as_permutation(), &[2, 0, 1]);
//! # Ok::<(), baco::Error>(())
//! ```

mod builder;
mod config;
pub mod param;
pub mod perm;

pub use builder::SearchSpaceBuilder;
pub use config::{Configuration, ParamValue};
pub use param::{ParamKind, Parameter, Scale};
pub use perm::PermMetric;

use crate::constraints::Constraint;
use crate::{Error, Result};
use rand::Rng;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Internal encoded value of one parameter inside a configuration.
///
/// Discrete parameters store an index into their domain; real parameters
/// store the value itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CVal {
    /// A continuous value.
    Real(f64),
    /// A domain index (integer offset, ordinal index, category index or
    /// permutation Lehmer rank).
    Idx(u64),
}

impl CVal {
    pub(crate) fn idx(self) -> u64 {
        match self {
            CVal::Idx(i) => i,
            CVal::Real(v) => panic!("expected discrete value, found real {v}"),
        }
    }
}

impl Eq for CVal {}

impl std::hash::Hash for CVal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            CVal::Real(v) => {
                0u8.hash(state);
                v.to_bits().hash(state);
            }
            CVal::Idx(i) => {
                1u8.hash(state);
                i.hash(state);
            }
        }
    }
}

#[derive(Debug)]
pub(crate) struct SpaceData {
    pub(crate) params: Vec<Parameter>,
    pub(crate) by_name: HashMap<String, usize>,
    pub(crate) constraints: Vec<Constraint>,
}

/// A tunable search space: parameters plus known constraints.
///
/// Cheap to clone (internally reference-counted). See the
/// [crate docs](crate) for a full example.
#[derive(Clone)]
pub struct SearchSpace {
    pub(crate) inner: Arc<SpaceData>,
}

impl SearchSpace {
    /// Starts building a search space.
    pub fn builder() -> SearchSpaceBuilder {
        SearchSpaceBuilder::new()
    }

    /// The parameters, in declaration order.
    pub fn params(&self) -> &[Parameter] {
        &self.inner.params
    }

    /// Number of parameters (the search-space dimension `D`).
    pub fn len(&self) -> usize {
        self.inner.params.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.inner.params.is_empty()
    }

    /// Index of the parameter called `name`.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.inner.by_name.get(name).copied()
    }

    /// The parameter at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn param(&self, idx: usize) -> &Parameter {
        &self.inner.params[idx]
    }

    /// The known constraints declared on this space.
    pub fn known_constraints(&self) -> &[Constraint] {
        &self.inner.constraints
    }

    /// Whether all parameters are discrete (required for the Chain-of-Trees).
    pub fn is_fully_discrete(&self) -> bool {
        self.inner.params.iter().all(Parameter::is_discrete)
    }

    /// Size of the dense (unconstrained) space, or `None` if a real parameter
    /// makes it uncountable. Reported as `f64` because sizes reach 10¹¹.
    pub fn dense_size(&self) -> Option<f64> {
        let mut s = 1.0f64;
        for p in self.params() {
            s *= p.domain_size()? as f64;
        }
        Some(s)
    }

    /// Samples one configuration uniformly from the **dense** space, ignoring
    /// known constraints.
    pub fn sample_dense<R: Rng + ?Sized>(&self, rng: &mut R) -> Configuration {
        let vals = self
            .params()
            .iter()
            .map(|p| match p.kind() {
                ParamKind::Real { lo, hi } => CVal::Real(rng.gen_range(*lo..=*hi)),
                k => CVal::Idx(rng.gen_range(0..k.domain_size().expect("discrete"))),
            })
            .collect();
        self.config_from_cvals(vals)
    }

    /// Evaluates all known constraints on `cfg`.
    ///
    /// # Errors
    /// Propagates constraint-evaluation failures (type errors etc.).
    pub fn satisfies_known(&self, cfg: &Configuration) -> Result<bool> {
        for c in self.known_constraints() {
            if !c.eval(cfg)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The space's default configuration: per-parameter declared defaults, or
    /// the first domain value (identity permutation, domain minimum) when not
    /// declared.
    pub fn default_configuration(&self) -> Configuration {
        let vals = self
            .params()
            .iter()
            .map(|p| match (&p.default_idx, p.kind()) {
                (Some(i), _) => CVal::Idx(*i),
                (None, ParamKind::Real { lo, .. }) => CVal::Real(*lo),
                (None, _) => CVal::Idx(0),
            })
            .collect();
        self.config_from_cvals(vals)
    }

    /// Builds a configuration from `(name, value)` pairs. Every parameter
    /// must be given exactly once.
    ///
    /// # Errors
    /// Returns an error on unknown names, missing parameters, or values
    /// outside a parameter's domain.
    pub fn configuration(&self, values: &[(&str, ParamValue)]) -> Result<Configuration> {
        let mut cvals: Vec<Option<CVal>> = vec![None; self.len()];
        for (name, v) in values {
            let idx = self
                .param_index(name)
                .ok_or_else(|| Error::UnknownParameter((*name).into()))?;
            if cvals[idx].is_some() {
                return Err(Error::InvalidValue(format!(
                    "parameter `{name}` given twice"
                )));
            }
            cvals[idx] = Some(self.encode(idx, v)?);
        }
        let vals = cvals
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| {
                    Error::InvalidValue(format!("parameter `{}` missing", self.param(i).name()))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(self.config_from_cvals(vals))
    }

    /// Encodes a decoded value for parameter `idx` into its internal form.
    pub(crate) fn encode(&self, idx: usize, v: &ParamValue) -> Result<CVal> {
        let p = self.param(idx);
        let err = |msg: String| Error::InvalidValue(format!("parameter `{}`: {msg}", p.name()));
        match (p.kind(), v) {
            (ParamKind::Real { lo, hi }, ParamValue::Real(x)) => {
                if *x >= *lo && *x <= *hi {
                    Ok(CVal::Real(*x))
                } else {
                    Err(err(format!("{x} outside [{lo}, {hi}]")))
                }
            }
            (ParamKind::Integer { lo, hi }, ParamValue::Int(x)) => {
                if *x >= *lo && *x <= *hi {
                    Ok(CVal::Idx((*x - *lo) as u64))
                } else {
                    Err(err(format!("{x} outside {lo}..={hi}")))
                }
            }
            (ParamKind::Ordinal { values }, ParamValue::Ordinal(x))
            | (ParamKind::Ordinal { values }, ParamValue::Real(x)) => values
                .iter()
                .position(|y| y == x)
                .map(|i| CVal::Idx(i as u64))
                .ok_or_else(|| err(format!("{x} not in ordinal domain {values:?}"))),
            (ParamKind::Categorical { values }, ParamValue::Categorical(s)) => values
                .iter()
                .position(|y| y == s)
                .map(|i| CVal::Idx(i as u64))
                .ok_or_else(|| err(format!("`{s}` not a category of {values:?}"))),
            (ParamKind::Permutation { len }, ParamValue::Permutation(pm)) => {
                if pm.len() == *len && perm::is_permutation(pm) {
                    Ok(CVal::Idx(perm::rank(pm)))
                } else {
                    Err(err(format!("{pm:?} is not a permutation of 0..{len}")))
                }
            }
            (k, v) => Err(err(format!("type mismatch: kind {k:?} vs value {v:?}"))),
        }
    }

    /// Decodes the internal value of parameter `idx` in `vals`.
    pub(crate) fn decode(&self, idx: usize, v: CVal) -> ParamValue {
        let p = self.param(idx);
        match (p.kind(), v) {
            (ParamKind::Real { .. }, CVal::Real(x)) => ParamValue::Real(x),
            (ParamKind::Integer { lo, .. }, CVal::Idx(i)) => ParamValue::Int(lo + i as i64),
            (ParamKind::Ordinal { values }, CVal::Idx(i)) => {
                ParamValue::Ordinal(values[i as usize])
            }
            (ParamKind::Categorical { values }, CVal::Idx(i)) => {
                ParamValue::Categorical(values[i as usize].clone())
            }
            (ParamKind::Permutation { len }, CVal::Idx(i)) => {
                ParamValue::Permutation(perm::unrank(i, *len))
            }
            (k, v) => panic!("decode: inconsistent kind {k:?} / value {v:?}"),
        }
    }

    pub(crate) fn config_from_cvals(&self, vals: Vec<CVal>) -> Configuration {
        debug_assert_eq!(vals.len(), self.len());
        Configuration::new(Arc::clone(&self.inner), vals)
    }
}

impl fmt::Debug for SearchSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchSpace")
            .field("params", &self.inner.params)
            .field("constraints", &self.inner.constraints)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_space() -> SearchSpace {
        SearchSpace::builder()
            .ordinal("tile", vec![1.0, 2.0, 4.0, 8.0])
            .integer("unroll", 1, 4)
            .categorical("par", vec!["seq", "par"])
            .permutation("order", 3)
            .known_constraint("tile >= unroll")
            .build()
            .unwrap()
    }

    #[test]
    fn dense_size_is_product() {
        let s = demo_space();
        assert_eq!(s.dense_size(), Some(4.0 * 4.0 * 2.0 * 6.0));
    }

    #[test]
    fn real_param_makes_space_uncountable() {
        let s = SearchSpace::builder().real("x", 0.0, 1.0).build().unwrap();
        assert_eq!(s.dense_size(), None);
        assert!(!s.is_fully_discrete());
    }

    #[test]
    fn configuration_roundtrip() {
        let s = demo_space();
        let cfg = s
            .configuration(&[
                ("tile", ParamValue::Ordinal(4.0)),
                ("unroll", ParamValue::Int(2)),
                ("par", ParamValue::Categorical("par".into())),
                ("order", ParamValue::Permutation(vec![2, 0, 1])),
            ])
            .unwrap();
        assert_eq!(cfg.value("tile").as_f64(), 4.0);
        assert_eq!(cfg.value("unroll").as_i64(), 2);
        assert_eq!(cfg.value("par").as_str(), "par");
        assert_eq!(cfg.value("order").as_permutation(), &[2, 0, 1]);
    }

    #[test]
    fn configuration_rejects_bad_values() {
        let s = demo_space();
        assert!(s
            .configuration(&[("tile", ParamValue::Ordinal(3.0))])
            .is_err());
        let full = [
            ("tile", ParamValue::Ordinal(4.0)),
            ("unroll", ParamValue::Int(9)),
            ("par", ParamValue::Categorical("par".into())),
            ("order", ParamValue::Permutation(vec![2, 0, 1])),
        ];
        assert!(s.configuration(&full).is_err());
    }

    #[test]
    fn configuration_missing_param_rejected() {
        let s = demo_space();
        let e = s
            .configuration(&[("tile", ParamValue::Ordinal(1.0))])
            .unwrap_err();
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn satisfies_known_filters() {
        let s = demo_space();
        let ok = s
            .configuration(&[
                ("tile", ParamValue::Ordinal(4.0)),
                ("unroll", ParamValue::Int(4)),
                ("par", ParamValue::Categorical("seq".into())),
                ("order", ParamValue::Permutation(vec![0, 1, 2])),
            ])
            .unwrap();
        let bad = s
            .configuration(&[
                ("tile", ParamValue::Ordinal(1.0)),
                ("unroll", ParamValue::Int(4)),
                ("par", ParamValue::Categorical("seq".into())),
                ("order", ParamValue::Permutation(vec![0, 1, 2])),
            ])
            .unwrap();
        assert!(s.satisfies_known(&ok).unwrap());
        assert!(!s.satisfies_known(&bad).unwrap());
    }

    #[test]
    fn sample_dense_in_domain() {
        let s = demo_space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let cfg = s.sample_dense(&mut rng);
            // Every decoded value must re-encode cleanly.
            for (i, p) in s.params().iter().enumerate() {
                let v = cfg.value(p.name());
                assert!(s.encode(i, &v).is_ok());
            }
        }
    }

    #[test]
    fn default_configuration_uses_declared_defaults() {
        let s = SearchSpace::builder()
            .ordinal_default("tile", vec![1.0, 2.0, 4.0], 4.0)
            .integer("u", 1, 3)
            .build()
            .unwrap();
        let d = s.default_configuration();
        assert_eq!(d.value("tile").as_f64(), 4.0);
        assert_eq!(d.value("u").as_i64(), 1);
    }
}
