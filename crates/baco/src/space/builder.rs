use super::param::{ParamKind, Parameter, Scale};
use super::{SearchSpace, SpaceData};
use crate::constraints::{self, Constraint};
use crate::space::Configuration;
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Builder for [`SearchSpace`]; see the [crate docs](crate) for an example.
///
/// Parameter-adding methods are infallible; all validation happens in
/// [`SearchSpaceBuilder::build`].
#[derive(Default)]
pub struct SearchSpaceBuilder {
    params: Vec<Parameter>,
    constraint_srcs: Vec<String>,
    natives: Vec<(String, Vec<String>, NativeFn)>,
}

type NativeFn = Arc<dyn Fn(&Configuration) -> bool + Send + Sync>;

impl std::fmt::Debug for SearchSpaceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchSpaceBuilder")
            .field("params", &self.params)
            .field("constraint_srcs", &self.constraint_srcs)
            .field("natives", &self.natives.len())
            .finish()
    }
}

impl SearchSpaceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, name: &str, kind: ParamKind, scale: Scale, default_idx: Option<u64>) -> Self {
        self.params.push(Parameter {
            name: name.to_string(),
            kind,
            scale,
            default_idx,
        });
        self
    }

    /// Adds a continuous parameter on `[lo, hi]`.
    pub fn real(self, name: &str, lo: f64, hi: f64) -> Self {
        self.push(name, ParamKind::Real { lo, hi }, Scale::Linear, None)
    }

    /// Adds an integer parameter on `lo..=hi`.
    pub fn integer(self, name: &str, lo: i64, hi: i64) -> Self {
        self.push(name, ParamKind::Integer { lo, hi }, Scale::Linear, None)
    }

    /// Adds an integer parameter whose distances are measured in log space
    /// (e.g. a power-of-two-ish size); requires `lo > 0`.
    pub fn integer_log(self, name: &str, lo: i64, hi: i64) -> Self {
        self.push(name, ParamKind::Integer { lo, hi }, Scale::Log, None)
    }

    /// Adds an ordinal parameter with the given increasing numeric values.
    pub fn ordinal(self, name: &str, values: Vec<f64>) -> Self {
        self.push(name, ParamKind::Ordinal { values }, Scale::Linear, None)
    }

    /// Adds a log-scaled ordinal parameter (tile sizes & friends).
    pub fn ordinal_log(self, name: &str, values: Vec<f64>) -> Self {
        self.push(name, ParamKind::Ordinal { values }, Scale::Log, None)
    }

    /// Adds an ordinal parameter with a declared default value.
    pub fn ordinal_default(self, name: &str, values: Vec<f64>, default: f64) -> Self {
        let idx = values.iter().position(|v| *v == default).map(|i| i as u64);
        self.push(name, ParamKind::Ordinal { values }, Scale::Linear, idx)
    }

    /// Adds a log-scaled ordinal parameter with a declared default value.
    pub fn ordinal_log_default(self, name: &str, values: Vec<f64>, default: f64) -> Self {
        let idx = values.iter().position(|v| *v == default).map(|i| i as u64);
        self.push(name, ParamKind::Ordinal { values }, Scale::Log, idx)
    }

    /// Adds a categorical parameter with the given alternatives.
    pub fn categorical(self, name: &str, values: Vec<&str>) -> Self {
        let values = values.into_iter().map(String::from).collect();
        self.push(name, ParamKind::Categorical { values }, Scale::Linear, None)
    }

    /// Adds a categorical parameter with a declared default.
    pub fn categorical_default(self, name: &str, values: Vec<&str>, default: &str) -> Self {
        let idx = values.iter().position(|v| *v == default).map(|i| i as u64);
        let values = values.into_iter().map(String::from).collect();
        self.push(name, ParamKind::Categorical { values }, Scale::Linear, idx)
    }

    /// Adds a boolean parameter (categorical `false`/`true`).
    pub fn boolean(self, name: &str) -> Self {
        self.categorical(name, vec!["false", "true"])
    }

    /// Adds a permutation parameter over `len` elements. The default is the
    /// identity permutation.
    pub fn permutation(self, name: &str, len: usize) -> Self {
        self.push(name, ParamKind::Permutation { len }, Scale::Linear, None)
    }

    /// Adds a permutation parameter with a declared default order.
    pub fn permutation_default(self, name: &str, len: usize, default: &[u8]) -> Self {
        let idx = if default.len() == len && super::perm::is_permutation(default) {
            Some(super::perm::rank(default))
        } else {
            None
        };
        self.push(name, ParamKind::Permutation { len }, Scale::Linear, idx)
    }

    /// Declares a known constraint as an expression over parameter names,
    /// e.g. `"tile % unroll == 0 && tile >= 4"`. See [`crate::constraints`]
    /// for the expression language.
    pub fn known_constraint(mut self, expr: &str) -> Self {
        self.constraint_srcs.push(expr.to_string());
        self
    }

    /// Declares a known constraint as a native predicate over the listed
    /// parameters.
    ///
    /// The predicate must only inspect the parameters it declares: during
    /// Chain-of-Trees construction it is invoked on partially-built
    /// configurations where *other* parameters hold placeholder values.
    pub fn known_constraint_fn<F>(mut self, name: &str, params: &[&str], f: F) -> Self
    where
        F: Fn(&Configuration) -> bool + Send + Sync + 'static,
    {
        self.natives.push((
            name.to_string(),
            params.iter().map(|s| s.to_string()).collect(),
            Arc::new(f),
        ));
        self
    }

    /// Validates and builds the [`SearchSpace`].
    ///
    /// # Errors
    /// Returns [`Error::InvalidSpace`] for duplicate/empty names, empty or
    /// non-increasing domains, bad bounds, or log scales on non-positive
    /// domains; [`Error::ConstraintParse`]/[`Error::UnknownParameter`] for
    /// malformed constraints.
    pub fn build(self) -> Result<SearchSpace> {
        let mut by_name = HashMap::new();
        for (i, p) in self.params.iter().enumerate() {
            if p.name.is_empty() {
                return Err(Error::InvalidSpace("empty parameter name".into()));
            }
            if by_name.insert(p.name.clone(), i).is_some() {
                return Err(Error::InvalidSpace(format!(
                    "duplicate parameter `{}`",
                    p.name
                )));
            }
            validate_param(p)?;
        }

        let mut constraints = Vec::new();
        for src in &self.constraint_srcs {
            constraints.push(constraints::parse(src, &by_name)?);
        }
        for (name, param_names, f) in self.natives {
            let mut idxs = Vec::with_capacity(param_names.len());
            for pn in &param_names {
                idxs.push(
                    by_name
                        .get(pn)
                        .copied()
                        .ok_or_else(|| Error::UnknownParameter(pn.clone()))?,
                );
            }
            constraints.push(Constraint::native(name, idxs, f));
        }

        Ok(SearchSpace {
            inner: Arc::new(SpaceData {
                params: self.params,
                by_name,
                constraints,
            }),
        })
    }
}

fn validate_param(p: &Parameter) -> Result<()> {
    let bad = |msg: String| {
        Err(Error::InvalidSpace(format!(
            "parameter `{}`: {msg}",
            p.name
        )))
    };
    match &p.kind {
        ParamKind::Real { lo, hi } => {
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return bad(format!("invalid real bounds [{lo}, {hi}]"));
            }
        }
        ParamKind::Integer { lo, hi } => {
            if lo > hi {
                return bad(format!("invalid integer bounds {lo}..={hi}"));
            }
            if p.scale == Scale::Log && *lo <= 0 {
                return bad("log scale requires lo > 0".into());
            }
        }
        ParamKind::Ordinal { values } => {
            if values.is_empty() {
                return bad("empty ordinal domain".into());
            }
            if values.windows(2).any(|w| w[0] >= w[1]) {
                return bad("ordinal values must be strictly increasing".into());
            }
            if p.scale == Scale::Log && values[0] <= 0.0 {
                return bad("log scale requires positive values".into());
            }
        }
        ParamKind::Categorical { values } => {
            if values.is_empty() {
                return bad("empty categorical domain".into());
            }
            let mut seen = std::collections::HashSet::new();
            for v in values {
                if !seen.insert(v) {
                    return bad(format!("duplicate category `{v}`"));
                }
            }
        }
        ParamKind::Permutation { len } => {
            if *len == 0 || *len > 12 {
                return bad(format!("permutation length {len} outside 1..=12"));
            }
        }
    }
    if let Some(d) = p.default_idx {
        let size = p.kind.domain_size().unwrap_or(u64::MAX);
        if d >= size {
            return bad(format!("default index {d} outside domain of size {size}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_names() {
        let e = SearchSpace::builder()
            .integer("a", 0, 1)
            .integer("a", 0, 1)
            .build()
            .unwrap_err();
        assert!(matches!(e, Error::InvalidSpace(_)));
    }

    #[test]
    fn rejects_bad_domains() {
        assert!(SearchSpace::builder().real("x", 1.0, 0.0).build().is_err());
        assert!(SearchSpace::builder().integer("x", 5, 2).build().is_err());
        assert!(SearchSpace::builder().ordinal("x", vec![]).build().is_err());
        assert!(SearchSpace::builder()
            .ordinal("x", vec![2.0, 1.0])
            .build()
            .is_err());
        assert!(SearchSpace::builder()
            .categorical("x", vec!["a", "a"])
            .build()
            .is_err());
        assert!(SearchSpace::builder().permutation("x", 0).build().is_err());
        assert!(SearchSpace::builder().permutation("x", 13).build().is_err());
    }

    #[test]
    fn rejects_log_scale_on_nonpositive() {
        assert!(SearchSpace::builder()
            .integer_log("x", 0, 8)
            .build()
            .is_err());
        assert!(SearchSpace::builder()
            .ordinal_log("x", vec![0.0, 1.0])
            .build()
            .is_err());
    }

    #[test]
    fn constraint_with_unknown_param_fails() {
        let e = SearchSpace::builder()
            .integer("a", 0, 1)
            .known_constraint("a >= b")
            .build()
            .unwrap_err();
        assert!(matches!(e, Error::UnknownParameter(_)), "{e:?}");
    }

    #[test]
    fn native_constraint_applies() {
        let s = SearchSpace::builder()
            .integer("a", 0, 3)
            .known_constraint_fn("even_a", &["a"], |cfg| cfg.value("a").as_i64() % 2 == 0)
            .build()
            .unwrap();
        let c0 = s
            .configuration(&[("a", crate::space::ParamValue::Int(0))])
            .unwrap();
        let c1 = s
            .configuration(&[("a", crate::space::ParamValue::Int(1))])
            .unwrap();
        assert!(s.satisfies_known(&c0).unwrap());
        assert!(!s.satisfies_known(&c1).unwrap());
    }

    #[test]
    fn boolean_shorthand() {
        let s = SearchSpace::builder().boolean("flag").build().unwrap();
        let d = s.default_configuration();
        assert!(!d.value("flag").as_bool());
    }

    #[test]
    fn builder_debug_nonempty() {
        assert!(!format!("{:?}", SearchSpace::builder().integer("a", 0, 1)).is_empty());
    }
}
