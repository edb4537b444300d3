//! Parameter kinds, distance scales and the [`Parameter`] type itself.
//!
//! ```
//! use baco::space::SearchSpace;
//!
//! let space = SearchSpace::builder()
//!     .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
//!     .permutation("order", 3)
//!     .build()?;
//! let tile = &space.params()[0];
//! assert_eq!(tile.name(), "tile");
//! assert_eq!(tile.domain_size(), Some(4));
//! assert!(tile.is_discrete());
//! assert_eq!(space.params()[1].domain_size(), Some(6)); // 3! orderings
//! # Ok::<(), baco::Error>(())
//! ```

use crate::space::perm;

/// How numeric distances over a parameter are measured (Sec. 4.1 of the
/// paper).
///
/// Exponential parameters such as tile sizes use [`Scale::Log`]: the distance
/// between 2 and 4 then equals the distance between 512 and 1024.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Plain absolute difference `|x − x′|`.
    #[default]
    Linear,
    /// Distance in log space, `|log x − log x′|`; requires positive values.
    Log,
}

/// The kind (and domain) of a single tunable parameter.
///
/// These are the RIPOC types from the paper: **R**eal, **I**nteger,
/// **P**ermutation, **O**rdinal and **C**ategorical.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamKind {
    /// A continuous parameter on `[lo, hi]`.
    Real {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// An integer parameter on `lo..=hi`.
    Integer {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// An ordered list of numeric values (e.g. tile sizes `[1,2,4,8]`).
    Ordinal {
        /// The admissible values, strictly increasing.
        values: Vec<f64>,
    },
    /// An unordered set of named alternatives.
    Categorical {
        /// The category names.
        values: Vec<String>,
    },
    /// A permutation of `len` elements (e.g. a loop order).
    Permutation {
        /// Number of permuted elements.
        len: usize,
    },
}

impl ParamKind {
    /// Number of distinct values, or `None` for continuous parameters.
    pub fn domain_size(&self) -> Option<u64> {
        match self {
            ParamKind::Real { .. } => None,
            ParamKind::Integer { lo, hi } => Some((hi - lo + 1) as u64),
            ParamKind::Ordinal { values } => Some(values.len() as u64),
            ParamKind::Categorical { values } => Some(values.len() as u64),
            ParamKind::Permutation { len } => Some(perm::factorial(*len)),
        }
    }

    /// Whether the parameter has a finite, enumerable domain.
    pub fn is_discrete(&self) -> bool {
        !matches!(self, ParamKind::Real { .. })
    }
}

/// A named, typed tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    pub(crate) name: String,
    pub(crate) kind: ParamKind,
    pub(crate) scale: Scale,
    pub(crate) default_idx: Option<u64>,
}

impl Parameter {
    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter's kind and domain.
    pub fn kind(&self) -> &ParamKind {
        &self.kind
    }

    /// The distance scale (linear or logarithmic).
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Number of distinct values, or `None` for continuous parameters.
    pub fn domain_size(&self) -> Option<u64> {
        self.kind.domain_size()
    }

    /// Whether this parameter has a finite domain.
    pub fn is_discrete(&self) -> bool {
        self.kind.is_discrete()
    }

    /// The numeric value encoded by index `idx`, for numeric kinds.
    ///
    /// # Panics
    /// Panics if the kind is not numeric-discrete or `idx` is out of range.
    pub fn numeric_at(&self, idx: u64) -> f64 {
        match &self.kind {
            ParamKind::Integer { lo, .. } => (*lo + idx as i64) as f64,
            ParamKind::Ordinal { values } => values[idx as usize],
            k => panic!("numeric_at on non-numeric parameter kind {k:?}"),
        }
    }

    /// The normalized position in `[0,1]` of index `idx` used for distances,
    /// respecting the [`Scale`].
    ///
    /// Categorical and permutation parameters have no numeric position and
    /// return `0.0`; their distances are computed separately.
    pub fn normalized_at(&self, idx: u64) -> f64 {
        self.normalized_at_with(idx, self.scale)
    }

    /// Like [`Parameter::normalized_at`] but with an explicit scale override
    /// (used by the `BaCO--` ablation that strips variable transforms).
    pub fn normalized_at_with(&self, idx: u64, scale: Scale) -> f64 {
        match &self.kind {
            ParamKind::Integer { lo, hi } => {
                normalize_numeric((*lo + idx as i64) as f64, *lo as f64, *hi as f64, scale)
            }
            ParamKind::Ordinal { values } => {
                let (lo, hi) = (values[0], *values.last().expect("nonempty ordinal"));
                normalize_numeric(values[idx as usize], lo, hi, scale)
            }
            _ => 0.0,
        }
    }

    /// The normalized position of a real value in `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if the kind is not [`ParamKind::Real`].
    pub fn normalized_real(&self, v: f64) -> f64 {
        self.normalized_real_with(v, self.scale)
    }

    /// Like [`Parameter::normalized_real`] but with an explicit scale
    /// override.
    ///
    /// # Panics
    /// Panics if the kind is not [`ParamKind::Real`].
    pub fn normalized_real_with(&self, v: f64, scale: Scale) -> f64 {
        match &self.kind {
            ParamKind::Real { lo, hi } => normalize_numeric(v, *lo, *hi, scale),
            k => panic!("normalized_real on non-real parameter kind {k:?}"),
        }
    }
}

/// Maps `v ∈ [lo, hi]` to `[0,1]`, in log space when `scale` is `Log`.
fn normalize_numeric(v: f64, lo: f64, hi: f64, scale: Scale) -> f64 {
    match scale {
        Scale::Linear => {
            if hi > lo {
                (v - lo) / (hi - lo)
            } else {
                0.0
            }
        }
        Scale::Log => {
            debug_assert!(lo > 0.0, "log scale requires positive domain");
            let (l, h, x) = (lo.ln(), hi.ln(), v.ln());
            if h > l {
                (x - l) / (h - l)
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(kind: ParamKind, scale: Scale) -> Parameter {
        Parameter {
            name: "p".into(),
            kind,
            scale,
            default_idx: None,
        }
    }

    #[test]
    fn domain_sizes() {
        assert_eq!(
            p(ParamKind::Integer { lo: 1, hi: 4 }, Scale::Linear).domain_size(),
            Some(4)
        );
        assert_eq!(
            p(
                ParamKind::Ordinal {
                    values: vec![1.0, 2.0, 4.0]
                },
                Scale::Linear
            )
            .domain_size(),
            Some(3)
        );
        assert_eq!(
            p(
                ParamKind::Categorical {
                    values: vec!["a".into(), "b".into()]
                },
                Scale::Linear
            )
            .domain_size(),
            Some(2)
        );
        assert_eq!(
            p(ParamKind::Permutation { len: 4 }, Scale::Linear).domain_size(),
            Some(24)
        );
        assert_eq!(
            p(ParamKind::Real { lo: 0.0, hi: 1.0 }, Scale::Linear).domain_size(),
            None
        );
    }

    #[test]
    fn log_scale_equalizes_ratios() {
        // tile sizes 1..1024: distance(2,4) == distance(512,1024) in log space.
        let values: Vec<f64> = (0..=10).map(|e| (1u64 << e) as f64).collect();
        let par = p(ParamKind::Ordinal { values }, Scale::Log);
        let d_small = (par.normalized_at(2) - par.normalized_at(1)).abs();
        let d_large = (par.normalized_at(10) - par.normalized_at(9)).abs();
        assert!((d_small - d_large).abs() < 1e-12);
    }

    #[test]
    fn linear_scale_is_proportional() {
        let par = p(ParamKind::Integer { lo: 0, hi: 10 }, Scale::Linear);
        assert!((par.normalized_at(5) - 0.5).abs() < 1e-12);
        assert_eq!(par.normalized_at(0), 0.0);
        assert_eq!(par.normalized_at(10), 1.0);
    }

    #[test]
    fn numeric_at_integer_offsets_from_lo() {
        let par = p(ParamKind::Integer { lo: -3, hi: 3 }, Scale::Linear);
        assert_eq!(par.numeric_at(0), -3.0);
        assert_eq!(par.numeric_at(6), 3.0);
    }

    #[test]
    fn degenerate_single_value_domain_normalizes_to_zero() {
        let par = p(ParamKind::Ordinal { values: vec![7.0] }, Scale::Linear);
        assert_eq!(par.normalized_at(0), 0.0);
    }
}
