//! The known-constraint expression language (Sec. 4.2, "known constraints").
//!
//! Known constraints are boolean expressions over parameter names, declared
//! when the search space is built and enforced *before* evaluation by the
//! Chain-of-Trees. Unlike ConfigSpace-style frameworks, arbitrary non-linear
//! arithmetic is supported.
//!
//! ## Grammar
//!
//! ```text
//! expr    := or
//! or      := and ('||' and)*
//! and     := not ('&&' not)*
//! not     := '!' not | cmp
//! cmp     := add (('=='|'!='|'<='|'>='|'<'|'>') add)?
//! add     := mul (('+'|'-') mul)*
//! mul     := unary (('*'|'/'|'%') unary)*
//! unary   := '-' unary | primary
//! primary := number | string | ident | func '(' args ')' | '(' expr ')'
//! func    := 'pos' | 'min' | 'max' | 'log2'
//! ```
//!
//! * Numeric parameters (real/integer/ordinal) evaluate to numbers,
//!   categorical parameters to strings (compare with `==`/`!=` against
//!   quoted literals).
//! * `pos(p, k)` is the position of element `k` in permutation parameter `p`
//!   — loop-ordering constraints such as TACO's concordant-traversal rule are
//!   written `pos(order, 0) < pos(order, 1)`.
//! * `min`/`max` take two numeric arguments; `log2` one positive argument.
//!
//! ```
//! use baco::SearchSpace;
//! let space = SearchSpace::builder()
//!     .ordinal_log("tile", vec![2.0, 4.0, 8.0, 16.0])
//!     .integer("chunk", 1, 16)
//!     .permutation("order", 3)
//!     .known_constraint("tile % chunk == 0")
//!     .known_constraint("pos(order, 0) < pos(order, 2)")
//!     .build()?;
//! assert_eq!(space.known_constraints().len(), 2);
//! # Ok::<(), baco::Error>(())
//! ```

mod ast;
mod lexer;
mod parser;

pub use ast::Expr;

use crate::space::Configuration;
use crate::{Error, Result};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

type NativeFn = Arc<dyn Fn(&Configuration) -> bool + Send + Sync>;

enum ConstraintKind {
    Expr(Expr),
    Native(NativeFn),
}

/// A single known constraint: either a parsed expression or a native Rust
/// predicate.
pub struct Constraint {
    name: String,
    params: Vec<usize>,
    kind: ConstraintKind,
}

impl Constraint {
    pub(crate) fn native(name: String, mut params: Vec<usize>, f: NativeFn) -> Self {
        params.sort_unstable();
        params.dedup();
        Constraint {
            name,
            params,
            kind: ConstraintKind::Native(f),
        }
    }

    /// Human-readable name: the expression source, or the declared name of a
    /// native predicate.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indices of the parameters this constraint reads (sorted, unique).
    /// Used to group co-dependent parameters into Chain-of-Trees.
    pub fn params(&self) -> &[usize] {
        &self.params
    }

    /// Evaluates the constraint on a full configuration.
    ///
    /// # Errors
    /// Returns [`Error::ConstraintEval`] on type mismatches or undefined
    /// arithmetic (division by zero, `log2` of a non-positive number).
    pub fn eval(&self, cfg: &Configuration) -> Result<bool> {
        match &self.kind {
            ConstraintKind::Expr(e) => match e.eval(cfg)? {
                ast::Value::Bool(b) => Ok(b),
                v => Err(Error::ConstraintEval(format!(
                    "constraint `{}` evaluated to non-boolean {v:?}",
                    self.name
                ))),
            },
            ConstraintKind::Native(f) => Ok(f(cfg)),
        }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Constraint")
            .field("name", &self.name)
            .field("params", &self.params)
            .field(
                "kind",
                &match self.kind {
                    ConstraintKind::Expr(_) => "expr",
                    ConstraintKind::Native(_) => "native",
                },
            )
            .finish()
    }
}

/// Parses `src` into a [`Constraint`], resolving parameter names through
/// `by_name`.
///
/// # Errors
/// [`Error::ConstraintParse`] on syntax errors, [`Error::UnknownParameter`]
/// when an identifier is not a parameter.
pub fn parse(src: &str, by_name: &HashMap<String, usize>) -> Result<Constraint> {
    let tokens = lexer::lex(src)?;
    let expr = parser::parse(&tokens, src, by_name)?;
    let mut params = Vec::new();
    expr.collect_params(&mut params);
    params.sort_unstable();
    params.dedup();
    Ok(Constraint {
        name: src.to_string(),
        params,
        kind: ConstraintKind::Expr(expr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 10)
            .integer("b", 0, 10)
            .categorical("mode", vec!["fast", "safe"])
            .permutation("ord", 3)
            .build()
            .unwrap()
    }

    fn cfg(s: &SearchSpace, a: i64, b: i64, mode: &str, ord: Vec<u8>) -> Configuration {
        s.configuration(&[
            ("a", ParamValue::Int(a)),
            ("b", ParamValue::Int(b)),
            ("mode", ParamValue::Categorical(mode.into())),
            ("ord", ParamValue::Permutation(ord)),
        ])
        .unwrap()
    }

    fn check(s: &SearchSpace, src: &str, c: &Configuration) -> bool {
        parse(src, &s.inner.by_name).unwrap().eval(c).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = space();
        let c = cfg(&s, 6, 3, "fast", vec![0, 1, 2]);
        assert!(check(&s, "a % b == 0", &c));
        assert!(check(&s, "a == 2 * b", &c));
        assert!(check(&s, "a + b >= 9", &c));
        assert!(!check(&s, "a - b > 4", &c));
        assert!(check(&s, "a / b == 2", &c));
    }

    #[test]
    fn boolean_connectives_and_precedence() {
        let s = space();
        let c = cfg(&s, 6, 3, "fast", vec![0, 1, 2]);
        assert!(check(&s, "a > 5 && b < 5", &c));
        assert!(check(&s, "a > 9 || b < 5", &c));
        assert!(check(&s, "!(a > 9) && (b == 3 || b == 4)", &c));
        // && binds tighter than ||.
        assert!(check(&s, "a > 9 || a > 5 && b == 3", &c));
    }

    #[test]
    fn categorical_string_comparison() {
        let s = space();
        let c = cfg(&s, 1, 1, "safe", vec![0, 1, 2]);
        assert!(check(&s, "mode == 'safe'", &c));
        assert!(check(&s, "mode != 'fast'", &c));
        assert!(check(&s, "mode == 'safe' && a == 1", &c));
    }

    #[test]
    fn permutation_pos_function() {
        let s = space();
        // ord = [2,0,1]: element 2 at position 0, element 0 at 1, element 1 at 2.
        let c = cfg(&s, 0, 0, "fast", vec![2, 0, 1]);
        assert!(check(&s, "pos(ord, 2) == 0", &c));
        assert!(check(&s, "pos(ord, 0) < pos(ord, 1)", &c));
        assert!(!check(&s, "pos(ord, 1) < pos(ord, 2)", &c));
    }

    #[test]
    fn min_max_log2() {
        let s = space();
        let c = cfg(&s, 8, 2, "fast", vec![0, 1, 2]);
        assert!(check(&s, "min(a, b) == 2", &c));
        assert!(check(&s, "max(a, b) == 8", &c));
        assert!(check(&s, "log2(a) == 3", &c));
    }

    #[test]
    fn type_errors_reported() {
        let s = space();
        let c = cfg(&s, 1, 1, "fast", vec![0, 1, 2]);
        let bad = parse("mode + 1 > 0", &s.inner.by_name).unwrap();
        assert!(matches!(bad.eval(&c), Err(Error::ConstraintEval(_))));
        let nonbool = parse("a + b", &s.inner.by_name).unwrap();
        assert!(matches!(nonbool.eval(&c), Err(Error::ConstraintEval(_))));
    }

    #[test]
    fn division_by_zero_is_error() {
        let s = space();
        let c = cfg(&s, 1, 0, "fast", vec![0, 1, 2]);
        let e = parse("a / b == 1", &s.inner.by_name).unwrap();
        assert!(e.eval(&c).is_err());
        let m = parse("a % b == 0", &s.inner.by_name).unwrap();
        assert!(m.eval(&c).is_err());
    }

    #[test]
    fn params_collected_sorted_unique() {
        let s = space();
        let c = parse("b + a > a * b && a > 0", &s.inner.by_name).unwrap();
        assert_eq!(c.params(), &[0, 1]);
    }

    #[test]
    fn parse_errors() {
        let s = space();
        assert!(matches!(
            parse("a >", &s.inner.by_name),
            Err(Error::ConstraintParse(_))
        ));
        assert!(matches!(
            parse("(a > 1", &s.inner.by_name),
            Err(Error::ConstraintParse(_))
        ));
        assert!(matches!(
            parse("a ** 2 > 1", &s.inner.by_name),
            Err(Error::ConstraintParse(_))
        ));
        assert!(matches!(
            parse("zz > 1", &s.inner.by_name),
            Err(Error::UnknownParameter(_))
        ));
        assert!(matches!(
            parse("", &s.inner.by_name),
            Err(Error::ConstraintParse(_))
        ));
    }

    #[test]
    fn unary_minus() {
        let s = space();
        let c = cfg(&s, 3, 5, "fast", vec![0, 1, 2]);
        assert!(check(&s, "-a + b == 2", &c));
        assert!(check(&s, "a > -1", &c));
    }
}
