use crate::space::{Configuration, ParamValue};
use crate::{Error, Result};

/// Binary operators of the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Built-in functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `pos(perm, k)`: position of element `k` in permutation `perm`.
    Pos,
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// `log2(a)`.
    Log2,
}

/// Parsed constraint expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// String literal (for categorical comparison).
    Str(String),
    /// Parameter reference (by index into the space).
    Param(usize),
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// Logical not `!e`.
    Not(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Function call.
    Call(Func, Vec<Expr>),
}

/// Runtime value of a (sub)expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
}

impl Expr {
    /// Collects the parameter indices referenced by the expression.
    pub fn collect_params(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Num(_) | Expr::Str(_) => {}
            Expr::Param(i) => out.push(*i),
            Expr::Neg(e) | Expr::Not(e) => e.collect_params(out),
            Expr::Bin(_, a, b) => {
                a.collect_params(out);
                b.collect_params(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_params(out);
                }
            }
        }
    }

    pub(crate) fn eval(&self, cfg: &Configuration) -> Result<Value> {
        let err = |msg: String| Error::ConstraintEval(msg);
        match self {
            Expr::Num(v) => Ok(Value::Num(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Param(i) => Ok(match cfg.value_at(*i) {
                ParamValue::Real(v) | ParamValue::Ordinal(v) => Value::Num(v),
                ParamValue::Int(v) => Value::Num(v as f64),
                ParamValue::Categorical(s) => Value::Str(s),
                ParamValue::Permutation(_) => {
                    return Err(err(
                        "permutation parameters can only be used via pos(...)".into()
                    ))
                }
            }),
            Expr::Neg(e) => match e.eval(cfg)? {
                Value::Num(v) => Ok(Value::Num(-v)),
                v => Err(err(format!("cannot negate {v:?}"))),
            },
            Expr::Not(e) => match e.eval(cfg)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                v => Err(err(format!("cannot apply `!` to {v:?}"))),
            },
            Expr::Bin(op, a, b) => eval_bin(*op, a, b, cfg),
            Expr::Call(f, args) => eval_call(*f, args, cfg),
        }
    }
}

fn eval_bin(op: BinOp, a: &Expr, b: &Expr, cfg: &Configuration) -> Result<Value> {
    use BinOp::*;
    let err = |msg: String| Error::ConstraintEval(msg);
    // Short-circuit logical operators.
    if matches!(op, And | Or) {
        let la = match a.eval(cfg)? {
            Value::Bool(x) => x,
            v => return Err(err(format!("`&&`/`||` need booleans, got {v:?}"))),
        };
        return match (op, la) {
            (And, false) => Ok(Value::Bool(false)),
            (Or, true) => Ok(Value::Bool(true)),
            _ => match b.eval(cfg)? {
                Value::Bool(x) => Ok(Value::Bool(x)),
                v => Err(err(format!("`&&`/`||` need booleans, got {v:?}"))),
            },
        };
    }
    let va = a.eval(cfg)?;
    let vb = b.eval(cfg)?;
    match (va, vb) {
        (Value::Num(x), Value::Num(y)) => match op {
            Add => Ok(Value::Num(x + y)),
            Sub => Ok(Value::Num(x - y)),
            Mul => Ok(Value::Num(x * y)),
            Div => {
                if y == 0.0 {
                    Err(err("division by zero".into()))
                } else {
                    Ok(Value::Num(x / y))
                }
            }
            Rem => {
                if y == 0.0 {
                    Err(err("modulo by zero".into()))
                } else {
                    Ok(Value::Num(x % y))
                }
            }
            Eq => Ok(Value::Bool(x == y)),
            Ne => Ok(Value::Bool(x != y)),
            Lt => Ok(Value::Bool(x < y)),
            Le => Ok(Value::Bool(x <= y)),
            Gt => Ok(Value::Bool(x > y)),
            Ge => Ok(Value::Bool(x >= y)),
            And | Or => unreachable!("handled above"),
        },
        (Value::Str(x), Value::Str(y)) => match op {
            Eq => Ok(Value::Bool(x == y)),
            Ne => Ok(Value::Bool(x != y)),
            _ => Err(err(format!("operator {op:?} not defined on strings"))),
        },
        (Value::Bool(x), Value::Bool(y)) => match op {
            Eq => Ok(Value::Bool(x == y)),
            Ne => Ok(Value::Bool(x != y)),
            _ => Err(err(format!("operator {op:?} not defined on booleans"))),
        },
        (x, y) => Err(err(format!("type mismatch: {x:?} {op:?} {y:?}"))),
    }
}

fn eval_call(f: Func, args: &[Expr], cfg: &Configuration) -> Result<Value> {
    let err = |msg: String| Error::ConstraintEval(msg);
    let num = |e: &Expr| -> Result<f64> {
        match e.eval(cfg)? {
            Value::Num(v) => Ok(v),
            v => Err(Error::ConstraintEval(format!("expected number, got {v:?}"))),
        }
    };
    match f {
        Func::Pos => {
            // args[0] must be a permutation parameter reference.
            let Expr::Param(pi) = &args[0] else {
                return Err(err(
                    "pos(): first argument must be a permutation parameter".into()
                ));
            };
            let ParamValue::Permutation(p) = cfg.value_at(*pi) else {
                return Err(err(
                    "pos(): first argument must be a permutation parameter".into()
                ));
            };
            let k = num(&args[1])?;
            if k < 0.0 || k.fract() != 0.0 || k as usize >= p.len() {
                return Err(err(format!(
                    "pos(): element {k} out of range 0..{}",
                    p.len()
                )));
            }
            let pos = p
                .iter()
                .position(|&x| x as f64 == k)
                .expect("valid permutation contains every element");
            Ok(Value::Num(pos as f64))
        }
        Func::Min => Ok(Value::Num(num(&args[0])?.min(num(&args[1])?))),
        Func::Max => Ok(Value::Num(num(&args[0])?.max(num(&args[1])?))),
        Func::Log2 => {
            let v = num(&args[0])?;
            if v <= 0.0 {
                Err(err(format!("log2() of non-positive value {v}")))
            } else {
                Ok(Value::Num(v.log2()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    #[test]
    fn short_circuit_avoids_rhs_error() {
        // `b == 0 || a / b > 1` must not fail when b == 0... note || evaluates
        // lhs first; with lhs true the rhs (which divides by zero) is skipped.
        let s = SearchSpace::builder()
            .integer("a", 0, 4)
            .integer("b", 0, 4)
            .known_constraint("b == 0 || a / b >= 1")
            .build()
            .unwrap();
        let c = s
            .configuration(&[
                ("a", crate::space::ParamValue::Int(2)),
                ("b", crate::space::ParamValue::Int(0)),
            ])
            .unwrap();
        assert!(s.satisfies_known(&c).unwrap());
    }

    #[test]
    fn collect_params_traverses_all_nodes() {
        let e = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Not(Box::new(Expr::Param(2)))),
            Box::new(Expr::Call(
                Func::Min,
                vec![Expr::Param(0), Expr::Neg(Box::new(Expr::Param(1)))],
            )),
        );
        let mut v = Vec::new();
        e.collect_params(&mut v);
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2]);
    }
}
