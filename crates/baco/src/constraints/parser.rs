use super::ast::{BinOp, Expr, Func};
use super::lexer::Token;
use crate::{Error, Result};
use std::collections::HashMap;

/// Recursive-descent parser over the token stream.
pub(crate) fn parse(tokens: &[Token], src: &str, by_name: &HashMap<String, usize>) -> Result<Expr> {
    let mut p = Parser {
        tokens,
        pos: 0,
        src,
        by_name,
    };
    let e = p.or_expr()?;
    if p.pos != tokens.len() {
        return Err(p.err(format!("trailing tokens after position {}", p.pos)));
    }
    Ok(e)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    src: &'a str,
    by_name: &'a HashMap<String, usize>,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: String) -> Error {
        Error::ConstraintParse(format!("{msg} in `{}`", self.src))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        match self.peek() {
            Some(x) if x == t => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!("expected {t:?}, found {other:?}"))),
        }
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        while self.peek() == Some(&Token::OrOr) {
            self.pos += 1;
            let rhs = self.and_expr()?;
            e = Expr::Bin(BinOp::Or, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.not_expr()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.pos += 1;
            let rhs = self.not_expr()?;
            e = Expr::Bin(BinOp::And, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.peek() == Some(&Token::Not) {
            self.pos += 1;
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            e = Expr::Bin(op, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            e = Expr::Bin(op, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.peek() == Some(&Token::Minus) {
            self.pos += 1;
            let inner = self.unary_expr()?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump().cloned() {
            Some(Token::Num(v)) => Ok(Expr::Num(v)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::LParen) => {
                let e = self.or_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    self.call(&name)
                } else {
                    self.by_name
                        .get(&name)
                        .map(|i| Expr::Param(*i))
                        .ok_or(Error::UnknownParameter(name))
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    fn call(&mut self, name: &str) -> Result<Expr> {
        let (func, arity) = match name {
            "pos" => (Func::Pos, 2),
            "min" => (Func::Min, 2),
            "max" => (Func::Max, 2),
            "log2" => (Func::Log2, 1),
            other => return Err(self.err(format!("unknown function `{other}`"))),
        };
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        loop {
            args.push(self.or_expr()?);
            match self.bump().cloned() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return Err(self.err(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        if args.len() != arity {
            return Err(self.err(format!(
                "function `{name}` expects {arity} argument(s), got {}",
                args.len()
            )));
        }
        Ok(Expr::Call(func, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::lexer::lex;

    fn names() -> HashMap<String, usize> {
        [("a".to_string(), 0), ("b".to_string(), 1)]
            .into_iter()
            .collect()
    }

    fn p(src: &str) -> Result<Expr> {
        parse(&lex(src)?, src, &names())
    }

    #[test]
    fn precedence_mul_over_add() {
        // a + b * 2 parses as a + (b * 2)
        let e = p("a + b * 2").unwrap();
        match e {
            Expr::Bin(BinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, Expr::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parens_override() {
        let e = p("(a + b) * 2").unwrap();
        assert!(matches!(e, Expr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(p("min(a)").is_err());
        assert!(p("log2(a, b)").is_err());
        assert!(p("frobnicate(a)").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(p("a > 1 b").is_err());
    }

    #[test]
    fn nested_not() {
        let e = p("!!(a > 1)").unwrap();
        assert!(matches!(e, Expr::Not(_)));
    }

    #[test]
    fn rejects_unterminated_expressions() {
        // Every prefix cut mid-production must fail with a parse error (and
        // never panic), whichever sub-parser was interrupted.
        for bad in [
            "a >", "a > 1 &&", "a ||", "(a > 1", "((a > 1)", "min(a, b", "min(a,", "!", "-", "a +",
            "a * ", "b %",
        ] {
            let e = p(bad).unwrap_err();
            assert!(
                matches!(e, crate::Error::ConstraintParse(_)),
                "{bad:?} → {e:?}"
            );
        }
    }

    #[test]
    fn rejects_unknown_identifiers_with_their_name() {
        let e = p("a > frob").unwrap_err();
        match e {
            crate::Error::UnknownParameter(name) => assert_eq!(name, "frob"),
            other => panic!("expected UnknownParameter, got {other:?}"),
        }
        // … including deep inside a call argument.
        assert!(matches!(
            p("min(a, zzz) > 1"),
            Err(crate::Error::UnknownParameter(_))
        ));
    }

    #[test]
    fn rejects_malformed_precedence_shapes() {
        // Comparisons don't chain and operators can't collide; the parser
        // must reject the leftovers as trailing garbage or a bad primary.
        for bad in [
            "a > 1 > 2",  // chained comparison: trailing `> 2`
            "a > 1 == 2", // chained comparison via ==
            "a + * b",    // operator collision
            "a && && b",  // logical collision
            "()",         // empty parenthesis
            "a b",        // juxtaposition
            "1 2",        // number juxtaposition
        ] {
            let e = p(bad).unwrap_err();
            assert!(
                matches!(e, crate::Error::ConstraintParse(_)),
                "{bad:?} → {e:?}"
            );
            assert!(
                e.to_string().contains(bad),
                "message should quote `{bad}`: {e}"
            );
        }
    }

    #[test]
    fn rejects_empty_call_and_trailing_comma() {
        assert!(p("min() > 1").is_err());
        assert!(p("min(a,) > 1").is_err());
        assert!(p("pos(a) == 0").is_err());
    }
}
