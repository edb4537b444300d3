use crate::{Error, Result};

/// Tokens of the constraint expression language.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    Num(f64),
    Str(String),
    Ident(String),
    LParen,
    RParen,
    Comma,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Not,
}

/// Tokenizes a constraint expression.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>> {
    let err = |msg: String| Error::ConstraintParse(format!("{msg} in `{src}`"));
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                if bytes.get(i + 1) == Some(&'*') {
                    return Err(err("unsupported operator `**`".into()));
                }
                out.push(Token::Star);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '%' => {
                out.push(Token::Percent);
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token::Eq);
                    i += 2;
                } else {
                    return Err(err("single `=` (use `==`)".into()));
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Not);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&'&') {
                    out.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(err("single `&` (use `&&`)".into()));
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&'|') {
                    out.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(err("single `|` (use `||`)".into()));
                }
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != quote {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(err("unterminated string literal".into()));
                }
                out.push(Token::Str(bytes[start..j].iter().collect()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit()
                        || bytes[j] == '.'
                        || bytes[j] == 'e'
                        || bytes[j] == 'E'
                        || ((bytes[j] == '+' || bytes[j] == '-')
                            && j > start
                            && (bytes[j - 1] == 'e' || bytes[j - 1] == 'E')))
                {
                    j += 1;
                }
                let text: String = bytes[start..j].iter().collect();
                let v: f64 = text
                    .parse()
                    .map_err(|_| err(format!("bad number literal `{text}`")))?;
                out.push(Token::Num(v));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                {
                    j += 1;
                }
                out.push(Token::Ident(bytes[start..j].iter().collect()));
                i = j;
            }
            other => return Err(err(format!("unexpected character `{other}`"))),
        }
    }
    if out.is_empty() {
        return Err(err("empty expression".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_operators() {
        let t = lex("a >= 2 && b != 'x' || !(c < 1.5e2)").unwrap();
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::AndAnd));
        assert!(t.contains(&Token::Ne));
        assert!(t.contains(&Token::Str("x".into())));
        assert!(t.contains(&Token::OrOr));
        assert!(t.contains(&Token::Not));
        assert!(t.contains(&Token::Num(150.0)));
    }

    #[test]
    fn lexes_identifiers_with_dots() {
        let t = lex("loop.tile > 1").unwrap();
        assert_eq!(t[0], Token::Ident("loop.tile".into()));
    }

    #[test]
    fn rejects_bad_tokens() {
        assert!(lex("a = 1").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
        assert!(lex("a # b").is_err());
        assert!(lex("'unterminated").is_err());
        assert!(lex("").is_err());
        assert!(lex("   ").is_err());
    }

    #[test]
    fn scientific_notation() {
        let t = lex("x > 1.5e-3").unwrap();
        assert_eq!(t[2], Token::Num(1.5e-3));
    }

    #[test]
    fn rejects_malformed_number_literals() {
        for bad in ["x > 1.2.3", "x > 1e", "x > 1e+", "x > 5e- 1", "x > .e3"] {
            let e = lex(bad).unwrap_err();
            assert!(
                matches!(e, crate::Error::ConstraintParse(_)),
                "{bad} → {e:?}"
            );
            assert!(
                e.to_string().contains(bad),
                "message should quote `{bad}`: {e}"
            );
        }
    }

    #[test]
    fn rejects_power_operator_with_guidance() {
        let e = lex("a ** 2").unwrap_err();
        assert!(e.to_string().contains("**"), "{e}");
    }

    #[test]
    fn rejects_unterminated_strings_of_both_quotes() {
        for bad in ["c == 'seq", "c == \"par", "'"] {
            let e = lex(bad).unwrap_err();
            assert!(e.to_string().contains("unterminated"), "{bad} → {e}");
        }
    }

    #[test]
    fn rejects_stray_unicode_and_symbols() {
        for bad in ["a ≥ 1", "a @ b", "a $ b", "a ~ b", "a ^ 2"] {
            assert!(lex(bad).is_err(), "should reject {bad:?}");
        }
    }
}
