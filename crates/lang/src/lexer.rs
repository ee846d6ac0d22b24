//! Hand-written lexer for the subscription language.
//!
//! Tokens cover the concrete syntax used throughout the paper:
//! identifiers and dotted field paths (`ip.dst`, `int.hop_latency`),
//! integer and dotted-quad literals, quoted strings, comparison
//! operators (`==`, `!=`, `<`, `<=`, `>`, `>=`, `=^`, `!^`), boolean
//! connectives (`and`/`&&`/`∧`, `or`/`||`/`∨`, `not`/`!`), parentheses,
//! the rule separator `:`, and commas inside action argument lists.

use crate::error::{LangError, Result};

/// A lexical token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub pos: usize,
}

/// The kinds of token the subscription grammar uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or dotted path: `price`, `ip.dst`, `itch.stock`.
    Ident(String),
    /// Integer literal (decimal, hex with `0x`, or negative).
    Int(i64),
    /// Dotted-quad IPv4 literal, folded to its numeric value.
    Ip(u32),
    /// Double-quoted string literal (no escapes beyond `\"` and `\\`).
    Str(String),
    Eq,        // ==
    Ne,        // !=
    Lt,        // <
    Le,        // <=
    Gt,        // >
    Ge,        // >=
    PrefixOp,  // =^
    NotPrefix, // !^
    And,
    Or,
    Not,
    True,
    False,
    LParen,
    RParen,
    Colon,
    Comma,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Human-readable name used in parse errors.
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Ip(v) => format!("ip literal `{}`", crate::value::format_ipv4(*v)),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::Eq => "`==`".into(),
            TokenKind::Ne => "`!=`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::PrefixOp => "`=^`".into(),
            TokenKind::NotPrefix => "`!^`".into(),
            TokenKind::And => "`and`".into(),
            TokenKind::Or => "`or`".into(),
            TokenKind::Not => "`not`".into(),
            TokenKind::True => "`true`".into(),
            TokenKind::False => "`false`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Tokenise `src` into a vector ending with [`TokenKind::Eof`].
pub(crate) fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                toks.push(Token { kind: TokenKind::LParen, pos: i });
                i += 1;
            }
            b')' => {
                toks.push(Token { kind: TokenKind::RParen, pos: i });
                i += 1;
            }
            b':' => {
                toks.push(Token { kind: TokenKind::Colon, pos: i });
                i += 1;
            }
            b',' => {
                toks.push(Token { kind: TokenKind::Comma, pos: i });
                i += 1;
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Token { kind: TokenKind::Eq, pos: i });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'^') {
                    toks.push(Token { kind: TokenKind::PrefixOp, pos: i });
                    i += 2;
                } else {
                    // Accept single `=` as equality; the paper's INT
                    // example writes `int.switch_id = 2`.
                    toks.push(Token { kind: TokenKind::Eq, pos: i });
                    i += 1;
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Token { kind: TokenKind::Ne, pos: i });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'^') {
                    toks.push(Token { kind: TokenKind::NotPrefix, pos: i });
                    i += 2;
                } else {
                    toks.push(Token { kind: TokenKind::Not, pos: i });
                    i += 1;
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Token { kind: TokenKind::Le, pos: i });
                    i += 2;
                } else {
                    toks.push(Token { kind: TokenKind::Lt, pos: i });
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Token { kind: TokenKind::Ge, pos: i });
                    i += 2;
                } else {
                    toks.push(Token { kind: TokenKind::Gt, pos: i });
                    i += 1;
                }
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    toks.push(Token { kind: TokenKind::And, pos: i });
                    i += 2;
                } else {
                    return Err(LangError::lex(i, "expected `&&`"));
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    toks.push(Token { kind: TokenKind::Or, pos: i });
                    i += 2;
                } else {
                    return Err(LangError::lex(i, "expected `||`"));
                }
            }
            b'"' => {
                let (s, next) = lex_string(bytes, i)?;
                toks.push(Token { kind: TokenKind::Str(s), pos: i });
                i = next;
            }
            b'0'..=b'9' | b'-' => {
                let (kind, next) = lex_number(src, bytes, i)?;
                toks.push(Token { kind, pos: i });
                i = next;
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let (kind, next) = lex_word(src, bytes, i);
                toks.push(Token { kind, pos: i });
                i = next;
            }
            // The paper also writes conjunction as the Unicode wedge.
            _ if src[i..].starts_with('\u{2227}') => {
                toks.push(Token { kind: TokenKind::And, pos: i });
                i += '\u{2227}'.len_utf8();
            }
            _ if src[i..].starts_with('\u{2228}') => {
                toks.push(Token { kind: TokenKind::Or, pos: i });
                i += '\u{2228}'.len_utf8();
            }
            _ if src[i..].starts_with('\u{00ac}') => {
                toks.push(Token { kind: TokenKind::Not, pos: i });
                i += '\u{00ac}'.len_utf8();
            }
            _ => {
                return Err(LangError::lex(
                    i,
                    format!("unexpected character {:?}", src[i..].chars().next().unwrap()),
                ))
            }
        }
    }
    toks.push(Token { kind: TokenKind::Eof, pos: bytes.len() });
    Ok(toks)
}

fn lex_string(bytes: &[u8], start: usize) -> Result<(String, usize)> {
    let mut i = start + 1;
    let mut out = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((out, i + 1)),
            b'\\' => {
                match bytes.get(i + 1) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    _ => return Err(LangError::lex(i, "bad escape in string literal")),
                }
                i += 2;
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    Err(LangError::lex(start, "unterminated string literal"))
}

fn lex_number(src: &str, bytes: &[u8], start: usize) -> Result<(TokenKind, usize)> {
    let neg = bytes[start] == b'-';
    let mut i = if neg { start + 1 } else { start };
    if i >= bytes.len() || !bytes[i].is_ascii_digit() {
        return Err(LangError::lex(start, "expected digits after `-`"));
    }
    // Hex literal.
    if !neg && bytes[i] == b'0' && bytes.get(i + 1) == Some(&b'x') {
        let hs = i + 2;
        let mut j = hs;
        while j < bytes.len() && bytes[j].is_ascii_hexdigit() {
            j += 1;
        }
        if j == hs {
            return Err(LangError::lex(start, "empty hex literal"));
        }
        let v = i64::from_str_radix(&src[hs..j], 16)
            .map_err(|_| LangError::lex(start, "hex literal out of range"))?;
        return Ok((TokenKind::Int(v), j));
    }
    // Scan digits and dots to decide between int and dotted-quad.
    let mut j = i;
    let mut dots = 0;
    while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
        if bytes[j] == b'.' {
            // A trailing dot (e.g. `1.`) is not part of the number.
            if !bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit()) {
                break;
            }
            dots += 1;
        }
        j += 1;
    }
    let text = &src[start..j];
    if dots == 3 && !neg {
        if let Some(ip) = crate::value::parse_ipv4(text) {
            return Ok((TokenKind::Ip(ip), j));
        }
        return Err(LangError::lex(start, format!("bad IPv4 literal `{text}`")));
    }
    if dots > 0 {
        return Err(LangError::lex(start, format!("bad numeric literal `{text}`")));
    }
    i = j;
    let v: i64 = text
        .parse()
        .map_err(|_| LangError::lex(start, format!("integer `{text}` out of range")))?;
    Ok((TokenKind::Int(v), i))
}

fn lex_word(src: &str, bytes: &[u8], start: usize) -> (TokenKind, usize) {
    let mut i = start;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
    {
        // A dot must be followed by an identifier character to belong to
        // the path (so `a.b:` lexes as `a.b` then `:`).
        if bytes[i] == b'.'
            && !bytes.get(i + 1).is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            break;
        }
        i += 1;
    }
    let word = &src[start..i];
    let kind = match word {
        "and" | "AND" => TokenKind::And,
        "or" | "OR" => TokenKind::Or,
        "not" | "NOT" => TokenKind::Not,
        "true" => TokenKind::True,
        "false" => TokenKind::False,
        _ => TokenKind::Ident(word.to_string()),
    };
    (kind, i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_basic_rule() {
        let ks = kinds("stock == GOOGL and price > 50: fwd(1,2)");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("stock".into()),
                TokenKind::Eq,
                TokenKind::Ident("GOOGL".into()),
                TokenKind::And,
                TokenKind::Ident("price".into()),
                TokenKind::Gt,
                TokenKind::Int(50),
                TokenKind::Colon,
                TokenKind::Ident("fwd".into()),
                TokenKind::LParen,
                TokenKind::Int(1),
                TokenKind::Comma,
                TokenKind::Int(2),
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_dotted_paths_and_ips() {
        let ks = kinds("ip.dst == 192.168.0.1");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("ip.dst".into()),
                TokenKind::Eq,
                TokenKind::Ip(0xC0A8_0001),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_single_equals_like_paper_int_example() {
        let ks = kinds("int.switch_id = 2 and int.hop_latency > 100");
        assert!(ks.contains(&TokenKind::Eq));
        assert!(ks.contains(&TokenKind::Ident("int.hop_latency".into())));
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("< <= > >= == != =^ !^ ! && ||"),
            vec![
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::PrefixOp,
                TokenKind::NotPrefix,
                TokenKind::Not,
                TokenKind::And,
                TokenKind::Or,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_unicode_connectives() {
        assert_eq!(kinds("a \u{2227} b \u{2228} \u{00ac} c").len(), 7);
    }

    #[test]
    fn lex_strings_and_escapes() {
        assert_eq!(kinds("\"GOOGL\""), vec![TokenKind::Str("GOOGL".into()), TokenKind::Eof]);
        assert_eq!(kinds(r#""a\"b\\c""#), vec![TokenKind::Str("a\"b\\c".into()), TokenKind::Eof]);
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("0 42 -7 0xff"),
            vec![
                TokenKind::Int(0),
                TokenKind::Int(42),
                TokenKind::Int(-7),
                TokenKind::Int(255),
                TokenKind::Eof
            ]
        );
        assert!(lex("1.2").is_err()); // floats are not in the language
        assert!(lex("999999999999999999999").is_err());
    }

    #[test]
    fn lex_comments_and_whitespace() {
        assert_eq!(
            kinds("# a comment\n  x == 1"),
            vec![TokenKind::Ident("x".into()), TokenKind::Eq, TokenKind::Int(1), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_rejects_stray_characters() {
        assert!(lex("a @ b").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
    }

    #[test]
    fn lex_positions_are_byte_offsets() {
        let toks = lex("ab == 3").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 3);
        assert_eq!(toks[2].pos, 6);
    }
}
