//! A small lexer for the Java-like surface syntax shared by EASL
//! specifications and mini-Java client programs.
//!
//! Tokens borrow their text from the source (`Tok<'src>` is `Copy`), so
//! lexing allocates only the token vector; a parser copies out of the
//! source exactly the names its result keeps.

use crate::EaslError;

/// A lexical token, borrowing its text from the source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tok<'src> {
    /// Identifier or keyword.
    Ident(&'src str),
    /// String literal (content not interpreted by any analysis).
    Str(&'src str),
    /// Integer literal (opaque to the analyses).
    Int(i64),
    /// A punctuation/operator token, e.g. `==`, `{`, `.`.
    Punct(&'static str),
}

impl<'src> Tok<'src> {
    /// The identifier text, if this token is an identifier.
    pub fn ident(self) -> Option<&'src str> {
        match self {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// A token paired with its 1-based source line and column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpannedTok<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (byte-based; the input is ASCII-only).
    pub col: u32,
}

const PUNCTS2: [&str; 7] = ["==", "!=", "&&", "||", "<=", ">=", "++"];
const PUNCTS1: [&str; 15] =
    ["{", "}", "(", ")", ";", ".", ",", "=", "!", "<", ">", "[", "]", "+", "-"];

/// 1-based column of byte `i` on the line starting at byte `line_start`.
fn col_at(i: usize, line_start: usize) -> u32 {
    (i - line_start + 1) as u32
}

/// Tokenizes `src`, skipping whitespace and `//`, `/* */` comments.
///
/// # Errors
///
/// Returns an error on unterminated comments/strings or unknown characters.
pub fn lex(src: &str) -> Result<Vec<SpannedTok<'_>>, EaslError> {
    let bytes = src.as_bytes();
    // client programs average under 4 source bytes per token: one
    // allocation up front instead of the vector's doubling steps, capped so
    // that a large input (say, mostly comments) reserves no more than 128 KiB
    let mut out = Vec::with_capacity((src.len() / 3).min(4096));
    let mut i = 0;
    let mut line: u32 = 1;
    let mut line_start = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if !c.is_ascii() {
            // decode the full character for the error message; `i` sits on
            // a lead byte (everything before was ASCII), but fall back to
            // U+FFFD rather than trusting that with a panic
            let ch = src
                .get(i..)
                .and_then(|rest| rest.chars().next())
                .unwrap_or(char::REPLACEMENT_CHARACTER);
            return Err(EaslError::new(line, format!("unexpected character {ch:?}")));
        }
        if c == '\n' {
            line += 1;
            i += 1;
            line_start = i;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start_line = line;
            i += 2;
            loop {
                if i + 1 >= bytes.len() {
                    return Err(EaslError::new(start_line, "unterminated block comment"));
                }
                if bytes[i] == b'\n' {
                    line += 1;
                    line_start = i + 1;
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    i += 2;
                    break;
                }
                i += 1;
            }
            continue;
        }
        if c == '"' {
            let start_line = line;
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\n' {
                    return Err(EaslError::new(start_line, "unterminated string literal"));
                }
                j += 1;
            }
            if j >= bytes.len() {
                return Err(EaslError::new(start_line, "unterminated string literal"));
            }
            out.push(SpannedTok {
                tok: Tok::Str(&src[i + 1..j]),
                line,
                col: col_at(i, line_start),
            });
            i = j + 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
            {
                j += 1;
            }
            out.push(SpannedTok { tok: Tok::Ident(&src[i..j]), line, col: col_at(i, line_start) });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                j += 1;
            }
            let n: i64 = src[i..j]
                .parse()
                .map_err(|_| EaslError::new(line, "integer literal out of range"))?;
            out.push(SpannedTok { tok: Tok::Int(n), line, col: col_at(i, line_start) });
            i = j;
            continue;
        }
        if i + 1 < bytes.len() {
            // compare raw bytes: i+2 may not be a char boundary
            let two = &bytes[i..i + 2];
            if let Some(p) = PUNCTS2.iter().find(|p| p.as_bytes() == two) {
                out.push(SpannedTok { tok: Tok::Punct(p), line, col: col_at(i, line_start) });
                i += 2;
                continue;
            }
        }
        let one = &src[i..i + 1];
        if let Some(p) = PUNCTS1.iter().find(|p| **p == one) {
            out.push(SpannedTok { tok: Tok::Punct(p), line, col: col_at(i, line_start) });
            i += 1;
            continue;
        }
        return Err(EaslError::new(line, format!("unexpected character {c:?}")));
    }
    Ok(out)
}

/// A cursor over a token stream with the helpers recursive-descent parsers
/// need.
#[derive(Debug)]
pub struct Cursor<'src> {
    toks: Vec<SpannedTok<'src>>,
    pos: usize,
}

impl<'src> Cursor<'src> {
    /// Creates a cursor at the start of the stream.
    pub fn new(toks: Vec<SpannedTok<'src>>) -> Self {
        Cursor { toks, pos: 0 }
    }

    /// The current line (or the last token's line at end of input).
    pub fn line(&self) -> u32 {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map_or(0, |t| t.line)
    }

    /// The current column (or the last token's column at end of input).
    pub fn col(&self) -> u32 {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map_or(0, |t| t.col)
    }

    /// Whether all tokens are consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// The current token without consuming it.
    pub fn peek(&self) -> Option<Tok<'src>> {
        self.toks.get(self.pos).map(|t| t.tok)
    }

    /// The token `k` positions ahead without consuming anything.
    pub fn peek_at(&self, k: usize) -> Option<Tok<'src>> {
        self.toks.get(self.pos + k).map(|t| t.tok)
    }

    /// Consumes and returns the next token.
    pub fn next_tok(&mut self) -> Result<Tok<'src>, EaslError> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| EaslError::new(self.line(), "unexpected end of input"))?;
        self.pos += 1;
        Ok(t.tok)
    }

    /// Consumes a specific punctuation token.
    pub fn expect(&mut self, p: &'static str) -> Result<(), EaslError> {
        match self.peek() {
            Some(Tok::Punct(q)) if q == p => {
                self.pos += 1;
                Ok(())
            }
            other => Err(EaslError::new(self.line(), format!("expected {p:?}, found {other:?}"))),
        }
    }

    /// Consumes an identifier and returns its text.
    pub fn expect_ident(&mut self) -> Result<&'src str, EaslError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => {
                Err(EaslError::new(self.line(), format!("expected identifier, found {other:?}")))
            }
        }
    }

    /// Consumes a specific keyword (identifier with fixed text).
    pub fn expect_kw(&mut self, kw: &str) -> Result<(), EaslError> {
        let line = self.line();
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(EaslError::new(line, format!("expected keyword {kw:?}, found {id:?}")))
        }
    }

    /// If the next token is punctuation `p`, consumes it and returns true.
    pub fn eat(&mut self, p: &'static str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(q)) if q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// If the next token is the keyword `kw`, consumes it and returns true.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_basics() {
        let toks = lex("class Set { Version ver; } // c\n/* multi\nline */ x == y").unwrap();
        let texts: Vec<String> = toks.iter().map(|t| format!("{:?}", t.tok)).collect();
        assert!(texts[0].contains("class"));
        let last = &toks[toks.len() - 2];
        assert_eq!(last.tok, Tok::Punct("=="));
        assert_eq!(last.line, 3);
    }

    #[test]
    fn lex_strings_and_ints() {
        let toks = lex("v.add(\"hello\"); x = 42;").unwrap();
        assert!(toks.iter().any(|t| t.tok == Tok::Str("hello")));
        assert!(toks.iter().any(|t| t.tok == Tok::Int(42)));
    }

    #[test]
    fn lex_errors() {
        assert!(lex("/* unterminated").is_err());
        assert!(lex("\"unterminated").is_err());
        assert!(lex("a # b").is_err());
    }

    #[test]
    fn lex_multibyte_is_an_error_not_a_panic() {
        // regression: slicing at non-char boundaries used to panic
        assert!(lex("é").is_err());
        assert!(lex("=é").is_err());
        assert!(lex("x = ☃;").is_err());
        assert!(lex("a\u{1F600}b").is_err());
    }

    #[test]
    fn lex_tracks_columns() {
        // columns are 1-based and reset per line; tabs count one column
        let toks = lex("ab == cd\n  x\n\ty").unwrap();
        let at = |i: usize| {
            let t = &toks[i];
            (format!("{:?}", t.tok), t.line, t.col)
        };
        assert_eq!(at(0).1, 1);
        assert_eq!(at(0).2, 1, "first token starts at column 1");
        assert_eq!((at(1).1, at(1).2), (1, 4), "`==` follows `ab ` on line 1");
        assert_eq!((at(2).1, at(2).2), (1, 7), "`cd` follows `ab == `");
        assert_eq!((at(3).1, at(3).2), (2, 3), "indentation advances the column");
        assert_eq!((at(4).1, at(4).2), (3, 2), "a tab advances one column");
    }

    #[test]
    fn cursor_ops() {
        let mut c = Cursor::new(lex("class Foo { }").unwrap());
        c.expect_kw("class").unwrap();
        assert_eq!(c.expect_ident().unwrap(), "Foo");
        assert!(c.eat("{"));
        assert!(!c.eat("{"));
        c.expect("}").unwrap();
        assert!(c.at_end());
        assert!(c.next_tok().is_err());
    }

    #[test]
    fn cursor_peek_at() {
        let c = Cursor::new(lex("a . b").unwrap());
        assert_eq!(c.peek_at(1), Some(Tok::Punct(".")));
        assert_eq!(c.peek_at(2).and_then(|t| t.ident()), Some("b"));
        assert_eq!(c.peek_at(3), None);
    }
}
