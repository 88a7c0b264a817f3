//! Hand-written lexer for MinC.

use crate::diag::{Diagnostic, FrontendError, Phase};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Converts MinC source text into a token stream.
///
/// Supports `//` and `/* */` comments, decimal/hex/char/float literals with
/// standard C escapes, and all MinC operators.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    /// Lexes the entire input, returning tokens terminated by [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns a [`FrontendError`] on the first malformed token (unterminated
    /// string/comment, bad escape, stray character).
    pub fn tokenize(mut self) -> Result<Vec<Token>, FrontendError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let line = self.line;
            let Some(&c) = self.src.get(self.pos) else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start as u32, start as u32, line),
                });
                return Ok(out);
            };
            let kind = self.next_kind(c)?;
            let end_line = self.line;
            let mut span = Span::new(start as u32, self.pos as u32, line);
            span.end_line = end_line;
            out.push(Token { kind, span });
        }
    }

    fn err(&self, start: usize, msg: impl Into<String>) -> FrontendError {
        Diagnostic::new(
            Phase::Lex,
            Span::new(start as u32, self.pos as u32, self.line),
            msg,
        )
        .into()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == b'\n' {
                self.line += 1;
            }
        }
        c
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => return Err(self.err(start, "unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_kind(&mut self, c: u8) -> Result<TokenKind, FrontendError> {
        let start = self.pos;
        if c.is_ascii_digit() {
            return self.number(start);
        }
        if c == b'_' || c.is_ascii_alphabetic() {
            return Ok(self.ident(start));
        }
        if c == b'"' {
            return self.string(start);
        }
        if c == b'\'' {
            return self.char_lit(start);
        }
        if let Some((kind, len)) = TokenKind::punctuator(&self.src[start..]) {
            self.pos += len;
            return Ok(kind);
        }
        self.bump();
        Err(self.err(start, format!("unexpected character `{}`", c as char)))
    }

    fn number(&mut self, start: usize) -> Result<TokenKind, FrontendError> {
        // Hex literal.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.bump();
            }
            if self.pos == digits_start {
                return Err(self.err(start, "hex literal needs at least one digit"));
            }
            let text = std::str::from_utf8(&self.src[digits_start..self.pos]).unwrap();
            let value = u64::from_str_radix(text, 16)
                .map_err(|_| self.err(start, "hex literal out of range"))?
                as i64;
            let long = self.eat(b'L') || self.eat(b'l');
            self.eat(b'U');
            self.eat(b'u');
            return Ok(TokenKind::IntLit { value, long });
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        // Float literal: digits '.' digits, optional exponent.
        if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                self.bump();
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.bump();
                }
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
            let value: f64 = text
                .parse()
                .map_err(|_| self.err(start, "malformed float literal"))?;
            return Ok(TokenKind::FloatLit(value));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let value: i64 =
            text.parse::<u64>()
                .map_err(|_| self.err(start, "integer literal out of range"))? as i64;
        let long = self.eat(b'L') || self.eat(b'l');
        self.eat(b'U');
        self.eat(b'u');
        Ok(TokenKind::IntLit { value, long })
    }

    fn ident(&mut self, start: usize) -> TokenKind {
        while self
            .peek()
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string()))
    }

    fn escape(&mut self, start: usize) -> Result<u8, FrontendError> {
        let c = self
            .bump()
            .ok_or_else(|| self.err(start, "unterminated escape sequence"))?;
        Ok(match c {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            b'x' => {
                let mut v: u32 = 0;
                let mut n = 0;
                while n < 2 && self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                    let d = self.bump().unwrap();
                    v = v * 16 + (d as char).to_digit(16).unwrap();
                    n += 1;
                }
                if n == 0 {
                    return Err(self.err(start, "\\x escape needs hex digits"));
                }
                v as u8
            }
            other => {
                return Err(self.err(start, format!("unknown escape `\\{}`", other as char)));
            }
        })
    }

    fn string(&mut self, start: usize) -> Result<TokenKind, FrontendError> {
        self.bump(); // opening quote
        let mut bytes = Vec::new();
        loop {
            match self.bump() {
                None | Some(b'\n') => return Err(self.err(start, "unterminated string literal")),
                Some(b'"') => break,
                Some(b'\\') => bytes.push(self.escape(start)?),
                Some(c) => bytes.push(c),
            }
        }
        Ok(TokenKind::StrLit(bytes))
    }

    fn char_lit(&mut self, start: usize) -> Result<TokenKind, FrontendError> {
        self.bump(); // opening quote
        let c = match self.bump() {
            None | Some(b'\n') => return Err(self.err(start, "unterminated char literal")),
            Some(b'\\') => self.escape(start)?,
            Some(c) => c,
        };
        if self.bump() != Some(b'\'') {
            return Err(self.err(start, "char literal must contain exactly one character"));
        }
        Ok(TokenKind::CharLit(c))
    }
}

/// Convenience: lex `src` into tokens.
///
/// # Errors
///
/// Returns a [`FrontendError`] on any malformed token.
///
/// ```
/// let toks = minc::lex("int x = 42;").unwrap();
/// assert_eq!(toks.len(), 6); // int x = 42 ; EOF
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, FrontendError> {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn kinds(src: &str) -> Vec<T> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                T::KwInt,
                T::Ident("x".into()),
                T::Assign,
                T::IntLit {
                    value: 42,
                    long: false
                },
                T::Semi,
                T::Eof
            ]
        );
    }

    #[test]
    fn lexes_hex_and_long() {
        assert_eq!(
            kinds("0xff 10L"),
            vec![
                T::IntLit {
                    value: 255,
                    long: false
                },
                T::IntLit {
                    value: 10,
                    long: true
                },
                T::Eof
            ]
        );
    }

    #[test]
    fn lexes_floats() {
        assert_eq!(kinds("3.5"), vec![T::FloatLit(3.5), T::Eof]);
        assert_eq!(kinds("1.0e2"), vec![T::FloatLit(100.0), T::Eof]);
    }

    #[test]
    fn lexes_compound_operators() {
        assert_eq!(
            kinds("a <<= b >>= c -> d ++ --"),
            vec![
                T::Ident("a".into()),
                T::ShlAssign,
                T::Ident("b".into()),
                T::ShrAssign,
                T::Ident("c".into()),
                T::Arrow,
                T::Ident("d".into()),
                T::PlusPlus,
                T::MinusMinus,
                T::Eof
            ]
        );
    }

    #[test]
    fn lexes_string_with_escapes() {
        assert_eq!(
            kinds(r#""a\n\x41\0""#),
            vec![T::StrLit(vec![b'a', b'\n', b'A', 0]), T::Eof]
        );
    }

    #[test]
    fn lexes_char_literals() {
        assert_eq!(
            kinds(r"'a' '\n'"),
            vec![T::CharLit(b'a'), T::CharLit(b'\n'), T::Eof]
        );
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let toks = lex("// c1\n/* c2\nc3 */ x").unwrap();
        assert_eq!(toks[0].kind, T::Ident("x".into()));
        assert_eq!(toks[0].span.line, 3);
    }

    #[test]
    fn line_keyword() {
        assert_eq!(kinds("__LINE__"), vec![T::KwLine, T::Eof]);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn rejects_stray_character() {
        assert!(lex("@").is_err());
    }

    #[test]
    fn rejects_unterminated_comment() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn multiline_span_records_end_line() {
        // A string cannot span lines, but a block comment between tokens
        // advances the line; check `end_line` via a parenthesized expr later.
        let toks = lex("x\ny").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
    }
}
