//! Lexical tokens of MinC.
//!
//! The `fixed_tokens!` listing below is the one place that spells MinC's
//! keywords and punctuators. The [`TokenKind`] variants and their docs,
//! diagnostics' spelling of a token, the keyword lookup and the lexer's
//! punctuator scan are all generated from it, and the operator listings
//! in [`crate::ast`] name their tokens by variant, so the pretty-printer
//! spells an operator the way the lexer reads it.

use crate::span::Span;
use std::fmt;

macro_rules! fixed_tokens {
    (
        keywords { $($kw:ident = $kw_text:literal,)* }
        punctuators { $($p:ident = $p_text:literal,)* }
    ) => {
        /// The kind of a lexical token.
        #[derive(Debug, Clone, PartialEq)]
        #[allow(missing_docs)] // inline variant fields are described by the variant docs
        pub enum TokenKind {
            /// Integer literal value plus a flag for a `L` suffix.
            IntLit { value: i64, long: bool },
            /// Floating point literal.
            FloatLit(f64),
            /// Character literal, already decoded.
            CharLit(u8),
            /// String literal, already unescaped.
            StrLit(Vec<u8>),
            /// Identifier or keyword candidate.
            Ident(String),
            $(#[doc = concat!("`", $kw_text, "`")] $kw,)*
            $(#[doc = concat!("`", $p_text, "`")] $p,)*
            /// End of input.
            Eof,
        }

        /// Each punctuator's first byte, named after its variant: the
        /// scan's patterns.
        #[allow(non_upper_case_globals)]
        mod lead {
            $(pub(super) const $p: u8 = $p_text.as_bytes()[0];)*
        }

        impl TokenKind {
            /// The spelling of a keyword or punctuator, `?` for any other
            /// kind.
            pub(crate) fn symbol(&self) -> &'static str {
                match self {
                    $(TokenKind::$kw => $kw_text,)*
                    $(TokenKind::$p => $p_text,)*
                    _ => "?",
                }
            }

            /// Maps an identifier to its keyword kind, if it is a keyword.
            pub fn keyword(ident: &str) -> Option<TokenKind> {
                Some(match ident {
                    $($kw_text => TokenKind::$kw,)*
                    _ => return None,
                })
            }

            /// The punctuator `rest` starts with, and its length: the
            /// first listed that matches, which is the longest.
            // `inline`: called out of line from the lexer's loop, lexing
            // took 13% longer than with the nested byte match before it.
            #[inline]
            pub(crate) fn punctuator(rest: &[u8]) -> Option<(TokenKind, usize)> {
                match *rest.first()? {
                    $(lead::$p if rest.starts_with($p_text.as_bytes()) => {
                        Some((TokenKind::$p, $p_text.len()))
                    })*
                    _ => None,
                }
            }
        }

        /// Every keyword's spelling, in listing order.
        pub const KEYWORDS: &[&str] = &[$($kw_text,)*];

        /// Every punctuator's spelling, in listing order: a longer
        /// punctuator comes before each shorter one it starts with, so
        /// the lexer takes the longest at each position.
        pub const PUNCTUATORS: &[&str] = &[$($p_text,)*];
    };
}

fixed_tokens! {
    keywords {
        KwChar = "char",
        KwInt = "int",
        KwLong = "long",
        KwUnsigned = "unsigned",
        KwDouble = "double",
        KwVoid = "void",
        KwStruct = "struct",
        KwIf = "if",
        KwElse = "else",
        KwWhile = "while",
        KwFor = "for",
        KwDo = "do",
        KwReturn = "return",
        KwBreak = "break",
        KwContinue = "continue",
        KwStatic = "static",
        KwSizeof = "sizeof",
        KwConst = "const",
        KwLine = "__LINE__",
    }
    punctuators {
        LParen = "(",
        RParen = ")",
        LBrace = "{",
        RBrace = "}",
        LBracket = "[",
        RBracket = "]",
        Semi = ";",
        Comma = ",",
        Dot = ".",
        Arrow = "->",
        Question = "?",
        Colon = ":",
        PlusPlus = "++",
        PlusAssign = "+=",
        Plus = "+",
        MinusMinus = "--",
        MinusAssign = "-=",
        Minus = "-",
        StarAssign = "*=",
        Star = "*",
        SlashAssign = "/=",
        Slash = "/",
        PercentAssign = "%=",
        Percent = "%",
        AmpAmp = "&&",
        AmpAssign = "&=",
        Amp = "&",
        PipePipe = "||",
        PipeAssign = "|=",
        Pipe = "|",
        CaretAssign = "^=",
        Caret = "^",
        Tilde = "~",
        BangEq = "!=",
        Bang = "!",
        ShlAssign = "<<=",
        Shl = "<<",
        Le = "<=",
        Lt = "<",
        ShrAssign = ">>=",
        Shr = ">>",
        Ge = ">=",
        Gt = ">",
        EqEq = "==",
        Assign = "=",
    }
}

impl TokenKind {
    /// Human-readable name used in diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::IntLit { value, .. } => format!("integer literal `{value}`"),
            TokenKind::FloatLit(v) => format!("float literal `{v}`"),
            TokenKind::CharLit(c) => format!("char literal `{}`", *c as char),
            TokenKind::StrLit(_) => "string literal".to_string(),
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.symbol()),
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("while"), Some(TokenKind::KwWhile));
        assert_eq!(TokenKind::keyword("__LINE__"), Some(TokenKind::KwLine));
        assert_eq!(TokenKind::keyword("whale"), None);
    }

    #[test]
    fn no_punctuator_is_listed_after_a_prefix_of_it() {
        for (i, later) in PUNCTUATORS.iter().enumerate() {
            for earlier in &PUNCTUATORS[..i] {
                assert!(!later.starts_with(earlier), "`{later}` after `{earlier}`");
            }
        }
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(TokenKind::Arrow.describe(), "`->`");
        assert_eq!(
            TokenKind::IntLit {
                value: 7,
                long: false
            }
            .describe(),
            "integer literal `7`"
        );
    }
}
