//! Recursive-descent parser for MinC.

use crate::ast::*;
use crate::diag::{Diagnostic, FrontendError, Phase};
use crate::lexer::lex;
use crate::span::{NodeId, Span};
use crate::token::{Token, TokenKind};
use crate::types::Type;

/// Parses MinC source into a [`Program`].
///
/// # Errors
///
/// Returns a [`FrontendError`] with the first lexical or syntactic error.
///
/// ```
/// let prog = minc::parse("int main() { return 0; }").unwrap();
/// assert_eq!(prog.functions.len(), 1);
/// ```
pub fn parse(src: &str) -> Result<Program, FrontendError> {
    let tokens = lex(src)?;
    Parser::new(tokens).program()
}

/// The deepest syntax tree [`parse`] builds, in levels: one per function,
/// statement or expression node, plus one per pair of parentheses. The
/// parser, sema, lowering and lint all recurse over the tree, so source
/// nested deeper is refused here rather than overflowing the stack of
/// the thread that checks it. Twice this depth, every nesting shape
/// still gets through all four on a 2 MiB thread stack at opt-level 1.
/// A type's `*`s and its array dimensions are each held to the same
/// bound.
pub const MAX_DEPTH: u32 = 320;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Height in levels of every node built so far, indexed by [`NodeId`].
    heights: Vec<u32>,
    /// Levels open around the current token. It never exceeds the height
    /// of the finished tree, so checking it stops the parser's own
    /// recursion before it builds any node of a tree that is too deep.
    open: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            heights: Vec::new(),
            open: 0,
        }
    }

    fn too_deep(&self) -> FrontendError {
        self.error(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Parses one level further down, refusing to open more than
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, FrontendError>,
    ) -> Result<T, FrontendError> {
        if self.open == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let parsed = parse(self);
        self.open -= 1;
        parsed
    }

    /// Allocates the id of a node one level above its tallest child,
    /// which is `below` levels high.
    fn fresh(&mut self, below: u32) -> Result<NodeId, FrontendError> {
        if below >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.heights.push(below + 1);
        Ok(NodeId(self.heights.len() as u32 - 1))
    }

    fn height(&self, id: NodeId) -> u32 {
        self.heights[id.0 as usize]
    }

    /// Builds an expression node one level above its tallest operand.
    fn expr(&mut self, span: Span, kind: ExprKind) -> Result<Expr, FrontendError> {
        let mut below = 0;
        kind.for_each_child(|e| below = below.max(self.height(e.id)));
        let id = self.fresh(below)?;
        Ok(Expr { id, span, kind })
    }

    /// Builds a statement node one level above its tallest child.
    fn stmt(&mut self, span: Span, kind: StmtKind) -> Result<Stmt, FrontendError> {
        let mut below = 0;
        kind.for_each_child(|c| below = below.max(self.height(c.id())));
        let id = self.fresh(below)?;
        Ok(Stmt { id, span, kind })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, FrontendError> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn error(&self, msg: impl Into<String>) -> FrontendError {
        Diagnostic::new(Phase::Parse, self.span(), msg).into()
    }

    fn ident(&mut self) -> Result<(String, Span), FrontendError> {
        let sp = self.span();
        match self.bump().kind {
            TokenKind::Ident(s) => Ok((s, sp)),
            other => Err(FrontendError::single(Diagnostic::new(
                Phase::Parse,
                sp,
                format!("expected identifier, found {}", other.describe()),
            ))),
        }
    }

    /// True if the token begins a type.
    fn is_type_start(kind: &TokenKind) -> bool {
        matches!(
            kind,
            TokenKind::KwChar
                | TokenKind::KwInt
                | TokenKind::KwLong
                | TokenKind::KwUnsigned
                | TokenKind::KwDouble
                | TokenKind::KwVoid
                | TokenKind::KwStruct
                | TokenKind::KwConst
        )
    }

    /// Parses a type: optional `const`, base type, then `*`s.
    fn parse_type(&mut self) -> Result<Type, FrontendError> {
        self.eat(&TokenKind::KwConst);
        let base = match self.bump().kind {
            TokenKind::KwChar => Type::Char,
            TokenKind::KwInt => Type::Int,
            TokenKind::KwLong => Type::Long,
            TokenKind::KwUnsigned => {
                // Allow `unsigned int`.
                self.eat(&TokenKind::KwInt);
                Type::UInt
            }
            TokenKind::KwDouble => Type::Double,
            TokenKind::KwVoid => Type::Void,
            TokenKind::KwStruct => {
                let (name, _) = self.ident()?;
                Type::Struct(name)
            }
            other => {
                return Err(FrontendError::single(Diagnostic::new(
                    Phase::Parse,
                    self.prev_span(),
                    format!("expected type, found {}", other.describe()),
                )));
            }
        };
        let mut ty = base;
        let mut stars = 0;
        loop {
            self.eat(&TokenKind::KwConst);
            if self.eat(&TokenKind::Star) {
                stars += 1;
                if stars > MAX_DEPTH {
                    return Err(self.too_deep());
                }
                ty = ty.ptr_to();
            } else {
                break;
            }
        }
        Ok(ty)
    }

    /// Parses optional array suffixes after a declarator name: `[N]`...
    fn array_suffix(&mut self, mut ty: Type) -> Result<Type, FrontendError> {
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            let sp = self.span();
            let n = match self.bump().kind {
                TokenKind::IntLit { value, .. } if value > 0 => value as u64,
                _ => {
                    return Err(FrontendError::single(Diagnostic::new(
                        Phase::Parse,
                        sp,
                        "array size must be a positive integer literal",
                    )));
                }
            };
            self.expect(TokenKind::RBracket)?;
            dims.push(n);
            if dims.len() > MAX_DEPTH as usize {
                return Err(self.too_deep());
            }
        }
        for n in dims.into_iter().rev() {
            ty = Type::Array(Box::new(ty), n);
        }
        Ok(ty)
    }

    fn program(&mut self) -> Result<Program, FrontendError> {
        let mut prog = Program::default();
        while self.peek() != &TokenKind::Eof {
            if self.peek() == &TokenKind::KwStruct
                && matches!(self.peek_at(1), TokenKind::Ident(_))
                && self.peek_at(2) == &TokenKind::LBrace
            {
                prog.structs.push(self.struct_def()?);
                continue;
            }
            // Global or function: [static] type name ( -> function, else global.
            let is_static = self.eat(&TokenKind::KwStatic);
            let start = self.span();
            let ty = self.parse_type()?;
            let (name, _) = self.ident()?;
            if self.peek() == &TokenKind::LParen {
                let f = self.function(ty, name, start)?;
                prog.functions.push(f);
            } else {
                let ty = self.array_suffix(ty)?;
                let init = if self.eat(&TokenKind::Assign) {
                    Some(self.assignment_expr()?)
                } else {
                    None
                };
                self.expect(TokenKind::Semi)?;
                let _ = is_static; // globals always have static storage duration
                let below = init.as_ref().map_or(0, |e| self.height(e.id));
                prog.globals.push(Global {
                    id: self.fresh(below)?,
                    name,
                    ty,
                    init,
                    span: start.merge(self.prev_span()),
                });
            }
        }
        Ok(prog)
    }

    fn struct_def(&mut self) -> Result<StructDef, FrontendError> {
        let start = self.span();
        self.expect(TokenKind::KwStruct)?;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            let fs = self.span();
            let ty = self.parse_type()?;
            let (fname, _) = self.ident()?;
            let ty = self.array_suffix(ty)?;
            self.expect(TokenKind::Semi)?;
            fields.push(Field {
                name: fname,
                ty,
                span: fs.merge(self.prev_span()),
            });
        }
        self.expect(TokenKind::RBrace)?;
        self.expect(TokenKind::Semi)?;
        Ok(StructDef {
            name,
            fields,
            span: start.merge(self.prev_span()),
        })
    }

    fn function(
        &mut self,
        ret: Type,
        name: String,
        start: Span,
    ) -> Result<Function, FrontendError> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            if self.peek() == &TokenKind::KwVoid && self.peek_at(1) == &TokenKind::RParen {
                self.bump();
            } else {
                loop {
                    let ps = self.span();
                    let ty = self.parse_type()?;
                    let (pname, _) = self.ident()?;
                    let ty = self.array_suffix(ty)?.decay();
                    params.push(Param {
                        name: pname,
                        ty,
                        span: ps.merge(self.prev_span()),
                    });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Function {
            id: self.fresh(self.height(body.id))?,
            name,
            ret,
            params,
            body,
            span: start,
        })
    }

    fn block(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.span();
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.statement()?);
        }
        self.expect(TokenKind::RBrace)?;
        self.stmt(start.merge(self.prev_span()), StmtKind::Block(stmts))
    }

    fn declaration(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.span();
        let storage = if self.eat(&TokenKind::KwStatic) {
            Storage::Static
        } else {
            Storage::Auto
        };
        let ty = self.parse_type()?;
        let (name, _) = self.ident()?;
        let ty = self.array_suffix(ty)?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.assignment_expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        self.stmt(
            start.merge(self.prev_span()),
            StmtKind::Decl {
                name,
                ty,
                storage,
                init,
            },
        )
    }

    fn statement(&mut self) -> Result<Stmt, FrontendError> {
        self.nested(Self::statement_level)
    }

    fn statement_level(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.span();
        match self.peek() {
            TokenKind::LBrace => self.block(),
            TokenKind::Semi => {
                self.bump();
                self.stmt(start, StmtKind::Empty)
            }
            TokenKind::KwStatic => self.declaration(),
            k if Self::is_type_start(k) => self.declaration(),
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expression()?;
                self.expect(TokenKind::RParen)?;
                let then = Box::new(self.statement()?);
                let els = if self.eat(&TokenKind::KwElse) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                self.stmt(
                    start.merge(self.prev_span()),
                    StmtKind::If { cond, then, els },
                )
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expression()?;
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.statement()?);
                self.stmt(
                    start.merge(self.prev_span()),
                    StmtKind::While { cond, body },
                )
            }
            TokenKind::KwDo => {
                self.bump();
                let body = Box::new(self.statement()?);
                self.expect(TokenKind::KwWhile)?;
                self.expect(TokenKind::LParen)?;
                let cond = self.expression()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                self.stmt(
                    start.merge(self.prev_span()),
                    StmtKind::DoWhile { body, cond },
                )
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = if self.peek() == &TokenKind::Semi {
                    self.bump();
                    None
                } else if Self::is_type_start(self.peek()) || self.peek() == &TokenKind::KwStatic {
                    Some(Box::new(self.declaration()?))
                } else {
                    let e = self.expression()?;
                    self.expect(TokenKind::Semi)?;
                    Some(Box::new(self.stmt(e.span, StmtKind::Expr(e))?))
                };
                let cond = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(TokenKind::Semi)?;
                let step = if self.peek() == &TokenKind::RParen {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.statement()?);
                self.stmt(
                    start.merge(self.prev_span()),
                    StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                )
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(TokenKind::Semi)?;
                self.stmt(start.merge(self.prev_span()), StmtKind::Return(value))
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                self.stmt(start, StmtKind::Break)
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                self.stmt(start, StmtKind::Continue)
            }
            _ => {
                let e = self.expression()?;
                self.expect(TokenKind::Semi)?;
                self.stmt(start.merge(self.prev_span()), StmtKind::Expr(e))
            }
        }
    }

    // ---- expressions ----

    fn expression(&mut self) -> Result<Expr, FrontendError> {
        self.assignment_expr()
    }

    fn assignment_expr(&mut self) -> Result<Expr, FrontendError> {
        self.nested(Self::assignment_level)
    }

    fn assignment_level(&mut self) -> Result<Expr, FrontendError> {
        let lhs = self.conditional_expr()?;
        let op = match self.peek() {
            TokenKind::Assign => None,
            TokenKind::PlusAssign => Some(BinOp::Add),
            TokenKind::MinusAssign => Some(BinOp::Sub),
            TokenKind::StarAssign => Some(BinOp::Mul),
            TokenKind::SlashAssign => Some(BinOp::Div),
            TokenKind::PercentAssign => Some(BinOp::Rem),
            TokenKind::ShlAssign => Some(BinOp::Shl),
            TokenKind::ShrAssign => Some(BinOp::Shr),
            TokenKind::AmpAssign => Some(BinOp::BitAnd),
            TokenKind::PipeAssign => Some(BinOp::BitOr),
            TokenKind::CaretAssign => Some(BinOp::BitXor),
            _ => return Ok(lhs),
        };
        self.bump();
        let value = self.assignment_expr()?;
        let span = lhs.span.merge(value.span);
        self.expr(
            span,
            ExprKind::Assign {
                op,
                target: Box::new(lhs),
                value: Box::new(value),
            },
        )
    }

    fn conditional_expr(&mut self) -> Result<Expr, FrontendError> {
        let cond = self.binary_expr(0)?;
        if !self.eat(&TokenKind::Question) {
            return Ok(cond);
        }
        let then = self.assignment_expr()?;
        self.expect(TokenKind::Colon)?;
        let els = self.nested(Self::conditional_expr)?;
        let span = cond.span.merge(els.span);
        self.expr(
            span,
            ExprKind::Cond {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            },
        )
    }

    /// The binary operator at the current token with its precedence
    /// level, lowest first.
    fn binop(&self) -> Option<(u8, BinOpOrLogical)> {
        use BinOpOrLogical::*;
        let found = match self.peek() {
            TokenKind::PipePipe => (0, Logical(false)),
            TokenKind::AmpAmp => (1, Logical(true)),
            TokenKind::Pipe => (2, Bin(BinOp::BitOr)),
            TokenKind::Caret => (3, Bin(BinOp::BitXor)),
            TokenKind::Amp => (4, Bin(BinOp::BitAnd)),
            TokenKind::EqEq => (5, Bin(BinOp::Eq)),
            TokenKind::BangEq => (5, Bin(BinOp::Ne)),
            TokenKind::Lt => (6, Bin(BinOp::Lt)),
            TokenKind::Le => (6, Bin(BinOp::Le)),
            TokenKind::Gt => (6, Bin(BinOp::Gt)),
            TokenKind::Ge => (6, Bin(BinOp::Ge)),
            TokenKind::Shl => (7, Bin(BinOp::Shl)),
            TokenKind::Shr => (7, Bin(BinOp::Shr)),
            TokenKind::Plus => (8, Bin(BinOp::Add)),
            TokenKind::Minus => (8, Bin(BinOp::Sub)),
            TokenKind::Star => (9, Bin(BinOp::Mul)),
            TokenKind::Slash => (9, Bin(BinOp::Div)),
            TokenKind::Percent => (9, Bin(BinOp::Rem)),
            _ => return None,
        };
        Some(found)
    }

    /// Parses a left-associative chain of binary operators of precedence
    /// `min` or higher by precedence climbing: an operand costs one call
    /// here, not one per precedence level, which keeps the recursion per
    /// pair of parentheses shallow.
    fn binary_expr(&mut self, min: u8) -> Result<Expr, FrontendError> {
        let mut lhs = self.unary_expr()?;
        while let Some((level, op)) = self.binop().filter(|(level, _)| *level >= min) {
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            let span = lhs.span.merge(rhs.span);
            let kind = match op {
                BinOpOrLogical::Bin(b) => ExprKind::Binary {
                    op: b,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                BinOpOrLogical::Logical(and) => ExprKind::Logical {
                    and,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
            };
            lhs = self.expr(span, kind)?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, FrontendError> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Tilde => Some(UnOp::BitNot),
            TokenKind::Star => Some(UnOp::Deref),
            TokenKind::Amp => Some(UnOp::Addr),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Self::unary_expr)?;
            let span = start.merge(operand.span);
            return self.expr(
                span,
                ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
            );
        }
        if self.eat(&TokenKind::PlusPlus) {
            let target = self.nested(Self::unary_expr)?;
            let span = start.merge(target.span);
            return self.expr(
                span,
                ExprKind::IncDec {
                    inc: true,
                    pre: true,
                    target: Box::new(target),
                },
            );
        }
        if self.eat(&TokenKind::MinusMinus) {
            let target = self.nested(Self::unary_expr)?;
            let span = start.merge(target.span);
            return self.expr(
                span,
                ExprKind::IncDec {
                    inc: false,
                    pre: true,
                    target: Box::new(target),
                },
            );
        }
        if self.peek() == &TokenKind::KwSizeof {
            self.bump();
            if self.peek() == &TokenKind::LParen && Self::is_type_start(self.peek_at(1)) {
                self.bump();
                let ty = self.parse_type()?;
                let ty = self.array_suffix(ty)?;
                self.expect(TokenKind::RParen)?;
                let span = start.merge(self.prev_span());
                return self.expr(span, ExprKind::SizeofType(ty));
            }
            let operand = self.nested(Self::unary_expr)?;
            let span = start.merge(operand.span);
            return self.expr(span, ExprKind::SizeofExpr(Box::new(operand)));
        }
        // Cast: '(' type ')' unary  — MinC has no typedefs, so a type keyword
        // after '(' is unambiguous.
        if self.peek() == &TokenKind::LParen && Self::is_type_start(self.peek_at(1)) {
            self.bump();
            let ty = self.parse_type()?;
            self.expect(TokenKind::RParen)?;
            let value = self.nested(Self::unary_expr)?;
            let span = start.merge(value.span);
            return self.expr(
                span,
                ExprKind::Cast {
                    to: ty,
                    value: Box::new(value),
                },
            );
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expression()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.merge(self.prev_span());
                    e = self.expr(
                        span,
                        ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                    )?;
                }
                TokenKind::Dot => {
                    self.bump();
                    let (field, fsp) = self.ident()?;
                    let span = e.span.merge(fsp);
                    e = self.expr(
                        span,
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                        },
                    )?;
                }
                TokenKind::Arrow => {
                    self.bump();
                    let (field, fsp) = self.ident()?;
                    let span = e.span.merge(fsp);
                    e = self.expr(
                        span,
                        ExprKind::Arrow {
                            base: Box::new(e),
                            field,
                        },
                    )?;
                }
                TokenKind::PlusPlus => {
                    self.bump();
                    let span = e.span.merge(self.prev_span());
                    e = self.expr(
                        span,
                        ExprKind::IncDec {
                            inc: true,
                            pre: false,
                            target: Box::new(e),
                        },
                    )?;
                }
                TokenKind::MinusMinus => {
                    self.bump();
                    let span = e.span.merge(self.prev_span());
                    e = self.expr(
                        span,
                        ExprKind::IncDec {
                            inc: false,
                            pre: false,
                            target: Box::new(e),
                        },
                    )?;
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, FrontendError> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::IntLit { value, long } => {
                self.bump();
                self.expr(start, ExprKind::IntLit { value, long })
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                self.expr(start, ExprKind::FloatLit(v))
            }
            TokenKind::CharLit(c) => {
                self.bump();
                self.expr(start, ExprKind::CharLit(c))
            }
            TokenKind::StrLit(bytes) => {
                self.bump();
                self.expr(start, ExprKind::StrLit(bytes))
            }
            TokenKind::KwLine => {
                self.bump();
                self.expr(start, ExprKind::Line)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.peek() == &TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.assignment_expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    let span = start.merge(self.prev_span());
                    self.expr(span, ExprKind::Call { callee: name, args })
                } else {
                    self.expr(start, ExprKind::Var(name))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expression()?;
                self.expect(TokenKind::RParen)?;
                // The parentheses count as a level of their own.
                if self.height(e.id) >= MAX_DEPTH {
                    return Err(self.too_deep());
                }
                self.heights[e.id.0 as usize] += 1;
                Ok(e)
            }
            other => Err(self.error(format!("expected expression, found {}", other.describe()))),
        }
    }
}

enum BinOpOrLogical {
    Bin(BinOp),
    Logical(bool),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse("int main() { return 0; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "main");
        assert_eq!(p.functions[0].ret, Type::Int);
    }

    #[test]
    fn parses_params_and_arrays() {
        let p = parse("int f(int a, char* s, int v[4]) { return a; }").unwrap();
        let f = &p.functions[0];
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[1].ty, Type::Char.ptr_to());
        // Array params decay to pointers.
        assert_eq!(f.params[2].ty, Type::Int.ptr_to());
    }

    #[test]
    fn parses_globals_and_structs() {
        let p = parse(
            "struct pkt { int len; char payload[16]; };\n\
             int counter = 3;\n\
             struct pkt g;\n\
             int main() { return counter; }",
        )
        .unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[1].ty, Type::Struct("pkt".into()));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("int main() { return 1 + 2 * 3; }").unwrap();
        let body = &p.functions[0].body;
        let StmtKind::Block(stmts) = &body.kind else {
            panic!()
        };
        let StmtKind::Return(Some(e)) = &stmts[0].kind else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = &e.kind
        else {
            panic!("expected top-level add, got {:?}", e.kind)
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_casts_and_sizeof() {
        let p = parse("int main() { long x = (long)1 * sizeof(int); return (int)x; }").unwrap();
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn parses_control_flow() {
        let src = "int main() {\n\
            int i;\n\
            for (i = 0; i < 10; i++) { if (i == 5) break; else continue; }\n\
            while (i > 0) i--;\n\
            do { i++; } while (i < 3);\n\
            return i;\n\
        }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parses_pointer_expressions() {
        let src = "int main() { int a[4]; int* p = &a[0]; *p = 1; p[1] = 2; return *(p + 1); }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parses_member_access() {
        let src = "struct s { int x; };\nint main() { struct s v; struct s* p = &v; v.x = 1; return p->x; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parses_ternary_and_logical() {
        let src = "int main() { int a = 1; return a && 0 || 1 ? a : -a; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parses_line_macro() {
        let p = parse("int main() { return __LINE__; }").unwrap();
        let StmtKind::Block(stmts) = &p.functions[0].body.kind else {
            panic!()
        };
        let StmtKind::Return(Some(e)) = &stmts[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Line));
    }

    #[test]
    fn parses_static_local() {
        let p = parse("char* f() { static char buffer[8]; return buffer; }").unwrap();
        let StmtKind::Block(stmts) = &p.functions[0].body.kind else {
            panic!()
        };
        assert!(matches!(
            stmts[0].kind,
            StmtKind::Decl {
                storage: Storage::Static,
                ..
            }
        ));
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse("int main() { return 0 }").is_err());
    }

    #[test]
    fn rejects_bad_array_size() {
        assert!(parse("int main() { int a[0]; return 0; }").is_err());
        assert!(parse("int main() { int a[x]; return 0; }").is_err());
    }

    /// One program per nesting shape, `n` levels deep.
    fn nested_programs(n: usize) -> [String; 11] {
        let main = |body: String| format!("int main() {{ int x = 1; int a[2]; {body} }}");
        [
            main(format!("return {}1{};", "(".repeat(n), ")".repeat(n))),
            main(format!("return {}1;", "!".repeat(n))),
            main(format!("return {}1;", "(int)".repeat(n))),
            main(format!("x = {}1; return x;", "x = ".repeat(n))),
            main(format!("return {}0;", "x ? 1 : ".repeat(n))),
            main(format!("return x{};", " + x".repeat(n))),
            main(format!("return a{};", "[0]".repeat(n))),
            main(format!("{}return 0;{}", "{".repeat(n), "}".repeat(n))),
            main(format!("{}return 0;", "if (x) ".repeat(n))),
            main(format!("int{} p = 0; return 0;", "*".repeat(n))),
            main(format!("int b{}; return 0;", "[1]".repeat(n))),
        ]
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error() {
        // Spawned threads get the default 2 MiB stack, like the worker
        // threads that parse outside sources: without the bound, these
        // programs abort the whole test process instead of failing.
        let results = std::thread::spawn(|| {
            nested_programs(100_000).map(|src| parse(&src).map(drop).map_err(|e| e.to_string()))
        })
        .join()
        .unwrap();
        for result in results {
            let msg = result.unwrap_err();
            assert!(msg.contains("parse error"), "{msg}");
            assert!(msg.contains("nesting deeper than"), "{msg}");
        }
    }

    #[test]
    fn nesting_up_to_the_bound_parses() {
        // `main`, its body and the innermost statement take three levels
        // around each shape's own; every shape stays well inside.
        for src in nested_programs(MAX_DEPTH as usize / 2) {
            assert!(parse(&src).is_ok(), "{}", &src[..60]);
        }
        // Exactly at the bound: `return` plus parentheses around a literal.
        let parens = |n: usize| {
            let e = format!("{}1{}", "(".repeat(n), ")".repeat(n));
            format!("int main() {{ return {e}; }}")
        };
        let fits = MAX_DEPTH as usize - 4;
        assert!(parse(&parens(fits)).is_ok());
        assert!(parse(&parens(fits + 1)).is_err());
    }

    /// The `.mc` files under `dir`, recursively, in path order.
    fn mc_files(dir: &std::path::Path, out: &mut Vec<(String, String)>) {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        for path in paths {
            if path.is_dir() {
                mc_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "mc") {
                let src = std::fs::read_to_string(&path).unwrap();
                out.push((path.display().to_string(), src));
            }
        }
    }

    #[test]
    fn node_ids_are_unique() {
        // The catalog, the progen goldens, 1,000 generated programs and
        // Juliet at scale 0.1.
        let mut programs: Vec<(String, String)> = targets::build_all()
            .into_iter()
            .map(|t| (t.spec.name.clone(), t.src))
            .collect();
        assert_eq!(programs.len(), 23);
        let goldens = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/progen");
        mc_files(std::path::Path::new(goldens), &mut programs);
        for i in 0..1000u64 {
            let g = progen::generate(&mut fuzzing::Rng::new(progen::mix(1, i)));
            programs.push((format!("progen/{i:04}"), g.source()));
        }
        for t in juliet::suite(0.1) {
            programs.push((format!("{}/bad", t.id), t.bad));
            programs.push((format!("{}/good", t.id), t.good));
        }
        assert!(programs.len() > 4_500, "{} programs", programs.len());
        for (name, src) in &programs {
            let p = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            // `Parser::fresh` numbers nodes densely, so walking every
            // function body and global initializer must meet each id of
            // `0..n` exactly once: a child the walk skips leaves a gap.
            let mut ids = Vec::new();
            for f in &p.functions {
                ids.push(f.id.0);
                f.body.walk(&mut |n| ids.push(n.id().0));
            }
            for g in &p.globals {
                ids.push(g.id.0);
                if let Some(init) = &g.init {
                    init.walk(&mut |n| ids.push(n.id().0));
                }
            }
            ids.sort_unstable();
            assert!(
                ids.iter().copied().eq(0..ids.len() as u32),
                "{name}: the walk does not visit node ids 0..{} exactly once",
                ids.len()
            );
        }
    }
}
