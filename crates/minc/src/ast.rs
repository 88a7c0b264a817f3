//! Abstract syntax tree for MinC.

use crate::span::{NodeId, Span};
use crate::types::Type;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x` (signed overflow on `INT_MIN` is UB).
    Neg,
    /// Logical not `!x`.
    Not,
    /// Bitwise not `~x`.
    BitNot,
    /// Pointer dereference `*p`.
    Deref,
    /// Address-of `&x`.
    Addr,
}

/// Binary operators (excluding assignment and short-circuit forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Equality (`==`).
    Eq,
    /// Inequality (`!=`).
    Ne,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
}

impl BinOp {
    /// True for `< <= > >=` — the relational operators whose use on
    /// pointers to different objects is UB (C11 §6.5.8).
    pub fn is_relational(&self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// True for `==`/`!=`, which are defined on any pointer pair.
    pub fn is_equality(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne)
    }

    /// True for operators producing an `int` 0/1 result.
    pub fn is_comparison(&self) -> bool {
        self.is_relational() || self.is_equality()
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Dense id for side tables (types, constant values).
    pub id: NodeId,
    /// Source location.
    pub span: Span,
    /// The expression's shape.
    pub kind: ExprKind,
}

/// Expression shapes.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are described by the variant docs
pub enum ExprKind {
    /// Integer literal (type `int`, or `long` with an `L` suffix).
    IntLit { value: i64, long: bool },
    /// Floating point literal.
    FloatLit(f64),
    /// Character literal (type `int`, like C).
    CharLit(u8),
    /// String literal (type `char*`, stored in rodata).
    StrLit(Vec<u8>),
    /// Variable reference.
    Var(String),
    /// `__LINE__`; the attributed line is implementation-defined for
    /// multi-line constructs.
    Line,
    /// Unary operation.
    Unary { op: UnOp, operand: Box<Expr> },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Short-circuit `&&` / `||`.
    Logical {
        and: bool,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Simple or compound assignment. `op` is `None` for `=`.
    Assign {
        op: Option<BinOp>,
        target: Box<Expr>,
        value: Box<Expr>,
    },
    /// Pre/post increment/decrement.
    IncDec {
        inc: bool,
        pre: bool,
        target: Box<Expr>,
    },
    /// Conditional expression `c ? t : e`.
    Cond {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    /// Function or builtin call. Argument evaluation *order* is
    /// implementation-defined — the heart of the EvalOrder bug class.
    Call { callee: String, args: Vec<Expr> },
    /// Array indexing `a[i]` (sugar for `*(a + i)`).
    Index { base: Box<Expr>, index: Box<Expr> },
    /// Struct member access `s.f`.
    Member { base: Box<Expr>, field: String },
    /// Struct member access through a pointer `p->f`.
    Arrow { base: Box<Expr>, field: String },
    /// Explicit cast `(T)e`.
    Cast { to: Type, value: Box<Expr> },
    /// `sizeof(T)` — evaluates to `long`.
    SizeofType(Type),
    /// `sizeof expr` — evaluates to `long`; the operand is not evaluated.
    SizeofExpr(Box<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Dense id for side tables.
    pub id: NodeId,
    /// Source location.
    pub span: Span,
    /// The statement's shape.
    pub kind: StmtKind,
}

/// Statement shapes.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are described by the variant docs
pub enum StmtKind {
    /// Local variable declaration, possibly `static`, possibly initialized.
    /// An uninitialized non-static local has an *indeterminate* value.
    Decl {
        name: String,
        ty: Type,
        storage: Storage,
        init: Option<Expr>,
    },
    /// Expression statement.
    Expr(Expr),
    /// Conditional.
    If {
        cond: Expr,
        then: Box<Stmt>,
        els: Option<Box<Stmt>>,
    },
    /// `while` loop.
    While { cond: Expr, body: Box<Stmt> },
    /// `do { } while (c);` loop.
    DoWhile { body: Box<Stmt>, cond: Expr },
    /// `for` loop; all three clauses optional. `init` may be a declaration.
    For {
        /// The init.
        init: Option<Box<Stmt>>,
        /// The cond.
        cond: Option<Expr>,
        /// The step.
        step: Option<Expr>,
        /// The body.
        body: Box<Stmt>,
    },
    /// `return e;` or `return;`.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// `;`
    Empty,
}

/// A node below a statement: what [`StmtKind::for_each_child`] and the
/// pre-order walks yield.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// An expression.
    Expr(&'a Expr),
    /// A statement.
    Stmt(&'a Stmt),
}

impl Node<'_> {
    /// The node's id.
    pub fn id(self) -> NodeId {
        match self {
            Node::Expr(e) => e.id,
            Node::Stmt(s) => s.id,
        }
    }
}

/// A mutable [`Node`].
#[derive(Debug)]
pub enum NodeMut<'a> {
    /// An expression.
    Expr(&'a mut Expr),
    /// A statement.
    Stmt(&'a mut Stmt),
}

// The one listing of each node type's children, in source order. Macros,
// so that the shared and the mutable enumeration come from the same
// match: `$f` receives each child borrowed the way `$kind` is, a
// statement's children wrapped in `$expr` or `$stmt`.
macro_rules! expr_children {
    ($kind:expr, $f:ident) => {
        match $kind {
            ExprKind::IntLit { .. }
            | ExprKind::FloatLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Var(_)
            | ExprKind::Line
            | ExprKind::SizeofType(_) => {}
            ExprKind::Unary { operand: e, .. }
            | ExprKind::IncDec { target: e, .. }
            | ExprKind::Member { base: e, .. }
            | ExprKind::Arrow { base: e, .. }
            | ExprKind::Cast { value: e, .. }
            | ExprKind::SizeofExpr(e) => $f(e),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Logical { lhs, rhs, .. } => {
                $f(lhs);
                $f(rhs);
            }
            ExprKind::Assign { target, value, .. } => {
                $f(target);
                $f(value);
            }
            ExprKind::Index { base, index } => {
                $f(base);
                $f(index);
            }
            ExprKind::Cond { cond, then, els } => {
                $f(cond);
                $f(then);
                $f(els);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    $f(a);
                }
            }
        }
    };
}

macro_rules! stmt_children {
    ($kind:expr, $f:ident, $expr:path, $stmt:path) => {
        match $kind {
            StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
            StmtKind::Decl { init: e, .. } | StmtKind::Return(e) => {
                if let Some(e) = e {
                    $f($expr(e));
                }
            }
            StmtKind::Expr(e) => $f($expr(e)),
            StmtKind::If { cond, then, els } => {
                $f($expr(cond));
                $f($stmt(then));
                if let Some(s) = els {
                    $f($stmt(s));
                }
            }
            StmtKind::While { cond, body } => {
                $f($expr(cond));
                $f($stmt(body));
            }
            StmtKind::DoWhile { body, cond } => {
                $f($stmt(body));
                $f($expr(cond));
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(s) = init {
                    $f($stmt(s));
                }
                if let Some(e) = cond {
                    $f($expr(e));
                }
                if let Some(e) = step {
                    $f($expr(e));
                }
                $f($stmt(body));
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    $f($stmt(s));
                }
            }
        }
    };
}

impl ExprKind {
    /// Visits the direct sub-expressions in source order. With
    /// [`ExprKind::for_each_child_mut`] this is the one definition of an
    /// expression's shape: every traversal that only recurses goes
    /// through it, and progen's mutators count nodes in this order.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        expr_children!(self, f)
    }

    /// [`ExprKind::for_each_child`], mutably.
    pub fn for_each_child_mut<'a>(&'a mut self, mut f: impl FnMut(&'a mut Expr)) {
        expr_children!(self, f)
    }
}

impl StmtKind {
    /// Visits the direct children — expressions and statements — in
    /// source order (`do body while (cond)` visits the body first). With
    /// [`StmtKind::for_each_child_mut`] this is the one definition of a
    /// statement's shape; the reducer's edit paths index its statement
    /// children in this order.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(Node<'a>)) {
        stmt_children!(self, f, Node::Expr, Node::Stmt)
    }

    /// [`StmtKind::for_each_child`], mutably.
    pub fn for_each_child_mut<'a>(&'a mut self, mut f: impl FnMut(NodeMut<'a>)) {
        stmt_children!(self, f, NodeMut::Expr, NodeMut::Stmt)
    }
}

impl Expr {
    /// Visits this expression and every node below it in pre-order,
    /// children in source order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        f(Node::Expr(self));
        self.kind.for_each_child(|e| e.walk(f));
    }

    /// [`Expr::walk`], mutably. A node is visited before its children
    /// are enumerated, so the children walked are those `f` leaves.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(NodeMut<'_>)) {
        f(NodeMut::Expr(self));
        self.kind.for_each_child_mut(|e| e.walk_mut(f));
    }
}

impl Stmt {
    /// Visits this statement and every node below it in pre-order,
    /// children in source order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        f(Node::Stmt(self));
        self.kind.for_each_child(|c| match c {
            Node::Expr(e) => e.walk(f),
            Node::Stmt(s) => s.walk(f),
        });
    }

    /// [`Stmt::walk`], mutably, visiting each node before its children
    /// like [`Expr::walk_mut`].
    pub fn walk_mut(&mut self, f: &mut impl FnMut(NodeMut<'_>)) {
        f(NodeMut::Stmt(self));
        self.kind.for_each_child_mut(|c| match c {
            NodeMut::Expr(e) => e.walk_mut(f),
            NodeMut::Stmt(s) => s.walk_mut(f),
        });
    }
}

/// Storage class of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Storage {
    /// Automatic storage (stack).
    #[default]
    Auto,
    /// `static` — one instance per program, zero-initialized if no
    /// initializer, retains its value across calls.
    Static,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type (arrays decay to pointers during checking).
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Dense id.
    pub id: NodeId,
    /// Function name; `main` is the entry point.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Body block.
    pub body: Stmt,
    /// Source location of the signature.
    pub span: Span,
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Dense id.
    pub id: NodeId,
    /// Name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional constant initializer (must be a constant expression).
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Struct tag.
    pub name: String,
    /// Fields in declaration order (offset assignment is the compiler's
    /// implementation-defined job).
    pub fields: Vec<Field>,
    /// Source location.
    pub span: Span,
}

/// A complete MinC translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Global variables.
    pub globals: Vec<Global>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a struct definition by tag.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_relational());
        assert!(!BinOp::Eq.is_relational());
        assert!(BinOp::Eq.is_equality());
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn program_lookup() {
        let p = Program::default();
        assert!(p.function("main").is_none());
        assert!(p.struct_def("s").is_none());
        assert!(p.global("g").is_none());
    }
}
