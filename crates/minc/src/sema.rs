//! Semantic analysis: name resolution and type checking.
//!
//! Produces a [`CheckedProgram`] with side tables that map AST nodes to
//! types and resolved symbols. Lowering (in `minc-compile`) consumes these
//! tables; it never re-resolves names.

use crate::ast::*;
use crate::diag::{Diagnostic, FrontendError, Phase};
use crate::span::{NodeId, Span};
use crate::types::{StructSizer, Type};
use std::collections::HashMap;

/// Identifies a local variable slot (parameters first, then declarations,
/// in syntactic order) within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalId(pub u32);

/// Identifies a `static` local promoted to program-lifetime storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaticId(pub u32);

/// What a variable reference resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRef {
    /// Index into [`Program::globals`].
    Global(u32),
    /// A local (parameter or automatic declaration) of the enclosing function.
    Local(LocalId),
    /// A `static` local of the enclosing function.
    StaticLocal(StaticId),
}

/// Metadata about one local slot.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalInfo {
    /// Source name.
    pub name: String,
    /// Declared type (arrays kept as arrays; parameter arrays already decayed).
    pub ty: Type,
    /// True for function parameters (always initialized at entry).
    pub is_param: bool,
    /// The declaring node: the `Decl` statement or the `Param`-owning function.
    pub decl: NodeId,
}

/// Metadata about one `static` local.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticInfo {
    /// Mangled name `function.variable`.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Constant initializer, if any (checked to be constant).
    pub init: Option<Expr>,
}

/// Per-function resolution results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FunctionInfo {
    /// All local slots; indices are [`LocalId`]s. Parameters come first.
    pub locals: Vec<LocalInfo>,
    /// All `static` locals; indices are [`StaticId`]s.
    pub statics: Vec<StaticInfo>,
}

/// Builtin functions provided by the MinC runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `printf(fmt, ...)`.
    Printf,
    /// `putchar(c)`.
    Putchar,
    /// `puts(s)`.
    Puts,
    /// `getchar()`.
    Getchar,
    /// `read_input(buf, n)` — copy up to `n` bytes of fuzz input.
    ReadInput,
    /// `input_size()` — total size of the fuzz input.
    InputSize,
    /// `malloc(n)`.
    Malloc,
    /// `free(p)`.
    Free,
    /// `memcpy(dst, src, n)`.
    Memcpy,
    /// `memset(p, v, n)`.
    Memset,
    /// `strlen(s)`.
    Strlen,
    /// `strcpy(dst, src)`.
    Strcpy,
    /// `strncpy(dst, src, n)`.
    Strncpy,
    /// `strcmp(a, b)`.
    Strcmp,
    /// `exit(code)`.
    Exit,
    /// `abort()`.
    Abort,
    /// `pow(x, y)`.
    Pow,
    /// `sqrt(x)`.
    Sqrt,
    /// `floor(x)`.
    Floor,
    /// `atoi(s)`.
    Atoi,
    /// `rand()` — implementation-defined PRNG sequence.
    Rand,
}

impl Builtin {
    /// Resolves a builtin by source name.
    pub fn by_name(name: &str) -> Option<Builtin> {
        use Builtin::*;
        Some(match name {
            "printf" => Printf,
            "putchar" => Putchar,
            "puts" => Puts,
            "getchar" => Getchar,
            "read_input" => ReadInput,
            "input_size" => InputSize,
            "malloc" => Malloc,
            "free" => Free,
            "memcpy" => Memcpy,
            "memset" => Memset,
            "strlen" => Strlen,
            "strcpy" => Strcpy,
            "strncpy" => Strncpy,
            "strcmp" => Strcmp,
            "exit" => Exit,
            "abort" => Abort,
            "pow" => Pow,
            "sqrt" => Sqrt,
            "floor" => Floor,
            "atoi" => Atoi,
            "rand" => Rand,
            _ => return None,
        })
    }

    /// `(params, variadic, return type)`. `None` in a parameter slot means
    /// "any pointer".
    pub fn signature(&self) -> (Vec<Option<Type>>, bool, Type) {
        use Builtin::*;
        let cp = Some(Type::Char.ptr_to());
        let vp: Option<Type> = None; // any pointer
        match self {
            Printf => (vec![cp.clone()], true, Type::Int),
            Putchar => (vec![Some(Type::Int)], false, Type::Int),
            Puts => (vec![cp.clone()], false, Type::Int),
            Getchar => (vec![], false, Type::Int),
            ReadInput => (vec![vp.clone(), Some(Type::Long)], false, Type::Long),
            InputSize => (vec![], false, Type::Long),
            Malloc => (vec![Some(Type::Long)], false, Type::Void.ptr_to()),
            Free => (vec![vp.clone()], false, Type::Void),
            Memcpy => (
                vec![vp.clone(), vp.clone(), Some(Type::Long)],
                false,
                Type::Void.ptr_to(),
            ),
            Memset => (
                vec![vp.clone(), Some(Type::Int), Some(Type::Long)],
                false,
                Type::Void.ptr_to(),
            ),
            Strlen => (vec![cp.clone()], false, Type::Long),
            Strcpy => (vec![cp.clone(), cp.clone()], false, Type::Char.ptr_to()),
            Strncpy => (
                vec![cp.clone(), cp.clone(), Some(Type::Long)],
                false,
                Type::Char.ptr_to(),
            ),
            Strcmp => (vec![cp.clone(), cp], false, Type::Int),
            Exit => (vec![Some(Type::Int)], false, Type::Void),
            Abort => (vec![], false, Type::Void),
            Pow => (
                vec![Some(Type::Double), Some(Type::Double)],
                false,
                Type::Double,
            ),
            Sqrt => (vec![Some(Type::Double)], false, Type::Double),
            Floor => (vec![Some(Type::Double)], false, Type::Double),
            Atoi => (vec![cp], false, Type::Int),
            Rand => (vec![], false, Type::Int),
        }
    }
}

/// What a call site resolved to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// A user-defined function (index into [`Program::functions`]).
    Function(u32),
    /// A runtime builtin.
    Builtin(Builtin),
}

/// A type-checked program plus resolution side tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedProgram {
    /// The syntax tree.
    pub program: Program,
    /// Type of every expression node (arrays *not* yet decayed — lowering
    /// applies decay at use sites).
    pub types: HashMap<NodeId, Type>,
    /// Resolution of every `Var` node.
    pub vars: HashMap<NodeId, VarRef>,
    /// Resolution of every `Call` node.
    pub calls: HashMap<NodeId, CallTarget>,
    /// Local slot of every `Decl` statement node (automatic storage).
    pub decl_slots: HashMap<NodeId, LocalId>,
    /// Static slot of every `static` `Decl` statement node.
    pub static_slots: HashMap<NodeId, StaticId>,
    /// Per-function local/static inventories, indexed like `program.functions`.
    pub function_info: Vec<FunctionInfo>,
}

impl StructSizer for CheckedProgram {
    fn packed_size(&self, name: &str) -> u64 {
        let def = self.program.struct_def(name).expect("unknown struct");
        def.fields.iter().map(|f| f.ty.size_packed(self)).sum()
    }
    fn align(&self, name: &str) -> u64 {
        let def = self.program.struct_def(name).expect("unknown struct");
        def.fields
            .iter()
            .map(|f| f.ty.align(self))
            .max()
            .unwrap_or(1)
    }
}

/// Parses and checks `src` in one step.
///
/// # Errors
///
/// Returns the first frontend error encountered.
///
/// ```
/// let checked = minc::check("int main() { return 1 + 2; }").unwrap();
/// assert_eq!(checked.program.functions.len(), 1);
/// ```
pub fn check(src: &str) -> Result<CheckedProgram, FrontendError> {
    let program = crate::parser::parse(src)?;
    check_program(program)
}

/// Type-checks a parsed program.
///
/// # Errors
///
/// Returns a [`FrontendError`] describing the first semantic error: unknown
/// names, type mismatches, invalid lvalues, duplicate definitions, missing
/// or ill-typed `main`, non-constant global initializers.
pub fn check_program(program: Program) -> Result<CheckedProgram, FrontendError> {
    let mut checker = Checker::new(&program)?;
    for (idx, g) in program.globals.iter().enumerate() {
        checker.check_global(idx, g)?;
    }
    let mut infos = Vec::new();
    for (idx, f) in program.functions.iter().enumerate() {
        infos.push(checker.check_function(idx as u32, f)?);
    }
    if let Some(main) = program.function("main") {
        if main.ret != Type::Int || !main.params.is_empty() {
            return Err(err(main.span, "`main` must be declared as `int main()`"));
        }
    } else {
        return Err(err(Span::dummy(), "program has no `main` function"));
    }
    Ok(CheckedProgram {
        types: checker.types,
        vars: checker.vars,
        calls: checker.calls,
        decl_slots: checker.decl_slots,
        static_slots: checker.static_slots,
        function_info: infos,
        program,
    })
}

fn err(span: Span, msg: impl Into<String>) -> FrontendError {
    Diagnostic::new(Phase::Sema, span, msg).into()
}

struct Checker<'p> {
    program: &'p Program,
    struct_index: HashMap<&'p str, &'p StructDef>,
    global_index: HashMap<&'p str, u32>,
    func_index: HashMap<&'p str, u32>,
    types: HashMap<NodeId, Type>,
    vars: HashMap<NodeId, VarRef>,
    calls: HashMap<NodeId, CallTarget>,
    decl_slots: HashMap<NodeId, LocalId>,
    static_slots: HashMap<NodeId, StaticId>,
}

struct FnCtx<'p> {
    func: &'p Function,
    info: FunctionInfo,
    /// Lexical scopes; each maps a name to a local or static slot.
    scopes: Vec<HashMap<String, VarRef>>,
    loop_depth: u32,
}

impl<'p> Checker<'p> {
    fn new(program: &'p Program) -> Result<Self, FrontendError> {
        let mut struct_index = HashMap::new();
        for s in &program.structs {
            if struct_index.insert(s.name.as_str(), s).is_some() {
                return Err(err(s.span, format!("duplicate struct `{}`", s.name)));
            }
            let mut names = std::collections::HashSet::new();
            for f in &s.fields {
                if !names.insert(f.name.as_str()) {
                    return Err(err(f.span, format!("duplicate field `{}`", f.name)));
                }
            }
        }
        let mut checker = Checker {
            program,
            struct_index,
            global_index: HashMap::new(),
            func_index: HashMap::new(),
            types: HashMap::new(),
            vars: HashMap::new(),
            calls: HashMap::new(),
            decl_slots: HashMap::new(),
            static_slots: HashMap::new(),
        };
        // Validate structs are complete & non-recursive (value fields only).
        for s in &program.structs {
            checker.check_struct_acyclic(s, &mut Vec::new())?;
            for f in &s.fields {
                checker.validate_type(&f.ty, f.span)?;
            }
        }
        for (i, g) in program.globals.iter().enumerate() {
            checker.validate_type(&g.ty, g.span)?;
            if g.ty == Type::Void {
                return Err(err(g.span, "global cannot have type void"));
            }
            if checker
                .global_index
                .insert(g.name.as_str(), i as u32)
                .is_some()
            {
                return Err(err(g.span, format!("duplicate global `{}`", g.name)));
            }
        }
        for (i, f) in program.functions.iter().enumerate() {
            if Builtin::by_name(&f.name).is_some() {
                return Err(err(f.span, format!("`{}` shadows a builtin", f.name)));
            }
            if checker
                .func_index
                .insert(f.name.as_str(), i as u32)
                .is_some()
            {
                return Err(err(f.span, format!("duplicate function `{}`", f.name)));
            }
        }
        Ok(checker)
    }

    fn check_struct_acyclic(
        &self,
        s: &'p StructDef,
        stack: &mut Vec<&'p str>,
    ) -> Result<(), FrontendError> {
        if stack.contains(&s.name.as_str()) {
            return Err(err(
                s.span,
                format!("struct `{}` recursively contains itself", s.name),
            ));
        }
        stack.push(&s.name);
        for f in &s.fields {
            let mut ty = &f.ty;
            while let Type::Array(inner, _) = ty {
                ty = inner;
            }
            if let Type::Struct(name) = ty {
                let inner = self
                    .struct_index
                    .get(name.as_str())
                    .ok_or_else(|| err(f.span, format!("unknown struct `{name}`")))?;
                self.check_struct_acyclic(inner, stack)?;
            }
        }
        stack.pop();
        Ok(())
    }

    fn validate_type(&self, ty: &Type, span: Span) -> Result<(), FrontendError> {
        match ty {
            Type::Struct(name) => {
                if !self.struct_index.contains_key(name.as_str()) {
                    return Err(err(span, format!("unknown struct `{name}`")));
                }
                Ok(())
            }
            Type::Ptr(t) => match &**t {
                Type::Struct(name) if !self.struct_index.contains_key(name.as_str()) => {
                    Err(err(span, format!("unknown struct `{name}`")))
                }
                _ => Ok(()),
            },
            Type::Array(t, _) => {
                if **t == Type::Void {
                    return Err(err(span, "array of void"));
                }
                self.validate_type(t, span)
            }
            _ => Ok(()),
        }
    }

    fn check_global(&mut self, _idx: usize, g: &Global) -> Result<(), FrontendError> {
        if let Some(init) = &g.init {
            if !is_const_expr(init) {
                return Err(err(
                    init.span,
                    "global initializer must be a constant expression",
                ));
            }
            // Type the initializer in a degenerate context (no locals).
            let mut ctx = FnCtx {
                func: self.program.functions.first().unwrap_or(&DUMMY_FN),
                info: FunctionInfo::default(),
                scopes: vec![HashMap::new()],
                loop_depth: 0,
            };
            let ity = self.check_expr(&mut ctx, init)?;
            if !assignable(&g.ty, &ity.decay(), init) {
                return Err(err(
                    init.span,
                    format!("cannot initialize `{}` with `{}`", g.ty, ity),
                ));
            }
            check_init_strings("global", &g.name, &g.ty, init)?;
        }
        Ok(())
    }

    fn check_function(
        &mut self,
        _idx: u32,
        f: &'p Function,
    ) -> Result<FunctionInfo, FrontendError> {
        self.validate_type(&f.ret, f.span)?;
        let mut ctx = FnCtx {
            func: f,
            info: FunctionInfo::default(),
            scopes: vec![HashMap::new()],
            loop_depth: 0,
        };
        for p in &f.params {
            self.validate_type(&p.ty, p.span)?;
            if p.ty == Type::Void {
                return Err(err(p.span, "parameter cannot have type void"));
            }
            if matches!(p.ty, Type::Struct(_)) {
                return Err(err(p.span, "struct parameters must be passed by pointer"));
            }
            let id = LocalId(ctx.info.locals.len() as u32);
            ctx.info.locals.push(LocalInfo {
                name: p.name.clone(),
                ty: p.ty.clone(),
                is_param: true,
                decl: f.id,
            });
            let scope = ctx.scopes.last_mut().unwrap();
            if scope.insert(p.name.clone(), VarRef::Local(id)).is_some() {
                return Err(err(p.span, format!("duplicate parameter `{}`", p.name)));
            }
        }
        if matches!(f.ret, Type::Struct(_) | Type::Array(..)) {
            return Err(err(
                f.span,
                "functions cannot return structs or arrays by value",
            ));
        }
        self.check_stmt(&mut ctx, &f.body)?;
        Ok(ctx.info)
    }

    fn lookup(&self, ctx: &FnCtx<'_>, name: &str) -> Option<VarRef> {
        for scope in ctx.scopes.iter().rev() {
            if let Some(r) = scope.get(name) {
                return Some(*r);
            }
        }
        self.global_index.get(name).map(|&i| VarRef::Global(i))
    }

    fn var_type(&self, ctx: &FnCtx<'_>, r: VarRef) -> Type {
        match r {
            VarRef::Global(i) => self.program.globals[i as usize].ty.clone(),
            VarRef::Local(LocalId(i)) => ctx.info.locals[i as usize].ty.clone(),
            VarRef::StaticLocal(StaticId(i)) => ctx.info.statics[i as usize].ty.clone(),
        }
    }

    fn check_stmt(&mut self, ctx: &mut FnCtx<'p>, s: &Stmt) -> Result<(), FrontendError> {
        match &s.kind {
            StmtKind::Decl {
                name,
                ty,
                storage,
                init,
            } => {
                self.validate_type(ty, s.span)?;
                if *ty == Type::Void {
                    return Err(err(s.span, "variable cannot have type void"));
                }
                let r = match storage {
                    Storage::Auto => {
                        let id = LocalId(ctx.info.locals.len() as u32);
                        ctx.info.locals.push(LocalInfo {
                            name: name.clone(),
                            ty: ty.clone(),
                            is_param: false,
                            decl: s.id,
                        });
                        self.decl_slots.insert(s.id, id);
                        VarRef::Local(id)
                    }
                    Storage::Static => {
                        if let Some(init) = init {
                            if !is_const_expr(init) {
                                return Err(err(
                                    init.span,
                                    "static local initializer must be a constant expression",
                                ));
                            }
                        }
                        let id = StaticId(ctx.info.statics.len() as u32);
                        ctx.info.statics.push(StaticInfo {
                            name: format!("{}.{}", ctx.func.name, name),
                            ty: ty.clone(),
                            init: init.clone(),
                        });
                        self.static_slots.insert(s.id, id);
                        VarRef::StaticLocal(id)
                    }
                };
                if let Some(init) = init {
                    let ity = self.check_expr(ctx, init)?;
                    if !assignable(ty, &ity.decay(), init) {
                        return Err(err(
                            init.span,
                            format!("cannot initialize `{ty}` with `{ity}`"),
                        ));
                    }
                    if *storage == Storage::Static {
                        check_init_strings("static local", name, ty, init)?;
                    }
                }
                let scope = ctx.scopes.last_mut().unwrap();
                if scope.insert(name.clone(), r).is_some() {
                    return Err(err(s.span, format!("duplicate variable `{name}` in scope")));
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.check_expr(ctx, e)?;
                Ok(())
            }
            StmtKind::If { cond, then, els } => {
                self.check_cond(ctx, cond)?;
                self.check_stmt(ctx, then)?;
                if let Some(e) = els {
                    self.check_stmt(ctx, e)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.check_cond(ctx, cond)?;
                ctx.loop_depth += 1;
                self.check_stmt(ctx, body)?;
                ctx.loop_depth -= 1;
                Ok(())
            }
            StmtKind::DoWhile { body, cond } => {
                ctx.loop_depth += 1;
                self.check_stmt(ctx, body)?;
                ctx.loop_depth -= 1;
                self.check_cond(ctx, cond)?;
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                ctx.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.check_stmt(ctx, i)?;
                }
                if let Some(c) = cond {
                    self.check_cond(ctx, c)?;
                }
                if let Some(st) = step {
                    self.check_expr(ctx, st)?;
                }
                ctx.loop_depth += 1;
                self.check_stmt(ctx, body)?;
                ctx.loop_depth -= 1;
                ctx.scopes.pop();
                Ok(())
            }
            StmtKind::Return(value) => match (value, &ctx.func.ret) {
                (None, Type::Void) => Ok(()),
                (None, ret) => Err(err(
                    s.span,
                    format!("function returns `{ret}`, missing value"),
                )),
                (Some(v), Type::Void) => Err(err(v.span, "void function cannot return a value")),
                (Some(v), ret) => {
                    let vt = self.check_expr(ctx, v)?;
                    if !assignable(ret, &vt.decay(), v) {
                        return Err(err(
                            v.span,
                            format!("cannot return `{vt}` from function returning `{ret}`"),
                        ));
                    }
                    Ok(())
                }
            },
            StmtKind::Break | StmtKind::Continue => {
                if ctx.loop_depth == 0 {
                    return Err(err(s.span, "break/continue outside a loop"));
                }
                Ok(())
            }
            StmtKind::Block(stmts) => {
                ctx.scopes.push(HashMap::new());
                for st in stmts {
                    self.check_stmt(ctx, st)?;
                }
                ctx.scopes.pop();
                Ok(())
            }
            StmtKind::Empty => Ok(()),
        }
    }

    fn check_cond(&mut self, ctx: &mut FnCtx<'p>, e: &Expr) -> Result<(), FrontendError> {
        let t = self.check_expr(ctx, e)?;
        if !t.decay().is_scalar() {
            return Err(err(
                e.span,
                format!("condition must be scalar, found `{t}`"),
            ));
        }
        Ok(())
    }

    fn check_expr(&mut self, ctx: &mut FnCtx<'p>, e: &Expr) -> Result<Type, FrontendError> {
        let ty = self.infer_expr(ctx, e)?;
        self.types.insert(e.id, ty.clone());
        Ok(ty)
    }

    fn infer_expr(&mut self, ctx: &mut FnCtx<'p>, e: &Expr) -> Result<Type, FrontendError> {
        match &e.kind {
            ExprKind::IntLit { long, .. } => Ok(if *long { Type::Long } else { Type::Int }),
            ExprKind::FloatLit(_) => Ok(Type::Double),
            ExprKind::CharLit(_) => Ok(Type::Int),
            ExprKind::StrLit(_) => Ok(Type::Char.ptr_to()),
            ExprKind::Line => Ok(Type::Int),
            ExprKind::Var(name) => {
                let r = self
                    .lookup(ctx, name)
                    .ok_or_else(|| err(e.span, format!("unknown variable `{name}`")))?;
                self.vars.insert(e.id, r);
                Ok(self.var_type(ctx, r))
            }
            ExprKind::Unary { op, operand } => {
                let t = self.check_expr(ctx, operand)?;
                match op {
                    UnOp::Neg => {
                        if !t.decay().is_arithmetic() {
                            return Err(err(e.span, format!("cannot negate `{t}`")));
                        }
                        Ok(if t == Type::Double {
                            Type::Double
                        } else {
                            t.promote()
                        })
                    }
                    UnOp::Not => {
                        if !t.decay().is_scalar() {
                            return Err(err(e.span, format!("cannot apply `!` to `{t}`")));
                        }
                        Ok(Type::Int)
                    }
                    UnOp::BitNot => {
                        if !t.decay().is_integer() {
                            return Err(err(e.span, format!("cannot apply `~` to `{t}`")));
                        }
                        Ok(t.promote())
                    }
                    UnOp::Deref => {
                        let d = t.decay();
                        let pointee = d
                            .pointee()
                            .ok_or_else(|| err(e.span, format!("cannot dereference `{t}`")))?;
                        if *pointee == Type::Void {
                            return Err(err(e.span, "cannot dereference void pointer"));
                        }
                        Ok(pointee.clone())
                    }
                    UnOp::Addr => {
                        if !is_lvalue(operand) {
                            return Err(err(e.span, "cannot take address of a non-lvalue"));
                        }
                        Ok(t.ptr_to())
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(ctx, lhs)?.decay();
                let rt = self.check_expr(ctx, rhs)?.decay();
                self.binary_type(e.span, *op, &lt, &rt, lhs, rhs)
            }
            ExprKind::Logical { lhs, rhs, .. } => {
                for side in [lhs, rhs] {
                    let t = self.check_expr(ctx, side)?;
                    if !t.decay().is_scalar() {
                        return Err(err(
                            side.span,
                            format!("operand of logical op must be scalar, found `{t}`"),
                        ));
                    }
                }
                Ok(Type::Int)
            }
            ExprKind::Assign { op, target, value } => {
                if !is_lvalue(target) {
                    return Err(err(target.span, "assignment target is not an lvalue"));
                }
                let tt = self.check_expr(ctx, target)?;
                if matches!(tt, Type::Array(..)) {
                    return Err(err(target.span, "cannot assign to an array"));
                }
                let vt = self.check_expr(ctx, value)?.decay();
                if let Some(op) = op {
                    // Compound assignment: target op value must type-check.
                    self.binary_type(e.span, *op, &tt.decay(), &vt, target, value)?;
                } else if !assignable(&tt, &vt, value) {
                    return Err(err(e.span, format!("cannot assign `{vt}` to `{tt}`")));
                }
                Ok(tt)
            }
            ExprKind::IncDec { target, .. } => {
                if !is_lvalue(target) {
                    return Err(err(target.span, "operand of ++/-- is not an lvalue"));
                }
                let t = self.check_expr(ctx, target)?;
                let d = t.decay();
                if !d.is_integer() && !d.is_pointer() {
                    return Err(err(e.span, format!("cannot increment `{t}`")));
                }
                if matches!(t, Type::Array(..)) {
                    return Err(err(e.span, "cannot increment an array"));
                }
                Ok(t)
            }
            ExprKind::Cond { cond, then, els } => {
                self.check_cond(ctx, cond)?;
                let tt = self.check_expr(ctx, then)?.decay();
                let et = self.check_expr(ctx, els)?.decay();
                if tt.is_arithmetic() && et.is_arithmetic() {
                    Ok(Type::usual_arithmetic(&tt, &et))
                } else if tt.is_pointer() && (et.is_pointer() || is_null_literal(els)) {
                    Ok(tt)
                } else if et.is_pointer() && is_null_literal(then) {
                    Ok(et)
                } else if tt == Type::Void && et == Type::Void {
                    Ok(Type::Void)
                } else {
                    Err(err(
                        e.span,
                        format!("incompatible ternary branches `{tt}` and `{et}`"),
                    ))
                }
            }
            ExprKind::Call { callee, args } => {
                let target = if let Some(&i) = self.func_index.get(callee.as_str()) {
                    CallTarget::Function(i)
                } else if let Some(b) = Builtin::by_name(callee) {
                    CallTarget::Builtin(b)
                } else {
                    return Err(err(e.span, format!("unknown function `{callee}`")));
                };
                self.calls.insert(e.id, target.clone());
                let (params, variadic, ret): (Vec<Option<Type>>, bool, Type) = match &target {
                    CallTarget::Function(i) => {
                        let f = &self.program.functions[*i as usize];
                        (
                            f.params.iter().map(|p| Some(p.ty.clone())).collect(),
                            false,
                            f.ret.clone(),
                        )
                    }
                    CallTarget::Builtin(b) => b.signature(),
                };
                if args.len() < params.len() || (!variadic && args.len() > params.len()) {
                    return Err(err(
                        e.span,
                        format!(
                            "`{callee}` expects {} argument(s), got {}",
                            params.len(),
                            args.len()
                        ),
                    ));
                }
                for (i, a) in args.iter().enumerate() {
                    let at = self.check_expr(ctx, a)?.decay();
                    if let Some(Some(pt)) = params.get(i) {
                        if !assignable(pt, &at, a) {
                            return Err(err(
                                a.span,
                                format!(
                                    "argument {} of `{callee}`: cannot pass `{at}` as `{pt}`",
                                    i + 1
                                ),
                            ));
                        }
                    } else if let Some(None) = params.get(i) {
                        if !at.is_pointer() && !is_null_literal(a) {
                            return Err(err(
                                a.span,
                                format!(
                                    "argument {} of `{callee}` must be a pointer, found `{at}`",
                                    i + 1
                                ),
                            ));
                        }
                    } else if !at.is_scalar() {
                        // Variadic extras must be scalar.
                        return Err(err(a.span, format!("cannot pass `{at}` variadically")));
                    }
                }
                Ok(ret)
            }
            ExprKind::Index { base, index } => {
                let bt = self.check_expr(ctx, base)?.decay();
                let it = self.check_expr(ctx, index)?.decay();
                if !it.is_integer() {
                    return Err(err(
                        index.span,
                        format!("array index must be an integer, found `{it}`"),
                    ));
                }
                let pointee = bt
                    .pointee()
                    .ok_or_else(|| err(base.span, format!("cannot index `{bt}`")))?;
                Ok(pointee.clone())
            }
            ExprKind::Member { base, field } => {
                let bt = self.check_expr(ctx, base)?;
                let Type::Struct(name) = &bt else {
                    return Err(err(base.span, format!("`.` applied to non-struct `{bt}`")));
                };
                self.field_type(name, field, e.span)
            }
            ExprKind::Arrow { base, field } => {
                let bt = self.check_expr(ctx, base)?.decay();
                let Some(Type::Struct(name)) = bt.pointee().cloned() else {
                    return Err(err(base.span, format!("`->` applied to `{bt}`")));
                };
                self.field_type(&name, field, e.span)
            }
            ExprKind::Cast { to, value } => {
                self.validate_type(to, e.span)?;
                let vt = self.check_expr(ctx, value)?.decay();
                let ok = match (to, &vt) {
                    (Type::Void, _) => true,
                    (t, v) if t.is_arithmetic() && v.is_arithmetic() => true,
                    (Type::Ptr(_), Type::Ptr(_)) => true,
                    (Type::Ptr(_), v) if v.is_integer() => true,
                    (t, Type::Ptr(_)) if t.is_integer() => true,
                    _ => false,
                };
                if !ok {
                    return Err(err(e.span, format!("invalid cast from `{vt}` to `{to}`")));
                }
                Ok(to.clone())
            }
            ExprKind::SizeofType(ty) => {
                self.validate_type(ty, e.span)?;
                if *ty == Type::Void {
                    return Err(err(e.span, "sizeof(void) is invalid"));
                }
                Ok(Type::Long)
            }
            ExprKind::SizeofExpr(inner) => {
                let t = self.check_expr(ctx, inner)?;
                if t == Type::Void {
                    return Err(err(e.span, "sizeof of void expression"));
                }
                Ok(Type::Long)
            }
        }
    }

    fn field_type(
        &self,
        struct_name: &str,
        field: &str,
        span: Span,
    ) -> Result<Type, FrontendError> {
        let def = self
            .struct_index
            .get(struct_name)
            .ok_or_else(|| err(span, format!("unknown struct `{struct_name}`")))?;
        def.fields
            .iter()
            .find(|f| f.name == field)
            .map(|f| f.ty.clone())
            .ok_or_else(|| {
                err(
                    span,
                    format!("struct `{struct_name}` has no field `{field}`"),
                )
            })
    }

    fn binary_type(
        &self,
        span: Span,
        op: BinOp,
        lt: &Type,
        rt: &Type,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<Type, FrontendError> {
        use BinOp::*;
        match op {
            Add => {
                if lt.is_arithmetic() && rt.is_arithmetic() {
                    Ok(Type::usual_arithmetic(lt, rt))
                } else if lt.is_pointer() && rt.is_integer() {
                    Ok(lt.clone())
                } else if lt.is_integer() && rt.is_pointer() {
                    Ok(rt.clone())
                } else {
                    Err(err(span, format!("cannot add `{lt}` and `{rt}`")))
                }
            }
            Sub => {
                if lt.is_arithmetic() && rt.is_arithmetic() {
                    Ok(Type::usual_arithmetic(lt, rt))
                } else if lt.is_pointer() && rt.is_integer() {
                    Ok(lt.clone())
                } else if lt.is_pointer() && rt.is_pointer() {
                    // Pointer subtraction: UB across objects (CWE-469).
                    Ok(Type::Long)
                } else {
                    Err(err(span, format!("cannot subtract `{rt}` from `{lt}`")))
                }
            }
            Mul | Div => {
                if lt.is_arithmetic() && rt.is_arithmetic() {
                    Ok(Type::usual_arithmetic(lt, rt))
                } else {
                    Err(err(span, format!("invalid operands `{lt}` and `{rt}`")))
                }
            }
            Rem | BitAnd | BitOr | BitXor => {
                if lt.is_integer() && rt.is_integer() {
                    Ok(Type::usual_arithmetic(lt, rt))
                } else {
                    Err(err(span, format!("invalid operands `{lt}` and `{rt}`")))
                }
            }
            Shl | Shr => {
                if lt.is_integer() && rt.is_integer() {
                    Ok(lt.promote())
                } else {
                    Err(err(
                        span,
                        format!("invalid shift operands `{lt}` and `{rt}`"),
                    ))
                }
            }
            Lt | Le | Gt | Ge | Eq | Ne => {
                let ok = (lt.is_arithmetic() && rt.is_arithmetic())
                    || (lt.is_pointer() && rt.is_pointer())
                    || (lt.is_pointer() && is_null_literal(rhs))
                    || (rt.is_pointer() && is_null_literal(lhs));
                if ok {
                    Ok(Type::Int)
                } else {
                    Err(err(span, format!("cannot compare `{lt}` and `{rt}`")))
                }
            }
        }
    }
}

static DUMMY_FN: std::sync::LazyLock<Function> = std::sync::LazyLock::new(|| Function {
    id: NodeId(u32::MAX),
    name: String::new(),
    ret: Type::Void,
    params: Vec::new(),
    body: Stmt {
        id: NodeId(u32::MAX),
        span: Span::dummy(),
        kind: StmtKind::Empty,
    },
    span: Span::dummy(),
});

/// True if `e` can appear on the left of `=` / under `&`.
pub fn is_lvalue(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Var(_)
            | ExprKind::Index { .. }
            | ExprKind::Member { .. }
            | ExprKind::Arrow { .. }
            | ExprKind::Unary {
                op: UnOp::Deref,
                ..
            }
    )
}

/// True for the integer literal `0` (a null pointer constant).
pub fn is_null_literal(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::IntLit { value: 0, .. })
        || matches!(&e.kind, ExprKind::Cast { to, value } if to.is_pointer() && is_null_literal(value))
}

/// Conservative constant-expression test for global/static initializers.
pub fn is_const_expr(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::IntLit { .. }
        | ExprKind::FloatLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::StrLit(_) => true,
        ExprKind::Unary {
            op: UnOp::Neg | UnOp::BitNot | UnOp::Not,
            operand,
        } => is_const_expr(operand),
        ExprKind::Binary { lhs, rhs, .. } => is_const_expr(lhs) && is_const_expr(rhs),
        ExprKind::Cast { value, .. } => is_const_expr(value),
        ExprKind::SizeofType(_) => true,
        _ => false,
    }
}

/// A string literal's address is fixed only at load time, so no constant
/// folds through it: in a global or static initializer it may only be the
/// whole value of a pointer or `long`, optionally cast to one.
fn check_init_strings(kind: &str, name: &str, ty: &Type, init: &Expr) -> Result<(), FrontendError> {
    /// The first string literal in `e` whose address would meet
    /// arithmetic, or a conversion to a type other than a pointer or
    /// `long`; `holds` says whether `e`'s value is kept as an address.
    fn stray(e: &Expr, holds: bool) -> Option<Span> {
        match &e.kind {
            ExprKind::StrLit(_) => (!holds).then_some(e.span),
            ExprKind::Cast { to, value } => {
                stray(value, holds && (to.is_pointer() || *to == Type::Long))
            }
            ExprKind::Unary { operand, .. } => stray(operand, false),
            ExprKind::Binary { lhs, rhs, .. } => stray(lhs, false).or_else(|| stray(rhs, false)),
            _ => None,
        }
    }
    match stray(init, ty.is_pointer() || *ty == Type::Long) {
        Some(span) => Err(err(
            span,
            format!(
                "{kind} initializer of `{name}`: a string literal can only be the whole \
                 value of a pointer or `long`"
            ),
        )),
        None => Ok(()),
    }
}

/// Implicit-conversion check: can a value of `from` initialize/assign a
/// location of type `to`? `value` allows the null-literal special case.
pub fn assignable(to: &Type, from: &Type, value: &Expr) -> bool {
    if matches!(to, Type::Struct(_) | Type::Array(..)) {
        // MinC has no whole-aggregate assignment; use field writes/memcpy.
        return false;
    }
    if to == from {
        return true;
    }
    if to.is_arithmetic() && from.is_arithmetic() {
        return true;
    }
    if to.is_pointer() && from.is_pointer() {
        // MinC is permissive: any pointer converts to any pointer (C would
        // warn; real-world fuzz targets do this all the time).
        return true;
    }
    if to.is_pointer() && is_null_literal(value) {
        return true;
    }
    // Array locations can be initialized from compatible pointers only via
    // memcpy; disallow direct assignment.
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<CheckedProgram, FrontendError> {
        check_program(parse(src).unwrap())
    }

    #[test]
    fn accepts_listing1_style_program() {
        let src = r#"
            int dump_data(int offset, int len) {
                int size = 100;
                if (offset + len > size || offset < 0 || len < 0) { return -1; }
                if (offset + len < offset) { return -1; }
                return 0;
            }
            int main() { return dump_data(3, 4); }
        "#;
        let c = check_src(src).unwrap();
        assert_eq!(c.program.functions.len(), 2);
        assert_eq!(c.function_info[0].locals.len(), 3); // offset, len, size
    }

    #[test]
    fn types_pointer_arithmetic() {
        let src = "int main() { int a[4]; int* p = a; long d = (p + 2) - p; return (int)d; }";
        let c = check_src(src).unwrap();
        assert!(c.types.values().any(|t| *t == Type::Int.ptr_to()));
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = check_src("int main() { return zz; }").unwrap_err();
        assert!(e.to_string().contains("unknown variable"));
    }

    #[test]
    fn rejects_unknown_function() {
        let e = check_src("int main() { return nope(); }").unwrap_err();
        assert!(e.to_string().contains("unknown function"));
    }

    #[test]
    fn rejects_bad_main_signature() {
        let e = check_src("void main() { }").unwrap_err();
        assert!(e.to_string().contains("main"));
    }

    #[test]
    fn requires_main() {
        let e = check_src("int f() { return 0; }").unwrap_err();
        assert!(e.to_string().contains("no `main`"));
    }

    #[test]
    fn resolves_static_locals() {
        let src = r#"
            char* get_buf() { static char buffer[8]; return buffer; }
            int main() { return (int)strlen(get_buf()); }
        "#;
        let c = check_src(src).unwrap();
        assert_eq!(c.function_info[0].statics.len(), 1);
        assert_eq!(c.function_info[0].statics[0].name, "get_buf.buffer");
    }

    #[test]
    fn scoping_shadows_outer() {
        let src = r#"
            int main() {
                int x = 1;
                { int x = 2; if (x != 2) return 1; }
                return x;
            }
        "#;
        let c = check_src(src).unwrap();
        // Two distinct locals named x.
        assert_eq!(c.function_info.last().unwrap().locals.len(), 2);
    }

    #[test]
    fn rejects_duplicate_in_same_scope() {
        let e = check_src("int main() { int x; int x; return 0; }").unwrap_err();
        assert!(e.to_string().contains("duplicate variable"));
    }

    #[test]
    fn checks_struct_member_access() {
        let src = r#"
            struct pkt { int len; char tag; };
            int main() { struct pkt p; p.len = 3; struct pkt* q = &p; return q->len; }
        "#;
        check_src(src).unwrap();
    }

    #[test]
    fn rejects_unknown_field() {
        let src = "struct s { int a; };\nint main() { struct s v; return v.b; }";
        let e = check_src(src).unwrap_err();
        assert!(e.to_string().contains("no field"));
    }

    #[test]
    fn rejects_recursive_struct_by_value() {
        let src = "struct s { struct s inner; };\nint main() { return 0; }";
        assert!(check_src(src).is_err());
    }

    #[test]
    fn allows_recursive_struct_by_pointer() {
        let src = "struct s { struct s* next; int v; };\nint main() { struct s n; n.next = 0; return n.v = 1; }";
        check_src(src).unwrap();
    }

    #[test]
    fn builtin_calls_are_resolved() {
        let src = r#"int main() { char buf[8]; memset(buf, 0, 8); printf("%d\n", 1); return 0; }"#;
        let c = check_src(src).unwrap();
        assert!(c
            .calls
            .values()
            .any(|t| matches!(t, CallTarget::Builtin(Builtin::Printf))));
    }

    #[test]
    fn rejects_wrong_arity() {
        let e =
            check_src("int f(int a) { return a; }\nint main() { return f(1, 2); }").unwrap_err();
        assert!(e.to_string().contains("expects 1 argument"));
    }

    #[test]
    fn rejects_assign_to_rvalue() {
        let e = check_src("int main() { 3 = 4; return 0; }").unwrap_err();
        assert!(e.to_string().contains("not an lvalue"));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = check_src("int main() { break; return 0; }").unwrap_err();
        assert!(e.to_string().contains("outside a loop"));
    }

    #[test]
    fn global_initializers_must_be_const() {
        let e = check_src("int g = getchar();\nint main() { return g; }").unwrap_err();
        assert!(e.to_string().contains("constant expression"));
    }

    #[test]
    fn pointer_comparison_is_well_typed_even_if_ub() {
        // Comparing pointers to different objects type-checks (UB is a
        // *dynamic* property exploited by optimizers, not a type error).
        let src = "int main() { int a; int b; if (&a < &b) return 1; return 0; }";
        check_src(src).unwrap();
    }

    #[test]
    fn usual_conversions_in_binary_ops() {
        let src = "int main() { long l = 1; int i = 2; unsigned u = 3; double d = l + i; return (int)(u + i) + (int)d; }";
        let c = check_src(src).unwrap();
        assert!(c.types.values().any(|t| *t == Type::Long));
        assert!(c.types.values().any(|t| *t == Type::UInt));
    }

    #[test]
    fn variadic_printf_accepts_extra_scalars() {
        let src = r#"int main() { printf("%d %s %f", 1, "x", 2.0); return 0; }"#;
        check_src(src).unwrap();
    }

    #[test]
    fn sizeof_is_long() {
        let src = "int main() { return (int)sizeof(long); }";
        let c = check_src(src).unwrap();
        assert!(c.types.values().any(|t| *t == Type::Long));
    }
}
