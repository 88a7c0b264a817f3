//! AST → IR lowering, parameterized by a compiler [`Personality`].
//!
//! Lowering is where several implementation-defined choices are *baked into
//! the binary*: call-argument evaluation order, `__LINE__` attribution, and
//! (indirectly, through slot creation order consumed by the layout engine)
//! stack object placement. At `-O0` every local lives in a frame slot; the
//! `mem2reg` pass later promotes unaddressed scalars to registers.

use crate::ir::*;
use crate::layout::StructLayouts;
use crate::personality::{EvalOrder, LinePolicy, Personality};
use minc::ast::{self, BinOp, Expr, ExprKind, Node, Stmt, StmtKind, Storage, UnOp};
use minc::sema::{is_lvalue, CallTarget, LocalId, VarRef};
use minc::span::Span;
use minc::types::Type;
use minc::CheckedProgram;
use std::collections::{HashMap, HashSet};

/// Lowers a checked program to IR under the given personality.
///
/// # Panics
///
/// Panics on trees that violate invariants `minc::check` guarantees
/// (unknown nodes in side tables, aggregate rvalues, etc.).
pub fn lower(checked: &CheckedProgram, personality: &Personality) -> IrProgram {
    let mut layouts = StructLayouts::compute(checked);
    let mut strings = Strings::default();

    // Intern strings on the fly; globals first: AST globals, then each
    // function's static locals, in order.
    let mut global = |name: &String, ty: &Type, init: &Option<Expr>| {
        let (size, align) = layouts.size_align(ty, checked);
        let init = match init {
            None => GlobalInit::Zero,
            Some(e) => {
                let cv = initial_value(e, ty, checked, personality, &mut layouts, &mut strings);
                GlobalInit::Scalar(cv, width_of(ty))
            }
        };
        GlobalSpec {
            name: name.clone(),
            size,
            align,
            init,
        }
    };
    let mut globals: Vec<GlobalSpec> = checked
        .program
        .globals
        .iter()
        .map(|g| global(&g.name, &g.ty, &g.init))
        .collect();
    // Static locals become globals; remember their ids per function.
    let mut static_globals: Vec<Vec<GlobalId>> = Vec::new();
    for info in &checked.function_info {
        let mut ids = Vec::new();
        for st in &info.statics {
            ids.push(GlobalId(globals.len() as u32));
            globals.push(global(&st.name, &st.ty, &st.init));
        }
        static_globals.push(ids);
    }

    let mut functions = Vec::new();
    for (fi, f) in checked.program.functions.iter().enumerate() {
        let ir = IrFunction {
            name: f.name.clone(),
            param_count: f.params.len() as u32,
            param_tys: f.params.iter().map(|p| ir_ty(&p.ty)).collect(),
            ret_ty: (f.ret != Type::Void).then(|| ir_ty(&f.ret)),
            ..IrFunction::default()
        };
        let mut fl = FnLowerer::new(
            checked,
            personality,
            &mut layouts,
            &mut strings,
            &static_globals[fi],
            ir,
            (fi as u32) << 16,
        );
        fl.lower_fn(f);
        functions.push(fl.f);
    }

    let main = checked
        .program
        .functions
        .iter()
        .position(|f| f.name == "main")
        .map(|i| FuncId(i as u32))
        .expect("sema guarantees main exists");

    IrProgram {
        functions,
        globals,
        strings: strings.list,
        main,
    }
}

/// Evaluates a global or static initializer exactly as run-time code: the
/// expression is lowered like any other (`rvalue`, then `convert` to the
/// declared type) into a scratch function, which the masking constant
/// folder reduces to one constant. Sema admits only initializers that
/// fold, except that an operation that traps (`7 / 0`) leaves the
/// variable 0.
fn initial_value(
    e: &Expr,
    ty: &Type,
    checked: &CheckedProgram,
    personality: &Personality,
    layouts: &mut StructLayouts,
    strings: &mut Strings,
) -> ConstVal {
    let scratch = IrFunction::default();
    let mut fl = FnLowerer::new(checked, personality, layouts, strings, &[], scratch, 0);
    let (v, vty) = fl.rvalue(e);
    let v = fl.convert(v, &vty, ty);
    let mut f = fl.f;
    crate::passes::const_fold(&mut f);
    let folded = f.blocks[0].insts.iter().find_map(|inst| match inst {
        Inst::Const { dst, val, .. } if *dst == v => Some(*val),
        _ => None,
    });
    folded.unwrap_or(ConstVal::from_word(ir_ty(ty), 0))
}

/// The program's string literals, interned in first-use order (`StrId`
/// indexes `list`); each is NUL-terminated.
#[derive(Default)]
struct Strings {
    list: Vec<Vec<u8>>,
    ids: HashMap<Vec<u8>, StrId>,
}

impl Strings {
    fn intern(&mut self, bytes: &[u8]) -> StrId {
        let mut s = bytes.to_vec();
        s.push(0);
        if let Some(&id) = self.ids.get(&s) {
            return id;
        }
        let id = StrId(self.list.len() as u32);
        self.list.push(s.clone());
        self.ids.insert(s, id);
        id
    }
}

/// IR type of a MinC type (after decay for values).
pub fn ir_ty(t: &Type) -> IrType {
    match t {
        Type::Char | Type::Int | Type::UInt => IrType::I32,
        Type::Long | Type::Ptr(_) | Type::Array(..) => IrType::I64,
        Type::Double => IrType::F64,
        Type::Void => IrType::I32, // placeholder; void values are never read
        Type::Struct(_) => panic!("aggregate has no IR value type"),
    }
}

/// Memory access width for a scalar type.
pub fn width_of(t: &Type) -> MemWidth {
    match t {
        Type::Char => MemWidth::W1,
        Type::Int | Type::UInt => MemWidth::W4,
        Type::Long | Type::Ptr(_) | Type::Double => MemWidth::W8,
        other => panic!("no scalar width for {other}"),
    }
}

struct FnLowerer<'a> {
    checked: &'a CheckedProgram,
    personality: &'a Personality,
    layouts: &'a mut StructLayouts,
    strings: &'a mut Strings,
    static_globals: &'a [GlobalId],
    f: IrFunction,
    cur: BlockId,
    slot_of_local: Vec<SlotId>,
    loops: Vec<(BlockId, BlockId)>, // (continue target, break target)
    stmt_span: Span,
    addressed: HashSet<LocalId>,
    junk_counter: u32,
}

impl<'a> FnLowerer<'a> {
    /// A lowerer emitting into `f`, from a fresh entry block on; its junk
    /// values are numbered from `junk_base`.
    fn new(
        checked: &'a CheckedProgram,
        personality: &'a Personality,
        layouts: &'a mut StructLayouts,
        strings: &'a mut Strings,
        static_globals: &'a [GlobalId],
        mut f: IrFunction,
        junk_base: u32,
    ) -> Self {
        let cur = f.new_block();
        FnLowerer {
            checked,
            personality,
            layouts,
            strings,
            static_globals,
            f,
            cur,
            slot_of_local: Vec::new(),
            loops: Vec::new(),
            stmt_span: Span::dummy(),
            addressed: HashSet::new(),
            junk_counter: junk_base,
        }
    }

    fn lower_fn(&mut self, f: &ast::Function) {
        self.stmt_span = f.span;
        // Scalar locals whose address is taken with `&` keep their slots.
        f.body.walk(&mut |n| {
            if let Node::Expr(Expr {
                kind:
                    ExprKind::Unary {
                        op: UnOp::Addr,
                        operand,
                    },
                ..
            }) = n
            {
                if let (ExprKind::Var(_), Some(VarRef::Local(l))) =
                    (&operand.kind, self.checked.vars.get(&operand.id))
                {
                    self.addressed.insert(*l);
                }
            }
        });

        // Reserve the parameter registers v0..vN-1 before any temporary.
        for p in &f.params {
            self.new_reg(ir_ty(&p.ty));
        }

        // One slot per local, in declaration order (params first).
        let infos = self.checked.function_info[self
            .checked
            .program
            .functions
            .iter()
            .position(|g| g.name == f.name)
            .unwrap()]
        .locals
        .clone();
        for (i, l) in infos.iter().enumerate() {
            let (size, align) = self.layouts.size_align(&l.ty, self.checked);
            let addressed = self.addressed.contains(&LocalId(i as u32))
                || matches!(l.ty, Type::Array(..) | Type::Struct(_));
            let scalar = match l.ty {
                Type::Array(..) | Type::Struct(_) => None,
                ref t => Some(ir_ty(t)),
            };
            let slot = SlotId(self.f.slots.len() as u32);
            self.f.slots.push(SlotInfo {
                name: l.name.clone(),
                size,
                align,
                addressed,
                scalar,
                promoted: false,
            });
            self.slot_of_local.push(slot);
        }
        // Spill parameters (registers v0..vN-1) into their slots.
        for (i, p) in f.params.iter().enumerate() {
            let addr = self.new_reg(IrType::I64);
            self.push(Inst::FrameAddr {
                dst: addr,
                slot: self.slot_of_local[i],
            });
            self.push(Inst::Store {
                addr,
                src: ValueId(i as u32),
                width: width_of(&p.ty),
            });
        }
        // Parameter registers come first; reserve them.
        // (new_reg above already accounted; ensure reg_count >= params.)
        self.lower_stmt(&f.body);
        // Implicit return if control falls off the end.
        if matches!(
            self.f.blocks[self.cur.0 as usize].term,
            Terminator::Unreachable
        ) {
            match (&f.ret, f.name.as_str()) {
                (Type::Void, _) => self.seal_ret(None),
                (_, "main") => {
                    let z = self.const_val(IrType::I32, ConstVal::I32(0));
                    self.seal_ret(Some(z));
                }
                (ret, _) => {
                    // Falling off a value-returning function: the returned
                    // value is indeterminate (UB in C if used).
                    let j = self.junk(ir_ty(ret));
                    self.seal_ret(Some(j));
                }
            }
        }
    }

    // ---- low-level emit helpers ----

    /// Allocates a register stamped with the current statement's source
    /// line, so optimized IR (and the rewrite-provenance log) can point
    /// back at the source.
    fn new_reg(&mut self, ty: IrType) -> ValueId {
        self.f.new_reg_at(ty, self.stmt_span.line)
    }

    fn push(&mut self, inst: Inst) {
        self.f.blocks[self.cur.0 as usize].insts.push(inst);
    }

    fn seal(&mut self, term: Terminator, next: BlockId) {
        self.f.blocks[self.cur.0 as usize].term = term;
        self.cur = next;
    }

    fn seal_ret(&mut self, v: Option<ValueId>) {
        self.f.blocks[self.cur.0 as usize].term = Terminator::Ret(v);
        let dead = self.f.new_block();
        self.cur = dead;
    }

    fn const_val(&mut self, ty: IrType, val: ConstVal) -> ValueId {
        let dst = self.new_reg(ty);
        self.push(Inst::Const { dst, ty, val });
        dst
    }

    fn const_i32(&mut self, v: i32) -> ValueId {
        self.const_val(IrType::I32, ConstVal::I32(v))
    }

    fn const_i64(&mut self, v: i64) -> ValueId {
        self.const_val(IrType::I64, ConstVal::I64(v))
    }

    fn junk(&mut self, ty: IrType) -> ValueId {
        let id = self.junk_counter;
        self.junk_counter += 1;
        self.const_val(ty, ConstVal::Junk(id))
    }

    fn bin(&mut self, ty: IrType, op: BinKind, a: ValueId, b: ValueId, ub_signed: bool) -> ValueId {
        let dst = self.new_reg(op.result_ty(ty));
        self.push(Inst::Bin {
            dst,
            ty,
            op,
            a,
            b,
            ub_signed,
        });
        dst
    }

    fn cast(&mut self, kind: CastKind, a: ValueId) -> ValueId {
        let dst = self.new_reg(kind.result_ty());
        self.push(Inst::Cast { dst, kind, a });
        dst
    }

    fn ty_of(&self, e: &Expr) -> Type {
        self.checked.types[&e.id].clone()
    }

    /// Converts a value of MinC type `from` to MinC type `to` (both scalar).
    fn convert(&mut self, v: ValueId, from: &Type, to: &Type) -> ValueId {
        let from = from.decay();
        let to = to.decay();
        if from == to {
            return v;
        }
        match (ir_ty(&from), ir_ty(&to)) {
            (a, b) if a == b => {
                // Same register class; handle char narrowing explicitly so
                // `char c = 300;` behaves identically whether `c` lives in
                // memory (store truncates) or in a register (mem2reg).
                if to == Type::Char && from != Type::Char {
                    let sh = self.const_i32(24);
                    let t = self.bin(IrType::I32, BinKind::Shl, v, sh, false);
                    return self.bin(IrType::I32, BinKind::ShrS, t, sh, false);
                }
                v
            }
            (IrType::I32, IrType::I64) => {
                let kind = if from == Type::UInt {
                    CastKind::ZextI32I64
                } else {
                    CastKind::SextI32I64
                };
                self.cast(kind, v)
            }
            (IrType::I64, IrType::I32) => {
                let t = self.cast(CastKind::TruncI64I32, v);
                if to == Type::Char {
                    let sh = self.const_i32(24);
                    let t2 = self.bin(IrType::I32, BinKind::Shl, t, sh, false);
                    return self.bin(IrType::I32, BinKind::ShrS, t2, sh, false);
                }
                t
            }
            (IrType::I32, IrType::F64) => {
                let kind = if from == Type::UInt {
                    CastKind::UI32F64
                } else {
                    CastKind::SI32F64
                };
                self.cast(kind, v)
            }
            (IrType::I64, IrType::F64) => self.cast(CastKind::SI64F64, v),
            (IrType::F64, IrType::I32) if to == Type::UInt => {
                // Through i64: the signed i32 cast would saturate every
                // value above `INT_MAX` that `unsigned int` holds.
                let t = self.cast(CastKind::F64I64, v);
                self.cast(CastKind::TruncI64I32, t)
            }
            (IrType::F64, IrType::I32) => {
                let t = self.cast(CastKind::F64I32, v);
                if to == Type::Char {
                    let sh = self.const_i32(24);
                    let t2 = self.bin(IrType::I32, BinKind::Shl, t, sh, false);
                    return self.bin(IrType::I32, BinKind::ShrS, t2, sh, false);
                }
                t
            }
            (IrType::F64, IrType::I64) => self.cast(CastKind::F64I64, v),
            _ => v,
        }
    }

    /// Lowers `e` as a branch condition, producing an i32 0/1 register.
    /// Comparisons, logical operators, and `!` already produce 0/1, so no
    /// extra `!= 0` is materialized for them.
    fn cond_reg(&mut self, e: &Expr) -> ValueId {
        let already_bool = matches!(
            &e.kind,
            ExprKind::Binary { op, .. } if op.is_comparison()
        ) || matches!(&e.kind, ExprKind::Logical { .. })
            || matches!(&e.kind, ExprKind::Unary { op: UnOp::Not, .. });
        let (v, ty) = self.rvalue(e);
        if already_bool {
            v
        } else {
            self.lower_bool(v, &ty)
        }
    }

    /// `v != 0` as an i32 0/1, for any scalar `v`.
    fn lower_bool(&mut self, v: ValueId, ty: &Type) -> ValueId {
        let ty = ty.decay();
        match ir_ty(&ty) {
            IrType::I32 => {
                let z = self.const_i32(0);
                self.bin(IrType::I32, BinKind::Ne, v, z, false)
            }
            IrType::I64 => {
                let z = self.const_i64(0);
                self.bin(IrType::I64, BinKind::Ne, v, z, false)
            }
            IrType::F64 => {
                let z = self.const_val(IrType::F64, ConstVal::F64(0.0));
                self.bin(IrType::F64, BinKind::FNe, v, z, false)
            }
        }
    }

    // ---- lvalues ----

    /// Lowers an lvalue to `(address, object type)`.
    fn addr(&mut self, e: &Expr) -> (ValueId, Type) {
        match &e.kind {
            ExprKind::Var(_) => {
                let ty = self.ty_of(e);
                let r = self.checked.vars[&e.id];
                let a = match r {
                    VarRef::Local(LocalId(i)) => {
                        let dst = self.new_reg(IrType::I64);
                        self.push(Inst::FrameAddr {
                            dst,
                            slot: self.slot_of_local[i as usize],
                        });
                        dst
                    }
                    VarRef::Global(i) => {
                        self.const_val(IrType::I64, ConstVal::GlobalAddr(GlobalId(i), 0))
                    }
                    VarRef::StaticLocal(s) => {
                        let gid = self.static_globals[s.0 as usize];
                        self.const_val(IrType::I64, ConstVal::GlobalAddr(gid, 0))
                    }
                };
                (a, ty)
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let (p, pty) = self.rvalue(operand);
                let pointee = pty
                    .decay()
                    .pointee()
                    .cloned()
                    .expect("sema: deref of non-pointer");
                (p, pointee)
            }
            ExprKind::Index { base, index } => {
                let (b, bty) = self.rvalue(base);
                let elem = bty
                    .decay()
                    .pointee()
                    .cloned()
                    .expect("sema: index of non-pointer");
                let (i, ity) = self.rvalue(index);
                let i64v = self.convert(i, &ity, &Type::Long);
                let elem_size = self.layouts.size_of(&elem, self.checked) as i64;
                let sz = self.const_i64(elem_size);
                let off = self.bin(IrType::I64, BinKind::Mul, i64v, sz, false);
                let a = self.bin(IrType::I64, BinKind::Add, b, off, false);
                (a, elem)
            }
            ExprKind::Member { base, field } => {
                let (a, bty) = self.addr(base);
                let Type::Struct(name) = bty else {
                    panic!("sema: member of non-struct")
                };
                let off = self.layouts.field_offset(&name, field, self.checked) as i64;
                let fty = self.checked.types[&e.id].clone();
                if off == 0 {
                    return (a, fty);
                }
                let o = self.const_i64(off);
                let fa = self.bin(IrType::I64, BinKind::Add, a, o, false);
                (fa, fty)
            }
            ExprKind::Arrow { base, field } => {
                let (p, pty) = self.rvalue(base);
                let Some(Type::Struct(name)) = pty.decay().pointee().cloned() else {
                    panic!("sema: arrow through non-struct pointer")
                };
                let off = self.layouts.field_offset(&name, field, self.checked) as i64;
                let fty = self.checked.types[&e.id].clone();
                if off == 0 {
                    return (p, fty);
                }
                let o = self.const_i64(off);
                let fa = self.bin(IrType::I64, BinKind::Add, p, o, false);
                (fa, fty)
            }
            other => panic!("not an lvalue: {other:?}"),
        }
    }

    /// Loads a scalar of MinC type `ty` from `addr`.
    fn load(&mut self, addr: ValueId, ty: &Type) -> ValueId {
        let dst = self.new_reg(ir_ty(ty));
        self.push(Inst::Load {
            dst,
            ty: ir_ty(ty),
            addr,
            width: width_of(ty),
            sext: *ty == Type::Char,
        });
        dst
    }

    // ---- rvalues ----

    /// Lowers an expression to `(value register, decayed-but-precise type)`.
    fn rvalue(&mut self, e: &Expr) -> (ValueId, Type) {
        if is_lvalue(e) {
            let (a, oty) = self.addr(e);
            return match oty {
                Type::Array(ref elem, _) => (a, Type::Ptr(elem.clone())),
                Type::Struct(_) => panic!("aggregate rvalue (sema forbids)"),
                ref scalar => (self.load(a, scalar), scalar.clone()),
            };
        }
        match &e.kind {
            ExprKind::IntLit { value, long } => {
                if *long {
                    (self.const_i64(*value), Type::Long)
                } else {
                    (self.const_i32(*value as i32), Type::Int)
                }
            }
            ExprKind::FloatLit(v) => (self.const_val(IrType::F64, ConstVal::F64(*v)), Type::Double),
            ExprKind::CharLit(c) => (self.const_i32(*c as i32), Type::Int),
            ExprKind::StrLit(bytes) => {
                let id = self.strings.intern(bytes);
                (
                    self.const_val(IrType::I64, ConstVal::StrAddr(id, 0)),
                    Type::Char.ptr_to(),
                )
            }
            ExprKind::Line => {
                let line = match self.personality.line_policy {
                    LinePolicy::StartLine => self.stmt_span.line,
                    LinePolicy::EndLine => self.stmt_span.end_line.max(self.stmt_span.line),
                };
                (self.const_i32(line as i32), Type::Int)
            }
            ExprKind::Unary { op, operand } => self.lower_unary(*op, operand),
            ExprKind::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs),
            ExprKind::Logical { and, lhs, rhs } => self.lower_logical(*and, lhs, rhs),
            ExprKind::Assign { op, target, value } => self.lower_assign(*op, target, value),
            ExprKind::IncDec { inc, pre, target } => self.lower_incdec(*inc, *pre, target),
            ExprKind::Cond { cond, then, els } => self.lower_ternary(e, cond, then, els),
            ExprKind::Call { args, .. } => self.lower_call(e, args),
            ExprKind::Cast { to, value } => {
                let (v, vty) = self.rvalue(value);
                if *to == Type::Void {
                    return (v, Type::Void);
                }
                (self.convert(v, &vty, to), to.clone())
            }
            ExprKind::SizeofType(t) => {
                let sz = self.layouts.size_of(t, self.checked) as i64;
                (self.const_i64(sz), Type::Long)
            }
            ExprKind::SizeofExpr(inner) => {
                let t = self.ty_of(inner);
                let sz = self.layouts.size_of(&t, self.checked) as i64;
                (self.const_i64(sz), Type::Long)
            }
            // lvalue kinds handled above
            _ => unreachable!("lvalue kinds handled earlier"),
        }
    }

    fn lower_unary(&mut self, op: UnOp, operand: &Expr) -> (ValueId, Type) {
        match op {
            UnOp::Addr => {
                let (a, oty) = self.addr(operand);
                (a, oty.ptr_to())
            }
            UnOp::Deref => unreachable!("deref is an lvalue"),
            UnOp::Not => {
                let (v, vty) = self.rvalue(operand);
                let b = self.lower_bool(v, &vty);
                let one = self.const_i32(1);
                (
                    self.bin(IrType::I32, BinKind::Xor, b, one, false),
                    Type::Int,
                )
            }
            UnOp::Neg => {
                let (v, vty) = self.rvalue(operand);
                let vty = vty.decay();
                if vty == Type::Double {
                    let dst = self.new_reg(IrType::F64);
                    self.push(Inst::Un {
                        dst,
                        ty: IrType::F64,
                        op: UnKind::FNeg,
                        a: v,
                        ub_signed: false,
                    });
                    return (dst, Type::Double);
                }
                let rt = vty.promote();
                let v = self.convert(v, &vty, &rt);
                let dst = self.new_reg(ir_ty(&rt));
                self.push(Inst::Un {
                    dst,
                    ty: ir_ty(&rt),
                    op: UnKind::Neg,
                    a: v,
                    ub_signed: rt.is_signed_integer(),
                });
                (dst, rt)
            }
            UnOp::BitNot => {
                let (v, vty) = self.rvalue(operand);
                let rt = vty.decay().promote();
                let v = self.convert(v, &vty, &rt);
                let dst = self.new_reg(ir_ty(&rt));
                self.push(Inst::Un {
                    dst,
                    ty: ir_ty(&rt),
                    op: UnKind::BitNot,
                    a: v,
                    ub_signed: false,
                });
                (dst, rt)
            }
        }
    }

    fn lower_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> (ValueId, Type) {
        let (lv, lty) = self.rvalue(lhs);
        let (rv, rty) = self.rvalue(rhs);
        self.lower_binop_values(op, lv, &lty, rv, &rty)
    }

    /// The heart of expression lowering; also reused by compound assignment.
    fn lower_binop_values(
        &mut self,
        op: BinOp,
        lv: ValueId,
        lty: &Type,
        rv: ValueId,
        rty: &Type,
    ) -> (ValueId, Type) {
        let lty = lty.decay();
        let rty = rty.decay();
        use BinOp::*;

        // Pointer arithmetic.
        if lty.is_pointer() || rty.is_pointer() {
            match op {
                Add | Sub if lty.is_pointer() && rty.is_integer() => {
                    let elem = lty.pointee().cloned().unwrap();
                    let esz = self.layouts.size_of(&elem, self.checked).max(1) as i64;
                    let idx = self.convert(rv, &rty, &Type::Long);
                    let sz = self.const_i64(esz);
                    let off = self.bin(IrType::I64, BinKind::Mul, idx, sz, false);
                    let k = if op == Add {
                        BinKind::Add
                    } else {
                        BinKind::Sub
                    };
                    return (self.bin(IrType::I64, k, lv, off, false), lty.clone());
                }
                Add if lty.is_integer() && rty.is_pointer() => {
                    let elem = rty.pointee().cloned().unwrap();
                    let esz = self.layouts.size_of(&elem, self.checked).max(1) as i64;
                    let idx = self.convert(lv, &lty, &Type::Long);
                    let sz = self.const_i64(esz);
                    let off = self.bin(IrType::I64, BinKind::Mul, idx, sz, false);
                    return (
                        self.bin(IrType::I64, BinKind::Add, rv, off, false),
                        rty.clone(),
                    );
                }
                Sub if lty.is_pointer() && rty.is_pointer() => {
                    // Pointer difference: UB across objects (CWE-469); the
                    // value is layout-dependent either way.
                    let elem = lty.pointee().cloned().unwrap();
                    let esz = self.layouts.size_of(&elem, self.checked).max(1) as i64;
                    let diff = self.bin(IrType::I64, BinKind::Sub, lv, rv, false);
                    let sz = self.const_i64(esz);
                    return (
                        self.bin(IrType::I64, BinKind::DivS, diff, sz, false),
                        Type::Long,
                    );
                }
                Lt | Le | Gt | Ge | Eq | Ne => {
                    // Pointer comparison: addresses compared unsigned.
                    // Relational comparison of pointers to different objects
                    // is UB — and genuinely unstable, because each
                    // implementation places objects differently.
                    let l64 = if ir_ty(&lty) == IrType::I64 {
                        lv
                    } else {
                        self.convert(lv, &lty, &Type::Long)
                    };
                    let r64 = if ir_ty(&rty) == IrType::I64 {
                        rv
                    } else {
                        self.convert(rv, &rty, &Type::Long)
                    };
                    let k = match op {
                        Lt => BinKind::LtU,
                        Le => BinKind::LeU,
                        Gt => BinKind::GtU,
                        Ge => BinKind::GeU,
                        Eq => BinKind::Eq,
                        Ne => BinKind::Ne,
                        _ => unreachable!(),
                    };
                    return (self.bin(IrType::I64, k, l64, r64, false), Type::Int);
                }
                _ => panic!("sema: invalid pointer operation"),
            }
        }

        // Usual arithmetic conversions.
        let common = Type::usual_arithmetic(&lty.promote(), &rty.promote());
        match op {
            Shl | Shr => {
                // Shifts: result type is the promoted left operand.
                let rt = lty.promote();
                let l = self.convert(lv, &lty, &rt);
                let r = self.convert(rv, &rty, &rt);
                let k = match (op, rt.is_signed_integer()) {
                    (Shl, _) => BinKind::Shl,
                    (Shr, true) => BinKind::ShrS,
                    (Shr, false) => BinKind::ShrU,
                    _ => unreachable!(),
                };
                return (self.bin(ir_ty(&rt), k, l, r, rt.is_signed_integer()), rt);
            }
            _ => {}
        }
        let l = self.convert(lv, &lty, &common);
        let r = self.convert(rv, &rty, &common);
        let signed = common.is_signed_integer();
        let fl = common == Type::Double;
        let (kind, result_ty, ub) = match op {
            Add => (
                if fl { BinKind::FAdd } else { BinKind::Add },
                common.clone(),
                signed,
            ),
            Sub => (
                if fl { BinKind::FSub } else { BinKind::Sub },
                common.clone(),
                signed,
            ),
            Mul => (
                if fl { BinKind::FMul } else { BinKind::Mul },
                common.clone(),
                signed,
            ),
            Div => (
                if fl {
                    BinKind::FDiv
                } else if signed {
                    BinKind::DivS
                } else {
                    BinKind::DivU
                },
                common.clone(),
                signed,
            ),
            Rem => (
                if signed { BinKind::RemS } else { BinKind::RemU },
                common.clone(),
                signed,
            ),
            BitAnd => (BinKind::And, common.clone(), false),
            BitOr => (BinKind::Or, common.clone(), false),
            BitXor => (BinKind::Xor, common.clone(), false),
            Lt => (
                if fl {
                    BinKind::FLt
                } else if signed {
                    BinKind::LtS
                } else {
                    BinKind::LtU
                },
                Type::Int,
                false,
            ),
            Le => (
                if fl {
                    BinKind::FLe
                } else if signed {
                    BinKind::LeS
                } else {
                    BinKind::LeU
                },
                Type::Int,
                false,
            ),
            Gt => (
                if fl {
                    BinKind::FGt
                } else if signed {
                    BinKind::GtS
                } else {
                    BinKind::GtU
                },
                Type::Int,
                false,
            ),
            Ge => (
                if fl {
                    BinKind::FGe
                } else if signed {
                    BinKind::GeS
                } else {
                    BinKind::GeU
                },
                Type::Int,
                false,
            ),
            Eq => (
                if fl { BinKind::FEq } else { BinKind::Eq },
                Type::Int,
                false,
            ),
            Ne => (
                if fl { BinKind::FNe } else { BinKind::Ne },
                Type::Int,
                false,
            ),
            Shl | Shr => unreachable!(),
        };
        (self.bin(ir_ty(&common), kind, l, r, ub), result_ty)
    }

    fn lower_logical(&mut self, and: bool, lhs: &Expr, rhs: &Expr) -> (ValueId, Type) {
        let result = self.new_reg(IrType::I32);
        let rhs_block = self.f.new_block();
        let short_block = self.f.new_block();
        let join = self.f.new_block();

        let lb = self.cond_reg(lhs);
        let (t, e) = if and {
            (rhs_block, short_block)
        } else {
            (short_block, rhs_block)
        };
        self.seal(
            Terminator::Br {
                cond: lb,
                then: t,
                els: e,
            },
            rhs_block,
        );

        let rb = self.cond_reg(rhs);
        self.push(Inst::Copy {
            dst: result,
            ty: IrType::I32,
            src: rb,
        });
        self.seal(Terminator::Jump(join), short_block);

        let short_val = self.const_i32(if and { 0 } else { 1 });
        self.push(Inst::Copy {
            dst: result,
            ty: IrType::I32,
            src: short_val,
        });
        self.seal(Terminator::Jump(join), join);

        (result, Type::Int)
    }

    fn lower_assign(&mut self, op: Option<BinOp>, target: &Expr, value: &Expr) -> (ValueId, Type) {
        let (a, oty) = self.addr(target);
        let stored = match op {
            None => {
                let (v, vty) = self.rvalue(value);
                self.convert(v, &vty, &oty)
            }
            Some(op) => {
                let cur = self.load(a, &oty);
                let (v, vty) = self.rvalue(value);
                let (res, rty) = self.lower_binop_values(op, cur, &oty, v, &vty);
                self.convert(res, &rty, &oty)
            }
        };
        self.push(Inst::Store {
            addr: a,
            src: stored,
            width: width_of(&oty),
        });
        (stored, oty)
    }

    fn lower_incdec(&mut self, inc: bool, pre: bool, target: &Expr) -> (ValueId, Type) {
        let (a, oty) = self.addr(target);
        let cur = self.load(a, &oty);
        let one_op = if inc { BinOp::Add } else { BinOp::Sub };
        let one = self.const_i32(1);
        let (next, nty) = self.lower_binop_values(one_op, cur, &oty, one, &Type::Int);
        let stored = self.convert(next, &nty, &oty);
        self.push(Inst::Store {
            addr: a,
            src: stored,
            width: width_of(&oty),
        });
        (if pre { stored } else { cur }, oty)
    }

    fn lower_ternary(&mut self, e: &Expr, cond: &Expr, then: &Expr, els: &Expr) -> (ValueId, Type) {
        let result_ty = self.ty_of(e);
        let result = self.new_reg(ir_ty(&result_ty));
        let tb = self.f.new_block();
        let eb = self.f.new_block();
        let join = self.f.new_block();

        let cb = self.cond_reg(cond);
        self.seal(
            Terminator::Br {
                cond: cb,
                then: tb,
                els: eb,
            },
            tb,
        );

        let (tv, tty) = self.rvalue(then);
        let tv = self.convert(tv, &tty, &result_ty);
        self.push(Inst::Copy {
            dst: result,
            ty: ir_ty(&result_ty),
            src: tv,
        });
        self.seal(Terminator::Jump(join), eb);

        let (ev, ety) = self.rvalue(els);
        let ev = self.convert(ev, &ety, &result_ty);
        self.push(Inst::Copy {
            dst: result,
            ty: ir_ty(&result_ty),
            src: ev,
        });
        self.seal(Terminator::Jump(join), join);

        (result, result_ty)
    }

    fn lower_call(&mut self, e: &Expr, args: &[Expr]) -> (ValueId, Type) {
        let target = self.checked.calls[&e.id].clone();
        let (param_tys, ret): (Vec<Option<Type>>, Type) = match &target {
            CallTarget::Function(i) => {
                let f = &self.checked.program.functions[*i as usize];
                (
                    f.params.iter().map(|p| Some(p.ty.clone())).collect(),
                    f.ret.clone(),
                )
            }
            CallTarget::Builtin(b) => {
                let (p, _, r) = b.signature();
                (p, r)
            }
        };

        // Evaluate arguments in the *implementation's* order. The standard
        // allows any order; when two arguments have conflicting side effects
        // (e.g. both call a function returning a static buffer) the result
        // is unstable — the paper's tcpdump EvalOrder bug.
        let order: Vec<usize> = match self.personality.eval_order {
            EvalOrder::LeftToRight => (0..args.len()).collect(),
            EvalOrder::RightToLeft => (0..args.len()).rev().collect(),
        };
        let mut values: Vec<Option<(ValueId, Type)>> = vec![None; args.len()];
        for i in order {
            let (v, vty) = self.rvalue(&args[i]);
            values[i] = Some((v, vty));
        }

        let mut arg_regs = Vec::with_capacity(args.len());
        let mut arg_tys = Vec::with_capacity(args.len());
        for (i, v) in values.into_iter().enumerate() {
            let (v, vty) = v.unwrap();
            let (cv, cty) = match param_tys.get(i) {
                Some(Some(pt)) => (self.convert(v, &vty, pt), pt.clone()),
                Some(None) => {
                    // "any pointer" builtin slot.
                    (self.convert(v, &vty, &Type::Long), Type::Long)
                }
                None => {
                    // Variadic extras: default promotions (char -> int).
                    let promoted = vty.decay().promote();
                    (self.convert(v, &vty, &promoted), promoted)
                }
            };
            arg_regs.push(cv);
            arg_tys.push(ir_ty(&cty));
        }

        let callee = match target {
            CallTarget::Function(i) => Callee::Func(FuncId(i)),
            CallTarget::Builtin(b) => Callee::Builtin(b),
        };
        let (dst, ret_ir) = if ret == Type::Void {
            (None, IrType::I32)
        } else {
            (Some(self.new_reg(ir_ty(&ret))), ir_ty(&ret))
        };
        self.push(Inst::Call {
            dst,
            ret_ty: ret_ir,
            callee,
            args: arg_regs,
            arg_tys,
        });
        (dst.unwrap_or(ValueId(0)), ret)
    }

    // ---- statements ----

    fn lower_stmt(&mut self, s: &Stmt) {
        self.stmt_span = s.span;
        match &s.kind {
            StmtKind::Decl {
                ty, storage, init, ..
            } => match storage {
                Storage::Auto => {
                    if let Some(init) = init {
                        let slot = self.slot_of_local[self.checked.decl_slots[&s.id].0 as usize];
                        let (v, vty) = self.rvalue(init);
                        let cv = self.convert(v, &vty, ty);
                        let a = self.new_reg(IrType::I64);
                        self.push(Inst::FrameAddr { dst: a, slot });
                        self.push(Inst::Store {
                            addr: a,
                            src: cv,
                            width: width_of(ty),
                        });
                    }
                }
                Storage::Static => {
                    // Initialization happened at (simulated) load time.
                }
            },
            StmtKind::Expr(e) => {
                self.rvalue(e);
            }
            StmtKind::If { cond, then, els } => {
                let tb = self.f.new_block();
                let eb = self.f.new_block();
                let join = self.f.new_block();
                let cb = self.cond_reg(cond);
                self.seal(
                    Terminator::Br {
                        cond: cb,
                        then: tb,
                        els: eb,
                    },
                    tb,
                );
                self.lower_stmt(then);
                self.seal(Terminator::Jump(join), eb);
                if let Some(els) = els {
                    self.lower_stmt(els);
                }
                self.seal(Terminator::Jump(join), join);
            }
            StmtKind::While { cond, body } => {
                let head = self.f.new_block();
                let body_b = self.f.new_block();
                let exit = self.f.new_block();
                self.seal(Terminator::Jump(head), head);
                let cb = self.cond_reg(cond);
                self.seal(
                    Terminator::Br {
                        cond: cb,
                        then: body_b,
                        els: exit,
                    },
                    body_b,
                );
                self.loops.push((head, exit));
                self.lower_stmt(body);
                self.loops.pop();
                self.seal(Terminator::Jump(head), exit);
            }
            StmtKind::DoWhile { body, cond } => {
                let body_b = self.f.new_block();
                let check = self.f.new_block();
                let exit = self.f.new_block();
                self.seal(Terminator::Jump(body_b), body_b);
                self.loops.push((check, exit));
                self.lower_stmt(body);
                self.loops.pop();
                self.seal(Terminator::Jump(check), check);
                let cb = self.cond_reg(cond);
                self.seal(
                    Terminator::Br {
                        cond: cb,
                        then: body_b,
                        els: exit,
                    },
                    exit,
                );
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.lower_stmt(i);
                }
                let head = self.f.new_block();
                let body_b = self.f.new_block();
                let step_b = self.f.new_block();
                let exit = self.f.new_block();
                self.seal(Terminator::Jump(head), head);
                match cond {
                    Some(c) => {
                        let cb = self.cond_reg(c);
                        self.seal(
                            Terminator::Br {
                                cond: cb,
                                then: body_b,
                                els: exit,
                            },
                            body_b,
                        );
                    }
                    None => self.seal(Terminator::Jump(body_b), body_b),
                }
                self.loops.push((step_b, exit));
                self.lower_stmt(body);
                self.loops.pop();
                self.seal(Terminator::Jump(step_b), step_b);
                if let Some(st) = step {
                    self.rvalue(st);
                }
                self.seal(Terminator::Jump(head), exit);
            }
            StmtKind::Return(v) => {
                let ret = match v {
                    None => None,
                    Some(e) => {
                        let (v, vty) = self.rvalue(e);
                        let want = self
                            .f
                            .ret_ty
                            .expect("sema: value return from void function");
                        // Convert to the declared return type.
                        let target = match want {
                            IrType::I32 => Type::Int,
                            IrType::I64 => Type::Long,
                            IrType::F64 => Type::Double,
                        };
                        Some(self.convert(v, &vty, &target))
                    }
                };
                self.seal_ret(ret);
            }
            StmtKind::Break => {
                let (_, exit) = *self.loops.last().expect("sema: break outside loop");
                let dead = self.f.new_block();
                self.seal(Terminator::Jump(exit), dead);
            }
            StmtKind::Continue => {
                let (cont, _) = *self.loops.last().expect("sema: continue outside loop");
                let dead = self.f.new_block();
                self.seal(Terminator::Jump(cont), dead);
            }
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.lower_stmt(st);
                }
            }
            StmtKind::Empty => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::personality::{CompilerImpl, Family, OptLevel};

    fn lower_src(src: &str, family: Family, level: OptLevel) -> IrProgram {
        let checked = minc::check(src).unwrap();
        let p = CompilerImpl::new(family, level).personality();
        lower(&checked, &p)
    }

    #[test]
    fn lowers_minimal_main() {
        let ir = lower_src("int main() { return 0; }", Family::Gcc, OptLevel::O0);
        assert_eq!(ir.functions.len(), 1);
        assert_eq!(ir.main, FuncId(0));
        let f = &ir.functions[0];
        assert!(matches!(f.blocks[0].term, Terminator::Ret(Some(_))));
    }

    #[test]
    fn params_are_spilled_to_slots() {
        let ir = lower_src(
            "int f(int a, int b) { return a + b; }\nint main() { return f(1,2); }",
            Family::Gcc,
            OptLevel::O0,
        );
        let f = &ir.functions[0];
        assert_eq!(f.param_count, 2);
        assert_eq!(f.slots.len(), 2);
        let stores = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Store { .. }))
            .count();
        assert!(stores >= 2);
    }

    #[test]
    fn arg_eval_order_differs_by_family() {
        // g() and h() write to a global; the order of Call instructions to
        // them inside main's lowering differs between families.
        let src = r#"
            int t = 0;
            int g() { t = 1; return 1; }
            int h() { t = 2; return 2; }
            int use2(int a, int b) { return a + b; }
            int main() { return use2(g(), h()); }
        "#;
        let order_of = |fam| {
            let ir = lower_src(src, fam, OptLevel::O0);
            let main = &ir.functions[3];
            let mut calls = Vec::new();
            for b in &main.blocks {
                for i in &b.insts {
                    if let Inst::Call {
                        callee: Callee::Func(f),
                        ..
                    } = i
                    {
                        calls.push(f.0);
                    }
                }
            }
            calls
        };
        let gcc = order_of(Family::Gcc);
        let clang = order_of(Family::Clang);
        // Last call is use2 in both; the first two are swapped.
        assert_eq!(gcc.len(), 3);
        assert_eq!(clang.len(), 3);
        assert_eq!(gcc[2], clang[2]);
        assert_eq!(gcc[0], clang[1]);
        assert_eq!(gcc[1], clang[0]);
        assert_ne!(gcc[0], gcc[1]);
    }

    #[test]
    fn static_local_becomes_global() {
        let src = "char* f() { static char buf[4]; return buf; }\nint main() { return (int)strlen(f()); }";
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        assert!(ir.globals.iter().any(|g| g.name == "f.buf" && g.size == 4));
    }

    #[test]
    fn string_literals_are_interned() {
        let src = r#"int main() { puts("dup"); puts("dup"); puts("other"); return 0; }"#;
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        assert_eq!(ir.strings.len(), 2);
        assert_eq!(ir.strings[0], b"dup\0".to_vec());
    }

    #[test]
    fn global_initializer_is_scalar_const() {
        let src = "int g = 40 + 2;\nlong h = 1L << 33;\nint main() { return g; }";
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        assert_eq!(
            ir.globals[0].init,
            GlobalInit::Scalar(ConstVal::I32(42), MemWidth::W4)
        );
        assert_eq!(
            ir.globals[1].init,
            GlobalInit::Scalar(ConstVal::I64(1 << 33), MemWidth::W8)
        );
    }

    #[test]
    fn signed_ops_carry_ub_flag_unsigned_do_not() {
        let src = "int main() { int a = 1; unsigned b = 2; int c = a + a; unsigned d = b + b; return c + (int)d; }";
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        let f = &ir.functions[0];
        let mut saw_signed = false;
        let mut saw_unsigned = false;
        for b in &f.blocks {
            for i in &b.insts {
                if let Inst::Bin {
                    op: BinKind::Add,
                    ub_signed,
                    ..
                } = i
                {
                    if *ub_signed {
                        saw_signed = true;
                    } else {
                        saw_unsigned = true;
                    }
                }
            }
        }
        assert!(saw_signed && saw_unsigned);
    }

    #[test]
    fn pointer_compare_lowers_unsigned() {
        let src = "int main() { int a; int b; if (&a < &b) return 1; return 0; }";
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        let f = &ir.functions[0];
        let has_ltu = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinKind::LtU,
                    ty: IrType::I64,
                    ..
                }
            )
        });
        assert!(has_ltu);
    }

    #[test]
    fn line_policy_changes_line_constant() {
        // A return statement spanning two lines.
        let src = "int main() { return __LINE__\n+ 0; }";
        let g = lower_src(src, Family::Gcc, OptLevel::O0); // EndLine
        let c = lower_src(src, Family::Clang, OptLevel::O0); // StartLine
        let find_line_const = |ir: &IrProgram| {
            ir.functions[0]
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .find_map(|i| match i {
                    Inst::Const {
                        val: ConstVal::I32(v),
                        ..
                    } if *v <= 4 && *v >= 1 => Some(*v),
                    _ => None,
                })
        };
        let gl = find_line_const(&g).unwrap();
        let cl = find_line_const(&c).unwrap();
        assert_eq!(cl, 1);
        assert_eq!(gl, 2);
    }

    #[test]
    fn addressed_analysis_marks_only_ampersanded_scalars() {
        let src = "int main() { int a; int b; int* p = &a; *p = 1; b = 2; return a + b; }";
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        let f = &ir.functions[0];
        let slot_a = f.slots.iter().find(|s| s.name == "a").unwrap();
        let slot_b = f.slots.iter().find(|s| s.name == "b").unwrap();
        assert!(slot_a.addressed);
        assert!(!slot_b.addressed);
    }

    #[test]
    fn ternary_and_logical_lower_with_blocks() {
        let src = "int main() { int a = 1; int b = a ? 2 : 3; int c = a && b; return b + c; }";
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        assert!(ir.functions[0].blocks.len() >= 6);
    }

    #[test]
    fn break_continue_target_correct_blocks() {
        let src = r#"
            int main() {
                int i;
                int n = 0;
                for (i = 0; i < 10; i++) {
                    if (i == 2) continue;
                    if (i == 5) break;
                    n++;
                }
                return n;
            }
        "#;
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        // Just ensure lowering completed with a plausible CFG.
        assert!(ir.functions[0].blocks.len() > 8);
    }

    #[test]
    fn struct_field_access_uses_offsets() {
        let src = r#"
            struct s { char c; long l; };
            int main() { struct s v; v.l = 7; return (int)v.l; }
        "#;
        let ir = lower_src(src, Family::Gcc, OptLevel::O0);
        let f = &ir.functions[0];
        // Offset 8 constant must appear (field `l` at offset 8).
        let has_off8 = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Const {
                    val: ConstVal::I64(8),
                    ..
                }
            )
        });
        assert!(has_off8);
    }
}
