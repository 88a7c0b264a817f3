//! The intermediate representation.
//!
//! A function is a control-flow graph of basic blocks over *mutable* virtual
//! registers (not SSA): a register may be assigned more than once, which
//! keeps lowering of ternaries/logical operators simple and keeps every
//! pass local and easy to audit. Memory is explicit: locals that need
//! storage live in frame *slots* addressed via [`Inst::FrameAddr`]; the
//! `mem2reg` pass promotes unaddressed scalar slots to registers — exactly
//! the optimization-level difference that makes uninitialized variables
//! *unstable* across compiler implementations.

use minc::Builtin;
use std::fmt;

/// Scalar value types in the IR. Pointers are `I64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrType {
    /// 32-bit integer (signedness is a property of the operation).
    I32,
    /// 64-bit integer / pointer.
    I64,
    /// IEEE 754 double.
    F64,
}

impl fmt::Display for IrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrType::I32 => write!(f, "i32"),
            IrType::I64 => write!(f, "i64"),
            IrType::F64 => write!(f, "f64"),
        }
    }
}

/// A virtual register within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic block within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A frame slot (stack storage for one local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A function in the compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A global variable (program lifetime), including promoted static locals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// A string literal in rodata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrId(pub u32);

/// Memory access width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    W1,
    /// 4 bytes.
    W4,
    /// 8 bytes.
    W8,
}

impl MemWidth {
    /// The width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::W1 => 1,
            MemWidth::W4 => 4,
            MemWidth::W8 => 8,
        }
    }
}

/// Constant values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstVal {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// Double.
    F64(f64),
    /// Address of a global plus a byte offset (resolved by the loader).
    GlobalAddr(GlobalId, i64),
    /// Address of a rodata string plus a byte offset.
    StrAddr(StrId, i64),
    /// An *indeterminate* value: reading an uninitialized register-promoted
    /// local. The VM resolves it to a deterministic, implementation-specific
    /// junk value; the MSan analog treats it as poison.
    Junk(u32),
}

impl ConstVal {
    /// The register word of an arithmetic constant (`I32` sign-extended,
    /// `F64` as its bits); `None` for addresses and junk, whose words only
    /// a linked binary knows.
    #[inline]
    pub fn word(self) -> Option<u64> {
        match self {
            ConstVal::I32(x) => Some(x as i64 as u64),
            ConstVal::I64(x) => Some(x as u64),
            ConstVal::F64(x) => Some(x.to_bits()),
            _ => None,
        }
    }

    /// The constant of type `ty` that register word `w` holds.
    pub fn from_word(ty: IrType, w: u64) -> ConstVal {
        match ty {
            IrType::I32 => ConstVal::I32(w as i32),
            IrType::I64 => ConstVal::I64(w as i64),
            IrType::F64 => ConstVal::F64(f64::from_bits(w)),
        }
    }
}

/// Binary operation kinds. Comparisons yield `i32` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division (UB on divisor 0 and on `MIN / -1`).
    DivS,
    /// Unsigned division (UB on divisor 0).
    DivU,
    /// Signed remainder.
    RemS,
    /// Unsigned remainder.
    RemU,
    /// `<<`
    Shl,
    /// Arithmetic (sign-propagating) right shift.
    ShrS,
    /// Logical right shift.
    ShrU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
    /// Equality (`==`).
    Eq,
    /// Inequality (`!=`).
    Ne,
    /// Signed `<`.
    LtS,
    /// Signed `<=`.
    LeS,
    /// Signed `>`.
    GtS,
    /// Signed `>=`.
    GeS,
    /// Unsigned `<`.
    LtU,
    /// Unsigned `<=`.
    LeU,
    /// Unsigned `>`.
    GtU,
    /// Unsigned `>=`.
    GeU,
    /// Float `==`.
    FEq,
    /// Float `!=`.
    FNe,
    /// Float `<`.
    FLt,
    /// Float `<=`.
    FLe,
    /// Float `>`.
    FGt,
    /// Float `>=`.
    FGe,
}

impl BinKind {
    /// True for comparison operators (result is `i32` 0/1).
    pub fn is_comparison(self) -> bool {
        use BinKind::*;
        matches!(
            self,
            Eq | Ne
                | LtS
                | LeS
                | GtS
                | GeS
                | LtU
                | LeU
                | GtU
                | GeU
                | FEq
                | FNe
                | FLt
                | FLe
                | FGt
                | FGe
        )
    }

    /// True for float arithmetic/comparison.
    pub fn is_float(self) -> bool {
        use BinKind::*;
        matches!(
            self,
            FAdd | FSub | FMul | FDiv | FEq | FNe | FLt | FLe | FGt | FGe
        )
    }

    /// True for operators that can trap at runtime (division by zero).
    pub fn can_trap(self) -> bool {
        use BinKind::*;
        matches!(self, DivS | DivU | RemS | RemU)
    }

    /// The type of `a op b` for operands of type `ty`.
    pub fn result_ty(self, ty: IrType) -> IrType {
        if self.is_comparison() {
            IrType::I32
        } else {
            ty
        }
    }

    /// Evaluates `a op b` on register words at operand type `ty`. This
    /// and [`UnKind::eval`] and [`CastKind::eval`] are the one definition
    /// of MinC arithmetic: the VM, the constant folder and global
    /// initializers all evaluate through them.
    ///
    /// `I32` operations read the low 32 bits and return the sign-extended
    /// result; comparisons return 0/1; shift amounts are masked to the
    /// width (x86). `None` is the trap a CPU raises: a zero divisor, or
    /// `MIN / -1`.
    // `always`: with a plain `#[inline]` LLVM kept this a call from the
    // block dispatcher's generic division and float arm, a call into
    // another crate on the VM's hot path.
    #[inline(always)]
    pub fn eval(self, ty: IrType, a: u64, b: u64) -> Option<u64> {
        use BinKind::*;
        if self.is_float() {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            return Some(match self {
                FAdd => (x + y).to_bits(),
                FSub => (x - y).to_bits(),
                FMul => (x * y).to_bits(),
                FDiv => (x / y).to_bits(),
                FEq => (x == y) as u64,
                FNe => (x != y) as u64,
                FLt => (x < y) as u64,
                FLe => (x <= y) as u64,
                FGt => (x > y) as u64,
                FGe => (x >= y) as u64,
                _ => unreachable!(),
            });
        }
        let narrow = ty == IrType::I32;
        let (sa, sb) = if narrow {
            (a as i32 as i64, b as i32 as i64)
        } else {
            (a as i64, b as i64)
        };
        let (ua, ub) = if narrow {
            (a as u32 as u64, b as u32 as u64)
        } else {
            (a, b)
        };
        let (min, mask) = if narrow {
            (i32::MIN as i64, 31)
        } else {
            (i64::MIN, 63)
        };
        let wrap = |v: i64| -> u64 {
            if narrow {
                v as i32 as i64 as u64
            } else {
                v as u64
            }
        };
        Some(match self {
            Add => wrap(sa.wrapping_add(sb)),
            Sub => wrap(sa.wrapping_sub(sb)),
            Mul => wrap(sa.wrapping_mul(sb)),
            DivS | RemS if sb == 0 || (sa == min && sb == -1) => return None,
            DivS => wrap(sa.wrapping_div(sb)),
            RemS => wrap(sa.wrapping_rem(sb)),
            DivU | RemU if ub == 0 => return None,
            DivU => wrap((ua / ub) as i64),
            RemU => wrap((ua % ub) as i64),
            Shl => wrap(sa.wrapping_shl(ub as u32 & mask)),
            ShrS => wrap(sa.wrapping_shr(ub as u32 & mask)),
            ShrU => wrap(ua.wrapping_shr(ub as u32 & mask) as i64),
            And => wrap(sa & sb),
            Or => wrap(sa | sb),
            Xor => wrap(sa ^ sb),
            Eq => (sa == sb) as u64,
            Ne => (sa != sb) as u64,
            LtS => (sa < sb) as u64,
            LeS => (sa <= sb) as u64,
            GtS => (sa > sb) as u64,
            GeS => (sa >= sb) as u64,
            LtU => (ua < ub) as u64,
            LeU => (ua <= ub) as u64,
            GtU => (ua > ub) as u64,
            GeU => (ua >= ub) as u64,
            _ => unreachable!(),
        })
    }
}

/// Unary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnKind {
    /// Integer negation (UB on `MIN` when `ub_signed`).
    Neg,
    /// Bitwise not.
    BitNot,
    /// Float negation.
    FNeg,
}

impl UnKind {
    /// Evaluates `op a` on a register word at type `ty` (see
    /// [`BinKind::eval`]); no unary operation traps.
    #[inline]
    pub fn eval(self, ty: IrType, a: u64) -> u64 {
        match (self, ty) {
            (UnKind::Neg, IrType::I32) => (a as i32).wrapping_neg() as i64 as u64,
            (UnKind::Neg, _) => (a as i64).wrapping_neg() as u64,
            (UnKind::BitNot, IrType::I32) => !(a as i32) as i64 as u64,
            (UnKind::BitNot, _) => !a,
            (UnKind::FNeg, _) => (-f64::from_bits(a)).to_bits(),
        }
    }
}

/// Cast kinds between IR types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// i32 -> i64, sign extending.
    SextI32I64,
    /// i32 -> i64, zero extending (from unsigned).
    ZextI32I64,
    /// i64 -> i32, truncating.
    TruncI64I32,
    /// i32 (signed) -> f64.
    SI32F64,
    /// i32 (unsigned) -> f64.
    UI32F64,
    /// i64 (signed) -> f64.
    SI64F64,
    /// f64 -> i32 (toward zero; out-of-range is UB in C, we saturate-wrap).
    F64I32,
    /// f64 -> i64.
    F64I64,
}

impl CastKind {
    /// The type a cast produces.
    pub fn result_ty(self) -> IrType {
        use CastKind::*;
        match self {
            SextI32I64 | ZextI32I64 | F64I64 => IrType::I64,
            TruncI64I32 | F64I32 => IrType::I32,
            SI32F64 | UI32F64 | SI64F64 => IrType::F64,
        }
    }

    /// True for the casts that read an `F64` operand.
    pub fn from_float(self) -> bool {
        matches!(self, CastKind::F64I32 | CastKind::F64I64)
    }

    /// Evaluates the cast on a register word (see [`BinKind::eval`]).
    /// Float-to-integer casts saturate, and NaN becomes 0.
    #[inline]
    pub fn eval(self, a: u64) -> u64 {
        use CastKind::*;
        match self {
            SextI32I64 | TruncI64I32 => a as i32 as i64 as u64,
            ZextI32I64 => a as u32 as u64,
            SI32F64 => (a as i32 as f64).to_bits(),
            UI32F64 => (a as u32 as f64).to_bits(),
            SI64F64 => (a as i64 as f64).to_bits(),
            F64I32 => f64::from_bits(a) as i32 as i64 as u64,
            F64I64 => f64::from_bits(a) as i64 as u64,
        }
    }
}

/// What a call targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A user function.
    Func(FuncId),
    /// A runtime builtin.
    Builtin(Builtin),
    /// `pow` lowered to the fast-but-imprecise form (clang-sim `-O3`).
    PowFast,
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are described by the variant docs
pub enum Inst {
    /// `dst = const`.
    Const {
        dst: ValueId,
        ty: IrType,
        val: ConstVal,
    },
    /// `dst = src` (register copy).
    Copy {
        dst: ValueId,
        ty: IrType,
        src: ValueId,
    },
    /// `dst = a op b`. `ub_signed` marks operations whose signed overflow
    /// is UB (the optimizer may assume it never happens).
    Bin {
        dst: ValueId,
        ty: IrType,
        op: BinKind,
        a: ValueId,
        b: ValueId,
        ub_signed: bool,
    },
    /// `dst = op a`.
    Un {
        dst: ValueId,
        ty: IrType,
        op: UnKind,
        a: ValueId,
        ub_signed: bool,
    },
    /// `dst = cast(a)`.
    Cast {
        dst: ValueId,
        kind: CastKind,
        a: ValueId,
    },
    /// `dst = &slot` (address of a frame slot in the current activation).
    FrameAddr { dst: ValueId, slot: SlotId },
    /// `dst = *(addr)` with the given width; `sext` selects sign extension
    /// for sub-word loads.
    Load {
        dst: ValueId,
        ty: IrType,
        addr: ValueId,
        width: MemWidth,
        sext: bool,
    },
    /// `*(addr) = src`.
    Store {
        addr: ValueId,
        src: ValueId,
        width: MemWidth,
    },
    /// Function or builtin call. `arg_tys` lets variadic builtins interpret
    /// register values correctly.
    Call {
        /// The dst.
        dst: Option<ValueId>,
        /// The ret ty.
        ret_ty: IrType,
        /// The callee.
        callee: Callee,
        /// The args.
        args: Vec<ValueId>,
        /// The arg tys.
        arg_tys: Vec<IrType>,
    },
}

// The one listing of each IR node's register fields. Macros, so that the
// shared and the mutable accessors below come from the same match, each
// field borrowed the way the node is. Operands are listed in the order
// `for_each_use` reports them, which is part of its contract (the lint's
// junk domain takes the first tainted operand).
macro_rules! inst_dst {
    ($inst:expr, $as_opt:ident) => {
        match $inst {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::FrameAddr { dst, .. }
            | Inst::Load { dst, .. } => Some(dst),
            Inst::Call { dst, .. } => dst.$as_opt(),
            Inst::Store { .. } => None,
        }
    };
}

macro_rules! inst_uses {
    ($inst:expr, $f:ident) => {
        match $inst {
            Inst::Const { .. } | Inst::FrameAddr { .. } => {}
            Inst::Copy { src: v, .. }
            | Inst::Un { a: v, .. }
            | Inst::Cast { a: v, .. }
            | Inst::Load { addr: v, .. } => $f(v),
            Inst::Bin { a, b, .. } => {
                $f(a);
                $f(b);
            }
            Inst::Store { addr, src, .. } => {
                $f(addr);
                $f(src);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    $f(a);
                }
            }
        }
    };
}

macro_rules! term_uses {
    ($term:expr, $f:ident) => {
        match $term {
            Terminator::Br { cond: v, .. } | Terminator::Ret(Some(v)) => $f(v),
            Terminator::Jump(_) | Terminator::Ret(None) | Terminator::Unreachable => {}
        }
    };
}

impl Inst {
    /// The destination register, if the instruction produces a value.
    pub fn dst(&self) -> Option<ValueId> {
        inst_dst!(self, as_ref).copied()
    }

    /// The destination register field, if the instruction has one.
    pub fn dst_mut(&mut self) -> Option<&mut ValueId> {
        inst_dst!(self, as_mut)
    }

    /// Visits the registers the instruction reads, in operand order:
    /// `src`; `a`, `b`; `addr` (a store's `addr`, then `src`); a call's
    /// arguments in order.
    pub fn for_each_use(&self, mut f: impl FnMut(ValueId)) {
        let mut read = |v: &ValueId| f(*v);
        inst_uses!(self, read)
    }

    /// [`Inst::for_each_use`], visiting each operand field mutably.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut ValueId)) {
        inst_uses!(self, f)
    }

    /// True if removing the instruction (when its result is unused) changes
    /// observable behaviour *under the "UB never happens" assumption*.
    ///
    /// Loads and trapping arithmetic are removable under that assumption —
    /// which is precisely why `-O2` can "lose" a division-by-zero crash
    /// that `-O0` exhibits.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Call { .. })
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are described by the variant docs
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on an `i32` register (non-zero = then).
    Br {
        cond: ValueId,
        then: BlockId,
        els: BlockId,
    },
    /// Return, with an optional value register.
    Ret(Option<ValueId>),
    /// Unreachable (e.g., after `abort()`); executing it traps.
    Unreachable,
}

impl Terminator {
    /// Visits the register the terminator reads: a branch's condition or
    /// a returned value.
    pub fn for_each_use(&self, mut f: impl FnMut(ValueId)) {
        let mut read = |v: &ValueId| f(*v);
        term_uses!(self, read)
    }

    /// [`Terminator::for_each_use`], visiting the field mutably.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut ValueId)) {
        term_uses!(self, f)
    }

    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Br { then, els, .. } => vec![*then, *els],
            Terminator::Ret(_) | Terminator::Unreachable => vec![],
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in `Unreachable` (placeholder during lowering).
    pub fn new() -> Self {
        Block {
            insts: Vec::new(),
            term: Terminator::Unreachable,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

/// Metadata about one frame slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotInfo {
    /// Source-level name (for diagnostics).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Required alignment.
    pub align: u64,
    /// True if the slot's address escapes (&x, arrays, structs) — such
    /// slots can never be promoted to registers.
    pub addressed: bool,
    /// For scalar slots: the IR type a promoted register would have.
    /// `None` for aggregates.
    pub scalar: Option<IrType>,
    /// Set by `mem2reg` when the slot was promoted to a register; promoted
    /// slots get no stack space (frames shrink at `-O1+`, as in real
    /// compilers — itself a source of layout divergence).
    pub promoted: bool,
}

/// A function body in IR form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrFunction {
    /// Source name.
    pub name: String,
    /// Number of parameters; parameters arrive in registers `v0..vN`.
    pub param_count: u32,
    /// Types of the parameter registers.
    pub param_tys: Vec<IrType>,
    /// Return type, if non-void.
    pub ret_ty: Option<IrType>,
    /// Basic blocks; `BlockId(0)` is the entry.
    pub blocks: Vec<Block>,
    /// Frame slots.
    pub slots: Vec<SlotInfo>,
    /// Total number of virtual registers.
    pub reg_count: u32,
    /// Register types (index = `ValueId.0`).
    pub reg_tys: Vec<IrType>,
    /// 1-based source line each register was allocated for (index =
    /// `ValueId.0`; 0 = no source attribution). Stamped by the lowerer,
    /// carried through passes untouched — registers are never renumbered —
    /// so optimized IR stays mappable back to source lines. This is the
    /// span channel the rewrite-provenance log and the IR lint rely on.
    pub reg_lines: Vec<u32>,
}

impl IrFunction {
    /// Allocates a fresh register of type `ty` with no source attribution.
    pub fn new_reg(&mut self, ty: IrType) -> ValueId {
        self.new_reg_at(ty, 0)
    }

    /// Allocates a fresh register of type `ty` attributed to source `line`.
    pub fn new_reg_at(&mut self, ty: IrType, line: u32) -> ValueId {
        let id = ValueId(self.reg_count);
        self.reg_count += 1;
        self.reg_tys.push(ty);
        self.reg_lines.push(line);
        id
    }

    /// Source line for register `v` (0 if unattributed).
    pub fn line_of(&self, v: ValueId) -> u32 {
        self.reg_lines.get(v.0 as usize).copied().unwrap_or(0)
    }

    /// Allocates a fresh block, returning its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    /// Total instruction count (for inlining heuristics and stats).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Blocks reachable from entry, in DFS preorder.
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut order = Vec::new();
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            if seen[b.0 as usize] {
                continue;
            }
            seen[b.0 as usize] = true;
            order.push(b);
            for s in self.blocks[b.0 as usize].term.successors() {
                stack.push(s);
            }
        }
        order
    }
}

/// Initializer of a global.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// Zero-filled (BSS).
    Zero,
    /// A scalar constant written at offset 0 (loader resolves addresses).
    Scalar(ConstVal, MemWidth),
}

/// A global variable specification.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalSpec {
    /// Name (static locals are mangled `function.variable`).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Alignment.
    pub align: u64,
    /// Initializer.
    pub init: GlobalInit,
}

/// A whole program in IR form, before address layout.
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// Functions; `FuncId` indexes this.
    pub functions: Vec<IrFunction>,
    /// Globals; `GlobalId` indexes this.
    pub globals: Vec<GlobalSpec>,
    /// String literals; `StrId` indexes this. Each is NUL-terminated.
    pub strings: Vec<Vec<u8>>,
    /// Index of `main`.
    pub main: FuncId,
}

impl IrProgram {
    /// Looks up a function id by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every register number in `node`'s `Debug` render, in field order:
    /// the fields an enumeration must reach, found without listing them.
    fn registers_in(node: &impl fmt::Debug) -> Vec<u32> {
        format!("{node:?}")
            .split("ValueId(")
            .skip(1)
            .map(|t| t[..t.find(')').unwrap()].parse().unwrap())
            .collect()
    }

    #[test]
    fn register_enumeration_covers_every_field_in_order() {
        let v = ValueId;
        let call = |dst| Inst::Call {
            dst,
            ret_ty: IrType::I32,
            callee: Callee::Builtin(Builtin::Printf),
            args: vec![v(2), v(3), v(4)],
            arg_tys: vec![IrType::I64; 3],
        };
        // Each variant with its destination and its uses in operand order.
        let insts: Vec<(Inst, Option<u32>, Vec<u32>)> = vec![
            (
                Inst::Const {
                    dst: v(1),
                    ty: IrType::I32,
                    val: ConstVal::I32(7),
                },
                Some(1),
                vec![],
            ),
            (
                Inst::Copy {
                    dst: v(1),
                    ty: IrType::I32,
                    src: v(2),
                },
                Some(1),
                vec![2],
            ),
            (
                Inst::Bin {
                    dst: v(3),
                    ty: IrType::I32,
                    op: BinKind::Add,
                    a: v(1),
                    b: v(2),
                    ub_signed: true,
                },
                Some(3),
                vec![1, 2],
            ),
            (
                Inst::Un {
                    dst: v(1),
                    ty: IrType::I64,
                    op: UnKind::Neg,
                    a: v(2),
                    ub_signed: false,
                },
                Some(1),
                vec![2],
            ),
            (
                Inst::Cast {
                    dst: v(1),
                    kind: CastKind::SextI32I64,
                    a: v(2),
                },
                Some(1),
                vec![2],
            ),
            (
                Inst::FrameAddr {
                    dst: v(1),
                    slot: SlotId(5),
                },
                Some(1),
                vec![],
            ),
            (
                Inst::Load {
                    dst: v(1),
                    ty: IrType::I32,
                    addr: v(2),
                    width: MemWidth::W4,
                    sext: true,
                },
                Some(1),
                vec![2],
            ),
            (
                Inst::Store {
                    addr: v(2),
                    src: v(1),
                    width: MemWidth::W4,
                },
                None,
                vec![2, 1],
            ),
            (call(Some(v(1))), Some(1), vec![2, 3, 4]),
            (call(None), None, vec![2, 3, 4]),
        ];
        for (inst, dst, uses) in insts {
            let fields = registers_in(&inst);
            let mut listed: Vec<u32> = dst.into_iter().chain(uses.iter().copied()).collect();
            listed.sort_unstable();
            let mut sorted = fields.clone();
            sorted.sort_unstable();
            assert_eq!(listed, sorted, "the table misses a field of {inst:?}");
            assert_eq!(inst.dst().map(|d| d.0), dst, "{inst:?}");
            let mut seen = Vec::new();
            inst.for_each_use(|u| seen.push(u.0));
            assert_eq!(seen, uses, "{inst:?}");

            let mut moved = inst.clone();
            if let Some(d) = moved.dst_mut() {
                d.0 += 100;
            }
            moved.for_each_use_mut(|u| u.0 += 100);
            let want: Vec<u32> = fields.iter().map(|r| r + 100).collect();
            assert_eq!(registers_in(&moved), want, "{inst:?} -> {moved:?}");
        }

        let terms = [
            (Terminator::Jump(BlockId(1)), vec![]),
            (
                Terminator::Br {
                    cond: v(1),
                    then: BlockId(1),
                    els: BlockId(2),
                },
                vec![1],
            ),
            (Terminator::Ret(Some(v(1))), vec![1]),
            (Terminator::Ret(None), vec![]),
            (Terminator::Unreachable, vec![]),
        ];
        for (term, uses) in terms {
            let fields = registers_in(&term);
            assert_eq!(fields, uses, "the table misses a field of {term:?}");
            let mut seen = Vec::new();
            term.for_each_use(|u| seen.push(u.0));
            assert_eq!(seen, uses, "{term:?}");
            let mut moved = term.clone();
            moved.for_each_use_mut(|u| u.0 += 100);
            let want: Vec<u32> = fields.iter().map(|r| r + 100).collect();
            assert_eq!(registers_in(&moved), want, "{term:?} -> {moved:?}");
        }
    }

    #[test]
    fn side_effects() {
        let bin = Inst::Bin {
            dst: ValueId(3),
            ty: IrType::I32,
            op: BinKind::Add,
            a: ValueId(1),
            b: ValueId(2),
            ub_signed: true,
        };
        assert!(!bin.has_side_effects());
        let store = Inst::Store {
            addr: ValueId(0),
            src: ValueId(1),
            width: MemWidth::W4,
        };
        assert!(store.has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(2)).successors(), vec![BlockId(2)]);
        assert_eq!(
            Terminator::Br {
                cond: ValueId(0),
                then: BlockId(1),
                els: BlockId(2)
            }
            .successors(),
            vec![BlockId(1), BlockId(2)]
        );
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn reachable_blocks_skips_dead() {
        let mut f = IrFunction {
            name: "t".into(),
            param_count: 0,
            param_tys: vec![],
            ret_ty: None,
            blocks: vec![],
            slots: vec![],
            reg_count: 0,
            reg_tys: vec![],
            reg_lines: vec![],
        };
        let b0 = f.new_block();
        let b1 = f.new_block();
        let _dead = f.new_block();
        f.blocks[b0.0 as usize].term = Terminator::Jump(b1);
        f.blocks[b1.0 as usize].term = Terminator::Ret(None);
        let r = f.reachable_blocks();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&b0) && r.contains(&b1));
    }

    #[test]
    fn comparison_classification() {
        assert!(BinKind::LtS.is_comparison());
        assert!(!BinKind::Add.is_comparison());
        assert!(BinKind::FAdd.is_float());
        assert!(BinKind::DivS.can_trap());
        assert!(!BinKind::Mul.can_trap());
    }
}
