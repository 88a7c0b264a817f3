//! The VM core: execution state, memory checks, builtins and the
//! per-instruction reference interpreter.
//!
//! Executes a [`Binary`] exactly as that compiler implementation built it:
//! same instruction stream, same address-space layout, same junk. All
//! defined behaviour is implementation-independent; undefined behaviour
//! falls out of whatever the memory/layout/junk happens to be — which is
//! the point.
//!
//! Every run happens *inside* an [`ExecSession`]: the one-shot
//! [`execute`] entry points simply create a throwaway session per call,
//! while persistent-mode callers reuse one session across inputs and skip
//! the per-run allocation of pages, frames, and allocator maps.
//!
//! Production runs dispatch pre-decoded superblocks (`block.rs`). The
//! per-instruction interpreter here (`Vm::run`) is the reference those
//! superblocks are checked against: only a session built by
//! [`ExecSession::reference`] runs it, and production code never builds
//! one.

use crate::hooks::{FreeDisposition, Hooks, Loc, PoisonUse};
use crate::result::{ExecResult, ExitStatus, Trap};
use crate::session::ExecSession;
use minc::Builtin;
use minc_compile::ir::*;
use minc_compile::Binary;
use std::io::Write as _;

/// Execution limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmConfig {
    /// Maximum IR instructions to execute before reporting a timeout.
    pub step_limit: u64,
    /// Heap size limit in bytes.
    pub heap_limit: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            step_limit: 5_000_000,
            heap_limit: 1 << 26,
        }
    }
}

/// Runs `binary` on `input` with no instrumentation.
pub fn execute(binary: &Binary, input: &[u8], config: &VmConfig) -> ExecResult {
    ExecSession::new(binary).run(binary, input, config)
}

/// Runs `binary` on `input` with instrumentation hooks.
pub fn execute_with_hooks<H: Hooks>(
    binary: &Binary,
    input: &[u8],
    config: &VmConfig,
    hooks: &mut H,
) -> ExecResult {
    ExecSession::new(binary).run_with_hooks(binary, input, config, hooks)
}

/// Runs one execution against an already-prepared session and writes it
/// into `out`, reusing `out.stdout`'s buffer. Called by
/// [`ExecSession::run_into`] after the per-run reset. With `load`, the
/// loader writes rodata and globals and its pages become the session
/// memory's reset base; without, memory already resets to this binary's
/// post-loader image.
pub(crate) fn run_in_session<H: Hooks>(
    session: &mut ExecSession,
    bin: &Binary,
    input: &[u8],
    config: &VmConfig,
    hooks: &mut H,
    load: bool,
    out: &mut ExecResult,
) {
    let track_poison = hooks.track_poison();
    // Move the block translation out of the session before constructing
    // the Vm, which holds the session mutably for the run. The segment
    // ranges come with the translation; only reference runs compute them.
    let block = (!session.reference).then(|| session.take_block_program(bin));
    let (rodata, globals) = match &block {
        Some(prog) => (prog.rodata, prog.globals),
        None => (bin.rodata_range(), bin.globals_range()),
    };
    let mut stdout = std::mem::take(&mut out.stdout);
    stdout.clear();
    let p = &bin.personality;
    let mut vm = Vm {
        bin,
        config,
        hooks,
        s: session,
        stdout,
        input,
        input_pos: 0,
        sp: p.stack_base,
        heap_brk: p.heap_base,
        corruption_bias: 0,
        rand_state: p.rand_seed | 1,
        steps: 0,
        track_poison,
        rodata,
        globals,
    };
    if load {
        vm.load_data();
        vm.s.mem.capture_loader_image();
    }
    out.status = match &block {
        Some(prog) => vm.run_block(prog),
        None => vm.run(),
    };
    out.steps = vm.steps;
    out.stdout = vm.stdout;
    session.block = block;
}

/// Longest C string, in bytes, a builtin reads before it traps with a
/// segfault.
const CSTR_CAP: usize = 1 << 20;

/// Most bytes one run writes to stdout. A write that would take the
/// run's stdout past it is not made: `putchar` and `puts` return EOF, and
/// `printf` stops there and returns -1. Every implementation shares these
/// builtins, so outputs that first differ past the cap compare equal.
const STDOUT_CAP: usize = 1 << 20;

/// `EOF` (-1) as a builtin's return word.
const EOF: u64 = -1i64 as u64;

/// True when writing `more` bytes would take `stdout` past [`STDOUT_CAP`].
fn past_cap(stdout: &[u8], more: usize) -> bool {
    stdout.len() + more > STDOUT_CAP
}

pub(crate) enum End {
    Exit(u8),
    Trap(Trap),
    Fault(crate::result::Fault),
    Timeout,
}

pub(crate) struct Vm<'s, 'b, 'h, H: Hooks> {
    pub(crate) bin: &'b Binary,
    pub(crate) config: &'b VmConfig,
    pub(crate) hooks: &'h mut H,
    /// Session-owned state: memory, the activation stack, allocator maps.
    pub(crate) s: &'s mut ExecSession,
    pub(crate) stdout: Vec<u8>,
    pub(crate) input: &'b [u8],
    pub(crate) input_pos: usize,
    pub(crate) sp: u64,
    pub(crate) heap_brk: u64,
    pub(crate) corruption_bias: u64,
    pub(crate) rand_state: u64,
    pub(crate) steps: u64,
    pub(crate) track_poison: bool,
    pub(crate) rodata: (u64, u64),
    pub(crate) globals: (u64, u64),
}

impl<'s, 'b, 'h, H: Hooks> Vm<'s, 'b, 'h, H> {
    /// Writes rodata and global initializers (the "loader").
    fn load_data(&mut self) {
        for (i, strn) in self.bin.program.strings.iter().enumerate() {
            let addr = self.bin.string_addrs[i];
            self.s.mem.write_bytes(addr, strn);
        }
        // BSS-style zeroing of the whole globals segment, then initializers.
        let (gs, ge) = self.globals;
        self.s.mem.fill(gs, 0, ge - gs);
        for (i, g) in self.bin.program.globals.iter().enumerate() {
            let addr = self.bin.global_addrs[i];
            if let GlobalInit::Scalar(val, width) = &g.init {
                let raw = const_raw(self.bin, *val);
                self.s.mem.write(addr, raw, width.bytes());
            }
        }
    }

    /// The per-instruction reference interpreter (reference sessions
    /// only; see [`ExecSession::reference`]).
    fn run(&mut self) -> ExitStatus {
        match self.push_frame(self.bin.entry().0, &[], &[], None) {
            Ok(()) => {}
            Err(e) => return self.end_status(e),
        }
        loop {
            match self.step() {
                Ok(()) => {}
                Err(e) => return self.end_status(e),
            }
        }
    }

    pub(crate) fn end_status(&self, e: End) -> ExitStatus {
        match e {
            End::Exit(c) => ExitStatus::Code(c),
            End::Trap(t) => ExitStatus::Trapped(t),
            End::Fault(f) => ExitStatus::Sanitizer(f),
            End::Timeout => ExitStatus::TimedOut,
        }
    }

    fn loc(&self) -> Loc {
        let f = self.s.frames.top().expect("active frame");
        Loc {
            func: f.func,
            block: f.block,
            inst: f.inst as u32,
        }
    }

    /// Maximum call depth.
    const MAX_FRAMES: usize = 256;

    pub(crate) fn push_frame(
        &mut self,
        func: u32,
        args: &[u64],
        args_poison: &[bool],
        ret_dst: Option<ValueId>,
    ) -> Result<(), End> {
        if self.s.frames.depth() >= Self::MAX_FRAMES {
            return Err(End::Trap(Trap::StackOverflow));
        }
        let f = &self.bin.program.functions[func as usize];
        let layout = &self.bin.frames[func as usize];
        let base = self.sp;
        let lo = base - layout.frame_size;
        if lo < self.bin.personality.stack_base - self.bin.personality.stack_size {
            return Err(End::Trap(Trap::StackOverflow));
        }
        self.sp = lo;
        // Rewrite the slot above the top in place; clear+resize reproduces
        // the all-zero register file of a fresh allocation, so reusing the
        // slot's vectors is observably identical.
        let act = self.s.frames.enter();
        act.func = func;
        act.block = 0;
        act.inst = 0;
        act.frame_lo = lo;
        act.frame_hi = base;
        act.ret_dst = ret_dst;
        act.regs.clear();
        act.regs.resize(f.reg_count as usize, 0);
        act.poison.clear();
        act.poison.resize(
            if self.track_poison {
                f.reg_count as usize
            } else {
                0
            },
            false,
        );
        for (i, &a) in args.iter().enumerate() {
            act.regs[i] = a;
            if self.track_poison {
                act.poison[i] = args_poison.get(i).copied().unwrap_or(false);
            }
        }
        if H::INERT {
            // No hook reads the slot list; skip building it.
            self.hooks.on_frame_enter(lo, base, &[]);
        } else {
            self.s.slot_scratch.clear();
            self.s.slot_scratch.extend(
                f.slots
                    .iter()
                    .zip(&layout.offset_down)
                    .filter(|(s, _)| !s.promoted)
                    .map(|(s, &off)| (base - off, s.size.max(1))),
            );
            self.hooks.on_frame_enter(lo, base, &self.s.slot_scratch);
        }
        Ok(())
    }

    pub(crate) fn pop_frame(&mut self, ret: Option<u64>, ret_poison: bool) -> Result<(), End> {
        let act = self.s.frames.leave();
        let (lo, hi, ret_dst) = (act.frame_lo, act.frame_hi, act.ret_dst);
        self.hooks.on_frame_exit(lo, hi);
        self.sp = hi;
        let Some(caller) = self.s.frames.top_mut() else {
            return Err(End::Exit(ret.unwrap_or(0) as u8));
        };
        if let Some(dst) = ret_dst {
            caller.regs[dst.0 as usize] = ret.unwrap_or(0);
            if self.track_poison {
                caller.poison[dst.0 as usize] = ret_poison;
            }
        }
        Ok(())
    }

    // ---- memory validity ----

    fn addr_valid(&self, addr: u64, width: u64, write: bool) -> bool {
        let end = addr.wrapping_add(width);
        if end < addr {
            return false;
        }
        let (rs, re) = self.rodata;
        if addr >= rs && end <= re {
            return !write;
        }
        let (gs, ge) = self.globals;
        if addr >= gs && end <= ge {
            return true;
        }
        let (ss, se) = self.stack_band();
        if addr >= ss && end <= se {
            return true;
        }
        if addr >= self.bin.personality.heap_base && end <= self.heap_brk {
            return true;
        }
        false
    }

    /// The whole configured stack band, which is accessible like a mapped
    /// stack: reads below the frame see old junk, and one page above the
    /// initial stack pointer models the argv/environment area —
    /// realistic, and junk-filled per implementation.
    fn stack_band(&self) -> (u64, u64) {
        let p = &self.bin.personality;
        (p.stack_base - p.stack_size, p.stack_base + 4096)
    }

    /// How many bytes from `addr` on lie in the region where
    /// [`addr_valid`](Vm::addr_valid) accepts a one-byte read of `addr`
    /// (0 when it accepts none). Every byte of the run passes the same
    /// check.
    fn readable_run(&self, addr: u64) -> u64 {
        let regions = [
            self.rodata,
            self.globals,
            self.stack_band(),
            (self.bin.personality.heap_base, self.heap_brk),
        ];
        regions
            .into_iter()
            .find(|&(start, end)| addr >= start && addr < end)
            .map_or(0, |(_, end)| end - addr)
    }

    pub(crate) fn check_mem(
        &mut self,
        addr: u64,
        width: u64,
        write: bool,
        loc: Loc,
    ) -> Result<(), End> {
        if write {
            if let Some(f) = self.hooks.check_store(addr, width, loc) {
                return Err(End::Fault(f));
            }
        } else if let Some(f) = self.hooks.check_load(addr, width, loc) {
            return Err(End::Fault(f));
        }
        if !self.addr_valid(addr, width, write) {
            return Err(End::Trap(Trap::Segv));
        }
        Ok(())
    }

    // ---- the step function ----

    fn step(&mut self) -> Result<(), End> {
        self.steps += 1;
        if self.steps > self.config.step_limit {
            return Err(End::Timeout);
        }
        let (func, block, inst_idx) = {
            let a = self.s.frames.top().expect("active frame");
            (a.func, a.block, a.inst)
        };
        // Reborrow the instruction stream through the `'b` binary, not
        // through `self`, so the hot loop never clones an `Inst`.
        let bin: &'b Binary = self.bin;
        let f = &bin.program.functions[func as usize];
        let b = &f.blocks[block as usize];
        if inst_idx < b.insts.len() {
            let inst = &b.insts[inst_idx];
            self.s.frames.top_mut().expect("active frame").inst += 1;
            self.exec_inst(inst)
        } else {
            self.exec_term(&b.term)
        }
    }

    fn reg(&self, v: ValueId) -> u64 {
        self.s.frames.top().expect("frame").regs[v.0 as usize]
    }

    fn reg_poison(&self, v: ValueId) -> bool {
        if !self.track_poison {
            return false;
        }
        self.s.frames.top().expect("frame").poison[v.0 as usize]
    }

    fn set_reg(&mut self, v: ValueId, val: u64, poisoned: bool) {
        let track = self.track_poison;
        let f = self.s.frames.top_mut().expect("frame");
        f.regs[v.0 as usize] = val;
        if track {
            f.poison[v.0 as usize] = poisoned;
        }
    }

    fn exec_inst(&mut self, inst: &Inst) -> Result<(), End> {
        let loc = self.loc();
        match inst {
            Inst::Const { dst, ty, val } => {
                let raw = const_word(self.bin, *ty, *val);
                let poisoned = matches!(val, ConstVal::Junk(_));
                self.set_reg(*dst, raw, poisoned);
                Ok(())
            }
            Inst::Copy { dst, src, .. } => {
                let v = self.reg(*src);
                let p = self.reg_poison(*src);
                self.set_reg(*dst, v, p);
                Ok(())
            }
            Inst::Bin {
                dst,
                ty,
                op,
                a,
                b,
                ub_signed,
            } => {
                let (va, vb) = (self.reg(*a), self.reg(*b));
                if let Some(fault) = self.hooks.check_bin(*op, *ty, va, vb, *ub_signed, loc) {
                    return Err(End::Fault(fault));
                }
                let pa = self.reg_poison(*a) || self.reg_poison(*b);
                if self.track_poison && op.can_trap() && self.reg_poison(*b) {
                    if let Some(fault) = self.hooks.on_poison_use(PoisonUse::Divisor, loc) {
                        return Err(End::Fault(fault));
                    }
                }
                let r = op.eval(*ty, va, vb).ok_or(End::Trap(Trap::Sigfpe))?;
                self.set_reg(*dst, r, pa);
                Ok(())
            }
            Inst::Un { dst, ty, op, a, .. } => {
                let va = self.reg(*a);
                let p = self.reg_poison(*a);
                let r = op.eval(*ty, va);
                self.set_reg(*dst, r, p);
                Ok(())
            }
            Inst::Cast { dst, kind, a } => {
                let va = self.reg(*a);
                let p = self.reg_poison(*a);
                let r = kind.eval(va);
                self.set_reg(*dst, r, p);
                Ok(())
            }
            Inst::FrameAddr { dst, slot } => {
                let a = self.s.frames.top().expect("frame");
                let base = a.frame_hi;
                let off = self.bin.frames[a.func as usize].offset_down[slot.0 as usize];
                self.set_reg(*dst, base - off, false);
                Ok(())
            }
            Inst::Load {
                dst,
                ty,
                addr,
                width,
                sext,
            } => {
                let va = self.reg(*addr);
                if self.track_poison && self.reg_poison(*addr) {
                    if let Some(fault) = self.hooks.on_poison_use(PoisonUse::Address, loc) {
                        return Err(End::Fault(fault));
                    }
                }
                self.check_mem(va, width.bytes(), false, loc)?;
                let raw = self.s.mem.read(va, width.bytes());
                let val = ExtKind::of(*width, *ty, *sext).extend(raw);
                let poisoned = self.track_poison && self.hooks.load_poison(va, width.bytes());
                self.set_reg(*dst, val, poisoned);
                Ok(())
            }
            Inst::Store { addr, src, width } => {
                let va = self.reg(*addr);
                if self.track_poison && self.reg_poison(*addr) {
                    if let Some(fault) = self.hooks.on_poison_use(PoisonUse::Address, loc) {
                        return Err(End::Fault(fault));
                    }
                }
                self.check_mem(va, width.bytes(), true, loc)?;
                let v = self.reg(*src);
                self.s.mem.write(va, v, width.bytes());
                if self.track_poison {
                    let p = self.reg_poison(*src);
                    self.hooks.store_poison(va, width.bytes(), p);
                }
                Ok(())
            }
            Inst::Call {
                dst,
                callee,
                args,
                arg_tys,
                ..
            } => {
                let vals: Vec<u64> = args.iter().map(|a| self.reg(*a)).collect();
                let pois: Vec<bool> = args.iter().map(|a| self.reg_poison(*a)).collect();
                match callee {
                    Callee::Func(fid) => self.push_frame(fid.0, &vals, &pois, *dst),
                    Callee::Builtin(b) => {
                        let r = self.builtin(*b, &vals, arg_tys, loc)?;
                        if let Some(d) = dst {
                            self.set_reg(*d, r.unwrap_or(0), false);
                        }
                        Ok(())
                    }
                    Callee::PowFast => {
                        if let Some(d) = dst {
                            self.set_reg(*d, pow_fast(vals[0], vals[1]), false);
                        }
                        Ok(())
                    }
                }
            }
        }
    }

    fn exec_term(&mut self, term: &Terminator) -> Result<(), End> {
        let loc = self.loc();
        match term {
            Terminator::Jump(t) => {
                self.hooks.on_edge(
                    loc,
                    Loc {
                        func: loc.func,
                        block: t.0,
                        inst: 0,
                    },
                );
                let a = self.s.frames.top_mut().expect("frame");
                a.block = t.0;
                a.inst = 0;
                Ok(())
            }
            Terminator::Br { cond, then, els } => {
                if self.track_poison && self.reg_poison(*cond) {
                    if let Some(fault) = self.hooks.on_poison_use(PoisonUse::Branch, loc) {
                        return Err(End::Fault(fault));
                    }
                }
                let taken = if self.reg(*cond) != 0 { *then } else { *els };
                self.hooks.on_edge(
                    loc,
                    Loc {
                        func: loc.func,
                        block: taken.0,
                        inst: 0,
                    },
                );
                let a = self.s.frames.top_mut().expect("frame");
                a.block = taken.0;
                a.inst = 0;
                Ok(())
            }
            Terminator::Ret(v) => {
                let (val, poi) = match v {
                    Some(r) => (Some(self.reg(*r)), self.reg_poison(*r)),
                    None => (None, false),
                };
                self.pop_frame(val, poi)
            }
            Terminator::Unreachable => Err(End::Trap(Trap::IllegalInstruction)),
        }
    }

    // ---- builtins ----

    /// Reads the NUL-terminated strings at `addrs`, in order, into the
    /// session-pooled string buffer and runs `f` on them. A faulting read
    /// stops there, like one read per string; the buffer returns to the
    /// session either way.
    fn with_cstrs<const N: usize, R>(
        &mut self,
        addrs: [u64; N],
        loc: Loc,
        f: impl FnOnce(&mut Self, [&[u8]; N]) -> Result<R, End>,
    ) -> Result<R, End> {
        let mut buf = std::mem::take(&mut self.s.cstr_buf);
        buf.clear();
        let mut ends = [0usize; N];
        let mut read = Ok(());
        for (end, &addr) in ends.iter_mut().zip(&addrs) {
            read = read.and_then(|()| self.cstr_checked_into(addr, loc, &mut buf));
            *end = buf.len();
        }
        let r = read.and_then(|()| {
            let strs = std::array::from_fn(|i| &buf[if i == 0 { 0 } else { ends[i - 1] }..ends[i]]);
            f(self, strs)
        });
        self.s.cstr_buf = buf;
        r
    }

    /// Reads the NUL-terminated string at `addr` into a caller-owned
    /// buffer (appends without clearing), checking every byte's access; a
    /// string longer than [`CSTR_CAP`] traps.
    ///
    /// When the hooks allow bulk access, the bytes come in chunks that end
    /// at the first NUL, at the end of a page, at the end of the region
    /// the per-byte check accepts the chunk's first byte in, or at the
    /// byte that passes the cap, whichever is first; otherwise, and for a
    /// byte outside every region, a chunk is one checked byte, which
    /// traps there. So the bytes read, the pages touched, the trap and
    /// where it lands are the per-byte loop's.
    fn cstr_checked_into(&mut self, addr: u64, loc: Loc, out: &mut Vec<u8>) -> Result<(), End> {
        let start = out.len();
        let mut a = addr;
        loop {
            let run = if self.hooks.bulk_mem_ok() {
                self.readable_run(a)
            } else {
                0
            };
            let len = if run > 0 {
                run.min((CSTR_CAP + 1 - (out.len() - start)) as u64) as usize
            } else {
                self.check_mem(a, 1, false, loc)?;
                1
            };
            let (n, nul) = self.s.mem.read_until_nul(a, len, out);
            if nul {
                return Ok(());
            }
            if out.len() - start > CSTR_CAP {
                return Err(End::Trap(Trap::Segv));
            }
            a = a.wrapping_add(n as u64);
        }
    }

    /// True when `[addr, addr+len)` can be bulk-accessed without changing
    /// observable behaviour: the hooks run no per-byte instrumentation and
    /// the whole range is valid in one region (so the per-byte loop could
    /// never trap part-way).
    fn bulk_ok(&self, addr: u64, len: u64, write: bool) -> bool {
        len > 0 && self.hooks.bulk_mem_ok() && self.addr_valid(addr, len, write)
    }

    pub(crate) fn builtin(
        &mut self,
        b: Builtin,
        args: &[u64],
        arg_tys: &[IrType],
        loc: Loc,
    ) -> Result<Option<u64>, End> {
        use Builtin::*;
        match b {
            Printf => {
                let n = self.printf(args, arg_tys, loc)?;
                Ok(Some(n as u64))
            }
            Putchar => {
                if past_cap(&self.stdout, 1) {
                    return Ok(Some(EOF));
                }
                self.stdout.push(args[0] as u8);
                Ok(Some(args[0] as u32 as i32 as i64 as u64))
            }
            // A faulting read emits nothing.
            Puts => self.with_cstrs([args[0]], loc, |vm, [s]| {
                if past_cap(&vm.stdout, s.len() + 1) {
                    return Ok(Some(EOF));
                }
                vm.stdout.extend_from_slice(s);
                vm.stdout.push(b'\n');
                Ok(Some(0))
            }),
            Getchar => {
                let r = if self.input_pos < self.input.len() {
                    let c = self.input[self.input_pos] as i64;
                    self.input_pos += 1;
                    c
                } else {
                    -1
                };
                Ok(Some(r as u64))
            }
            ReadInput => {
                let (buf, n) = (args[0], args[1] as i64);
                let avail = (self.input.len() - self.input_pos) as i64;
                let take = n.clamp(0, avail);
                if self.bulk_ok(buf, take as u64, true) {
                    self.s.bulk_ops += 1;
                    let t = take as usize;
                    let bytes = &self.input[self.input_pos..self.input_pos + t];
                    self.s.mem.write_bytes(buf, bytes);
                    self.input_pos += t;
                } else {
                    self.s.fallback_ops += 1;
                    for i in 0..take {
                        self.check_mem(buf.wrapping_add(i as u64), 1, true, loc)?;
                        self.s
                            .mem
                            .write_u8(buf.wrapping_add(i as u64), self.input[self.input_pos]);
                        if self.track_poison {
                            self.hooks
                                .store_poison(buf.wrapping_add(i as u64), 1, false);
                        }
                        self.input_pos += 1;
                    }
                }
                Ok(Some(take as u64))
            }
            InputSize => Ok(Some(self.input.len() as u64)),
            Malloc => {
                let size = args[0];
                Ok(Some(self.malloc(size)))
            }
            Free => {
                self.free(args[0], loc)?;
                Ok(None)
            }
            Memcpy => {
                let (d, s, n) = (args[0], args[1], args[2]);
                if self.bulk_ok(s, n, false) && self.bulk_ok(d, n, true) {
                    self.s.bulk_ops += 1;
                    // Memory::copy preserves the byte-forward overlap
                    // semantics of the per-byte loop below.
                    self.s.mem.copy(d, s, n);
                } else {
                    self.s.fallback_ops += 1;
                    for i in 0..n {
                        self.check_mem(s.wrapping_add(i), 1, false, loc)?;
                        self.check_mem(d.wrapping_add(i), 1, true, loc)?;
                        let byte = self.s.mem.read_u8(s.wrapping_add(i));
                        self.s.mem.write_u8(d.wrapping_add(i), byte);
                        if self.track_poison {
                            let p = self.hooks.load_poison(s.wrapping_add(i), 1);
                            self.hooks.store_poison(d.wrapping_add(i), 1, p);
                        }
                    }
                }
                Ok(Some(d))
            }
            Memset => {
                let (d, v, n) = (args[0], args[1] as u8, args[2]);
                if self.bulk_ok(d, n, true) {
                    self.s.bulk_ops += 1;
                    self.s.mem.fill(d, v, n);
                } else {
                    self.s.fallback_ops += 1;
                    for i in 0..n {
                        self.check_mem(d.wrapping_add(i), 1, true, loc)?;
                        self.s.mem.write_u8(d.wrapping_add(i), v);
                        if self.track_poison {
                            self.hooks.store_poison(d.wrapping_add(i), 1, false);
                        }
                    }
                }
                Ok(Some(d))
            }
            Strlen => self.with_cstrs([args[0]], loc, |_, [s]| Ok(Some(s.len() as u64))),
            Strcpy => {
                let d = args[0];
                self.with_cstrs([args[1]], loc, |vm, [s]| {
                    for (i, &b) in s.iter().chain(std::iter::once(&0)).enumerate() {
                        vm.check_mem(d.wrapping_add(i as u64), 1, true, loc)?;
                        vm.s.mem.write_u8(d.wrapping_add(i as u64), b);
                        if vm.track_poison {
                            vm.hooks.store_poison(d.wrapping_add(i as u64), 1, false);
                        }
                    }
                    Ok(Some(d))
                })
            }
            Strncpy => {
                let (d, n) = (args[0], args[2]);
                self.with_cstrs([args[1]], loc, |vm, [s]| {
                    for i in 0..n {
                        let b = s.get(i as usize).copied().unwrap_or(0);
                        vm.check_mem(d.wrapping_add(i), 1, true, loc)?;
                        vm.s.mem.write_u8(d.wrapping_add(i), b);
                        if vm.track_poison {
                            vm.hooks.store_poison(d.wrapping_add(i), 1, false);
                        }
                    }
                    Ok(Some(d))
                })
            }
            Strcmp => self.with_cstrs([args[0], args[1]], loc, |_, [a, b]| {
                let r = match a.cmp(b) {
                    std::cmp::Ordering::Less => -1i64,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                Ok(Some(r as u64))
            }),
            Exit => Err(End::Exit(args[0] as u8)),
            Abort => Err(End::Trap(Trap::Abort)),
            Pow => {
                let x = f64::from_bits(args[0]);
                let y = f64::from_bits(args[1]);
                Ok(Some(x.powf(y).to_bits()))
            }
            Sqrt => Ok(Some(f64::from_bits(args[0]).sqrt().to_bits())),
            Floor => Ok(Some(f64::from_bits(args[0]).floor().to_bits())),
            Atoi => self.with_cstrs([args[0]], loc, |_, [s]| {
                let txt = String::from_utf8_lossy(s);
                let txt = txt.trim_start();
                let (neg, digits) = match txt.strip_prefix('-') {
                    Some(rest) => (true, rest),
                    None => (false, txt.strip_prefix('+').unwrap_or(txt)),
                };
                let mut v: i64 = 0;
                for c in digits.chars() {
                    let Some(d) = c.to_digit(10) else { break };
                    v = v.wrapping_mul(10).wrapping_add(d as i64);
                    if v > u32::MAX as i64 {
                        break; // overflow behaviour is unspecified; clamp-ish
                    }
                }
                let v = if neg { -v } else { v };
                Ok(Some(v as i32 as i64 as u64))
            }),
            Rand => {
                // Implementation-defined PRNG: xorshift64*.
                let mut x = self.rand_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rand_state = x;
                let r = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) & 0x7fff_ffff;
                Ok(Some(r as i32 as i64 as u64))
            }
        }
    }

    /// Returns 0 (NULL) when the rounded size or the new break does not
    /// fit, as when the heap would pass `heap_limit`.
    fn malloc(&mut self, size: u64) -> u64 {
        let p = &self.bin.personality;
        let Some(asize) = size.max(1).checked_next_multiple_of(p.heap_align) else {
            return 0;
        };
        let redzone = self.hooks.heap_redzone();
        if let Some(list) = self.s.free_lists.get_mut(&asize) {
            if let Some(addr) = list.pop() {
                self.s.live_chunks.insert(addr, asize);
                self.hooks.on_malloc(addr, size);
                return addr;
            }
        }
        let payload = self.heap_brk + p.heap_header + redzone + self.corruption_bias;
        let payload = payload.div_ceil(p.heap_align) * p.heap_align;
        let new_brk = payload
            .checked_add(asize)
            .and_then(|brk| brk.checked_add(redzone));
        match new_brk {
            Some(brk) if brk - p.heap_base <= self.config.heap_limit => self.heap_brk = brk,
            _ => return 0, // OOM -> NULL
        }
        self.s.live_chunks.insert(payload, asize);
        self.hooks.on_malloc(payload, size);
        payload
    }

    fn free(&mut self, ptr: u64, loc: Loc) -> Result<(), End> {
        if ptr == 0 {
            return Ok(()); // free(NULL) is a no-op
        }
        if let Some(size) = self.s.live_chunks.remove(&ptr) {
            match self.hooks.on_free(ptr, size, loc) {
                Ok(FreeDisposition::Reuse) => {
                    // Like glibc, the allocator stores free-list metadata
                    // (fd/bk pointers and a key) inside the freed chunk.
                    // The bytes are implementation-specific — which is why
                    // use-after-free *reads* are unstable code.
                    let head = self.s.free_lists.get(&size).and_then(|l| l.last().copied());
                    let fd = head.unwrap_or(0);
                    let key = self.bin.personality.seed ^ size;
                    self.s.mem.write(ptr, fd, 8.min(size));
                    if size >= 16 {
                        self.s.mem.write(ptr + 8, key, 8);
                    }
                    self.s.free_lists.entry(size).or_default().push(ptr);
                }
                Ok(FreeDisposition::Quarantine) => {}
                Err(f) => return Err(End::Fault(f)),
            }
            return Ok(());
        }
        // Not a live chunk: double free, interior pointer, or non-heap.
        if let Some(f) = self.hooks.on_bad_free(ptr, loc) {
            return Err(End::Fault(f));
        }
        let p = &self.bin.personality;
        let in_heap = ptr >= p.heap_base && ptr < self.heap_brk;
        if !in_heap {
            // glibc-style "free(): invalid pointer" abort.
            return Err(End::Trap(Trap::Abort));
        }
        // Double free / interior free of a small chunk: silent allocator
        // corruption whose magnitude is implementation-specific. Subsequent
        // allocations shift, so any later output that depends on heap
        // contents or addresses diverges across implementations.
        let was_large = self
            .s
            .free_lists
            .iter()
            .any(|(sz, list)| *sz > 128 && list.contains(&ptr));
        if was_large {
            return Err(End::Trap(Trap::Abort)); // tcache/large: detected
        }
        self.corruption_bias = 8 + (p.seed % 5) * 8;
        Ok(())
    }

    // ---- printf ----

    fn printf(&mut self, args: &[u64], arg_tys: &[IrType], loc: Loc) -> Result<i32, End> {
        // The format string goes through the session's string buffer, and
        // the call renders straight onto stdout, which a fault truncates
        // back to where the call began: a faulting printf writes nothing.
        let mut fmt = std::mem::take(&mut self.s.cstr_buf);
        let mut out = std::mem::take(&mut self.stdout);
        fmt.clear();
        let mark = out.len();
        let r = self
            .cstr_checked_into(args[0], loc, &mut fmt)
            .and_then(|()| self.printf_into(&fmt, &mut out, args, arg_tys, loc));
        if r.is_err() {
            out.truncate(mark);
        }
        self.s.cstr_buf = fmt;
        self.stdout = out;
        r
    }

    /// Renders `fmt` with `args` onto the end of `out` and returns what
    /// `printf` returns: the number of bytes written, or -1 when a field
    /// width does not fit an `int` (glibc's `EOVERFLOW`) or a literal run
    /// or field would take `out` past [`STDOUT_CAP`], which ends the call
    /// before that run or field writes anything.
    fn printf_into(
        &mut self,
        fmt: &[u8],
        out: &mut Vec<u8>,
        args: &[u64],
        arg_tys: &[IrType],
        loc: Loc,
    ) -> Result<i32, End> {
        let mark = out.len();
        let mut ai = 1usize; // next vararg
        let mut i = 0usize;
        while i < fmt.len() {
            // The literal run up to the next conversion, copied whole; a
            // `%` that ends the format is literal.
            let lit = match fmt[i..].iter().position(|&c| c == b'%') {
                Some(p) if i + p + 1 < fmt.len() => p,
                _ => fmt.len() - i,
            };
            if past_cap(out, lit) {
                return Ok(-1);
            }
            out.extend_from_slice(&fmt[i..i + lit]);
            i += lit + 1;
            if i > fmt.len() {
                break;
            }
            // Flags and width.
            let mut zero_pad = false;
            let mut width = 0u64;
            if fmt[i] == b'0' {
                zero_pad = true;
                i += 1;
            }
            while i < fmt.len() && fmt[i].is_ascii_digit() {
                // Capped just past `i32::MAX`, so no run of digits can
                // overflow it.
                width = (width * 10 + u64::from(fmt[i] - b'0')).min(1 << 31);
                i += 1;
            }
            if width > i32::MAX as u64 {
                return Ok(-1);
            }
            let width = width as usize;
            let mut long = false;
            if i < fmt.len() && fmt[i] == b'l' {
                long = true;
                i += 1;
                if i < fmt.len() && fmt[i] == b'l' {
                    i += 1;
                }
            }
            if i >= fmt.len() {
                break;
            }
            let conv = fmt[i];
            i += 1;
            let mut next = |vm: &mut Self| -> (u64, IrType) {
                let v = args.get(ai).copied().unwrap_or_else(|| {
                    // Too few arguments: reads "stack garbage".
                    vm.bin.personality.junk_word(0xFFFF + ai as u32)
                });
                let t = arg_tys.get(ai).copied().unwrap_or(IrType::I64);
                ai += 1;
                (v, t)
            };
            // Each conversion renders onto `out` (numbers through a stack
            // buffer); its padding goes in before it afterwards.
            let at = out.len();
            let mut num = [0u8; 24];
            match conv {
                b'%' => out.push(b'%'),
                b'd' | b'i' => {
                    let (v, _) = next(self);
                    let n = if long {
                        v as i64
                    } else {
                        v as u32 as i32 as i64
                    };
                    let len = fmt_dec_i64(n, &mut num);
                    out.extend_from_slice(&num[..len]);
                }
                b'u' => {
                    let (v, _) = next(self);
                    let n = if long { v } else { v as u32 as u64 };
                    let len = fmt_dec_u64(n, &mut num);
                    out.extend_from_slice(&num[..len]);
                }
                b'x' => {
                    let (v, _) = next(self);
                    let n = if long { v } else { v as u32 as u64 };
                    let len = fmt_hex_u64(n, &mut num);
                    out.extend_from_slice(&num[..len]);
                }
                b'c' => out.push(next(self).0 as u8),
                b's' => {
                    let (v, _) = next(self);
                    self.cstr_checked_into(v, loc, out)?;
                }
                b'f' => {
                    let (v, t) = next(self);
                    let x = if t == IrType::F64 {
                        f64::from_bits(v)
                    } else {
                        v as i64 as f64 // %f with an int arg: garbage-ish
                    };
                    write!(out, "{x:.6}").expect("writing to a Vec cannot fail");
                }
                b'p' => {
                    let (v, _) = next(self);
                    let len = fmt_hex_u64(v, &mut num);
                    out.extend_from_slice(b"0x");
                    out.extend_from_slice(&num[..len]);
                }
                other => out.extend_from_slice(&[b'%', other]),
            }
            let len = out.len() - at;
            if past_cap(&out[..at], len.max(width)) {
                out.truncate(at);
                return Ok(-1);
            }
            if len < width {
                let pad = if zero_pad && matches!(conv, b'd' | b'i' | b'u' | b'x') {
                    b'0'
                } else {
                    b' '
                };
                out.splice(at..at, std::iter::repeat_n(pad, width - len));
            }
        }
        Ok((out.len() - mark) as i32)
    }
}

// ---- printf numeric rendering ----
//
// Alloc-free equivalents of `to_string()` / `format!("{:x}")` for the hot
// printf conversions; each writes into the caller's buffer and returns the
// rendered length.

fn fmt_dec_u64(mut n: u64, buf: &mut [u8]) -> usize {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let len = tmp.len() - i;
    buf[..len].copy_from_slice(&tmp[i..]);
    len
}

fn fmt_dec_i64(n: i64, buf: &mut [u8]) -> usize {
    if n < 0 {
        buf[0] = b'-';
        1 + fmt_dec_u64(n.unsigned_abs(), &mut buf[1..])
    } else {
        fmt_dec_u64(n as u64, buf)
    }
}

fn fmt_hex_u64(mut n: u64, buf: &mut [u8]) -> usize {
    let mut tmp = [0u8; 16];
    let mut i = tmp.len();
    loop {
        i -= 1;
        let d = (n & 0xf) as u8;
        tmp[i] = if d < 10 { b'0' + d } else { b'a' + d - 10 };
        n >>= 4;
        if n == 0 {
            break;
        }
    }
    let len = tmp.len() - i;
    buf[..len].copy_from_slice(&tmp[i..]);
    len
}

// ---- shared kernels ----
//
// Pure functions over raw register words, used by both the per-instruction
// interpreter and the block dispatcher so the two backends cannot drift.
// Arithmetic itself is `BinKind::eval`, `UnKind::eval` and `CastKind::eval`
// in `minc_compile::ir`, which the constant folder shares.

/// Resolves a constant to its raw 64-bit register representation.
pub(crate) fn const_raw(bin: &Binary, v: ConstVal) -> u64 {
    match v {
        ConstVal::GlobalAddr(g, off) => (bin.global_addr(g) as i64).wrapping_add(off) as u64,
        ConstVal::StrAddr(s, off) => (bin.string_addr(s) as i64).wrapping_add(off) as u64,
        ConstVal::Junk(id) => bin.personality.junk_word(id),
        ConstVal::I32(_) | ConstVal::I64(_) | ConstVal::F64(_) => {
            v.word().expect("an arithmetic constant has a word")
        }
    }
}

/// The register word an `Inst::Const` of type `ty` writes: the constant's
/// raw word, sign-extended from its low 32 bits at `I32`.
pub(crate) fn const_word(bin: &Binary, ty: IrType, v: ConstVal) -> u64 {
    let raw = const_raw(bin, v);
    if ty == IrType::I32 {
        raw as u32 as i32 as i64 as u64
    } else {
        raw
    }
}

/// clang -O3's imprecise `pow` (`Callee::PowFast`) on register words:
/// `exp2(y * log2(x))` in `f32` precision.
pub(crate) fn pow_fast(x: u64, y: u64) -> u64 {
    let (x, y) = (f64::from_bits(x), f64::from_bits(y));
    (((y as f32) * (x as f32).log2()).exp2() as f64).to_bits()
}

/// How a load extends the memory word it reads to a register word: the
/// `(width, ty, sext)` of an `Inst::Load`, which the block dispatcher
/// resolves once at translation time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ExtKind {
    /// 1 byte, sign-extended.
    S8,
    /// 1 byte, zero-extended.
    U8,
    /// 4 bytes into an i32 register (sign-extended canonical form).
    S32,
    /// 4 bytes, zero-extended (raw i64 destination).
    U32,
    /// Full 8-byte word.
    W8,
}

impl ExtKind {
    /// The extension of a load of `width` bytes into a `ty` register.
    pub(crate) fn of(width: MemWidth, ty: IrType, sext: bool) -> ExtKind {
        match (width, ty, sext) {
            (MemWidth::W1, _, true) => ExtKind::S8,
            (MemWidth::W1, _, false) => ExtKind::U8,
            (MemWidth::W4, IrType::I32, _) => ExtKind::S32,
            (MemWidth::W4, _, _) => ExtKind::U32,
            (MemWidth::W8, _, _) => ExtKind::W8,
        }
    }

    /// Extends the raw memory word `raw` to its register word.
    #[inline(always)]
    pub(crate) fn extend(self, raw: u64) -> u64 {
        match self {
            ExtKind::S8 => raw as u8 as i8 as i64 as u64,
            ExtKind::U8 => raw as u8 as u64,
            ExtKind::S32 => raw as u32 as i32 as i64 as u64,
            ExtKind::U32 => raw as u32 as u64,
            ExtKind::W8 => raw,
        }
    }

    /// Access width in bytes (the `MemWidth` this kind was built from).
    #[inline(always)]
    pub(crate) fn bytes(self) -> u64 {
        match self {
            ExtKind::S8 | ExtKind::U8 => 1,
            ExtKind::S32 | ExtKind::U32 => 4,
            ExtKind::W8 => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minc_compile::{compile_source, CompilerImpl};

    fn run_one(src: &str, impl_name: &str, input: &[u8]) -> ExecResult {
        let bin = compile_source(src, CompilerImpl::parse(impl_name).unwrap()).unwrap();
        execute(&bin, input, &VmConfig::default())
    }

    fn stdout_of(src: &str, impl_name: &str) -> String {
        let r = run_one(src, impl_name, b"");
        assert_eq!(r.status, ExitStatus::Code(0), "{impl_name}: {}", r.status);
        String::from_utf8_lossy(&r.stdout).into_owned()
    }

    #[test]
    fn printf_numeric_rendering_matches_std_formatting() {
        // The alloc-free renderers must stay bit-identical to
        // `to_string()` / `format!("{:x}")` across the extremes.
        let mut buf = [0u8; 24];
        for n in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN, 1_000_000_007] {
            let len = fmt_dec_i64(n, &mut buf);
            assert_eq!(&buf[..len], n.to_string().as_bytes(), "{n}");
        }
        for n in [0u64, 1, 9, 10, u64::MAX, 0xdead_beef] {
            let len = fmt_dec_u64(n, &mut buf);
            assert_eq!(&buf[..len], n.to_string().as_bytes(), "{n}");
            let len = fmt_hex_u64(n, &mut buf);
            assert_eq!(&buf[..len], format!("{n:x}").as_bytes(), "{n:x}");
        }
    }

    #[test]
    fn printf_extreme_values_through_the_vm() {
        let src = r#"
            int main() {
                long big = -9223372036854775807L - 1L;
                printf("%ld %lx %u %p\n", big, big, 4294967295, 0L);
                return 0;
            }
        "#;
        assert_eq!(
            stdout_of(src, "gcc-O0"),
            "-9223372036854775808 8000000000000000 4294967295 0x0\n"
        );
    }

    #[test]
    fn hello_world_all_impls() {
        let src = r#"int main() { printf("hello %s, %d\n", "world", 42); return 0; }"#;
        for ci in CompilerImpl::default_set() {
            assert_eq!(stdout_of(src, &ci.to_string()), "hello world, 42\n", "{ci}");
        }
    }

    #[test]
    fn arithmetic_and_control_flow_agree_across_impls() {
        let src = r#"
            int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
            int main() {
                int i;
                for (i = 0; i < 10; i++) { printf("%d ", fib(i)); }
                printf("\n");
                unsigned u = 4000000000u;
                printf("%u %x\n", u + u, 255);
                long big = 1L << 40;
                printf("%ld\n", big / 3L);
                return 0;
            }
        "#;
        let expect = "0 1 1 2 3 5 8 13 21 34 \n3705032704 ff\n366503875925\n";
        for ci in CompilerImpl::default_set() {
            assert_eq!(stdout_of(src, &ci.to_string()), expect, "{ci}");
        }
    }

    #[test]
    fn pointers_arrays_strings_agree() {
        let src = r#"
            int main() {
                char buf[32];
                strcpy(buf, "minc");
                printf("%d %s\n", (int)strlen(buf), buf);
                int a[5];
                int i;
                for (i = 0; i < 5; i++) a[i] = i * i;
                int* p = a + 1;
                printf("%d %d\n", *p, p[2]);
                return 0;
            }
        "#;
        for ci in CompilerImpl::default_set() {
            assert_eq!(stdout_of(src, &ci.to_string()), "4 minc\n1 9\n", "{ci}");
        }
    }

    #[test]
    fn structs_and_heap_agree() {
        let src = r#"
            struct node { int v; struct node* next; };
            int main() {
                struct node* head = 0;
                int i;
                for (i = 0; i < 4; i++) {
                    struct node* n = (struct node*)malloc(sizeof(struct node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                int sum = 0;
                while (head != 0) { sum += head->v; struct node* d = head; head = head->next; free(d); }
                printf("%d\n", sum);
                return 0;
            }
        "#;
        for ci in CompilerImpl::default_set() {
            assert_eq!(stdout_of(src, &ci.to_string()), "6\n", "{ci}");
        }
    }

    #[test]
    fn input_builtins() {
        let src = r#"
            int main() {
                char buf[16];
                long n = read_input(buf, 15L);
                buf[n] = '\0';
                printf("%ld %s %ld\n", n, buf, input_size());
                int c = getchar();
                printf("%d\n", c);
                return 0;
            }
        "#;
        let bin = compile_source(src, CompilerImpl::parse("gcc-O2").unwrap()).unwrap();
        let r = execute(&bin, b"abc", &VmConfig::default());
        assert_eq!(String::from_utf8_lossy(&r.stdout), "3 abc 3\n-1\n");
    }

    #[test]
    fn exit_status_propagates() {
        assert_eq!(
            run_one("int main() { return 3; }", "gcc-O0", b"").status,
            ExitStatus::Code(3)
        );
        assert_eq!(
            run_one("int main() { exit(7); return 1; }", "clang-O2", b"").status,
            ExitStatus::Code(7)
        );
        assert_eq!(
            run_one("int main() { return -1; }", "gcc-O1", b"").status,
            ExitStatus::Code(255)
        );
    }

    #[test]
    fn null_deref_traps() {
        let r = run_one("int main() { int* p = 0; return *p; }", "gcc-O0", b"");
        assert_eq!(r.status, ExitStatus::Trapped(Trap::Segv));
    }

    #[test]
    fn div_by_zero_traps_at_o0_but_not_when_dead_at_o2() {
        let src = "int main() { int z = input_size() > 100 ? 1 : 0; int dead = 5 / z; return 0; }";
        let o0 = run_one(src, "gcc-O0", b"");
        assert_eq!(o0.status, ExitStatus::Trapped(Trap::Sigfpe));
        let o2 = run_one(src, "gcc-O2", b"");
        assert_eq!(o2.status, ExitStatus::Code(0), "dead division DCE'd at O2");
    }

    #[test]
    fn abort_and_timeout() {
        assert_eq!(
            run_one("int main() { abort(); return 0; }", "gcc-O0", b"").status,
            ExitStatus::Trapped(Trap::Abort)
        );
        let bin = compile_source(
            "int main() { while (1) { } return 0; }",
            CompilerImpl::parse("gcc-O0").unwrap(),
        )
        .unwrap();
        let r = execute(
            &bin,
            b"",
            &VmConfig {
                step_limit: 10_000,
                ..Default::default()
            },
        );
        assert_eq!(r.status, ExitStatus::TimedOut);
    }

    #[test]
    fn stack_overflow_on_deep_recursion() {
        let src = "int f(int n) { char pad[128]; pad[0] = (char)n; return f(n + 1) + pad[0]; }\nint main() { return f(0); }";
        let r = run_one(src, "gcc-O0", b"");
        assert_eq!(r.status, ExitStatus::Trapped(Trap::StackOverflow));
    }

    #[test]
    fn listing1_unstable_across_o0_and_o2() {
        // The paper's Listing 1, scaled to MinC: at -O0 the overflow check
        // catches dump_data(INT_MAX-100, 101); at -O2 the check is gone.
        let src = r#"
            int dump_data(int offset, int len) {
                int size = 100;
                if (offset + len > size || offset < 0 || len < 0) { return -1; }
                if (offset + len < offset) { return -1; }
                return 0;
            }
            int main() {
                int r = dump_data(2147483647 - 100, 101);
                printf("r=%d\n", r);
                return 0;
            }
        "#;
        let o0 = stdout_of(src, "gcc-O0");
        let o2 = stdout_of(src, "gcc-O2");
        assert_eq!(o0, "r=-1\n");
        assert_ne!(o0, o2, "UB-exploiting -O2 must diverge from -O0");
    }

    #[test]
    fn uninitialized_local_diverges_across_impls() {
        let src = r#"
            int main() {
                int u;
                printf("%d\n", u);
                return 0;
            }
        "#;
        let outs: std::collections::HashSet<String> = CompilerImpl::default_set()
            .iter()
            .map(|ci| stdout_of(src, &ci.to_string()))
            .collect();
        assert!(outs.len() >= 2, "uninit read should diverge, got {outs:?}");
    }

    #[test]
    fn eval_order_bug_diverges_across_families() {
        // The tcpdump pattern: two calls returning the same static buffer,
        // both arguments to printf.
        let src = r#"
            char* fmt_num(int v) {
                static char buffer[16];
                int i = 0;
                if (v == 0) { buffer[i] = '0'; i++; }
                while (v > 0) { buffer[i] = (char)('0' + v % 10); v /= 10; i++; }
                buffer[i] = '\0';
                return buffer;
            }
            int main() {
                printf("who-is %s tell %s\n", fmt_num(11), fmt_num(22));
                return 0;
            }
        "#;
        let gcc = stdout_of(src, "gcc-O0");
        let clang = stdout_of(src, "clang-O0");
        assert_ne!(gcc, clang, "conflicting side effects in args must diverge");
        // clang (left-to-right): second call overwrites -> both show 22.
        assert!(clang.contains("who-is 22 tell 22"), "clang: {clang}");
        assert!(gcc.contains("who-is 11 tell 11"), "gcc: {gcc}");
    }

    #[test]
    fn pointer_comparison_diverges_somewhere() {
        // Comparing a stack pointer with a global pointer: ordering depends
        // entirely on the address-space layout.
        let src = r#"
            int g;
            int main() {
                int l = 0;
                if (&l < &g) { printf("stack-first\n"); }
                else { printf("global-first\n"); }
                return l;
            }
        "#;
        let outs: std::collections::HashSet<String> = CompilerImpl::default_set()
            .iter()
            .map(|ci| stdout_of(src, &ci.to_string()))
            .collect();
        // All run fine; layout decides. (Both families put the stack above
        // the data segments, so this one agrees — the point is it is legal
        // either way; cross-object compares between heap and globals etc.
        // diverge in the targets suite.)
        assert!(!outs.is_empty());
    }

    #[test]
    fn line_macro_diverges_on_multiline_statement() {
        let src = "int main() {\n    printf(\"%d\\n\",\n__LINE__);\n    return 0;\n}";
        let gcc = stdout_of(src, "gcc-O0"); // EndLine -> 3
        let clang = stdout_of(src, "clang-O0"); // StartLine -> 2
        assert_eq!(clang.trim(), "2");
        assert_eq!(gcc.trim(), "3");
    }

    #[test]
    fn pow_fast_diverges_at_clang_o3() {
        let src = r#"
            int main() {
                double x = pow(1.5, 13.7);
                printf("%f\n", x);
                return 0;
            }
        "#;
        let clang_o0 = stdout_of(src, "clang-O0");
        let clang_o3 = stdout_of(src, "clang-O3");
        assert_ne!(clang_o0, clang_o3, "fast pow must lose precision");
        let gcc_o3 = stdout_of(src, "gcc-O3");
        assert_eq!(clang_o0, gcc_o3);
    }

    #[test]
    fn rand_is_deterministic_per_impl_but_differs_across() {
        let src = "int main() { printf(\"%d %d\\n\", rand(), rand()); return 0; }";
        let a1 = stdout_of(src, "gcc-O0");
        let a2 = stdout_of(src, "gcc-O0");
        let b = stdout_of(src, "clang-O0");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn malloc_free_reuse_is_lifo() {
        let src = r#"
            int main() {
                char* a = (char*)malloc(32L);
                free(a);
                char* b = (char*)malloc(32L);
                printf("%d\n", a == b ? 1 : 0);
                return 0;
            }
        "#;
        for ci in ["gcc-O0", "clang-O2"] {
            assert_eq!(stdout_of(src, ci), "1\n", "{ci}");
        }
    }

    #[test]
    fn free_of_stack_pointer_aborts() {
        let src = "int main() { int x; free(&x); return 0; }";
        let r = run_one(src, "gcc-O0", b"");
        assert_eq!(r.status, ExitStatus::Trapped(Trap::Abort));
    }

    #[test]
    fn oob_read_within_frame_diverges_across_impls() {
        // Reading one past an array picks up a neighbouring slot byte;
        // which byte depends on the frame layout.
        let src = r#"
            int main() {
                char a[4];
                char b[4];
                int i;
                for (i = 0; i < 4; i++) { a[i] = 'A'; b[i] = 'B'; }
                printf("%d\n", (int)a[6]);
                return 0;
            }
        "#;
        let outs: std::collections::HashSet<String> = CompilerImpl::default_set()
            .iter()
            .map(|ci| stdout_of(src, &ci.to_string()))
            .collect();
        assert!(outs.len() >= 2, "OOB read should diverge: {outs:?}");
    }

    #[test]
    fn widen_mul_int_error_diverges() {
        // The paper's IntError: x = y + a*b with a*b overflowing int.
        // Operands must be runtime values or constant folding hides the
        // difference (both families fold identically — as real ones do).
        let src = r#"
            int main() {
                int a = (int)input_size() + 100000;
                int b = 100000 - (int)input_size();
                long x = (long)(a * b);
                printf("%ld\n", x);
                return 0;
            }
        "#;
        let gcc_o1 = stdout_of(src, "gcc-O1");
        let clang_o1 = stdout_of(src, "clang-O1");
        assert_ne!(gcc_o1, clang_o1);
        assert_eq!(gcc_o1.trim(), "1410065408"); // wrapped 32-bit
        assert_eq!(clang_o1.trim(), "10000000000"); // widened 64-bit
    }

    #[test]
    fn static_buffer_persists_across_calls() {
        let src = r#"
            int counter() { static int n; n++; return n; }
            int main() { counter(); counter(); printf("%d\n", counter()); return 0; }
        "#;
        for ci in CompilerImpl::default_set() {
            assert_eq!(stdout_of(src, &ci.to_string()), "3\n", "{ci}");
        }
    }

    #[test]
    fn printf_width_and_hex() {
        let src = r#"int main() { printf("[%04x] [%3d] [%c]\n", 255, 7, 'Z'); return 0; }"#;
        assert_eq!(stdout_of(src, "gcc-O0"), "[00ff] [  7] [Z]\n");
    }

    #[test]
    fn gcc_o3_unroll_miscompilation_reproduces_rq2() {
        // Trip-count-7 loop with a multiply: gcc-sim -O3 loses an iteration.
        let src = r#"
            int main() {
                int acc = 0;
                int i;
                for (i = 0; i < 7; i++) { acc += i * 3; }
                printf("%d\n", acc);
                return 0;
            }
        "#;
        let good = stdout_of(src, "clang-O3");
        let bad = stdout_of(src, "gcc-O3");
        assert_eq!(good.trim(), "63");
        assert_ne!(good, bad, "seeded miscompilation must be observable");
        let gcc_o2 = stdout_of(src, "gcc-O2");
        assert_eq!(gcc_o2.trim(), "63", "only -O3 unrolling is affected");
    }
}
