//! Execution outcomes.

use std::fmt;

/// A hardware-like trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Invalid memory access (SIGSEGV analog).
    Segv,
    /// Integer division fault (SIGFPE analog: `/0`, `INT_MIN / -1`).
    Sigfpe,
    /// `abort()` or allocator-detected corruption (SIGABRT analog).
    Abort,
    /// Stack exhausted.
    StackOverflow,
    /// Executed an `Unreachable` terminator (SIGILL analog).
    IllegalInstruction,
}

impl Trap {
    /// Conventional `128 + signal` exit code.
    pub fn exit_code(self) -> u8 {
        match self {
            Trap::Segv => 139,
            Trap::Sigfpe => 136,
            Trap::Abort => 134,
            Trap::StackOverflow => 139,
            Trap::IllegalInstruction => 132,
        }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Trap::Segv => "segmentation fault",
            Trap::Sigfpe => "floating point exception (integer divide)",
            Trap::Abort => "aborted",
            Trap::StackOverflow => "stack overflow",
            Trap::IllegalInstruction => "illegal instruction",
        };
        f.write_str(s)
    }
}

/// The sanitizer that produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SanitizerKind {
    /// AddressSanitizer analog.
    Asan,
    /// UndefinedBehaviorSanitizer analog.
    Ubsan,
    /// MemorySanitizer analog.
    Msan,
}

impl SanitizerKind {
    /// The three sanitizers, in the fixed order every scan uses.
    pub const ALL: [SanitizerKind; 3] = [
        SanitizerKind::Asan,
        SanitizerKind::Ubsan,
        SanitizerKind::Msan,
    ];
}

impl fmt::Display for SanitizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SanitizerKind::Asan => "ASan",
            SanitizerKind::Ubsan => "UBSan",
            SanitizerKind::Msan => "MSan",
        };
        f.write_str(s)
    }
}

/// A sanitizer report (aborts execution, like real sanitizers).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Which sanitizer fired.
    pub kind: SanitizerKind,
    /// Short machine-readable category, e.g. `heap-buffer-overflow`.
    pub category: String,
    /// Human-readable detail.
    pub message: String,
}

impl Fault {
    /// Creates a fault report.
    pub fn new(
        kind: SanitizerKind,
        category: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Fault {
            kind,
            category: category.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.kind, self.category, self.message)
    }
}

/// How an execution ended.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExitStatus {
    /// Normal termination with an exit code (shell-style low 8 bits).
    Code(u8),
    /// Killed by a trap.
    Trapped(Trap),
    /// A sanitizer reported and aborted.
    Sanitizer(Fault),
    /// Exceeded the step budget.
    TimedOut,
}

impl ExitStatus {
    /// The byte that enters the output checksum (what a shell would see).
    pub fn as_code(&self) -> u8 {
        match self {
            ExitStatus::Code(c) => *c,
            ExitStatus::Trapped(t) => t.exit_code(),
            ExitStatus::Sanitizer(_) => 1,
            ExitStatus::TimedOut => 124,
        }
    }

    /// True for crash-like endings (what a fuzzer saves as a crash).
    pub fn is_crash(&self) -> bool {
        matches!(self, ExitStatus::Trapped(_) | ExitStatus::Sanitizer(_))
    }
}

impl fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitStatus::Code(c) => write!(f, "exit {c}"),
            ExitStatus::Trapped(t) => write!(f, "killed: {t}"),
            ExitStatus::Sanitizer(r) => write!(f, "sanitizer: {r}"),
            ExitStatus::TimedOut => write!(f, "timeout"),
        }
    }
}

/// The result of one execution.
///
/// [`ExecSession::run_into`](crate::ExecSession::run_into) writes a run
/// into a caller-owned result and keeps its `stdout` capacity, and
/// `clone_from` copies into the existing buffer, so a result slot that is
/// reused run after run stops allocating once it has grown. The default
/// is an empty slot (`exit 0`, no output, no steps).
#[derive(Debug, PartialEq)]
pub struct ExecResult {
    /// How execution ended.
    pub status: ExitStatus,
    /// Captured stdout bytes.
    pub stdout: Vec<u8>,
    /// Instructions executed.
    pub steps: u64,
}

impl Default for ExecResult {
    fn default() -> Self {
        ExecResult {
            status: ExitStatus::Code(0),
            stdout: Vec::new(),
            steps: 0,
        }
    }
}

impl Clone for ExecResult {
    fn clone(&self) -> Self {
        ExecResult {
            status: self.status.clone(),
            stdout: self.stdout.clone(),
            steps: self.steps,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.status.clone_from(&source.status);
        self.stdout.clone_from(&source.stdout);
        self.steps = source.steps;
    }
}

impl ExecResult {
    /// The observable output: stdout plus the exit code byte. This is what
    /// CompDiff checksums (paper §3.2: stdout+stderr redirected to a file,
    /// compared by MurmurHash3).
    pub fn observable(&self) -> Vec<u8> {
        let mut v = self.stdout.clone();
        v.push(0x1e); // record separator between stream and status
        v.push(self.status.as_code());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_shell_convention() {
        assert_eq!(Trap::Segv.exit_code(), 139);
        assert_eq!(Trap::Abort.exit_code(), 134);
        assert_eq!(ExitStatus::Code(3).as_code(), 3);
        assert_eq!(ExitStatus::Trapped(Trap::Sigfpe).as_code(), 136);
    }

    #[test]
    fn observable_differs_on_status() {
        let a = ExecResult {
            status: ExitStatus::Code(0),
            stdout: b"x".to_vec(),
            steps: 1,
        };
        let b = ExecResult {
            status: ExitStatus::Trapped(Trap::Segv),
            stdout: b"x".to_vec(),
            steps: 1,
        };
        assert_ne!(a.observable(), b.observable());
    }

    #[test]
    fn crash_classification() {
        assert!(ExitStatus::Trapped(Trap::Abort).is_crash());
        assert!(!ExitStatus::Code(1).is_crash());
        assert!(!ExitStatus::TimedOut.is_crash());
    }
}
