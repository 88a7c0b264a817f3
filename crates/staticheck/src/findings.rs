//! Finding model shared by the three analyzer analogs.

use minc::Span;
use std::fmt;

/// Which analyzer produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// Coverity analog: value-range heuristics, flags "possible" issues
    /// aggressively (non-negligible false positives).
    CoveritySim,
    /// Cppcheck analog: conservative syntactic patterns, few false
    /// positives, low recall.
    CppcheckSim,
    /// Infer analog: memory-shape tracking, strong on pointers, noisy on
    /// may-issues.
    InferSim,
    /// CompDiff's own IR-level unstable-code lint (dataflow over optimized
    /// IR plus optimizer rewrite provenance). Implemented in the
    /// `staticheck-ir` crate; this variant exists so all four tool columns
    /// share one `Finding` surface.
    CompdiffLint,
}

impl fmt::Display for Tool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tool::CoveritySim => "coverity-sim",
            Tool::CppcheckSim => "cppcheck-sim",
            Tool::InferSim => "infer-sim",
            Tool::CompdiffLint => "compdiff-lint",
        };
        f.write_str(s)
    }
}

/// Defect categories the analyzers report. The Juliet harness maps these
/// onto CWE groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Defect {
    /// Out-of-bounds read/write (stack or heap).
    OutOfBounds,
    /// Use of an uninitialized variable.
    Uninitialized,
    /// Division by zero.
    DivByZero,
    /// Integer overflow/underflow.
    IntegerOverflow,
    /// Use after free.
    UseAfterFree,
    /// Double free.
    DoubleFree,
    /// Free of non-heap memory.
    BadFree,
    /// Null pointer dereference.
    NullDeref,
    /// Suspicious API usage (e.g. swapped `memset` arguments).
    BadApiUsage,
    /// Format string / variadic argument mismatch.
    FormatMismatch,
    /// Relational comparison of unrelated pointers.
    PointerCompare,
    /// Pointer subtraction across objects.
    PointerSubtraction,
    /// Shift amount out of range for the operand width.
    BadShift,
    /// A value-returning function can fall off its end.
    MissingReturn,
    /// A loop whose optimized trip count disagrees with the source trip
    /// count (the seeded RQ2 miscompilation; only the IR lint's rewrite
    /// provenance channel can report this).
    MiscompiledLoop,
}

impl Defect {
    /// Every defect class, in declaration order.
    pub const ALL: [Defect; 15] = [
        Defect::OutOfBounds,
        Defect::Uninitialized,
        Defect::DivByZero,
        Defect::IntegerOverflow,
        Defect::UseAfterFree,
        Defect::DoubleFree,
        Defect::BadFree,
        Defect::NullDeref,
        Defect::BadApiUsage,
        Defect::FormatMismatch,
        Defect::PointerCompare,
        Defect::PointerSubtraction,
        Defect::BadShift,
        Defect::MissingReturn,
        Defect::MiscompiledLoop,
    ];

    /// The defect class whose [`name`](Defect::name) is `name`.
    pub fn parse(name: &str) -> Option<Defect> {
        Defect::ALL.into_iter().find(|d| d.name() == name)
    }

    /// The class's name, as [`Display`](fmt::Display) prints it.
    pub fn name(self) -> &'static str {
        match self {
            Defect::OutOfBounds => "out-of-bounds",
            Defect::Uninitialized => "uninitialized-use",
            Defect::DivByZero => "division-by-zero",
            Defect::IntegerOverflow => "integer-overflow",
            Defect::UseAfterFree => "use-after-free",
            Defect::DoubleFree => "double-free",
            Defect::BadFree => "bad-free",
            Defect::NullDeref => "null-dereference",
            Defect::BadApiUsage => "bad-api-usage",
            Defect::FormatMismatch => "format-mismatch",
            Defect::PointerCompare => "pointer-compare",
            Defect::PointerSubtraction => "pointer-subtraction",
            Defect::BadShift => "bad-shift",
            Defect::MissingReturn => "missing-return",
            Defect::MiscompiledLoop => "miscompiled-loop",
        }
    }
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Reporting tool.
    pub tool: Tool,
    /// Defect class.
    pub defect: Defect,
    /// Location.
    pub span: Span,
    /// Human-readable detail.
    pub message: String,
}

impl Finding {
    /// Creates a finding.
    pub fn new(tool: Tool, defect: Defect, span: Span, message: impl Into<String>) -> Self {
        Finding {
            tool,
            defect,
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.tool, self.defect, self.span, self.message
        )
    }
}
