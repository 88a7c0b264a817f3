//! UndefinedBehaviorSanitizer analog.
//!
//! Scope (paper Table 1): miscellaneous UBs with cheap local checks —
//! signed integer overflow, division by zero, `INT_MIN / -1`, out-of-range
//! shifts, null dereference. UBSan checks the *operation*, so it fires even
//! when the erroneous value never reaches the output (where CompDiff would
//! miss it) — and conversely it cannot see layout- or order-dependent bugs.

use minc_compile::ir::{BinKind, BinUb, IrType};
use minc_compile::personality::NULL_PAGE;
use minc_vm::hooks::{Hooks, Loc};
use minc_vm::result::{Fault, SanitizerKind};

/// UBSan-analog hook implementation.
#[derive(Debug, Default)]
pub struct Ubsan;

impl Ubsan {
    /// Fresh instance.
    pub fn new() -> Self {
        Ubsan
    }

    fn fault(category: &str, message: String) -> Option<Fault> {
        Some(Fault::new(SanitizerKind::Ubsan, category, message))
    }
}

impl Hooks for Ubsan {
    fn check_bin(
        &mut self,
        op: BinKind,
        ty: IrType,
        a: u64,
        b: u64,
        ub_signed: bool,
        _loc: Loc,
    ) -> Option<Fault> {
        let ub = op.ub(ty, a, b, ub_signed)?;
        let (sa, sb) = (ty.signed(a), ty.signed(b));
        let (category, message) = match ub {
            BinUb::Overflow => (
                "signed-integer-overflow",
                format!("{sa} {op:?} {sb} overflows"),
            ),
            BinUb::DivByZero if matches!(op, BinKind::DivU | BinKind::RemU) => {
                ("integer-divide-by-zero", "unsigned division by zero".into())
            }
            BinUb::DivByZero => ("integer-divide-by-zero", format!("{sa} / 0")),
            BinUb::DivOverflow => (
                "signed-integer-overflow",
                "division overflow MIN / -1".into(),
            ),
            BinUb::ShiftRange => (
                "shift-out-of-bounds",
                format!(
                    "shift amount {sb} out of range for {}-bit operand",
                    ty.bits()
                ),
            ),
            BinUb::ShlOverflow => (
                "shift-out-of-bounds",
                format!("{sa} << {sb} overflows signed type"),
            ),
        };
        Self::fault(category, message)
    }

    fn check_load(&mut self, addr: u64, _width: u64, _loc: Loc) -> Option<Fault> {
        if addr < NULL_PAGE {
            return Self::fault("null-dereference", format!("load from 0x{addr:x}"));
        }
        None
    }

    fn check_store(&mut self, addr: u64, _width: u64, _loc: Loc) -> Option<Fault> {
        if addr < NULL_PAGE {
            return Self::fault("null-dereference", format!("store to 0x{addr:x}"));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::Ubsan;
    use crate::testutil::run_sanitized;
    use minc_compile::ir::{BinKind, BinUb, IrType};
    use minc_vm::hooks::{Hooks, Loc};
    use minc_vm::result::{ExitStatus, Fault, SanitizerKind};

    /// `Ubsan::check_bin` as it was before it read `BinKind::ub`: the
    /// reference the predicate is pinned against.
    fn reference_check_bin(
        op: BinKind,
        ty: IrType,
        a: u64,
        b: u64,
        ub_signed: bool,
    ) -> Option<Fault> {
        use BinKind::*;
        let fault = |category: &str, message: String| {
            Some(Fault::new(SanitizerKind::Ubsan, category, message))
        };
        let narrow = ty == IrType::I32;
        let (sa, sb) = if narrow {
            (a as u32 as i32 as i64, b as u32 as i32 as i64)
        } else {
            (a as i64, b as i64)
        };
        match op {
            Add | Sub | Mul if ub_signed => {
                let wide = match op {
                    Add => (sa as i128) + (sb as i128),
                    Sub => (sa as i128) - (sb as i128),
                    Mul => (sa as i128) * (sb as i128),
                    _ => unreachable!(),
                };
                let (lo, hi) = if narrow {
                    (i32::MIN as i128, i32::MAX as i128)
                } else {
                    (i64::MIN as i128, i64::MAX as i128)
                };
                if wide < lo || wide > hi {
                    return fault(
                        "signed-integer-overflow",
                        format!("{sa} {op:?} {sb} overflows"),
                    );
                }
                None
            }
            DivS | RemS => {
                if sb == 0 {
                    return fault("integer-divide-by-zero", format!("{sa} / 0"));
                }
                let min = if narrow { i32::MIN as i64 } else { i64::MIN };
                if sa == min && sb == -1 {
                    return fault(
                        "signed-integer-overflow",
                        "division overflow MIN / -1".to_string(),
                    );
                }
                None
            }
            DivU | RemU => {
                let ub_ = if narrow { b as u32 as u64 } else { b };
                if ub_ == 0 {
                    return fault("integer-divide-by-zero", "unsigned division by zero".into());
                }
                None
            }
            Shl | ShrS | ShrU => {
                let width: i64 = if narrow { 32 } else { 64 };
                if sb < 0 || sb >= width {
                    return fault(
                        "shift-out-of-bounds",
                        format!("shift amount {sb} out of range for {width}-bit operand"),
                    );
                }
                if op == Shl && ub_signed && sa >= 0 {
                    let wide = (sa as i128) << sb;
                    let hi = if narrow {
                        i32::MAX as i128
                    } else {
                        i64::MAX as i128
                    };
                    if wide > hi {
                        return fault(
                            "shift-out-of-bounds",
                            format!("{sa} << {sb} overflows signed type"),
                        );
                    }
                }
                None
            }
            _ => None,
        }
    }

    const INT_OPS: [BinKind; 23] = {
        use BinKind::*;
        [
            Add, Sub, Mul, DivS, DivU, RemS, RemU, Shl, ShrS, ShrU, And, Or, Xor, Eq, Ne, LtS, LeS,
            GtS, GeS, LtU, LeU, GtU, GeU,
        ]
    };

    /// The grid's operands, each as a sign-extended and a zero-extended
    /// register word.
    fn operand_words() -> Vec<u64> {
        let (i32_min, i32_max) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let values = [
            0,
            1,
            -1,
            2,
            31,
            32,
            33,
            63,
            64,
            65,
            -32,
            -64,
            i32_min,
            i32_min + 1,
            i32_min - 1,
            i32_max,
            i32_max - 1,
            i32_max + 1,
            i64::MIN,
            i64::MAX,
            0x8000_0000,
            0xffff_ffff,
        ];
        let mut words: Vec<u64> = values
            .iter()
            .flat_map(|&v| [v as u64, v as u32 as u64])
            .collect();
        words.sort_unstable();
        words.dedup();
        words
    }

    #[test]
    fn check_bin_equals_the_reference_on_the_operand_grid() {
        let words = operand_words();
        let loc = Loc {
            func: 0,
            block: 0,
            inst: 0,
        };
        let mut ubsan = Ubsan::new();
        let mut fired = 0;
        for op in INT_OPS {
            for ty in [IrType::I32, IrType::I64] {
                for ub_signed in [false, true] {
                    for &a in &words {
                        for &b in &words {
                            let want = reference_check_bin(op, ty, a, b, ub_signed);
                            let got = ubsan.check_bin(op, ty, a, b, ub_signed, loc);
                            assert_eq!(got, want, "{op:?} {ty} {a:#x} {b:#x} {ub_signed}");
                            fired += usize::from(got.is_some());
                        }
                    }
                }
            }
        }
        assert!(fired > 0);
    }

    #[test]
    fn every_ub_verdict_fires_at_both_widths() {
        for ty in [IrType::I32, IrType::I64] {
            let (min, max) = ty.signed_range();
            let cases = [
                (BinKind::Add, max as u64, 1, BinUb::Overflow),
                (BinKind::RemU, 7, 0, BinUb::DivByZero),
                (BinKind::DivS, min as u64, -1i64 as u64, BinUb::DivOverflow),
                (BinKind::ShrS, 1, u64::from(ty.bits()), BinUb::ShiftRange),
                (
                    BinKind::Shl,
                    1,
                    u64::from(ty.bits() - 1),
                    BinUb::ShlOverflow,
                ),
            ];
            for (op, a, b, want) in cases {
                assert_eq!(op.ub(ty, a, b, true), Some(want), "{op:?} {ty}");
                assert!(reference_check_bin(op, ty, a, b, true).is_some());
            }
        }
    }

    fn ubsan_category(src: &str) -> Option<String> {
        match run_sanitized(src, b"", SanitizerKind::Ubsan).status {
            ExitStatus::Sanitizer(f) => Some(f.category),
            _ => None,
        }
    }

    #[test]
    fn detects_signed_overflow() {
        let src = r#"
            int main() {
                int a = 2147483647 - (int)input_size();
                int b = a + 1;
                printf("%d\n", b);
                return 0;
            }
        "#;
        assert_eq!(
            ubsan_category(src).as_deref(),
            Some("signed-integer-overflow")
        );
    }

    #[test]
    fn detects_divide_by_zero() {
        let src = "int main() { int z = (int)input_size(); return 5 / z; }";
        assert_eq!(
            ubsan_category(src).as_deref(),
            Some("integer-divide-by-zero")
        );
    }

    #[test]
    fn detects_oversized_shift() {
        let src = "int main() { int s = 40 + (int)input_size(); return 1 << s; }";
        assert_eq!(ubsan_category(src).as_deref(), Some("shift-out-of-bounds"));
    }

    #[test]
    fn detects_null_dereference() {
        let src = "int main() { int* p = 0; return *p; }";
        assert_eq!(ubsan_category(src).as_deref(), Some("null-dereference"));
    }

    #[test]
    fn unsigned_wrap_is_defined_and_clean() {
        let src = r#"
            int main() {
                unsigned u = 4000000000u;
                printf("%u\n", u + u);
                return 0;
            }
        "#;
        assert_eq!(ubsan_category(src), None);
    }

    #[test]
    fn misses_memory_and_uninit_like_real_ubsan() {
        let uninit = "int main() { int u; printf(\"%d\\n\", u); return 0; }";
        assert_eq!(ubsan_category(uninit), None);
    }
}
