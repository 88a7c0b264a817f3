//! Pass soundness on defined programs: every optimization level must
//! preserve the observable behaviour of UB-free code. (UB-containing code
//! is *allowed* to change — that is the whole point of CompDiff — so these
//! programs are carefully defined.)

use minc_compile::{compile, CompilerImpl};
use minc_vm::{execute, ExitStatus, VmConfig};

fn outputs_for(src: &str, input: &[u8]) -> Vec<(String, String, u8)> {
    let checked = minc::check(src).unwrap();
    let vm = VmConfig::default();
    CompilerImpl::default_set()
        .into_iter()
        .map(|ci| {
            let r = execute(&compile(&checked, ci), input, &vm);
            (
                ci.to_string(),
                String::from_utf8_lossy(&r.stdout).into_owned(),
                r.status.as_code(),
            )
        })
        .collect()
}

fn assert_all_agree(src: &str, input: &[u8]) {
    let outs = outputs_for(src, input);
    let (n0, o0, s0) = &outs[0];
    for (n, o, s) in &outs[1..] {
        assert_eq!((o, s), (o0, s0), "{n0} vs {n}:\n{src}");
    }
}

#[test]
fn cse_dse_do_not_break_aliasing() {
    // Writes through two pointers to the same slot: DSE must not delete
    // the visible store; CSE must not reuse a stale load.
    assert_all_agree(
        r#"
        int main() {
            int x = 1;
            int* p = &x;
            int* q = &x;
            *p = 5;
            *q = 7;
            printf("%d %d\n", *p, x);
            x = 9;
            printf("%d\n", *q);
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn inlining_preserves_static_locals_and_recursion() {
    assert_all_agree(
        r#"
        int counter() { static int n; n++; return n; }
        int twice(int x) { return counter() + x; }
        int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        int main() {
            /* Calls are sequenced through locals: passing several
               side-effecting calls as printf arguments would itself be
               the EvalOrder UB this repository exists to detect. */
            int a = twice(10);
            int b = twice(20);
            int c = counter();
            int d = fib(12);
            printf("%d %d %d %d\n", a, b, c, d);
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn unrolling_preserves_loop_side_effects() {
    // Small counted loops with calls, stores, and dependent values; trip
    // counts avoid the two seeded miscompilation shapes (5-div, 7-mul).
    assert_all_agree(
        r#"
        int log_count;
        void note(int v) { log_count += v; }
        int main() {
            int a[8];
            int i;
            for (i = 0; i < 8; i++) { a[i] = i * i; note(i); }
            int sum = 0;
            for (i = 0; i < 8; i++) { sum += a[i]; }
            printf("%d %d\n", sum, log_count);
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn ub_exploit_spares_defined_overflow_checks() {
    // The unsigned version of the Listing 1 guard is defined and must be
    // honoured by every implementation.
    assert_all_agree(
        r#"
        int check(unsigned off, unsigned len) {
            if (off + len < off) { return -1; }
            return (int)(off + len);
        }
        int main() {
            printf("%d %d\n", check(4294967295u, 10u), check(3u, 4u));
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn branch_folding_keeps_side_effects_of_conditions() {
    assert_all_agree(
        r#"
        int calls;
        int truthy() { calls++; return 1; }
        int main() {
            if (truthy()) { printf("t\n"); }
            while (truthy()) { break; }
            printf("%d\n", calls);
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn copy_prop_across_compound_assignments() {
    assert_all_agree(
        r#"
        int main() {
            int a = 3;
            int b = a;
            b += a;
            b *= b;
            a -= b;
            a <<= 2;
            a ^= b;
            printf("%d %d\n", a, b);
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn input_dependent_control_flow_matches() {
    let src = r#"
        int classify(int c) {
            if (c >= 'a' && c <= 'z') { return 1; }
            if (c >= '0' && c <= '9') { return 2; }
            return 0;
        }
        int main() {
            int c;
            int counts[3];
            int i;
            for (i = 0; i < 3; i++) { counts[i] = 0; }
            while ((c = getchar()) != -1) { counts[classify(c)]++; }
            printf("%d %d %d\n", counts[0], counts[1], counts[2]);
            return 0;
        }
    "#;
    assert_all_agree(src, b"abc123!? ");
    assert_all_agree(src, b"");
    assert_all_agree(src, &[0u8, 255, 128, b'a']);
}

#[test]
fn struct_heavy_code_is_stable() {
    assert_all_agree(
        r#"
        struct pt { int x; int y; };
        struct rect { struct pt lo; struct pt hi; char tag; };
        int area(struct rect* r) { return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y); }
        int main() {
            struct rect r;
            r.lo.x = 1; r.lo.y = 2; r.hi.x = 11; r.hi.y = 22;
            r.tag = 'R';
            struct rect* p = &r;
            printf("%d %c %ld\n", area(p), p->tag, (long)sizeof(struct rect));
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn optimized_binaries_are_not_slower() {
    // -O2 must execute fewer VM steps than -O0 on compute-heavy code
    // (sanity that the pipeline actually optimizes).
    let src = r#"
        int main() {
            long acc = 0;
            int i;
            for (i = 0; i < 2000; i++) { acc += (long)(i * 2 + 1) * 3L; }
            printf("%ld\n", acc);
            return 0;
        }
    "#;
    let checked = minc::check(src).unwrap();
    let vm = VmConfig::default();
    let o0 = execute(
        &compile(&checked, CompilerImpl::parse("gcc-O0").unwrap()),
        b"",
        &vm,
    );
    let o2 = execute(
        &compile(&checked, CompilerImpl::parse("gcc-O2").unwrap()),
        b"",
        &vm,
    );
    assert_eq!(o0.stdout, o2.stdout);
    assert!(
        o2.steps * 10 < o0.steps * 9,
        "-O2 ({}) should beat -O0 ({}) by >10%",
        o2.steps,
        o0.steps
    );
}

#[test]
fn every_level_terminates_with_exit_code() {
    let src = "int main() { exit(5); return 0; }";
    for (_, _, code) in outputs_for(src, b"") {
        assert_eq!(code, 5);
    }
    let _ = ExitStatus::Code(5);
}

#[test]
fn two_dimensional_arrays_are_stable() {
    assert_all_agree(
        r#"
        int main() {
            int m[3][4];
            int i;
            int j;
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 4; j++) { m[i][j] = i * 10 + j; }
            }
            int sum = 0;
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 4; j++) { sum += m[i][j]; }
            }
            printf("%d %d %ld\n", sum, m[2][3], (long)sizeof(m));
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn pointer_walks_through_arrays_are_stable() {
    assert_all_agree(
        r#"
        int main() {
            int a[6];
            int i;
            for (i = 0; i < 6; i++) { a[i] = i + 1; }
            int* p = a;
            int* end = a + 6;
            int prod = 1;
            while (p != end) { prod *= *p; p++; }
            printf("%d %ld\n", prod, end - a);
            return 0;
        }
        "#,
        b"",
    );
}

#[test]
fn do_while_and_continue_paths_are_stable() {
    assert_all_agree(
        r#"
        int main() {
            int n = 0;
            int i = 0;
            do {
                i++;
                if (i % 3 == 0) { continue; }
                if (i > 20) { break; }
                n += i;
            } while (i < 30);
            printf("%d %d\n", n, i);
            return 0;
        }
        "#,
        b"",
    );
}

/// An operand value of one of the table's C types.
#[derive(Clone, Copy)]
enum Val {
    I(i128),
    F(f64),
}

/// A C operand type of the table: how to write a literal of it, how to
/// read one from the input, and its boundary values.
struct Operand {
    ty: &'static str,
    read: &'static str,
    /// Bytes one input value takes.
    width: usize,
    /// The `printf` call printing a value of this type (`{}` is the value).
    print: &'static str,
    vals: Vec<Val>,
}

impl Operand {
    fn literal(&self, v: Val) -> String {
        match (v, self.ty) {
            (Val::I(x), "int") if x == i32::MIN as i128 => "(-2147483647 - 1)".into(),
            (Val::I(x), "int") => format!("({x})"),
            (Val::I(x), "unsigned int") => format!("((unsigned int){x})"),
            (Val::I(x), "long") if x == i64::MIN as i128 => "(-9223372036854775807L - 1L)".into(),
            (Val::I(x), "long") => format!("({x}L)"),
            (Val::I(x), "char*") => format!("((char*){}L)", x as i64),
            (Val::F(x), "double") => format!("({x:?})"),
            _ => unreachable!(),
        }
    }

    fn bytes(&self, v: Val) -> Vec<u8> {
        match v {
            Val::I(x) => (x as i64).to_le_bytes()[..self.width].to_vec(),
            Val::F(x) => x.to_le_bytes().to_vec(),
        }
    }
}

fn ints(vals: &[i128]) -> Vec<Val> {
    vals.iter().map(|&v| Val::I(v)).collect()
}

/// Whether `a op b` on operand type `ty` is defined C (no signed overflow,
/// no shift at or past the width, no zero divisor, no `MIN / -1`).
fn defined_bin(ty: &str, op: &str, a: Val, b: Val) -> bool {
    let (Val::I(a), Val::I(b)) = (a, b) else {
        return op != "/" || !matches!(b, Val::F(y) if y == 0.0);
    };
    let (bits, signed) = match ty {
        "int" => (32, true),
        "unsigned int" => (32, false),
        _ => (64, true),
    };
    let (min, max) = (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1);
    let fits = |v: i128| !signed || (min..=max).contains(&v);
    match op {
        "+" => fits(a + b),
        "-" => fits(a - b),
        "*" => fits(a * b),
        "/" | "%" => b != 0 && !(signed && a == min && b == -1),
        "<<" => (0..bits).contains(&b) && (!signed || (a >= 0 && fits(a << b))),
        ">>" => (0..bits).contains(&b),
        _ => true,
    }
}

/// Whether the conversion `(to)v` is defined C: a double converts only
/// when its integral part fits the target type. (Integer conversions are
/// at worst implementation-defined, and MinC truncates as gcc and clang
/// do. MinC converts a double to `unsigned int` through the signed
/// conversion, so that row stays below 2^31.)
fn defined_cast(to: &str, v: Val) -> bool {
    let Val::F(x) = v else {
        return true;
    };
    let (lo, hi) = match to {
        "char" => (-129.0, 128.0),
        "int" => (-2147483649.0, 2147483648.0),
        "unsigned int" => (-1.0, 2147483648.0),
        "long" => (-9.2e18, 9.2e18),
        _ => return true,
    };
    lo < x && x < hi
}

/// The constant folder and the VM evaluate through one evaluator, and this
/// table checks the glue around it: the conversions between constants
/// and register words, the folded result types and the operand-kind check.
/// Each case prints `op(x, y)` with `x` and `y` read from the input (never
/// folded), then `op(literal, literal)`, which `-O1` and above fold. Every
/// `BinKind`, `UnKind` and `CastKind` a MinC source can express appears
/// at both widths (MinC has no unsigned 64-bit type, so 64-bit `DivU`,
/// `RemU` and `ShrU` have no source form; pointer comparisons give the
/// 64-bit unsigned comparisons), on boundary operands, defined cases only.
#[test]
fn folded_operations_equal_unfolded_on_defined_operands() {
    let int = Operand {
        ty: "int",
        read: "in32()",
        width: 4,
        print: "printf(\"%d\\n\", {});",
        vals: ints(&[0, 1, -1, 3, -13, 31, 46341, 2147483647, -2147483648]),
    };
    let uint = Operand {
        ty: "unsigned int",
        read: "(unsigned int)in32()",
        width: 4,
        print: "printf(\"%u\\n\", {});",
        vals: ints(&[0, 1, 3, 31, 65536, 2147483647, 2147483648, 4294967295]),
    };
    let long = Operand {
        ty: "long",
        read: "in64()",
        width: 8,
        print: "printf(\"%ld\\n\", {});",
        vals: ints(&[
            0,
            1,
            -1,
            5,
            -77,
            63,
            4294967296,
            -2147483649,
            i64::MAX as i128,
            i64::MIN as i128,
        ]),
    };
    let ptr = Operand {
        ty: "char*",
        read: "(char*)in64()",
        width: 8,
        print: "printf(\"%d\\n\", {});",
        vals: ints(&[0, 1, 4096, -1, i64::MIN as i128]),
    };
    let double = Operand {
        ty: "double",
        read: "inf64()",
        width: 8,
        print: "pd({});",
        vals: [
            0.0,
            1.5,
            -2.25,
            0.1,
            3.0,
            -1073741824.75,
            4294967295.5,
            123456789.0,
        ]
        .iter()
        .map(|&v| Val::F(v))
        .collect(),
    };
    const INT_OPS: [&str; 16] = [
        "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "==", "!=", "<", "<=", ">", ">=",
    ];
    const CMP_OPS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];
    const FLOAT_OPS: [&str; 10] = ["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">="];
    let bin_groups: [(&Operand, &[&str]); 5] = [
        (&int, &INT_OPS),
        (&uint, &INT_OPS),
        (&long, &INT_OPS),
        (&ptr, &CMP_OPS),
        (&double, &FLOAT_OPS),
    ];
    let print_int = "printf(\"%d\\n\", {});";

    let mut src = String::from(
        "int in32() { int v; read_input(&v, 4L); return v; }\n\
         long in64() { long v; read_input(&v, 8L); return v; }\n\
         double inf64() { double v; read_input(&v, 8L); return v; }\n\
         void pd(double d) { long b; memcpy(&b, &d, 8L); printf(\"%lx\\n\", b); }\n",
    );
    let mut input = Vec::new();
    let mut labels = Vec::new();
    let mut funcs = Vec::new();
    // One function per operation keeps every body small.
    let mut emit = |body: String| {
        funcs.push(format!("f{}", funcs.len()));
        src.push_str(&format!("void {}() {{\n{body}}}\n", funcs.last().unwrap()));
    };
    for (operand, ops) in bin_groups {
        for op in ops {
            let print = if CMP_OPS.contains(op) {
                print_int
            } else {
                operand.print
            };
            let ty = operand.ty;
            let mut body = format!("    {ty} x;\n    {ty} y;\n");
            for &a in &operand.vals {
                for &b in &operand.vals {
                    if !defined_bin(ty, op, a, b) {
                        continue;
                    }
                    let (la, lb) = (operand.literal(a), operand.literal(b));
                    body.push_str(&format!(
                        "    x = {};\n    y = {};\n",
                        operand.read, operand.read
                    ));
                    body.push_str(&format!(
                        "    {}\n",
                        print.replace("{}", &format!("x {op} y"))
                    ));
                    body.push_str(&format!(
                        "    {}\n",
                        print.replace("{}", &format!("{la} {op} {lb}"))
                    ));
                    input.extend(operand.bytes(a));
                    input.extend(operand.bytes(b));
                    labels.push(format!("{la} {op} {lb}"));
                }
            }
            emit(body);
        }
    }
    // Unary operations: (operand, C operator, result printer).
    let unary: [(&Operand, &str, &str); 7] = [
        (&int, "-", int.print),
        (&int, "~", int.print),
        (&uint, "-", uint.print),
        (&uint, "~", uint.print),
        (&long, "-", long.print),
        (&long, "~", long.print),
        (&double, "-", double.print),
    ];
    // Conversions: (operand, target type, result printer).
    let casts: [(&Operand, &str, &str); 13] = [
        (&int, "long", long.print),
        (&int, "double", double.print),
        (&int, "char", print_int),
        (&uint, "long", long.print),
        (&uint, "double", double.print),
        (&long, "int", int.print),
        (&long, "unsigned int", uint.print),
        (&long, "char", print_int),
        (&long, "double", double.print),
        (&double, "int", int.print),
        (&double, "long", long.print),
        (&double, "unsigned int", uint.print),
        (&double, "char", print_int),
    ];
    let unary_rows = unary.iter().map(|&(o, op, p)| (o, op.to_string(), None, p));
    let cast_rows = casts
        .iter()
        .map(|&(o, to, p)| (o, format!("({to})"), Some(to), p));
    for (operand, prefix, to, print) in unary_rows.chain(cast_rows) {
        let mut body = format!("    {} x;\n", operand.ty);
        for &a in &operand.vals {
            let defined = match (to, a) {
                (Some(to), _) => defined_cast(to, a),
                // Negating the minimum of a signed type overflows.
                (None, Val::I(x)) if prefix == "-" => match operand.ty {
                    "int" => x != i32::MIN as i128,
                    "long" => x != i64::MIN as i128,
                    _ => true,
                },
                (None, _) => true,
            };
            if !defined {
                continue;
            }
            let la = operand.literal(a);
            body.push_str(&format!("    x = {};\n", operand.read));
            body.push_str(&format!(
                "    {}\n",
                print.replace("{}", &format!("{prefix}x"))
            ));
            body.push_str(&format!(
                "    {}\n",
                print.replace("{}", &format!("{prefix}{la}"))
            ));
            input.extend(operand.bytes(a));
            labels.push(format!("{prefix}{la}"));
        }
        emit(body);
    }
    src.push_str("int main() {\n");
    for f in &funcs {
        src.push_str(&format!("    {f}();\n"));
    }
    src.push_str("    return 0;\n}\n");

    let outs = outputs_for(&src, &input);
    for (n, o, s) in &outs {
        assert_eq!(*s, 0, "{n} exited {s}");
        let lines: Vec<&str> = o.lines().collect();
        assert_eq!(lines.len(), 2 * labels.len(), "{n}");
        for (pair, label) in lines.chunks(2).zip(&labels) {
            assert_eq!(pair[0], pair[1], "{n}: `{label}` unfolded vs folded");
        }
    }
    let (n0, o0, _) = &outs[0];
    for (n, o, _) in &outs[1..] {
        assert!(o == o0, "{n0} and {n} print different bytes");
    }
}
