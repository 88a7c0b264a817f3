//! Pretty-printer: renders an AST back to MinC source.
//!
//! Used by the Juliet generator for debugging and golden tests; the output
//! re-parses to an equivalent tree (round-trip property-tested in the
//! crate's test suite).

use crate::ast::*;
use crate::types::Type;
use std::fmt::Write;

/// Renders a whole program.
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for s in &p.structs {
        let _ = writeln!(out, "struct {} {{", s.name);
        for f in &s.fields {
            let _ = writeln!(out, "    {};", declarator(&f.ty, &f.name));
        }
        let _ = writeln!(out, "}};");
    }
    for g in &p.globals {
        match &g.init {
            Some(init) => {
                let _ = writeln!(out, "{} = {};", declarator(&g.ty, &g.name), expr(init));
            }
            None => {
                let _ = writeln!(out, "{};", declarator(&g.ty, &g.name));
            }
        }
    }
    for f in &p.functions {
        let params = f
            .params
            .iter()
            .map(|p| declarator(&p.ty, &p.name))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "{} {}({}) {}",
            type_name(&f.ret),
            f.name,
            params,
            stmt(&f.body, 0)
        );
    }
    out
}

/// Renders a type as it appears before a declarator (`int*`, `struct s`).
pub fn type_name(t: &Type) -> String {
    t.to_string()
}

/// Renders `type name` with C array-suffix syntax.
pub fn declarator(t: &Type, name: &str) -> String {
    match t {
        Type::Array(inner, n) => {
            let base = declarator(inner, name);
            // Insert the dimension after the name (handles nested arrays).
            format!("{base}[{n}]")
        }
        other => format!("{} {}", type_name(other), name),
    }
}

/// Renders a statement at `indent` levels.
pub fn stmt(s: &Stmt, indent: usize) -> String {
    let pad = "    ".repeat(indent);
    match &s.kind {
        StmtKind::Decl {
            name,
            ty,
            storage,
            init,
        } => {
            let st = if *storage == Storage::Static {
                "static "
            } else {
                ""
            };
            match init {
                Some(e) => format!("{st}{} = {};", declarator(ty, name), expr(e)),
                None => format!("{st}{};", declarator(ty, name)),
            }
        }
        StmtKind::Expr(e) => format!("{};", expr(e)),
        StmtKind::If { cond, then, els } => {
            let mut out = format!("if ({}) {}", expr(cond), inner_stmt(then, indent));
            if let Some(e) = els {
                out.push_str(&format!(" else {}", inner_stmt(e, indent)));
            }
            out
        }
        StmtKind::While { cond, body } => {
            format!("while ({}) {}", expr(cond), inner_stmt(body, indent))
        }
        StmtKind::DoWhile { body, cond } => {
            format!("do {} while ({});", inner_stmt(body, indent), expr(cond))
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            let init_s = match init {
                Some(i) => stmt(i, 0),
                None => ";".to_string(),
            };
            let cond_s = cond.as_ref().map(expr).unwrap_or_default();
            let step_s = step.as_ref().map(expr).unwrap_or_default();
            format!(
                "for ({init_s} {cond_s}; {step_s}) {}",
                inner_stmt(body, indent)
            )
        }
        StmtKind::Return(None) => "return;".to_string(),
        StmtKind::Return(Some(e)) => format!("return {};", expr(e)),
        StmtKind::Break => "break;".to_string(),
        StmtKind::Continue => "continue;".to_string(),
        StmtKind::Block(stmts) => {
            let mut out = String::from("{\n");
            for st in stmts {
                let _ = writeln!(out, "{pad}    {}", stmt(st, indent + 1));
            }
            let _ = write!(out, "{pad}}}");
            out
        }
        StmtKind::Empty => ";".to_string(),
    }
}

fn inner_stmt(s: &Stmt, indent: usize) -> String {
    if matches!(s.kind, StmtKind::Block(_)) {
        stmt(s, indent)
    } else {
        // Wrap non-block bodies in braces for re-parse safety.
        format!("{{ {} }}", stmt(s, indent))
    }
}

/// Renders an expression (fully parenthesized — correctness over beauty).
pub fn expr(e: &Expr) -> String {
    match &e.kind {
        ExprKind::IntLit { value, long } => {
            if *long {
                format!("{value}L")
            } else if *value < 0 {
                // A negative literal only arises from folding; print in a
                // re-parseable form.
                format!("({value})").replace("(-", "(0 - ")
            } else {
                format!("{value}")
            }
        }
        ExprKind::FloatLit(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        ExprKind::CharLit(c) => match *c {
            b'\n' => "'\\n'".to_string(),
            b'\t' => "'\\t'".to_string(),
            b'\\' => "'\\\\'".to_string(),
            b'\'' => "'\\''".to_string(),
            0 => "'\\0'".to_string(),
            c if c.is_ascii_graphic() || c == b' ' => format!("'{}'", c as char),
            c => format!("'\\x{c:02x}'"),
        },
        ExprKind::StrLit(bytes) => {
            let mut out = String::from("\"");
            for &b in bytes {
                match b {
                    b'\n' => out.push_str("\\n"),
                    b'\t' => out.push_str("\\t"),
                    b'"' => out.push_str("\\\""),
                    b'\\' => out.push_str("\\\\"),
                    0 => out.push_str("\\0"),
                    b if b.is_ascii_graphic() || b == b' ' => out.push(b as char),
                    b => out.push_str(&format!("\\x{b:02x}")),
                }
            }
            out.push('"');
            out
        }
        ExprKind::Var(n) => n.clone(),
        ExprKind::Line => "__LINE__".to_string(),
        ExprKind::Unary { op, operand } => {
            format!("({}{})", op.token().symbol(), expr(operand))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({} {} {})", expr(lhs), op.token().symbol(), expr(rhs))
        }
        ExprKind::Logical { and, lhs, rhs } => {
            format!(
                "({} {} {})",
                expr(lhs),
                if *and { "&&" } else { "||" },
                expr(rhs)
            )
        }
        ExprKind::Assign { op, target, value } => match op {
            Some(op) => format!(
                "({} {}= {})",
                expr(target),
                op.token().symbol(),
                expr(value)
            ),
            None => format!("({} = {})", expr(target), expr(value)),
        },
        ExprKind::IncDec { inc, pre, target } => {
            let op = if *inc { "++" } else { "--" };
            if *pre {
                format!("({op}{})", expr(target))
            } else {
                format!("({}{op})", expr(target))
            }
        }
        ExprKind::Cond { cond, then, els } => {
            format!("({} ? {} : {})", expr(cond), expr(then), expr(els))
        }
        ExprKind::Call { callee, args } => {
            let a = args.iter().map(expr).collect::<Vec<_>>().join(", ");
            format!("{callee}({a})")
        }
        ExprKind::Index { base, index } => format!("{}[{}]", expr(base), expr(index)),
        ExprKind::Member { base, field } => format!("{}.{field}", expr(base)),
        ExprKind::Arrow { base, field } => format!("{}->{field}", expr(base)),
        ExprKind::Cast { to, value } => format!("(({}){})", type_name(to), expr(value)),
        ExprKind::SizeofType(t) => format!("sizeof({})", type_name(t)),
        ExprKind::SizeofExpr(inner) => format!("sizeof {}", expr(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trips_simple_program() {
        let src = r#"
            struct pkt { int len; char payload[8]; };
            int counter = 3;
            int add(int a, int b) { return a + b; }
            int main() {
                int i;
                for (i = 0; i < 4; i++) { counter += add(i, 2); }
                struct pkt p;
                p.len = counter;
                char* s = "hi\n";
                printf("%d %s", p.len, s);
                return 0;
            }
        "#;
        let p1 = parse(src).unwrap();
        let printed = program(&p1);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        // Structural equivalence modulo node ids/spans: compare re-printed text.
        assert_eq!(printed, program(&p2));
    }

    #[test]
    fn declarator_arrays() {
        assert_eq!(
            declarator(&Type::Array(Box::new(Type::Char), 16), "buf"),
            "char buf[16]"
        );
        assert_eq!(declarator(&Type::Int.ptr_to(), "p"), "int* p");
    }

    #[test]
    fn string_escapes() {
        let p = parse("int main() { char* s = \"a\\n\\x01\"; return 0; }").unwrap();
        let printed = program(&p);
        assert!(printed.contains("\\n"));
        assert!(printed.contains("\\x01"));
        parse(&printed).unwrap();
    }
}
