//! The frontend's syntax-tree depth bound (`minc::parser::MAX_DEPTH`).
//!
//! Outside sources reach the frontend on spawned worker threads
//! (`compdiff run/fuzz/scan/lint/sancheck <file>`, `--dir`,
//! `--progen-dir`), whose stacks are 2 MiB by default. Sema, lowering and
//! lint all recurse over the tree, so the bound must leave each of them
//! room on such a stack: a program exactly at the bound has to get
//! through all of them there.

use minc::parser::MAX_DEPTH;
use minc_compile::CompilerImpl;

/// For each nesting shape, a program whose tree is exactly `MAX_DEPTH`
/// levels deep and the same shape one level deeper. `main`, its body and
/// the innermost statement take three levels around each shape's own.
fn programs_at_the_bound() -> Vec<(String, String)> {
    let n = MAX_DEPTH as usize - 4;
    let main = |body: String| format!("int main() {{ int x = 1; {body} }}");
    let parens = |k: usize| main(format!("return {}x{};", "(".repeat(k), ")".repeat(k)));
    let nots = |k: usize| main(format!("return {}x;", "!".repeat(k)));
    let ifs = |k: usize| main(format!("{}return x;", "if (x) ".repeat(k)));
    let sum = |k: usize| main(format!("return x{};", " + x".repeat(k)));
    // `(x + (x + ... (x + x) ...))`: parentheses and an addition per nest.
    let nest = |k: usize| main(format!("return {}x{};", "(x + ".repeat(k), ")".repeat(k)));
    let shapes: [&dyn Fn(usize) -> String; 4] = [&parens, &nots, &ifs, &sum];
    let mut programs: Vec<(String, String)> = shapes
        .iter()
        .map(|shape| (shape(n), shape(n + 1)))
        .collect();
    programs.push((nest(n / 2), nest(n / 2 + 1)));
    programs
}

#[test]
fn programs_at_the_depth_bound_check_compile_and_lint_on_a_worker_stack() {
    std::thread::spawn(|| {
        let lint = staticheck_ir::UnstableLint::new();
        for (fits, too_deep) in programs_at_the_bound() {
            let checked = minc::check(&fits).unwrap_or_else(|e| panic!("{e}: {fits}"));
            for ci in CompilerImpl::default_set() {
                minc_compile::compile(&checked, ci);
            }
            lint.run(&checked);
            let err = minc::check(&too_deep).unwrap_err();
            assert_eq!(err.first().phase, minc::Phase::Parse, "{err}");
            assert!(err.to_string().contains("nesting deeper than"), "{err}");
        }
    })
    .join()
    .unwrap();
}
