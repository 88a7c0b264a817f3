//! The complementarity story (paper §2): three real-world bug shapes —
//! one only sanitizers catch cheaply, one only CompDiff catches, one both.
//!
//! ```sh
//! cargo run --release --example sanitizer_compare
//! ```

use compdiff::{CompDiff, DiffConfig};
use minc_vm::{ExitStatus, SanitizerKind, VmConfig};

fn check(name: &str, src: &str) -> Result<(), minc::FrontendError> {
    let vm = VmConfig::default();
    let diff = CompDiff::from_source_default(src, DiffConfig::default())?;
    let compdiff = diff.run_input(b"").divergent;
    let bin = sanitizers::compile_sanitized(src)?;
    let mut caught = Vec::new();
    for k in SanitizerKind::ALL {
        if matches!(
            sanitizers::run_sanitized(&bin, b"", &vm, k).status,
            ExitStatus::Sanitizer(_)
        ) {
            caught.push(k.to_string());
        }
    }
    println!(
        "{name:<28} CompDiff: {:<3}  sanitizers: {}",
        if compdiff { "YES" } else { "no" },
        if caught.is_empty() {
            "none".to_string()
        } else {
            caught.join("+")
        }
    );
    Ok(())
}

fn main() -> Result<(), minc::FrontendError> {
    println!(
        "bug shape                    detected by\n{}",
        "-".repeat(60)
    );

    // The paper's Listing 4 shape (exiv2): an uninitialized value that is
    // only printed — MSan deliberately stays silent, CompDiff diverges.
    check(
        "uninit printed (exiv2)",
        "int main() { int l; printf(\"0x%x\\n\", (l & 65535) >> 8); return 0; }",
    )?;

    // The paper's Listing 2 shape (binutils): pointers to different
    // objects compared relationally — no sanitizer has a check for it.
    check(
        "pointer compare (binutils)",
        r#"
        int a; long b;
        int main() {
            if ((char*)&a < (char*)&b) { printf("a first\n"); }
            else { printf("b first\n"); }
            return 0;
        }
        "#,
    )?;

    // A silent near overflow: ASan's home turf, invisible to CompDiff
    // because the corruption never reaches the output.
    check(
        "silent stack overflow",
        r#"
        int main() {
            char buf[8];
            buf[9] = 'X';
            printf("done\n");
            return 0;
        }
        "#,
    )?;

    // Integer overflow both can see: UBSan checks the add; the optimizer
    // deletes the wraparound guard, so CompDiff diverges too.
    check(
        "overflow check deleted",
        r#"
        int main() {
            int off = (int)input_size() + 2147483000;
            int len = 1000;
            if (off + len < off) { printf("guarded\n"); return 1; }
            printf("passed %d\n", off + len > 0 ? 1 : 0);
            return 0;
        }
        "#,
    )?;

    println!("\nCompDiff is not a replacement for sanitizers — it complements");
    println!("them (the paper's central claim).");
    Ok(())
}
