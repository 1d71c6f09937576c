//! The lint gate as a test: the tree must stay clean, and the scanner
//! must still detect violations (guards against the gate rotting into a
//! vacuous pass).

use sov_lint::Rule;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_is_lint_clean() {
    let diags = sov_lint::lint_workspace(&workspace_root()).expect("workspace walks");
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        diags.is_empty(),
        "determinism lint violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn scanner_rejects_injected_violations() {
    // One snippet per rule, addressed as library code in a real crate, so
    // a refactor that silently disables a rule fails here rather than
    // letting the workspace gate pass vacuously.
    let cases: &[(&str, &str)] = &[
        (
            "wall-clock",
            "fn f() { let _ = std::time::Instant::now(); }\n",
        ),
        (
            "map-iter",
            "use std::collections::HashMap;\n\
             fn f(m: &HashMap<u8, u8>) -> Vec<u8> { m.keys().copied().collect() }\n",
        ),
        ("unsafe", "fn f(p: *const u8) -> u8 { unsafe { *p } }\n"),
        ("stdout", "fn f() { println!(\"x\"); }\n"),
        (
            "env-read",
            "fn f() -> bool { std::env::var(\"X\").is_ok() }\n",
        ),
    ];
    for (what, src) in cases {
        let diags = sov_lint::lint_source("crates/sov-core/src/injected.rs", src);
        assert!(!diags.is_empty(), "scanner must reject a {what} violation");
    }
}

#[test]
fn stale_allowlist_entries_are_reported() {
    // A tree holding one allowlisted file: the other allowlist entry is
    // stale there and must be reported, the present one must not.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stale-allowlist");
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/sov-runtime/src");
    std::fs::create_dir_all(&src).expect("temp tree");
    std::fs::write(
        src.join("pipeline.rs"),
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    )
    .expect("temp file");
    let diags = sov_lint::lint_workspace(&root).expect("temp tree walks");
    let stale: Vec<(&str, &str)> = diags
        .iter()
        .filter(|d| d.rule == Rule::StaleAllow)
        .map(|d| (d.file.as_str(), d.message.as_str()))
        .collect();
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!(stale[0].0, "crates/sov-runtime/src/pool.rs");
    assert!(stale[0].1.contains("UNSAFE_ALLOW"), "{stale:?}");
    assert_eq!(
        diags.len(),
        stale.len(),
        "only stale entries to report: {diags:?}"
    );
}

#[test]
fn allowlist_entries_without_a_library_site_are_reported() {
    // Every allowlisted file exists, but a clock read inside a test module
    // needs no wall-clock exemption; pool.rs's `unsafe` still needs its
    // entry.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("unused-allowlist");
    let _ = std::fs::remove_dir_all(&root);
    for (rel, src) in [
        (
            "crates/sov-runtime/src/pipeline.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n",
        ),
        (
            "crates/sov-runtime/src/pool.rs",
            "// SAFETY: callers pass a valid pointer.\npub unsafe fn f(p: *const u8) -> u8 { *p }\n",
        ),
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("temp tree");
        std::fs::write(path, src).expect("temp file");
    }
    let diags = sov_lint::lint_workspace(&root).expect("temp tree walks");
    let unused: Vec<(&str, &str)> = diags
        .iter()
        .map(|d| (d.file.as_str(), d.message.as_str()))
        .collect();
    assert!(
        diags.iter().all(|d| d.rule == Rule::StaleAllow),
        "{diags:?}"
    );
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(unused[0].0, "crates/sov-runtime/src/pipeline.rs");
    assert!(unused[0].1.contains("WALL_CLOCK_ALLOW"), "{unused:?}");
    assert!(unused[0].1.contains("outside test code"), "{unused:?}");
}
