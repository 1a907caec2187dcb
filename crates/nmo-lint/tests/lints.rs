//! Integration tests: each fixture under `tests/fixtures/` must produce
//! exactly the findings it was written to seed, the real workspace must be
//! clean, and the binary keeps its contract on a scratch workspace — exit 1
//! on a finding, 0 when clean or when the file is exempt, 2 on any argument.

use std::path::{Path, PathBuf};
use std::process::Command;

use nmo_lint::{lint_workspace, load_file, run_lints, Diagnostic};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let file =
        load_file(&fixture_path(name), &format!("fixtures/{name}")).expect("fixture readable");
    run_lints(&[file])
}

fn ids(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.lint).collect()
}

#[test]
fn lock_order_cycle_is_an_error() {
    let diags = lint_fixture("lock_order_bad.rs");
    assert_eq!(ids(&diags), ["lock-order"], "{diags:#?}");
    let msg = &diags[0].message;
    assert!(msg.contains("alpha") && msg.contains("beta"), "cycle names both locks: {msg}");
}

#[test]
fn consistent_lock_order_is_clean() {
    let diags = lint_fixture("lock_order_good.rs");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn self_deadlock_is_an_error() {
    let diags = lint_fixture("lock_order_self.rs");
    assert_eq!(ids(&diags), ["lock-order"], "{diags:#?}");
    assert!(diags[0].message.contains("self-deadlock"), "{}", diags[0].message);
}

#[test]
fn relaxed_fixture_flags_only_unjustified_site() {
    let diags = lint_fixture("relaxed_bad.rs");
    assert_eq!(ids(&diags), ["relaxed-atomics-audit"], "{diags:#?}");
    assert_eq!(diags[0].line, 8, "{diags:#?}");
}

#[test]
fn lexer_edge_cases_produce_no_findings() {
    let diags = lint_fixture("lexer_edge.rs");
    assert!(diags.is_empty(), "decoys inside strings/comments leaked: {diags:#?}");
}

/// The workspace itself is lint-clean, so the CI run exits 0.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace must stay lint-clean; run `cargo run -p nmo-lint` for details:\n{}",
        diags.iter().map(|d| d.human()).collect::<Vec<_>>().join("\n")
    );
}

/// Run the binary inside a fresh workspace (`Cargo.toml` beside
/// `crates/demo/src/`) holding one fixture at `rel`, with `args`; its exit
/// code and stdout.
fn run_in_workspace(case: &str, fixture: &str, rel: &str, args: &[&str]) -> (i32, String) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("nmo-lint-cli").join(case);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/demo/src")).expect("scratch workspace");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    let dest = root.join(rel);
    std::fs::create_dir_all(dest.parent().expect("file in a directory")).expect("fixture dir");
    std::fs::copy(fixture_path(fixture), &dest).expect("fixture copied");
    let out = Command::new(env!("CARGO_BIN_EXE_nmo-lint"))
        .args(args)
        .current_dir(&root)
        .output()
        .expect("nmo-lint runs");
    (out.status.code().expect("exit code"), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn cli_contract_on_a_scratch_workspace() {
    let cases = [
        ("cycle", "lock_order_bad.rs", "crates/demo/src/lib.rs", 1),
        // Binaries are audited like libraries.
        ("bin", "relaxed_bad.rs", "crates/demo/src/bin/tool.rs", 1),
        ("clean", "lock_order_good.rs", "crates/demo/src/lib.rs", 0),
        ("tests", "relaxed_bad.rs", "crates/demo/tests/relaxed.rs", 0),
        ("compat", "relaxed_bad.rs", "compat/x/src/lib.rs", 0),
    ];
    for (case, fixture, rel, want) in cases {
        let (code, stdout) = run_in_workspace(case, fixture, rel, &[]);
        assert_eq!(code, want, "{fixture} as {rel}: {stdout}");
        assert_eq!(stdout.lines().count(), want as usize, "one line per finding: {stdout}");
        if want == 1 {
            assert!(stdout.starts_with(rel), "{stdout}");
        }
    }
    for args in [&["--help"][..], &["crates/demo/src/lib.rs"]] {
        let (code, stdout) =
            run_in_workspace("args", "lock_order_good.rs", "crates/demo/src/lib.rs", args);
        assert_eq!(code, 2, "{args:?}: {stdout}");
    }
}
