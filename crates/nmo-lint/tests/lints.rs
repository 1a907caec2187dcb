//! Integration tests: each fixture under `tests/fixtures/` is linted as
//! library code and must produce exactly the findings it was written to
//! seed — these pin the acceptance criteria that `nmo-lint --deny-warnings`
//! exits non-zero on the bad fixtures and zero on the clean ones, and that
//! the real workspace is clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use nmo_lint::{lint_workspace, load_file, run_lints, Diagnostic, FileKind, Severity};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Lint one fixture as library code. `rel` is the workspace-relative path
/// the lints see — `pub-api-result` keys off it.
fn lint_fixture_as(name: &str, rel: &str) -> Vec<Diagnostic> {
    let file = load_file(&fixture_path(name), rel, FileKind::Lib).expect("fixture readable");
    run_lints(&[file])
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    lint_fixture_as(name, &format!("fixtures/{name}"))
}

fn ids(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.lint).collect()
}

#[test]
fn lock_order_cycle_is_an_error() {
    let diags = lint_fixture("lock_order_bad.rs");
    assert_eq!(ids(&diags), ["lock-order"], "{diags:#?}");
    assert_eq!(diags[0].severity, Severity::Error);
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
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("self-deadlock"), "{}", diags[0].message);
}

#[test]
fn relaxed_fixture_flags_only_unjustified_site() {
    let diags = lint_fixture("relaxed_bad.rs");
    assert_eq!(ids(&diags), ["relaxed-atomics-audit"], "{diags:#?}");
    assert_eq!(diags[0].line, 8, "{diags:#?}");
}

#[test]
fn pub_api_result_keys_off_the_nmo_crate_path() {
    // Under a crates/nmo/src path the error-swallowing pub fn is flagged...
    let diags = lint_fixture_as("pub_api_bad.rs", "crates/nmo/src/fixture.rs");
    assert_eq!(ids(&diags), ["pub-api-result"], "{diags:#?}");
    assert!(diags[0].message.contains("swallows_error"), "{}", diags[0].message);
    // ...and under any other path the lint does not apply at all.
    let elsewhere = lint_fixture("pub_api_bad.rs");
    assert!(elsewhere.is_empty(), "{elsewhere:#?}");
}

#[test]
fn lexer_edge_cases_produce_no_findings() {
    let diags = lint_fixture("lexer_edge.rs");
    assert!(diags.is_empty(), "decoys inside strings/comments leaked: {diags:#?}");
}

#[test]
fn suppression_comments_silence_exactly_their_targets() {
    let diags = lint_fixture("suppress.rs");
    assert_eq!(ids(&diags), ["relaxed-atomics-audit"], "{diags:#?}");
    assert_eq!(diags[0].line, 16, "only the un-suppressed load: {diags:#?}");
}

/// The acceptance criterion for the satellite fix-up pass: the workspace
/// itself is lint-clean (so `--deny-warnings` exits 0 in CI).
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

/// Exit-code contract of the CLI, pinned end-to-end on real fixtures:
/// 1 for a bad fixture under `--deny-warnings`, 0 for a clean one.
#[test]
fn cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_nmo-lint");
    let run = |fixture: &str| {
        Command::new(bin)
            .arg("--assume-lib")
            .arg("--deny-warnings")
            .arg(fixture_path(fixture))
            .output()
            .expect("nmo-lint runs")
    };

    let bad = run("relaxed_bad.rs");
    assert_eq!(bad.status.code(), Some(1), "stdout: {}", String::from_utf8_lossy(&bad.stdout));
    let good = run("lock_order_good.rs");
    assert_eq!(good.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&good.stdout));

    // Errors fail even without --deny-warnings.
    let cycle = Command::new(bin)
        .arg("--assume-lib")
        .arg(fixture_path("lock_order_bad.rs"))
        .output()
        .expect("nmo-lint runs");
    assert_eq!(cycle.status.code(), Some(1));

    // JSON output is one object per line with the lint id.
    let json = Command::new(bin)
        .args(["--assume-lib", "--format", "json"])
        .arg(fixture_path("relaxed_bad.rs"))
        .output()
        .expect("nmo-lint runs");
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.lines().any(|l| l.contains("\"lint\":\"relaxed-atomics-audit\"")), "{stdout}");
}
