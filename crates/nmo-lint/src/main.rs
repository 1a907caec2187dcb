//! CLI for the workspace lint pass: `cargo run -p nmo-lint`.
//!
//! Takes no argument. Lints the workspace that contains the current
//! directory (walking up to the `Cargo.toml` beside a `crates/` directory)
//! and prints one line per finding. Exit codes: 0 clean, 1 findings, 2 an
//! argument or an I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Walk up from `start` to the directory holding the workspace manifest
/// (a `Cargo.toml` next to a `crates/` directory).
fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

fn run() -> Result<ExitCode, String> {
    if std::env::args_os().len() > 1 {
        return Err("takes no argument; run it inside the workspace".into());
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = find_workspace_root(&cwd);
    let diags = nmo_lint::lint_workspace(&root)
        .map_err(|e| format!("lint walk failed under {root:?}: {e}"))?;
    for d in &diags {
        println!("{}", d.human());
    }
    eprintln!("nmo-lint: {} finding(s)", diags.len());
    Ok(if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    run().unwrap_or_else(|msg| {
        eprintln!("nmo-lint: {msg}");
        ExitCode::from(2)
    })
}
