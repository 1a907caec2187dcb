//! `nmo-lint` — the workspace's own concurrency analysis pass.
//!
//! The sharded streaming spine (pump workers → `ShardedBus` lanes → shard
//! consumers → deterministic merge) rests on hand-maintained invariants:
//! lock acquisition order and the `Ordering` choice on every atomic. Nothing
//! in `rustc` or clippy checks those, so this crate does: a self-contained
//! static pass (hand-rolled lexer — the build environment has no crates.io,
//! so no `syn`) with two lints, `lock-order` and `relaxed-atomics-audit`.
//! Every finding fails the run; CI runs it as `cargo run -p nmo-lint`.
//!
//! The static pass is paired with a dynamic arm: `compat/parking_lot`
//! instruments every lock with a runtime lock-order checker (enabled by
//! `NMO_LOCK_CHECK=1`) that sees the acquisition orders across function
//! boundaries which the static `lock-order` graph cannot.
//!
//! There is no suppression comment. A `// relaxed-ok: …` comment is how a
//! `Relaxed` is justified (and documented); a lock-order cycle is fixed.

#![warn(missing_docs)]

pub mod lexer;
mod lints;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use lexer::{lex, Token};

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The lint that produced it (e.g. `lock-order`).
    pub lint: &'static str,
    /// File the finding is in (workspace-relative when discovered by walk).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl Diagnostic {
    /// Render as `file:line:col: [lint] message`.
    pub fn human(&self) -> String {
        format!("{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.lint, self.message)
    }
}

/// Whether the lints apply to a workspace-relative path (a file or the
/// directory above one): everything outside test, bench, example and
/// fixture trees, the vendored `compat/` shims, build output and hidden
/// directories. Binaries are linted like libraries.
fn is_linted(rel: &Path) -> bool {
    rel.components().all(|comp| {
        let c = comp.as_os_str().to_string_lossy();
        !c.starts_with('.')
            && !matches!(
                c.as_ref(),
                "tests" | "benches" | "examples" | "fixtures" | "compat" | "target"
            )
    })
}

/// One lexed source file plus the derived lookup structures the lints use.
pub struct SourceFile {
    /// Display path (workspace-relative when discovered by the walk).
    pub rel: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Lexer problems (surfaced as diagnostics by the runner).
    pub lex_errors: Vec<(u32, String)>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
    /// Comment text per line (a line may hold several comments).
    comment_by_line: HashMap<u32, String>,
    /// Lines that carry at least one non-comment token.
    code_lines: HashSet<u32>,
}

impl SourceFile {
    /// Lex and index one file's text.
    pub fn parse(rel: impl Into<String>, text: &str) -> SourceFile {
        let out = lex(text);
        let mut comment_by_line: HashMap<u32, String> = HashMap::new();
        for c in &out.comments {
            comment_by_line.entry(c.line).or_default().push_str(&c.text);
        }
        let code_lines: HashSet<u32> = out.tokens.iter().map(|t| t.line).collect();
        let test_ranges = find_test_ranges(&out.tokens);
        SourceFile {
            rel: rel.into(),
            tokens: out.tokens,
            lex_errors: out.errors,
            test_ranges,
            comment_by_line,
            code_lines,
        }
    }

    /// Whether a line falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// The comment text attached to a site: comments on the line itself
    /// plus any contiguous comment-only lines immediately above it.
    fn attached_comments(&self, line: u32) -> String {
        let mut text = self.comment_by_line.get(&line).cloned().unwrap_or_default();
        let mut l = line;
        while l > 1 {
            l -= 1;
            match self.comment_by_line.get(&l) {
                Some(c) if !self.code_lines.contains(&l) => {
                    text.push('\n');
                    text.push_str(c);
                }
                _ => break,
            }
        }
        text
    }

    /// Whether the comments attached to `line` contain `marker` (e.g.
    /// `relaxed-ok:`) — the justification convention.
    pub fn has_justification(&self, marker: &str, line: u32) -> bool {
        self.attached_comments(line).contains(marker)
    }
}

/// Find inclusive line ranges of items annotated `#[cfg(test)]`.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Match `# [ cfg ( test ) ]` exactly.
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && tokens.get(i + 6).is_some_and(|t| t.is_punct(']'))
        {
            let start_line = tokens[i].line;
            // The annotated item runs to its matching close brace (or the
            // statement's `;` for brace-less items like `use`).
            let mut j = i + 7;
            let mut depth = 0usize;
            let mut end_line = start_line;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.line;
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    end_line = t.line;
                    break;
                }
                j += 1;
            }
            if j >= tokens.len() {
                end_line = tokens.last().map(|t| t.line).unwrap_or(start_line);
            }
            ranges.push((start_line, end_line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Run both lints over the given parsed files, lexer problems included.
pub fn run_lints(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        for &(line, ref msg) in &file.lex_errors {
            diags.push(Diagnostic {
                lint: "lexer",
                file: file.rel.clone(),
                line,
                col: 1,
                message: msg.clone(),
            });
        }
    }
    lints::lock_order(files, &mut diags);
    for file in files {
        lints::relaxed_atomics_audit(file, &mut diags);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    diags
}

/// Load and parse one file from disk.
pub fn load_file(path: &Path, rel: &str) -> std::io::Result<SourceFile> {
    let text = std::fs::read_to_string(path)?;
    Ok(SourceFile::parse(rel, &text))
}

/// The `.rs` files under `root` that the lints apply to (see
/// `is_linted`), with their workspace-relative paths.
fn discover(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            if !is_linted(Path::new(&rel)) {
                continue;
            }
            if entry.file_type()?.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                found.push((path, rel));
            }
        }
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(found)
}

/// Lint the workspace rooted at `root` end to end.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for (path, rel) in discover(root)? {
        files.push(load_file(&path, &rel)?);
    }
    Ok(run_lints(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_linted_paths() {
        assert!(is_linted(Path::new("crates/nmo/src/stream.rs")));
        assert!(is_linted(Path::new("crates/nmo/src/trace.rs")));
        assert!(is_linted(Path::new("crates/nmo-bench/src/bin/repro.rs")));
        assert!(is_linted(Path::new("src/main.rs")));
        assert!(!is_linted(Path::new("tests/streaming.rs")));
        assert!(!is_linted(Path::new("examples/quickstart.rs")));
        assert!(!is_linted(Path::new("crates/nmo-bench/benches/decode.rs")));
        assert!(!is_linted(Path::new("compat/parking_lot/src/lib.rs")));
    }

    #[test]
    fn test_ranges_cover_cfg_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let file = SourceFile::parse("x.rs", src);
        assert!(!file.in_test_code(1));
        assert!(file.in_test_code(4));
        assert!(!file.in_test_code(6));
    }

    #[test]
    fn justification_walks_comment_block() {
        let src = "\
fn a() {
    // relaxed-ok: a statistics counter, read for reporting only
    // (two lines of justification)
    x.load(Ordering::Relaxed);
    y.load(Ordering::Relaxed);
}
";
        let file = SourceFile::parse("x.rs", src);
        assert!(file.has_justification("relaxed-ok:", 4));
        assert!(!file.has_justification("relaxed-ok:", 5));
    }
}
