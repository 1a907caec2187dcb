//! `nmo-lint` — the workspace's own concurrency/correctness analysis pass.
//!
//! The sharded streaming spine (pump workers → `ShardedBus` lanes → shard
//! consumers → deterministic merge) rests on hand-maintained invariants:
//! lock acquisition order, publish-then-mark ordering, and the `Ordering`
//! choice on every atomic. Nothing in `rustc` or clippy checks those, so
//! this crate does: a self-contained static pass (hand-rolled lexer — the
//! build environment has no crates.io, so no `syn`) with repo-specific
//! lints, run in CI as `cargo run -p nmo-lint -- --deny-warnings`.
//!
//! The static pass is paired with a dynamic arm: `compat/parking_lot`
//! instruments every lock with a runtime lock-order checker (enabled by
//! `NMO_LOCK_CHECK=1`) whose observed acquisition graph cross-validates the
//! static one built by the [`lints::LockOrder`] lint.
//!
//! ## Suppression
//!
//! Diagnostics are suppressed with magic comments (the `#[allow]` analogue
//! for a pass that runs outside rustc):
//!
//! * `// nmo-lint: allow(lint-id)` on the flagged line or the comment
//!   block immediately above it;
//! * `// nmo-lint: allow-file(lint-id)` anywhere in the file;
//! * the `// relaxed-ok: …` justification comment, which both suppresses
//!   `relaxed-atomics-audit` and documents the site.

#![warn(missing_docs)]

pub mod lexer;
pub mod lints;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use lexer::{lex, Comment, Token};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style / policy finding; fails the build only under `--deny-warnings`.
    Warning,
    /// Correctness finding (e.g. a lock-order cycle); always fails.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The lint that produced it (e.g. `lock-order`).
    pub lint: &'static str,
    /// Its severity.
    pub severity: Severity,
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
    /// Render as `file:line:col: severity[lint] message`.
    pub fn human(&self) -> String {
        format!(
            "{}:{}:{}: {}[{}] {}",
            self.file, self.line, self.col, self.severity, self.lint, self.message
        )
    }

    /// Render as a JSON object (hand-rolled; no serde in this environment).
    pub fn json(&self) -> String {
        format!(
            "{{\"lint\":{},\"severity\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{}}}",
            json_str(self.lint),
            json_str(&self.severity.to_string()),
            json_str(&self.file),
            self.line,
            self.col,
            json_str(&self.message)
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What kind of source a file is — decides which lints apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code — every lint applies.
    Lib,
    /// Binary (`src/bin/`, `main.rs`) — the library-API lints do not apply.
    Bin,
    /// Integration tests, benches, examples — exempt from the policies.
    Test,
    /// Vendored offline shims under `compat/` — exempt (own the checker).
    Compat,
}

/// Classify a path the way the workspace lays files out.
pub fn classify(path: &Path) -> FileKind {
    let mut kind = FileKind::Lib;
    for comp in path.components() {
        let c = comp.as_os_str().to_string_lossy();
        match c.as_ref() {
            "compat" => return FileKind::Compat,
            "tests" | "benches" | "examples" | "fixtures" => kind = FileKind::Test,
            "bin" => kind = FileKind::Bin,
            _ => {}
        }
    }
    if kind == FileKind::Lib && path.file_name().is_some_and(|f| f == "main.rs") {
        return FileKind::Bin;
    }
    kind
}

/// One lexed source file plus the derived lookup structures the lints use.
pub struct SourceFile {
    /// Display path (workspace-relative when discovered by the walk).
    pub rel: String,
    /// What kind of file it is.
    pub kind: FileKind,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// The comment side-channel.
    pub comments: Vec<Comment>,
    /// Lexer problems (surfaced as diagnostics by the runner).
    pub lex_errors: Vec<(u32, String)>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
    /// Lint ids allowed for the whole file via `allow-file(...)`.
    allow_file: HashSet<String>,
    /// Comment text per line (a line may hold several comments).
    comment_by_line: HashMap<u32, String>,
    /// Lines that carry at least one non-comment token.
    code_lines: HashSet<u32>,
}

impl SourceFile {
    /// Lex and index one file's text.
    pub fn parse(rel: impl Into<String>, kind: FileKind, text: &str) -> SourceFile {
        let out = lex(text);
        let mut comment_by_line: HashMap<u32, String> = HashMap::new();
        let mut allow_file = HashSet::new();
        for c in &out.comments {
            comment_by_line.entry(c.line).or_default().push_str(&c.text);
            for id in parse_allows(&c.text, "allow-file") {
                allow_file.insert(id);
            }
        }
        let code_lines: HashSet<u32> = out.tokens.iter().map(|t| t.line).collect();
        let test_ranges = find_test_ranges(&out.tokens);
        SourceFile {
            rel: rel.into(),
            kind,
            tokens: out.tokens,
            comments: out.comments,
            lex_errors: out.errors,
            test_ranges,
            allow_file,
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
    pub fn attached_comments(&self, line: u32) -> String {
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

    /// Whether `lint` is suppressed at `line` (allow comment on the line or
    /// the comment block above it, or an `allow-file`).
    pub fn is_allowed(&self, lint: &str, line: u32) -> bool {
        if self.allow_file.contains(lint) {
            return true;
        }
        parse_allows(&self.attached_comments(line), "allow").iter().any(|id| id == lint)
    }

    /// Whether the comments attached to `line` contain `marker` (e.g.
    /// `relaxed-ok:`) — the justification convention.
    pub fn has_justification(&self, marker: &str, line: u32) -> bool {
        self.attached_comments(line).contains(marker)
    }
}

/// Extract lint ids from `nmo-lint: <verb>(id, id, ...)` in comment text.
fn parse_allows(text: &str, verb: &str) -> Vec<String> {
    let mut ids = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("nmo-lint:") {
        rest = &rest[at + "nmo-lint:".len()..];
        let trimmed = rest.trim_start();
        if let Some(args) = trimmed.strip_prefix(verb).and_then(|t| t.strip_prefix('(')) {
            if let Some(end) = args.find(')') {
                for id in args[..end].split(',') {
                    let id = id.trim();
                    if !id.is_empty() {
                        ids.push(id.to_string());
                    }
                }
            }
        }
    }
    ids
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

/// A lint pass. Most lints look at one file at a time; workspace-scoped
/// lints (lock-order) see every file at once.
pub trait Lint {
    /// Stable identifier used in output and suppression comments.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-lints`.
    fn description(&self) -> &'static str;
    /// Severity of this lint's findings.
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    /// Per-file check (default: nothing).
    fn check_file(&self, _file: &SourceFile, _diags: &mut Vec<Diagnostic>) {}
    /// Workspace-level check over every file (default: nothing).
    fn check_workspace(&self, _files: &[SourceFile], _diags: &mut Vec<Diagnostic>) {}
}

/// The full lint set, in reporting order.
pub fn default_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(lints::LockOrder),
        Box::new(lints::RelaxedAtomicsAudit),
        Box::new(lints::PubApiResult),
    ]
}

/// Run every lint over the given parsed files.
pub fn run_lints(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        for &(line, ref msg) in &file.lex_errors {
            diags.push(Diagnostic {
                lint: "lexer",
                severity: Severity::Error,
                file: file.rel.clone(),
                line,
                col: 1,
                message: msg.clone(),
            });
        }
    }
    for lint in default_lints() {
        for file in files {
            lint.check_file(file, &mut diags);
        }
        lint.check_workspace(files, &mut diags);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    diags
}

/// Load and parse one file from disk.
pub fn load_file(path: &Path, rel: &str, kind: FileKind) -> std::io::Result<SourceFile> {
    let text = std::fs::read_to_string(path)?;
    Ok(SourceFile::parse(rel, kind, &text))
}

/// Discover the workspace's `.rs` files under `root`, classified, skipping
/// `target/`, hidden directories, and the lint fixtures themselves.
pub fn discover(root: &Path) -> std::io::Result<Vec<(PathBuf, String, FileKind)>> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type()?.is_dir() {
                if name == "target" || name.starts_with('.') || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel =
                    path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
                let kind = classify(Path::new(&rel));
                found.push((path, rel, kind));
            }
        }
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(found)
}

/// Lint the workspace rooted at `root` end to end.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for (path, rel, kind) in discover(root)? {
        files.push(load_file(&path, &rel, kind)?);
    }
    Ok(run_lints(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify(Path::new("crates/nmo/src/stream.rs")), FileKind::Lib);
        assert_eq!(classify(Path::new("crates/nmo/src/trace.rs")), FileKind::Lib);
        assert_eq!(classify(Path::new("crates/nmo-bench/src/bin/repro.rs")), FileKind::Bin);
        assert_eq!(classify(Path::new("src/main.rs")), FileKind::Bin);
        assert_eq!(classify(Path::new("tests/streaming.rs")), FileKind::Test);
        assert_eq!(classify(Path::new("examples/quickstart.rs")), FileKind::Test);
        assert_eq!(classify(Path::new("crates/nmo-bench/benches/decode.rs")), FileKind::Test);
        assert_eq!(classify(Path::new("compat/parking_lot/src/lib.rs")), FileKind::Compat);
    }

    #[test]
    fn test_ranges_cover_cfg_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let file = SourceFile::parse("x.rs", FileKind::Lib, src);
        assert!(!file.in_test_code(1));
        assert!(file.in_test_code(4));
        assert!(!file.in_test_code(6));
    }

    #[test]
    fn suppression_comments() {
        let src = "\
// nmo-lint: allow-file(pub-api-result)
fn a() {
    // nmo-lint: allow(relaxed-atomics-audit)
    x.load(Ordering::Relaxed);
    y.load(Ordering::Relaxed); // nmo-lint: allow(relaxed-atomics-audit, lock-order)
    z.load(Ordering::Relaxed);
}
";
        let file = SourceFile::parse("x.rs", FileKind::Lib, src);
        assert!(file.is_allowed("pub-api-result", 2));
        assert!(file.is_allowed("relaxed-atomics-audit", 4));
        assert!(file.is_allowed("relaxed-atomics-audit", 5));
        assert!(file.is_allowed("lock-order", 5));
        assert!(!file.is_allowed("relaxed-atomics-audit", 6));
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
        let file = SourceFile::parse("x.rs", FileKind::Lib, src);
        assert!(file.has_justification("relaxed-ok:", 4));
        assert!(!file.has_justification("relaxed-ok:", 5));
    }

    #[test]
    fn json_escaping() {
        let d = Diagnostic {
            lint: "x",
            severity: Severity::Warning,
            file: "a\"b.rs".into(),
            line: 1,
            col: 2,
            message: "tab\there".into(),
        };
        assert_eq!(
            d.json(),
            "{\"lint\":\"x\",\"severity\":\"warning\",\"file\":\"a\\\"b.rs\",\
             \"line\":1,\"col\":2,\"message\":\"tab\\there\"}"
        );
    }
}
