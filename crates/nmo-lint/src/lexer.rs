//! A hand-rolled Rust lexer — just enough of the language to drive the
//! token-pattern lints without `syn` (crates.io is unreachable from the
//! build environment, so the pass is self-contained by design).
//!
//! The lexer understands everything that would otherwise cause false
//! positives at the text level:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments,
//!   collected separately so the lints can look up justification comments;
//! * string literals, byte strings, and raw strings with arbitrary `#`
//!   fences (`r#"…"#`), so `".unwrap()"` inside a string never matches;
//! * char literals vs lifetimes (`'a'` vs `'a`), including escapes;
//! * raw identifiers (`r#match`).
//!
//! Everything else degrades to single-character punctuation tokens, which
//! is all the pattern lints need.

/// The coarse kind of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `let`, `r#match` → `match`).
    Ident,
    /// Lifetime (`'a`, `'static`), quote stripped.
    Lifetime,
    /// Character literal, quotes included.
    Char,
    /// String / byte-string / raw-string literal, delimiters included.
    Str,
    /// Numeric literal.
    Num,
    /// A single punctuation character (`.`, `:`, `{`, …).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (identifiers carry their name; puncts one char).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

impl Token {
    /// Whether the token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Whether the token is the punctuation character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

/// One comment (line or block), kept out of the token stream but available
/// to the lints for the `relaxed-ok:` justification lookup.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including its delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (differs for block comments).
    pub end_line: u32,
}

/// The lexer's output: the token stream plus the comment side-channel.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// All non-comment tokens, in source order.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
    /// Human-readable problems hit while lexing (unterminated literals…).
    pub errors: Vec<(u32, String)>,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: LexOutput,
}

/// Lex `src` into tokens and comments. Never fails: malformed input is
/// reported through [`LexOutput::errors`] and lexing resynchronises.
pub fn lex(src: &str) -> LexOutput {
    let mut lx = Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1, out: LexOutput::default() };
    lx.run();
    lx.out
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn error(&mut self, line: u32, msg: impl Into<String>) {
        self.out.errors.push((line, msg.into()));
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Token { kind, text, line, col });
    }

    fn run(&mut self) {
        while let Some(b) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(line),
                b'r' | b'b' if self.raw_or_byte_literal(line, col) => {}
                b'"' => self.string(line, col),
                b'\'' => self.quote(line, col),
                b'0'..=b'9' => self.number(line, col),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(line, col),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, (b as char).to_string(), line, col);
                }
            }
        }
    }

    fn line_comment(&mut self, line: u32) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.comments.push(Comment { text, line, end_line: line });
    }

    fn block_comment(&mut self, line: u32) {
        let start = self.pos;
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => {
                    self.error(line, "unterminated block comment");
                    break;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.comments.push(Comment { text, line, end_line: self.line });
    }

    /// Handle `r"…"`, `r#"…"#`, `br"…"`, `b"…"`, `b'…'`, and raw
    /// identifiers (`r#ident`). Returns `true` if it consumed anything.
    fn raw_or_byte_literal(&mut self, line: u32, col: u32) -> bool {
        let first = self.peek(0).unwrap_or(0);
        let mut ahead = 1;
        if first == b'b' && self.peek(1) == Some(b'r') {
            ahead = 2;
        }
        // Count the `#` fence after the `r`.
        let has_r = first == b'r' || ahead == 2;
        let mut fence = 0usize;
        if has_r {
            while self.peek(ahead + fence) == Some(b'#') {
                fence += 1;
            }
            if self.peek(ahead + fence) == Some(b'"') {
                for _ in 0..ahead + fence + 1 {
                    self.bump();
                }
                self.raw_string_body(line, col, fence);
                return true;
            }
            // `r#ident` — a raw identifier, lexed as its bare name.
            if first == b'r' && fence == 1 {
                if let Some(c) = self.peek(2) {
                    if c == b'_' || c.is_ascii_alphabetic() {
                        self.bump();
                        self.bump();
                        self.ident(line, col);
                        return true;
                    }
                }
            }
        }
        if first == b'b' {
            match self.peek(1) {
                Some(b'"') => {
                    self.bump();
                    self.string(line, col);
                    return true;
                }
                Some(b'\'') => {
                    self.bump();
                    self.quote(line, col);
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    fn raw_string_body(&mut self, line: u32, col: u32, fence: usize) {
        let start = self.pos;
        loop {
            match self.peek(0) {
                Some(b'"') => {
                    let mut ok = true;
                    for i in 0..fence {
                        if self.peek(1 + i) != Some(b'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                        for _ in 0..fence + 1 {
                            self.bump();
                        }
                        self.push(TokKind::Str, text, line, col);
                        return;
                    }
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
                None => {
                    self.error(line, "unterminated raw string");
                    return;
                }
            }
        }
    }

    fn string(&mut self, line: u32, col: u32) {
        let start = self.pos;
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    self.bump();
                }
                None => {
                    self.error(line, "unterminated string literal");
                    break;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::Str, text, line, col);
    }

    /// Disambiguate a `'`: char literal (`'x'`, `'\n'`) vs lifetime (`'a`).
    fn quote(&mut self, line: u32, col: u32) {
        let start = self.pos;
        self.bump(); // the quote
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: consume escape then scan to `'`.
                self.bump();
                self.bump();
                while let Some(b) = self.peek(0) {
                    self.bump();
                    if b == b'\'' {
                        break;
                    }
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.push(TokKind::Char, text, line, col);
            }
            Some(c) if c == b'_' || c.is_ascii_alphanumeric() => {
                // Could be `'a'` (char) or `'a` / `'static` (lifetime):
                // a lifetime is ident chars NOT followed by a closing quote.
                let mut len = 1;
                while let Some(n) = self.peek(len) {
                    if n == b'_' || n.is_ascii_alphanumeric() {
                        len += 1;
                    } else {
                        break;
                    }
                }
                if self.peek(len) == Some(b'\'') && len == 1 {
                    self.bump();
                    self.bump();
                    let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                    self.push(TokKind::Char, text, line, col);
                } else {
                    let mut name = String::new();
                    for _ in 0..len {
                        name.push(self.bump().unwrap_or(b'?') as char);
                    }
                    self.push(TokKind::Lifetime, name, line, col);
                }
            }
            Some(_) if self.peek(1) == Some(b'\'') => {
                // Punctuation char literal: `'"'`, `'.'`, `' '`. Without
                // this, the `"` in `'"'` would open a phantom string and
                // invert string/code regions for the rest of the file.
                self.bump();
                self.bump();
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.push(TokKind::Char, text, line, col);
            }
            _ => {
                // A bare `'` (e.g. inside a macro pattern) — treat as punct.
                self.push(TokKind::Punct, "'".into(), line, col);
            }
        }
    }

    fn number(&mut self, line: u32, col: u32) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else if b == b'.' {
                // `1.5` continues the number; `1..n` does not.
                match self.peek(1) {
                    Some(n) if n.is_ascii_digit() => {
                        self.bump();
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::Num, text, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::Ident, text, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let out = lex(r#"let s = "a.unwrap()"; s"#);
        assert!(out.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(out.errors.len(), 0);
    }

    #[test]
    fn raw_strings_with_fences() {
        let out = lex(r##"let s = r#"quote " inside .unwrap()"#; done"##);
        assert!(out.tokens.iter().all(|t| t.text != "unwrap"));
        assert!(out.tokens.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn nested_block_comments() {
        let out = lex("/* outer /* inner */ still comment */ code");
        assert_eq!(out.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ x"), vec!["x"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let out = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = out.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = out.tokens.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn punctuation_char_literals() {
        // `'"'` must not open a phantom string: `hidden` is inside a real
        // string literal after it and must stay hidden.
        let out = lex("match c { '\"' => 1, '.' => 2, _ => 3 }; let s = \"hidden.unwrap()\";");
        assert_eq!(out.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert!(out.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(out.errors.len(), 0);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "match"]);
    }

    #[test]
    fn byte_strings_and_numbers() {
        let out = lex(r#"let b = b"bytes"; let r = br"raw"; let n = 1_000.5; let m = 0..5;"#);
        assert_eq!(out.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        let nums: Vec<_> =
            out.tokens.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text.clone()).collect();
        assert_eq!(nums, vec!["1_000.5", "0", "5"]);
    }

    #[test]
    fn positions_are_one_based() {
        let out = lex("a\n  b");
        assert_eq!((out.tokens[0].line, out.tokens[0].col), (1, 1));
        assert_eq!((out.tokens[1].line, out.tokens[1].col), (2, 3));
    }

    #[test]
    fn unterminated_string_is_reported() {
        let out = lex("let s = \"oops");
        assert_eq!(out.errors.len(), 1);
    }
}
