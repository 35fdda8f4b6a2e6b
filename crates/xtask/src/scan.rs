//! Token-level source scanning substrate for the lint gate.
//!
//! The scanner masks string/char literals and comments (preserving newlines
//! so line numbers survive), tokenizes what remains into identifier and
//! single-character punct tokens, and records per-line `lint:allow(id)`
//! directives plus the contents of string literals (so lints that inspect
//! failure messages can see them even though the token stream cannot).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Result of masking one source file.
pub struct Masked {
    /// Source with comments and literals blanked, newlines preserved.
    pub text: String,
    /// Per-line allow-directive ids (`allows[line]` is 0-based).
    pub allows: Vec<Vec<String>>,
    /// `(line, content)` of every string literal, 0-based lines.
    pub strings: Vec<(usize, String)>,
}

impl Masked {
    /// Is `id` allowed on `line` (0-based) or the line directly above?
    pub fn allowed(&self, line: usize, id: &str) -> bool {
        let has = |l: usize| {
            self.allows
                .get(l)
                .is_some_and(|v| v.iter().any(|a| a == id))
        };
        has(line) || (line > 0 && has(line - 1))
    }
}

/// The per-site escape hatch, harvested from comments.
const ALLOW: &str = "lint:allow(";

/// Pull `lint:allow(<id>[, <id>...])` directives out of a comment and record
/// them against the line each directive appears on.
fn collect_allows(comment: &str, start_line: usize, allows: &mut Vec<Vec<String>>) {
    let mut search = 0;
    while let Some(pos) = comment[search..].find(ALLOW) {
        let abs = search + pos;
        let line = start_line + comment[..abs].bytes().filter(|&b| b == b'\n').count();
        let rest = &comment[abs + ALLOW.len()..];
        if let Some(close) = rest.find(')') {
            while allows.len() <= line {
                allows.push(Vec::new());
            }
            for id in rest[..close].split(',') {
                allows[line].push(id.trim().to_string());
            }
        }
        search = abs + 1;
    }
}

/// Blank out comments and string/char literals, preserving newlines.
pub fn mask(src: &str) -> Masked {
    let b = src.as_bytes();
    let n = b.len();
    let mut out: Vec<u8> = Vec::with_capacity(n);
    let mut allows: Vec<Vec<String>> = vec![Vec::new()];
    let mut strings: Vec<(usize, String)> = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;

    // Emit the byte range [start, end) as blanks, keeping newlines.
    macro_rules! blank {
        ($start:expr, $end:expr) => {
            for &bb in &b[$start..$end] {
                if bb == b'\n' {
                    out.push(b'\n');
                    line += 1;
                    if allows.len() <= line {
                        allows.push(Vec::new());
                    }
                } else {
                    out.push(b' ');
                }
            }
        };
    }

    while i < n {
        let c = b[i];
        // Line comment (also doc comments).
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let start = i;
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            collect_allows(&src[start..i], line, &mut allows);
            blank!(start, i);
            continue;
        }
        // Block comment, nested per Rust.
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            collect_allows(&src[start..i], start_line, &mut allows);
            blank!(start, i);
            continue;
        }
        // Raw string literal: optional `b`, then `r`, hashes, quote.
        if c == b'r' || (c == b'b' && i + 1 < n && b[i + 1] == b'r') {
            let r_pos = if c == b'b' { i + 1 } else { i };
            let mut k = r_pos + 1;
            let mut hashes = 0usize;
            while k < n && b[k] == b'#' {
                hashes += 1;
                k += 1;
            }
            if k < n && b[k] == b'"' {
                let start = i;
                let start_line = line;
                let body_start = k + 1;
                k += 1;
                let mut body_end = k;
                'raw: while k < n {
                    if b[k] == b'"' {
                        let mut h = 0usize;
                        while h < hashes && k + 1 + h < n && b[k + 1 + h] == b'#' {
                            h += 1;
                        }
                        if h == hashes {
                            body_end = k;
                            k += 1 + hashes;
                            break 'raw;
                        }
                    }
                    k += 1;
                }
                strings.push((start_line, src[body_start..body_end.min(n)].to_string()));
                i = k;
                blank!(start, i);
                continue;
            }
        }
        // Ordinary string literal (a leading `b` stays an ordinary token).
        if c == b'"' {
            let start = i;
            let start_line = line;
            i += 1;
            let body_start = i;
            while i < n {
                if b[i] == b'\\' {
                    i += 2;
                    continue;
                }
                if b[i] == b'"' {
                    break;
                }
                i += 1;
            }
            let body_end = i.min(n);
            if i < n {
                i += 1; // past the closing quote
            }
            strings.push((start_line, src[body_start..body_end].to_string()));
            blank!(start, i.min(n));
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if i + 1 < n && b[i + 1] == b'\\' {
                // Escaped char literal, e.g. '\n', '\'', '\u{41}'.
                let start = i;
                i += 2;
                if i < n {
                    i += 1;
                }
                while i < n && b[i] != b'\'' && b[i] != b'\n' {
                    i += 1;
                }
                if i < n && b[i] == b'\'' {
                    i += 1;
                }
                blank!(start, i);
                continue;
            }
            let is_lifetime = i + 1 < n
                && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                && !(i + 2 < n && b[i + 2] == b'\'');
            if is_lifetime {
                out.push(c);
                i += 1;
                continue;
            }
            // Plain (possibly multi-byte) char literal.
            let start = i;
            i += 1;
            while i < n && b[i] != b'\'' && b[i] != b'\n' {
                i += 1;
            }
            if i < n && b[i] == b'\'' {
                i += 1;
            }
            blank!(start, i);
            continue;
        }
        if c == b'\n' {
            out.push(b'\n');
            line += 1;
            if allows.len() <= line {
                allows.push(Vec::new());
            }
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    let text = String::from_utf8(out).expect("masking preserves UTF-8");
    Masked {
        text,
        allows,
        strings,
    }
}

/// One token of masked source.
pub struct Tok<'a> {
    pub text: &'a str,
    /// 0-based line number.
    pub line: usize,
}

/// Split masked source into identifier and single-character punct tokens.
pub fn tokenize(masked: &str) -> Vec<Tok<'_>> {
    let b = masked.as_bytes();
    let mut toks = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if ident(c) {
            let s = i;
            while i < b.len() && ident(b[i]) {
                i += 1;
            }
            toks.push(Tok {
                text: &masked[s..i],
                line,
            });
            continue;
        }
        toks.push(Tok {
            text: &masked[i..i + 1],
            line,
        });
        i += 1;
    }
    toks
}

/// 0-based line of a byte offset in masked text.
fn line_of(masked: &str, byte: usize) -> usize {
    masked.as_bytes()[..byte.min(masked.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

/// Per-line flags marking `#[cfg(test)]` brace regions (the attribute line
/// through the matching closing brace).
pub fn test_lines(masked: &str) -> Vec<bool> {
    let nlines = masked.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut flags = vec![false; nlines];
    let b = masked.as_bytes();
    let mut search = 0usize;
    while let Some(pos) = masked[search..].find("#[cfg(test)]") {
        let abs = search + pos;
        let start_line = line_of(masked, abs);
        let mut i = abs + "#[cfg(test)]".len();
        while i < b.len() && b[i] != b'{' {
            i += 1;
        }
        let mut depth = 0usize;
        while i < b.len() {
            match b[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let end_line = line_of(masked, i).min(nlines - 1);
        for flag in flags.iter_mut().take(end_line + 1).skip(start_line) {
            *flag = true;
        }
        search = abs + 1;
    }
    flags
}

/// Recursively collect `.rs` files under `dir`, skipping `target/` and
/// `.git/`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        let name = p.file_name().and_then(|s| s.to_str()).unwrap_or("");
        if p.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Read every workspace `.rs` file under `crates/`, `src/` and `tests/` of
/// `root` as `(workspace-relative path, source)` pairs, ordered by path.
pub fn read_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        collect_rs(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, fs::read_to_string(f)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_literals_preserving_lines() {
        let src = "// a comment\nlet s = \"Mutex lock()\";\nlet c = 'x';\n";
        let m = mask(src);
        assert_eq!(m.text.lines().count(), src.lines().count());
        assert!(!m.text.contains("comment"));
        assert!(!m.text.contains("Mutex"));
        assert_eq!(m.strings, vec![(1, "Mutex lock()".to_string())]);
    }

    #[test]
    fn allow_directives_are_per_line_and_prefix_scoped() {
        let src = "// lint:allow(atomic-ordering) counter only\nx.load(Ordering::Relaxed);\n// allow(cast)\n";
        let m = mask(src);
        assert!(m.allowed(1, "atomic-ordering"));
        assert!(!m.allowed(2, "cast"), "only lint:allow directives count");
    }

    #[test]
    fn raw_strings_are_collected_and_masked() {
        let src = "let s = r#\"seed {s}\"#;\n";
        let m = mask(src);
        assert_eq!(m.strings, vec![(0, "seed {s}".to_string())]);
        assert!(!m.text.contains("seed"));
    }

    #[test]
    fn tokenizer_splits_idents_and_puncts() {
        let m = mask("a.lock()");
        let toks = tokenize(&m.text);
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["a", ".", "lock", "(", ")"]);
    }

    #[test]
    fn test_lines_cover_cfg_test_regions() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {}\n}\nfn h() {}\n";
        let m = mask(src);
        let flags = test_lines(&m.text);
        assert!(!flags[0]);
        assert!(flags[1] && flags[2] && flags[3] && flags[4]);
        assert!(!flags[5]);
    }
}
