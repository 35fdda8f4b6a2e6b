//! Syntactic model of one masked source file: function boundaries,
//! lock-acquisition sites and guard live ranges.
//!
//! Everything here is token-level and deliberately approximate, like the
//! rest of the lint gate. The model errs on the side of seeing *more*
//! acquisitions and *longer* guard ranges than the compiler would, which is
//! the conservative direction for `guard-across-callback`, and every rule
//! has a per-site `// lint:allow(id)` escape hatch for the false positives
//! that conservatism buys.

use crate::scan::Tok;

/// One function in a file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Token range of the body: `(open brace index, close brace index)`.
    pub body: (usize, usize),
    /// 0-based line range `(first, last)` of the whole item.
    pub lines: (usize, usize),
    /// Names of parameters with a callable (`Fn`/`FnMut`/`FnOnce`) type,
    /// directly (`impl Fn(..)`) or via a generic bound (`F: Fn(..)`).
    pub callback_params: Vec<String>,
}

/// One syntactic lock acquisition: `recv.lock()`, `recv.read()` or
/// `recv.write()` with no arguments.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Token index of the method-name token.
    pub tok: usize,
    /// 0-based line of the acquisition.
    pub line: usize,
    /// Token index one past the guard's live range: end of statement for a
    /// temporary, end of the enclosing block (or `drop(guard)`) for a
    /// `let`-bound guard.
    pub live_end: usize,
}

/// The per-file model consumed by the rules.
pub struct FileModel {
    pub fns: Vec<FnInfo>,
    pub acquires: Vec<Acquire>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "fn", "let", "in", "move", "mut",
    "ref", "pub", "use", "mod", "impl", "struct", "enum", "trait", "where", "const", "static",
    "type", "unsafe", "as", "break", "continue", "crate", "super", "Self", "self", "dyn", "box",
    "async", "await",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Brace depth before each token.
fn depths(toks: &[Tok<'_>]) -> Vec<usize> {
    let mut out = Vec::with_capacity(toks.len());
    let mut d = 0usize;
    for t in toks {
        out.push(d);
        match t.text {
            "{" => d += 1,
            "}" => d = d.saturating_sub(1),
            _ => {}
        }
    }
    out
}

/// Index one past the matching closer for the opener at `open` (`(`/`)` or
/// `{`/`}`). Returns `toks.len()` when unbalanced.
fn skip_matched(toks: &[Tok<'_>], open: usize, o: &str, c: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].text == o {
            depth += 1;
        } else if toks[i].text == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Index one past the `>` matching the `<` at `open`, treating the `>` of a
/// `->` arrow as plain punctuation.
fn skip_generics(toks: &[Tok<'_>], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text {
            "<" => depth += 1,
            ">" if i > 0 && toks[i - 1].text == "-" => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Do `type_toks` name a callable, directly or through `fn_bounded` generics?
fn is_callable_type(type_toks: &[&str], fn_bounded: &[String]) -> bool {
    if type_toks
        .iter()
        .any(|t| matches!(*t, "Fn" | "FnMut" | "FnOnce"))
    {
        return true;
    }
    // A bare generic parameter (possibly behind `&`/`mut`).
    let idents: Vec<&&str> = type_toks
        .iter()
        .filter(|t| {
            t.chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
        .collect();
    idents.len() == 1 && fn_bounded.iter().any(|g| g == *idents[0])
}

/// Collect `ident: ... Fn...`-bounded generic names from a generics or
/// `where` token region.
fn fn_bounded_generics(toks: &[Tok<'_>], range: std::ops::Range<usize>, out: &mut Vec<String>) {
    let mut i = range.start;
    while i < range.end {
        if toks[i].text == ":"
            && i > range.start
            && !is_keyword(toks[i - 1].text)
            && toks[i - 1]
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            // Scan the bound until a top-level `,` or the region end.
            let name = toks[i - 1].text.to_string();
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut paren = 0i32;
            while j < range.end {
                match toks[j].text {
                    "<" => angle += 1,
                    ">" if toks[j - 1].text != "-" => angle -= 1,
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "," if angle <= 0 && paren <= 0 => break,
                    "Fn" | "FnMut" | "FnOnce" if !out.contains(&name) => {
                        out.push(name.clone());
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Segment every `fn` item (including nested ones) out of the token stream.
fn functions(toks: &[Tok<'_>]) -> Vec<FnInfo> {
    let mut out = Vec::new();
    let n = toks.len();
    let mut i = 0usize;
    while i < n {
        if toks[i].text != "fn" || i + 1 >= n {
            i += 1;
            continue;
        }
        let name_tok = i + 1;
        let name = toks[name_tok].text;
        if !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            i += 1;
            continue;
        }
        let mut j = name_tok + 1;
        let mut fn_bounded: Vec<String> = Vec::new();
        if j < n && toks[j].text == "<" {
            let end = skip_generics(toks, j);
            fn_bounded_generics(toks, j + 1..end.saturating_sub(1), &mut fn_bounded);
            j = end;
        }
        if j >= n || toks[j].text != "(" {
            i = name_tok + 1;
            continue;
        }
        let params_open = j;
        let params_end = skip_matched(toks, j, "(", ")"); // one past `)`
                                                          // Return type / where clause up to the body `{` or a decl `;`.
        let mut k = params_end;
        let mut where_start = None;
        while k < n && toks[k].text != "{" && toks[k].text != ";" {
            match toks[k].text {
                "(" => {
                    k = skip_matched(toks, k, "(", ")");
                    continue;
                }
                "<" if toks[k - 1].text != "-" && toks[k - 1].text != "<" => {
                    k = skip_generics(toks, k);
                    continue;
                }
                "where" => where_start = Some(k + 1),
                _ => {}
            }
            k += 1;
        }
        if k >= n || toks[k].text == ";" {
            i = name_tok + 1;
            continue;
        }
        if let Some(ws) = where_start {
            fn_bounded_generics(toks, ws..k, &mut fn_bounded);
        }
        let body_open = k;
        let body_close = skip_matched(toks, body_open, "{", "}").saturating_sub(1);

        // Parameter names with callable types.
        let mut callback_params = Vec::new();
        {
            let mut p = params_open + 1;
            let mut seg_start = p;
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut brack = 0i32;
            while p < params_end {
                let t = toks[p].text;
                let closing_param_list = p + 1 == params_end;
                let top_comma = t == "," && angle <= 0 && paren <= 0 && brack <= 0;
                if top_comma || closing_param_list {
                    let seg_end = if top_comma { p } else { p.max(seg_start) };
                    param_callback(toks, seg_start..seg_end, &fn_bounded, &mut callback_params);
                    seg_start = p + 1;
                }
                match t {
                    "<" => angle += 1,
                    ">" if toks[p - 1].text != "-" => angle -= 1,
                    "(" => paren += 1,
                    ")" if !closing_param_list => paren -= 1,
                    "[" => brack += 1,
                    "]" => brack -= 1,
                    _ => {}
                }
                p += 1;
            }
        }

        out.push(FnInfo {
            body: (body_open, body_close),
            lines: (toks[i].line, toks[body_close.min(n - 1)].line),
            callback_params,
        });
        // Continue scanning *inside* the body so nested fns are found too.
        i = name_tok + 1;
    }
    out
}

/// If the parameter segment `name: TYPE` has a callable TYPE, record `name`.
fn param_callback(
    toks: &[Tok<'_>],
    seg: std::ops::Range<usize>,
    fn_bounded: &[String],
    out: &mut Vec<String>,
) {
    let Some(colon) = (seg.start..seg.end).find(|&i| toks[i].text == ":") else {
        return;
    };
    if colon == seg.start {
        return;
    }
    let name = toks[colon - 1].text;
    if is_keyword(name)
        || !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        return;
    }
    let type_toks: Vec<&str> = (colon + 1..seg.end).map(|i| toks[i].text).collect();
    if is_callable_type(&type_toks, fn_bounded) {
        out.push(name.to_string());
    }
}

/// Does the `.` at `dot` follow a receiver: a path segment (`m`,
/// `self.inner`) or a method-call result (`self.registry()`)? A
/// parenthesised expression, an index or a `?` does not count.
fn has_receiver(toks: &[Tok<'_>], dot: usize) -> bool {
    let word = |t: &str| {
        t.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    };
    let Some(prev) = dot.checked_sub(1) else {
        return false;
    };
    if toks[prev].text != ")" {
        return word(toks[prev].text);
    }
    let mut depth = 0usize;
    for k in (0..=prev).rev() {
        match toks[k].text {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    let name = k.checked_sub(1).map_or("", |p| toks[p].text);
                    return word(name) && !is_keyword(name);
                }
            }
            _ => {}
        }
    }
    false
}

/// Extract every acquisition site with its guard live range.
fn acquires(toks: &[Tok<'_>], depth: &[usize]) -> Vec<Acquire> {
    let n = toks.len();
    let mut out = Vec::new();
    for i in 0..n {
        if toks[i].text != "." || i + 3 >= n {
            continue;
        }
        if !matches!(toks[i + 1].text, "lock" | "read" | "write")
            || toks[i + 2].text != "("
            || toks[i + 3].text != ")"
        {
            continue;
        }
        if !has_receiver(toks, i) {
            continue;
        }

        // Guard binding: `let [mut] g = <chain>.<method>()...`.
        let chain_start = chain_start_tok(toks, i);
        let mut guard_var = None;
        if chain_start >= 3 && toks[chain_start - 1].text == "=" {
            let g = toks[chain_start - 2].text;
            let kw = toks[chain_start - 3].text;
            let kw2 = if chain_start >= 4 {
                toks[chain_start - 4].text
            } else {
                ""
            };
            if (kw == "let" || (kw == "mut" && kw2 == "let"))
                && g.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                guard_var = Some(g);
            }
        }

        let d = depth[i];
        let live_end = match &guard_var {
            Some(g) => {
                // Until the enclosing block closes or the guard is dropped.
                // `depth[j]` is the depth *before* token `j`, so the
                // enclosing `}` is the first one at depth <= d.
                let mut end = n;
                for (j, t) in toks.iter().enumerate().skip(i + 4) {
                    if t.text == "}" && depth[j] <= d {
                        end = j;
                        break;
                    }
                    if t.text == "drop"
                        && j + 2 < n
                        && toks[j + 1].text == "("
                        && toks[j + 2].text == *g
                    {
                        end = j;
                        break;
                    }
                }
                end
            }
            None => {
                // Temporary: until the end of the statement.
                let mut end = n;
                for (j, t) in toks.iter().enumerate().skip(i + 4) {
                    if (t.text == ";" && depth[j] == d) || (t.text == "}" && depth[j] < d) {
                        end = j;
                        break;
                    }
                }
                end
            }
        };
        out.push(Acquire {
            tok: i + 1,
            line: toks[i + 1].line,
            live_end,
        });
    }
    out
}

/// First token of the receiver chain feeding the `.` at `dot`.
fn chain_start_tok(toks: &[Tok<'_>], dot: usize) -> usize {
    let mut i = dot;
    loop {
        if i == 0 {
            return 0;
        }
        let prev = &toks[i - 1];
        if !prev
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            return i;
        }
        if i >= 2 && toks[i - 2].text == "." {
            i -= 2;
        } else {
            return i - 1;
        }
    }
}

/// Build the full model for one masked, tokenized file.
pub fn build(toks: &[Tok<'_>]) -> FileModel {
    FileModel {
        fns: functions(toks),
        acquires: acquires(toks, &depths(toks)),
    }
}

impl FileModel {
    /// Innermost function whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= idx && idx <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{mask, tokenize};

    /// `(fn line ranges, acquisition lines)`, 0-based.
    fn model(src: &str) -> (Vec<(usize, usize)>, Vec<usize>) {
        let m = mask(src);
        let fm = build(&tokenize(&m.text));
        (
            fm.fns.iter().map(|f| f.lines).collect(),
            fm.acquires.iter().map(|a| a.line).collect(),
        )
    }

    #[test]
    fn functions_and_acquires_are_found() {
        let src = "impl Reg {\n    fn go(&self) {\n        let g = self.inner.lock();\n        other.read();\n        self.lock();\n    }\n}\n";
        let (fns, acq) = model(src);
        assert_eq!(fns, vec![(1, 5)]);
        assert_eq!(acq, vec![2, 3, 4]);
    }

    #[test]
    fn argful_read_write_are_not_acquires() {
        let src = "fn f(w: &mut W) { w.write(buf); r.read(&mut buf); }\n";
        let (_, acq) = model(src);
        assert!(acq.is_empty(), "{acq:?}");
    }

    #[test]
    fn callback_params_direct_and_generic() {
        let src = "fn f<F: FnMut(usize) -> bool>(a: u32, cb: impl Fn(), g: F) {}\nfn h(x: u32) where { }\n";
        let m = mask(src);
        let toks = tokenize(&m.text);
        let fm = build(&toks);
        assert_eq!(fm.fns[0].callback_params, vec!["cb", "g"]);
        assert!(fm.fns[1].callback_params.is_empty());
    }

    #[test]
    fn guard_live_range_ends_at_block_or_drop() {
        let src = "fn f() {\n    { let g = m.lock(); use1(); }\n    after();\n    let h = m2.lock();\n    drop(h);\n    tail();\n}\n";
        let m = mask(src);
        let toks = tokenize(&m.text);
        let fm = build(&toks);
        let a = &fm.acquires[0];
        // use1 is inside the range, after() is not.
        let use1 = toks.iter().position(|t| t.text == "use1").unwrap();
        let after = toks.iter().position(|t| t.text == "after").unwrap();
        assert!(a.tok < use1 && use1 < a.live_end);
        assert!(after >= a.live_end);
        let b = &fm.acquires[1];
        let tail = toks.iter().position(|t| t.text == "tail").unwrap();
        assert!(tail >= b.live_end, "drop(h) ends the range");
    }

    #[test]
    fn call_result_is_a_receiver_but_a_parenthesised_expression_is_not() {
        let src = "fn f() {\n    self.registry().lock();\n    (a).lock();\n    v[0].lock();\n}\n";
        let (_, acq) = model(src);
        assert_eq!(acq, vec![1]);
    }
}
