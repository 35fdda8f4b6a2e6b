//! `cargo run -p xtask -- lint [--list]` — the in-repo lint gate.
//!
//! A dependency-free token-level scanner over the workspace sources, wired
//! into ci/check.sh: hot-path hygiene, confinement and concurrency rules
//! (see `lint.rs`). It exits non-zero when anything fires; `--list` prints
//! the rule table (id, confinement scope, description) sorted by id.
#![forbid(unsafe_code)]

mod lint;
mod model;
mod scan;

use std::path::Path;

fn usage() -> ! {
    eprintln!("usage: cargo run -p xtask -- lint [--list]");
    std::process::exit(2);
}

/// The `--list` table: one rule per line, `<id> <scope> -- <desc>`, sorted
/// by id (golden-tested in `tests/cli_list.rs`).
fn lint_list() -> String {
    let idw = lint::LINTS.iter().map(|l| l.id.len()).max().unwrap_or(0);
    let scw = lint::LINTS.iter().map(|l| l.scope.len()).max().unwrap_or(0);
    let mut out = String::new();
    for l in &lint::LINTS {
        out.push_str(&format!("{:<idw$}  {:<scw$}  {}\n", l.id, l.scope, l.desc));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let list = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["lint"] => false,
        ["lint", "--list"] | ["--list", "lint"] => true,
        _ => usage(),
    };
    if list {
        print!("{}", lint_list());
        return;
    }

    // crates/xtask/ -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root");
    match lint::run(root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: clean ({} rules)", lint::LINTS.len());
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("xtask lint: io error: {e}");
            std::process::exit(1);
        }
    }
}
