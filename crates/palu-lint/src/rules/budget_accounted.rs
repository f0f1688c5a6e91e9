//! R7 — budget-accounted.
//!
//! The resource-budget governor (DESIGN.md §4g) can only bound a
//! capture's footprint if the capture path's buffers size themselves
//! through it. A raw `Vec::with_capacity(n_v)` (or `reserve`) on a
//! window-geometry-derived size reserves unaccounted memory the
//! admission estimate never saw — exactly the allocation the governor
//! exists to police. On the scoped capture-path files, capacity hints
//! must flow through the sanctioned clamp
//! (`palu_sparse::admitted_capacity`, re-exported as
//! `palu_traffic::budget::admitted_capacity`) or through the checked
//! sparse constructors that validate sizes first.
//!
//! The rule is deliberately narrow: it runs only over the files that
//! allocate proportionally to window geometry, not the whole
//! workspace. `budget.rs` itself is the accountant and is exempt by
//! name; constant-size or already-validated hints carry a
//! `lint:allow(R7)` pragma with a justification; test code is exempt
//! like every other source rule.

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::source::SourceFile;

/// Capacity APIs that reserve memory from a caller-supplied size.
const BANNED_IDENTS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

/// The capture-path files whose allocations scale with window
/// geometry — the only place R7 looks.
const SCOPED_FILES: &[&str] = &[
    "palu-traffic/src/pipeline.rs",
    "palu-traffic/src/window.rs",
    "palu-traffic/src/stream.rs",
    "palu-traffic/src/packets.rs",
    "palu-traffic/src/observatory.rs",
    "palu-traffic/src/journal.rs",
    "palu-sparse/src/coo.rs",
];

/// How many tokens past the opening `(` the sanctioned
/// `admitted_capacity` marker may appear (covers a qualified path
/// like `crate::budget::admitted_capacity(...)`).
const MARKER_WINDOW: usize = 8;

/// Run R7 over one core-crate source file.
pub fn check(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let path = file.path.to_string_lossy().replace('\\', "/");
    if !SCOPED_FILES.iter().any(|s| path.ends_with(s)) {
        return;
    }
    for (i, t) in file.code.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        if !BANNED_IDENTS.contains(&name.as_str()) {
            continue;
        }
        if file.in_test_code(t.line) || file.allowed("R7", t.line) {
            continue;
        }
        // A definition (`fn with_capacity(...)`) is the sanctioned
        // constructor itself, not a call site.
        if i >= 1 && matches!(&file.code[i - 1].tok, Tok::Ident(k) if k == "fn") {
            continue;
        }
        // Only calls: the next token must open the argument list.
        if !matches!(file.code.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
            continue;
        }
        // Sanctioned: the size flows through `admitted_capacity(...)`
        // right inside the argument list.
        let sanctioned = file.code[i + 2..]
            .iter()
            .take(MARKER_WINDOW)
            .any(|t| matches!(&t.tok, Tok::Ident(m) if m == "admitted_capacity"));
        if sanctioned {
            continue;
        }
        diags.push(diag(file, t.line, name));
    }
}

fn diag(file: &SourceFile, line: u32, what: &str) -> Diagnostic {
    Diagnostic::error(
        &file.path,
        line,
        "R7",
        format!(
            "`{what}` reserves capacity on a capture path without the budget \
             accountant; size the hint through `admitted_capacity(..)` (or \
             annotate `// lint:allow(R7)` for constant or pre-validated sizes)"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(path, src);
        let mut diags = Vec::new();
        check(&f, &mut diags);
        diags
    }

    #[test]
    fn raw_with_capacity_on_a_capture_path_fails() {
        let diags = run(
            "crates/palu-traffic/src/window.rs",
            "fn f(n_v: usize) { let _ = Vec::<u8>::with_capacity(n_v); }\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "R7");
        assert!(diags[0].message.contains("with_capacity"), "{diags:?}");
        let diags = run(
            "crates/palu-sparse/src/coo.rs",
            "fn f(v: &mut Vec<u8>, n: usize) { v.reserve(n); }\n",
        );
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn admitted_capacity_sizes_are_sanctioned() {
        let diags = run(
            "crates/palu-traffic/src/stream.rs",
            "fn f(n_v: usize) { let _ = Vec::<u8>::with_capacity(admitted_capacity(n_v)); }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        let diags = run(
            "crates/palu-traffic/src/packets.rs",
            "fn f(n: usize) { let _ = Vec::<u8>::with_capacity(palu_sparse::admitted_capacity(n)); }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn out_of_scope_files_and_the_accountant_are_exempt() {
        let src = "fn f(n: usize) { let _ = Vec::<u8>::with_capacity(n); }\n";
        assert!(run("crates/palu-stats/src/summary.rs", src).is_empty());
        assert!(run("crates/palu-traffic/src/budget.rs", src).is_empty());
        assert!(run("crates/palu-graph/src/census.rs", src).is_empty());
    }

    #[test]
    fn definitions_pragmas_and_test_code_are_exempt() {
        let diags = run(
            "crates/palu-sparse/src/coo.rs",
            "pub fn with_capacity(nnz: usize) -> Self { todo!() }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        let diags = run(
            "crates/palu-traffic/src/journal.rs",
            "// constant frame size. lint:allow(R7)\nfn f() { let _ = Vec::<u8>::with_capacity(64); }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        let diags = run(
            "crates/palu-traffic/src/pipeline.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(n: usize) { let _ = Vec::<u8>::with_capacity(n); }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mentions_in_strings_and_comments_ignored() {
        let diags = run(
            "crates/palu-traffic/src/window.rs",
            "// with_capacity would be wrong here\nfn f() -> &'static str { \"reserve\" }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_call_uses_pass() {
        let diags = run(
            "crates/palu-traffic/src/window.rs",
            "fn f() { let g = Vec::<u8>::with_capacity; let _ = g; }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
