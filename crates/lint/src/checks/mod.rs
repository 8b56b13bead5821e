//! The six project-specific checks. Each module exposes
//! `run(...)` pushing [`Diagnostic`]s; shared
//! token-navigation helpers live here.

pub mod atomics;
pub mod doc_drift;
pub mod floats;
pub mod lock_io;
pub mod panics;
pub mod unsafe_audit;

use std::path::Path;

use crate::model::SourceFile;
use crate::Diagnostic;

/// Runs every check over the loaded workspace rooted at `root`.
pub fn run_all(root: &Path, files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    unsafe_audit::run(files, diags);
    atomics::run(files, diags);
    panics::run(files, diags);
    lock_io::run(files, diags);
    doc_drift::run(root, files, diags);
    floats::run(files, diags);
}

/// True when token `i` is punctuation spelled `p`.
pub(crate) fn is_punct(sf: &SourceFile, i: usize, p: &str) -> bool {
    sf.toks
        .get(i)
        .is_some_and(|t| t.kind == crate::lexer::TokKind::Punct && t.text == p)
}

/// True when token `i` is an identifier (never a keyword).
pub(crate) fn is_ident(sf: &SourceFile, i: usize) -> bool {
    sf.toks
        .get(i)
        .is_some_and(|t| t.kind == crate::lexer::TokKind::Ident)
}

/// Index of the statement boundary before token `i`: the most recent
/// `;`, `{`, or `}` (exclusive). Returns the first token of the
/// statement containing `i`.
pub(crate) fn stmt_start(sf: &SourceFile, i: usize) -> usize {
    let mut k = i;
    while k > 0 {
        let t = &sf.toks[k - 1];
        if t.kind == crate::lexer::TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        k -= 1;
    }
    k
}
