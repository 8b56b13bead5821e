//! **lock-across-io** — a `Mutex`/`RwLock` guard binding held across a
//! blocking file/socket I/O call serializes every other thread behind
//! that device; the one deliberate case (the WAL commit path, where the
//! fsync *is* the commit point) carries `// lint: allow(lock_across_io)`.
//!
//! Approximation, function-granular and name-based:
//!
//! 1. Build the set of I/O-performing function names: seed with the
//!    blocking primitives (`write_all`, `read_exact`, `sync_all`,
//!    `sync_data`, ...) and close over workspace functions that call a
//!    name already in the set (a crude name-matched call graph).
//!    Propagation only flows through names defined *exactly once* in
//!    the workspace and not on the ubiquitous-name blocklist (`new`,
//!    `drop`, `write`, ...), so `Wal::record_batch` carries its I/O to
//!    callers but `Ledger::new` does not smear I/O over every
//!    constructor call.
//! 2. In each function, find *persisted guard bindings*: a `let`
//!    statement ending in `.lock()` / `.read()` / `.write()` (empty
//!    parens, so `io::Write::write(buf)` never matches) optionally
//!    chained through `unwrap`/`expect`/`unwrap_or_else` or `?`. A
//!    chain that keeps going (`rx.lock().recv_timeout(..)`) consumes
//!    the guard within the statement and is not a held lock.
//! 3. Flag the first I/O-set call after the binding in the same
//!    function, unless an allow annotation covers the I/O line, the
//!    binding line, or the function header.
//!
//! `stderr()`/`stdout()`/`stdin()` locks are exempt: holding the
//! stream's own lock over its write is the intended use, and seeding
//! the call graph from a log sink would smear "does I/O" over every
//! function that logs.

use std::collections::HashSet;

use crate::checks::{is_punct, stmt_start};
use crate::lexer::TokKind;
use crate::model::{FnSpan, SourceFile};
use crate::Diagnostic;

pub const CHECK: &str = "lock-across-io";

const IO_PRIMITIVES: &[&str] = &[
    "write_all",
    "write_vectored",
    "read_exact",
    "sync_all",
    "sync_data",
    "read_to_end",
    "read_to_string",
];

/// Methods that may follow `.lock()` and still leave the guard bound.
const GUARD_CHAIN: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Names too common to trust in a name-matched call graph: calling one
/// says nothing about *which* definition runs (and `drop(guard)` is the
/// idiomatic fix, not a violation).
const UBIQUITOUS: &[&str] = &[
    "new", "drop", "clone", "default", "lock", "read", "write", "next", "get", "insert", "push",
];

pub fn run(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let io_fns = io_fn_names(files);
    for sf in files {
        for f in &sf.fns {
            check_fn(sf, f, &io_fns, diags);
        }
    }
}

/// Fixpoint over the name-matched call graph, seeded by the
/// primitives. The returned set contains only names a *call site* may
/// be charged with: unique, non-ubiquitous workspace definitions that
/// transitively reach a blocking primitive.
fn io_fn_names(files: &[SourceFile]) -> HashSet<String> {
    let mut def_counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for sf in files {
        for f in &sf.fns {
            *def_counts.entry(f.name.as_str()).or_insert(0) += 1;
        }
    }
    let trusted =
        |name: &str| def_counts.get(name).copied() == Some(1) && !UBIQUITOUS.contains(&name);
    let mut set: HashSet<String> = HashSet::new();
    loop {
        let mut changed = false;
        for sf in files {
            for f in &sf.fns {
                if set.contains(&f.name) || !trusted(&f.name) {
                    continue;
                }
                let calls_io = (f.start..=f.end.min(sf.toks.len() - 1)).any(|i| {
                    let t = &sf.toks[i];
                    t.kind == TokKind::Ident
                        && !t.in_test
                        && is_punct(sf, i + 1, "(")
                        && (IO_PRIMITIVES.contains(&t.text.as_str()) || set.contains(&t.text))
                        && !stream_lock_receiver(sf, i)
                        && !sf.has_allow(CHECK, t.line)
                });
                if calls_io {
                    set.insert(f.name.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return set;
        }
    }
}

/// True when the call at token `i` is reached through a std stream
/// handle: `stderr().lock()...`, `stdout()...` — the sink's own lock.
fn stream_lock_receiver(sf: &SourceFile, i: usize) -> bool {
    let start = stmt_start(sf, i);
    sf.toks[start..i].iter().any(|t| {
        t.kind == TokKind::Ident && matches!(t.text.as_str(), "stderr" | "stdout" | "stdin")
    })
}

struct GuardBinding {
    name: String,
    line: u32,
    /// Token index just past the binding statement's `;`.
    after: usize,
}

fn check_fn(sf: &SourceFile, f: &FnSpan, io_fns: &HashSet<String>, diags: &mut Vec<Diagnostic>) {
    let owns = |i: usize| sf.enclosing_fn(i).is_some_and(|g| g.start == f.start);
    let mut bindings: Vec<GuardBinding> = Vec::new();
    let hi = f.end.min(sf.toks.len().saturating_sub(1));
    for i in f.start..=hi {
        if !owns(i) {
            continue;
        }
        let t = &sf.toks[i];
        if t.in_test {
            continue;
        }
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && is_punct(sf, i - 1, ".")
            && is_punct(sf, i + 1, "(")
            && is_punct(sf, i + 2, ")")
            && !stream_lock_receiver(sf, i)
        {
            if let Some(b) = persisted_binding(sf, i) {
                bindings.push(b);
            }
        }
    }
    for b in &bindings {
        for i in b.after..=hi {
            if !owns(i) {
                continue;
            }
            let t = &sf.toks[i];
            if t.in_test || t.kind != TokKind::Ident || !is_punct(sf, i + 1, "(") {
                continue;
            }
            if !(IO_PRIMITIVES.contains(&t.text.as_str()) || io_fns.contains(&t.text)) {
                continue;
            }
            if sf.has_allow(CHECK, t.line)
                || sf.has_allow(CHECK, b.line)
                || sf.has_allow(CHECK, f.header_line)
            {
                break;
            }
            diags.push(Diagnostic {
                file: sf.rel.clone(),
                line: t.line,
                check: CHECK,
                message: format!(
                    "guard `{}` (locked at line {}) is still held across I/O call `{}()`; \
                     drop the guard first or annotate `// lint: allow(lock_across_io)`",
                    b.name, b.line, t.text
                ),
            });
            break;
        }
    }
}

/// If the `.lock()` at token `i` is the tail of a `let` statement whose
/// chain only re-shapes the guard, returns the binding. `None` when the
/// statement consumes the guard or there is no `let`.
fn persisted_binding(sf: &SourceFile, i: usize) -> Option<GuardBinding> {
    let start = stmt_start(sf, i);
    let let_idx = (start..i).find(|&k| {
        let t = &sf.toks[k];
        t.kind == TokKind::Keyword && t.text == "let"
    })?;
    // Binding name: first identifier after `let` (skipping `mut`).
    let name = sf.toks[let_idx + 1..i]
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())?;
    // Walk the chain after `.lock()`'s closing paren.
    let mut k = i + 2; // index of `)`
    loop {
        k += 1;
        let t = sf.toks.get(k)?;
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ";" => {
                    return Some(GuardBinding {
                        name,
                        line: sf.toks[i].line,
                        after: k + 1,
                    })
                }
                "?" => continue,
                "." => {
                    let m = sf.toks.get(k + 1)?;
                    if m.kind != TokKind::Ident || !GUARD_CHAIN.contains(&m.text.as_str()) {
                        return None;
                    }
                    // Skip the method's balanced argument list.
                    if !is_punct(sf, k + 2, "(") {
                        return None;
                    }
                    let mut depth = 0usize;
                    let mut j = k + 2;
                    loop {
                        let p = sf.toks.get(j)?;
                        if p.kind == TokKind::Punct {
                            match p.text.as_str() {
                                "(" => depth += 1,
                                ")" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                        j += 1;
                    }
                    k = j;
                }
                _ => return None,
            }
        } else {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn frame_io_counts_as_blocking_io() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = crate::model::load_workspace(&root).expect("workspace scans");
        let io_fns = io_fn_names(&files);
        for name in ["write_frame", "read_frame"] {
            assert!(
                io_fns.contains(name),
                "`{name}` fell out of the blocking-I/O set"
            );
        }
    }

    #[test]
    fn a_guard_held_across_a_vectored_write_is_flagged() {
        let sf = SourceFile::parse(
            "x.rs".into(),
            "fn send_frame(w: &mut W, b: &[IoSlice]) { w.write_vectored(b); }\n\
             fn f(m: &Mutex<u8>, w: &mut W) { let g = m.lock(); send_frame(w, &[]); }\n",
        );
        let files = [sf];
        let mut diags = Vec::new();
        run(&files, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("send_frame"), "{diags:?}");
    }
}
