//! **panic-freedom** — the hostile-input surfaces must turn bad bytes
//! into error values, never into a worker panic. Within the scoped
//! files/functions the check denies `.unwrap()` / `.expect(...)`,
//! every panicking macro, and unchecked slice indexing (`xs[i]`,
//! `&buf[n..]`).
//!
//! Indexing detection: a `[` token counts as indexing when the previous
//! token is a plain identifier, `)`, or `]` — which matches `xs[i]` and
//! `(expr)[i]` but not `vec![..]` (previous token `!`), attributes
//! (`#`), array literals/types (`=`, `:`, `<`, ...), or slice patterns
//! (`let [a, b] = ..`).

use crate::checks::{is_ident, is_punct};
use crate::lexer::TokKind;
use crate::model::SourceFile;
use crate::Diagnostic;

pub const CHECK: &str = "panic-freedom";

/// Which code is held to panic-freedom. `fns: None` scopes the whole
/// file; otherwise only the named functions (a trailing `*` matches a
/// prefix). The wire module is fn-scoped because its *encode* half may
/// assert on programmer error — only the decode half faces the network.
struct Scope {
    file_suffix: &'static str,
    fns: Option<&'static [&'static str]>,
}

const SCOPES: &[Scope] = &[
    Scope {
        file_suffix: "crates/server/src/wire.rs",
        fns: Some(&[
            "get_*",
            "decode*",
            "open_payload",
            "frame_version",
            "read_frame",
            "submit_body",
            // RawSubmission's view of a frame's skipped indices.
            "skipped",
            // Dec, the bounds-checked cursor every decoder runs on.
            "take",
            "array",
            "u8",
            "u16",
            "u32",
            "u64",
            "f64",
            "count",
            "bytes",
            "string",
            "finish",
        ]),
    },
    Scope {
        file_suffix: "crates/server/src/server.rs",
        fns: None,
    },
    // The submission validator every ingest path runs.
    Scope {
        file_suffix: "crates/protocol/src/ingest.rs",
        fns: None,
    },
    // The bundle reader: `encode_bundle` asserts its caller contract.
    Scope {
        file_suffix: "crates/core/src/codec.rs",
        fns: Some(&["open_bundle", "decode_bundle", "keys", "next", "size_hint"]),
    },
    // The shard-map file reader: `from_json` and its `MapReader`.
    Scope {
        file_suffix: "crates/cluster/src/shard.rs",
        fns: Some(&[
            "from_json",
            "fail",
            "peek",
            "punct",
            "list",
            "object",
            "field",
            "map",
            "node",
            "uint",
            "string",
            "missing",
        ]),
    },
    Scope {
        file_suffix: "crates/obs/src/expose.rs",
        fns: None,
    },
    Scope {
        file_suffix: "crates/obs/src/span.rs",
        fns: None,
    },
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

fn fn_matches(name: &str, pat: &str) -> bool {
    match pat.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == pat,
    }
}

fn in_scope(sf: &SourceFile, scope: &Scope, i: usize) -> bool {
    match scope.fns {
        None => true,
        Some(pats) => sf
            .enclosing_fn(i)
            .is_some_and(|f| pats.iter().any(|p| fn_matches(&f.name, p))),
    }
}

pub fn run(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for sf in files {
        let Some(scope) = SCOPES.iter().find(|s| sf.rel.ends_with(s.file_suffix)) else {
            continue;
        };
        for i in 0..sf.toks.len() {
            let t = &sf.toks[i];
            if t.in_test {
                continue;
            }
            let finding: Option<String> = if t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && i > 0
                && is_punct(sf, i - 1, ".")
                && is_punct(sf, i + 1, "(")
            {
                Some(format!("`.{}(...)` can panic", t.text))
            } else if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && is_punct(sf, i + 1, "!")
            {
                Some(format!("`{}!` can panic", t.text))
            } else if t.kind == TokKind::Punct && t.text == "[" && i > 0 {
                let prev = &sf.toks[i - 1];
                let indexing = is_ident(sf, i - 1)
                    || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
                indexing.then(|| {
                    format!(
                        "unchecked slice index after `{}` can panic; use .get()/.get_mut()",
                        prev.text
                    )
                })
            } else {
                None
            };
            let Some(what) = finding else { continue };
            if !in_scope(sf, scope, i) || sf.has_allow(CHECK, t.line) {
                continue;
            }
            diags.push(Diagnostic {
                file: sf.rel.clone(),
                line: t.line,
                check: CHECK,
                message: format!(
                    "{what} in a panic-free surface (hostile input must map to an error value)"
                ),
            });
        }
    }
}
