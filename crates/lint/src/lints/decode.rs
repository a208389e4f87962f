//! `panic-free-decode` — the decode paths must refuse, never panic.
//!
//! Wire decoding turns arbitrary peer bytes into typed `WireError`s, not
//! panics (a proptest corruption harness samples this). This lint proves
//! the *shape* on every build, in every function that reads peer bytes:
//! `read_frame`, every `decode`/`decode_*` (the `Request`/`Reply` decoders
//! and the payload codecs) and every `get_*` field reader in
//! `crates/net/src/wire.rs` and `crates/net/src/heat.rs` (the `STATS`
//! payload). Inside them there must be no `unwrap`/`expect`, no
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!`, and no direct slice
//! indexing (`payload[4]`, `&buf[..n]` — both can panic; use `get(..)`
//! and typed errors).

use crate::diag::Diagnostics;
use crate::lexer::Tok;
use crate::lints::is_ident;
use crate::source::{match_brace, SourceFile, Workspace};

pub const NAME: &str = "panic-free-decode";

const BANNED_CALLS: &[&str] = &[
    "unwrap",
    "expect",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// The files whose functions read peer bytes.
const DECODERS: &[&str] = &["net/src/wire.rs", "net/src/heat.rs"];

/// Whether a function, by name, reads peer bytes.
fn in_scope(name: &str) -> bool {
    name.starts_with("decode") || name.starts_with("get_") || name == "read_frame"
}

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    for suffix in DECODERS {
        if let Some(file) = ws.file_ending(suffix) {
            check_file(file, diag);
        }
    }
}

fn check_file(file: &SourceFile, diag: &mut Diagnostics) {
    let tokens = &file.tokens;
    let mut i = 0;
    while i < tokens.len() {
        if !is_ident(tokens, i, "fn") {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(fn_name)) = tokens.get(i + 1).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        let Some(open) = (i..tokens.len()).find(|&k| matches!(tokens[k].tok, Tok::Punct('{')))
        else {
            break;
        };
        let close = match_brace(tokens, open);
        if !in_scope(fn_name) {
            i = close + 1;
            continue;
        }
        for k in open..close {
            match &tokens[k].tok {
                Tok::Ident(id) if BANNED_CALLS.contains(&id.as_str()) => {
                    diag.report(
                        file,
                        tokens[k].line,
                        NAME,
                        format!(
                            "`{id}` in decode path `{fn_name}` — decoding must return a \
                             typed WireError, never panic"
                        ),
                    );
                }
                Tok::Punct('[') if is_index_bracket(tokens, k) => {
                    diag.report(
                        file,
                        tokens[k].line,
                        NAME,
                        format!(
                            "direct slice indexing in decode path `{fn_name}` — out-of-range \
                             input would panic; use `get(..)` with a typed error"
                        ),
                    );
                }
                _ => {}
            }
        }
        i = close + 1;
    }
}

/// A `[` is an *index* when it follows a value expression: an identifier,
/// a closing bracket/paren, or a literal. `#[attr]`, `[u8; 4]` types and
/// array literals follow punctuation and stay legal.
fn is_index_bracket(tokens: &[crate::lexer::Token], k: usize) -> bool {
    if k == 0 {
        return false;
    }
    matches!(
        tokens[k - 1].tok,
        Tok::Ident(_) | Tok::Punct(']') | Tok::Punct(')') | Tok::Num(_)
    )
}
