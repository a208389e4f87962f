//! `wire-conformance` — the opcode discipline.
//!
//! `crates/net/src/wire.rs` declares the opcode numbers in `mod opcode` and
//! pairs each one with a message variant in the `fn opcode` of the
//! `Request` and `Reply` enums — the protocol's one codec. The client must
//! understand every reply, and the README wire table documents the lot.
//! This lint parses the opcode module and both mappings and checks:
//!
//! 1. every opcode value is unique;
//! 2. `Request` variants map only to request values (`< 0x80`) and
//!    `Reply` variants only to reply values (`>= 0x80`);
//! 3. every opcode belongs to exactly one variant;
//! 4. `client.rs` names every `Reply` variant (`Reply::Name`) or knowingly
//!    ignores it via a `// lint: wire-ignore(Name)` comment there;
//! 5. every opcode name appears in `README.md`.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostics;
use crate::lexer::{parse_u64, Tok};
use crate::lints::{contains_word, is_ident, is_punct, path2};
use crate::source::{match_brace, SourceFile, Workspace};

pub const NAME: &str = "wire-conformance";

/// An opcode constant parsed out of `mod opcode`.
#[derive(Debug, Clone)]
pub struct Opcode {
    pub name: String,
    pub value: u64,
    pub line: u32,
}

/// One arm of an enum's `fn opcode`: `Enum::Variant .. => opcode::NAME`.
struct Arm {
    enum_name: &'static str,
    variant: String,
    opcode: String,
    line: u32,
}

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    let Some(wire) = ws.file_ending("net/src/wire.rs") else {
        return; // no wire layer in this tree — nothing to conform to
    };
    let opcodes = parse_opcode_module(wire);
    if opcodes.is_empty() {
        return;
    }

    // (1) unique values.
    let mut by_value: BTreeMap<u64, &Opcode> = BTreeMap::new();
    for opcode in &opcodes {
        if let Some(first) = by_value.get(&opcode.value) {
            diag.report(
                wire,
                opcode.line,
                NAME,
                format!(
                    "opcode {} reuses value {:#04X} already taken by {}",
                    opcode.name, opcode.value, first.name
                ),
            );
        } else {
            by_value.insert(opcode.value, opcode);
        }
    }

    // (2) each enum maps into its own half of the opcode space.
    let requests = parse_arms(wire, "Request");
    let replies = parse_arms(wire, "Reply");
    for arm in requests.iter().chain(&replies) {
        // An undeclared name is the compiler's to report.
        let Some(opcode) = opcodes.iter().find(|o| o.name == arm.opcode) else {
            continue;
        };
        let (want_reply, space) = if arm.enum_name == "Reply" {
            (true, "request value (< 0x80)")
        } else {
            (false, "reply value (>= 0x80)")
        };
        if (opcode.value >= 0x80) != want_reply {
            diag.report(
                wire,
                arm.line,
                NAME,
                format!(
                    "{}::{} maps to {} ({:#04X}), a {space}",
                    arm.enum_name, arm.variant, opcode.name, opcode.value
                ),
            );
        }
    }

    // (3) one variant per opcode.
    for opcode in &opcodes {
        let owners: Vec<String> = requests
            .iter()
            .chain(&replies)
            .filter(|arm| arm.opcode == opcode.name)
            .map(|arm| format!("{}::{}", arm.enum_name, arm.variant))
            .collect();
        let problem = match owners.len() {
            1 => continue,
            0 => "belongs to no Request or Reply variant — dead opcode or missing variant"
                .to_string(),
            _ => format!("belongs to more than one variant: {}", owners.join(", ")),
        };
        diag.report(
            wire,
            opcode.line,
            NAME,
            format!("{} ({:#04X}) {problem}", opcode.name, opcode.value),
        );
    }

    // (4) client coverage.
    if let Some(client) = ws.file_ending("net/src/client.rs") {
        let mentioned: BTreeSet<&str> = (0..client.tokens.len())
            .filter_map(|i| path2(&client.tokens, i, "Reply").map(|(name, _)| name))
            .collect();
        for arm in &replies {
            let ignored = client.comments.iter().any(|c| {
                c.text
                    .contains(&format!("lint: wire-ignore({})", arm.variant))
            });
            if !mentioned.contains(arm.variant.as_str()) && !ignored {
                diag.report(
                    wire,
                    arm.line,
                    NAME,
                    format!(
                        "Reply::{} ({}) is never handled in client.rs — handle it or mark \
                         it `// lint: wire-ignore({})` there",
                        arm.variant, arm.opcode, arm.variant
                    ),
                );
            }
        }
    }

    // (5) README documentation.
    if let Some(readme) = &ws.readme {
        for opcode in &opcodes {
            if !contains_word(readme, &opcode.name) {
                diag.report(
                    wire,
                    opcode.line,
                    NAME,
                    format!(
                        "{} ({:#04X}) is not documented in the README wire table",
                        opcode.name, opcode.value
                    ),
                );
            }
        }
    }
}

/// Pull `pub const NAME: u8 = VALUE;` declarations out of `mod opcode`.
pub fn parse_opcode_module(wire: &SourceFile) -> Vec<Opcode> {
    let tokens = &wire.tokens;
    let Some(mod_at) = (0..tokens.len()).find(|&i| {
        is_ident(tokens, i, "mod")
            && is_ident(tokens, i + 1, "opcode")
            && is_punct(tokens, i + 2, '{')
    }) else {
        return Vec::new();
    };
    let open = mod_at + 2;
    let close = match_brace(tokens, open);
    let mut opcodes = Vec::new();
    let mut i = open;
    while i < close {
        // `pub const NAME : u8 = VALUE ;`
        if is_ident(tokens, i, "const") {
            let name = match tokens.get(i + 1).map(|t| &t.tok) {
                Some(Tok::Ident(s)) => s.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Find the `=` then the value literal before the `;`.
            let mut j = i + 2;
            while j < close && !is_punct(tokens, j, '=') && !is_punct(tokens, j, ';') {
                j += 1;
            }
            if is_punct(tokens, j, '=') {
                if let Some(Tok::Num(lit)) = tokens.get(j + 1).map(|t| &t.tok) {
                    if let Some(value) = parse_u64(lit) {
                        opcodes.push(Opcode {
                            name,
                            value,
                            line: tokens[i + 1].line,
                        });
                    }
                }
            }
            i = j;
        }
        i += 1;
    }
    opcodes
}

/// Pull the arms of `fn opcode` out of every `impl <enum_name>` block:
/// each `enum_name::Variant` (or `Self::Variant`) pattern is paired with the
/// `opcode::NAME` its arm evaluates to.
fn parse_arms(wire: &SourceFile, enum_name: &'static str) -> Vec<Arm> {
    let tokens = &wire.tokens;
    let mut arms = Vec::new();
    for i in 0..tokens.len() {
        if !(is_ident(tokens, i, "impl") && is_ident(tokens, i + 1, enum_name)) {
            continue;
        }
        let Some(open) = (i..tokens.len()).find(|&k| is_punct(tokens, k, '{')) else {
            break;
        };
        let close = match_brace(tokens, open);
        let Some(body) = (open..close)
            .find(|&k| is_ident(tokens, k, "fn") && is_ident(tokens, k + 1, "opcode"))
            .and_then(|f| (f..close).find(|&k| is_punct(tokens, k, '{')))
        else {
            continue;
        };
        let mut variants = Vec::new();
        for k in body..match_brace(tokens, body) {
            if let Some((variant, _)) =
                path2(tokens, k, enum_name).or_else(|| path2(tokens, k, "Self"))
            {
                variants.push(variant.to_string());
            }
            if is_punct(tokens, k, '=') && is_punct(tokens, k + 1, '>') {
                let Some((opcode, line)) = path2(tokens, k + 2, "opcode") else {
                    variants.clear();
                    continue;
                };
                for variant in variants.drain(..) {
                    arms.push(Arm {
                        enum_name,
                        variant,
                        opcode: opcode.to_string(),
                        line,
                    });
                }
            }
        }
    }
    arms
}
