//! The workspace-level `pub-without-caller` rule: the public surface is
//! what production calls.
//!
//! Unlike the per-file rules in [`crate::rules`], this one needs every file
//! at once. It reports each bare `pub fn`, `pub const` and `pub static`,
//! and each bare `pub` named field of a bare `pub struct`, under
//! `crates/*/src` whose name has no mention in non-test code outside its
//! defining file. What counts:
//!
//! * **Callers** are library and binary sources, `examples/` and the
//!   read-only corpus under `benchmark/src/` (read for mentions, never
//!   linted).
//! * **Not callers** are `tests/`, `benches/`, `#[cfg(test)]` items and
//!   modules (tracked with braces), `use` declarations (the call a `use`
//!   enables is the mention), the name token of any `fn`/`const`/`static`
//!   definition and the name of every field a `struct` declares (a struct
//!   literal or a field read is the mention).
//!
//! Mentions are code tokens from [`crate::scanner::tokenize`], so comments,
//! doc text and string literals never count. `pub(crate)` and other
//! restricted visibilities are out of scope (rustc's `dead_code` guards
//! them), as are trait-impl methods (they carry no `pub`), the fields of a
//! restricted struct, tuple-struct and enum-variant fields, and types.
//! The scan is by name: a name that some unrelated code also mentions is
//! never reported, so the rule can miss an unused item but never reports a
//! used one.

use std::collections::BTreeMap;

use crate::rules::{Finding, RuleId};
use crate::scanner::{test_mask, Token};
use crate::workspace::{FileContext, TargetKind};

/// Reports every `pub` function, constant, static or struct field with no
/// non-test mention outside its defining file, given each file's place in the
/// workspace (`None` for corpus-only files) and code tokens. Waivers are
/// applied by the caller.
pub(crate) fn pub_without_caller(files: &[(Option<&FileContext>, &[Token])]) -> Vec<Finding> {
    // Name -> the callers that mention it (ascending, deduplicated).
    let mut mentioned_in: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, (ctx, tokens)) in files.iter().enumerate() {
        let is_caller = ctx.is_none_or(|c| {
            matches!(
                c.kind,
                TargetKind::Lib | TargetKind::Bin | TargetKind::Example
            )
        });
        if !is_caller {
            continue;
        }
        let mask = non_mention_mask(tokens);
        for (tok, _) in tokens.iter().zip(mask).filter(|(_, masked)| !masked) {
            let callers = mentioned_in.entry(tok.text.as_str()).or_default();
            if callers.last() != Some(&idx) {
                callers.push(idx);
            }
        }
    }

    let mut out = Vec::new();
    for (idx, (ctx, tokens)) in files.iter().enumerate() {
        // The surface is the member crates' library and binary sources.
        let Some(ctx) = ctx
            .filter(|c| c.crate_dir != "." && matches!(c.kind, TargetKind::Lib | TargetKind::Bin))
        else {
            continue;
        };
        let tests = test_mask(tokens);
        let items = (0..tokens.len())
            .filter(|&i| tokens[i].text == "pub" && !tests[i])
            .filter_map(|i| pub_item(tokens, i))
            .map(|(kind, name)| (format!("{kind} {}", name.text), name));
        let fields = (0..tokens.len())
            .filter(|&i| tokens[i].text == "struct" && i > 0 && tokens[i - 1].text == "pub")
            .filter(|&i| !tests[i])
            .flat_map(|i| {
                let owner = tokens.get(i + 1).map_or("", |t| t.text.as_str());
                struct_fields(tokens, i)
                    .into_iter()
                    .filter(|&f| tokens[f - 1].text == "pub" && !tests[f])
                    .map(move |f| (format!("field {owner}::{}", tokens[f].text), &tokens[f]))
            });
        for (what, name) in items.chain(fields) {
            let called_elsewhere = mentioned_in
                .get(name.text.as_str())
                .is_some_and(|callers| callers.iter().any(|&f| f != idx));
            if !called_elsewhere {
                out.push(Finding {
                    file: ctx.rel_path.clone(),
                    line: name.line,
                    rule: RuleId::PubWithoutCaller,
                    message: format!(
                        "`pub {what}` has no caller outside tests and its own file; \
                         delete it, make it private or `pub(crate)`, move it under \
                         `#[cfg(test)]`, or waive it with the reason tests reach it"
                    ),
                });
            }
        }
    }
    out
}

/// The kind and name token of the bare `pub` item starting at `tokens[i]`,
/// or `None` for restricted visibilities and item kinds out of scope.
fn pub_item(tokens: &[Token], i: usize) -> Option<(&'static str, &Token)> {
    let text = |k: usize| tokens.get(i + k).map(|t| t.text.as_str());
    let (kind, at) = match (text(1)?, text(2)) {
        ("fn", _) => ("fn", 2),
        ("const", Some("fn")) => ("fn", 3),
        ("const", _) => ("const", 2),
        ("static", Some("mut")) => ("static", 3),
        ("static", _) => ("static", 2),
        _ => return None,
    };
    tokens.get(i + at).map(|name| (kind, name))
}

/// Marks the tokens that are not mentions: everything [`test_mask`] marks,
/// `use` declarations, the name of every `fn`/`const`/`static` definition
/// and the name of every field a `struct` declares.
fn non_mention_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = test_mask(tokens);
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "use" => {
                let end = tokens[i..]
                    .iter()
                    .position(|t| t.text == ";")
                    .map_or(tokens.len(), |p| i + p + 1);
                mask[i..end].fill(true);
                i = end;
                continue;
            }
            "fn" | "const" | "static" => {
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                if let Some(m) = mask.get_mut(j) {
                    *m = true;
                }
            }
            "struct" => {
                for f in struct_fields(tokens, i) {
                    mask[f] = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    mask
}

/// The name tokens of the named fields declared by the `struct` at
/// `tokens[i]`: each word directly before a lone `:` at the top level of
/// its braced body. Tuple and unit structs have none.
fn struct_fields(tokens: &[Token], i: usize) -> Vec<usize> {
    let Some(open) = tokens[i..]
        .iter()
        .position(|t| matches!(t.text.as_str(), "{" | "(" | ";"))
        .map(|p| i + p)
        .filter(|&p| tokens[p].text == "{")
    else {
        return Vec::new();
    };
    let mut fields = Vec::new();
    let mut depth = 0i32;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ":" if depth == 1 => fields.push(j - 1),
            _ => {}
        }
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{scan, tokenize};

    fn masked_texts(src: &str) -> Vec<String> {
        let tokens = tokenize(&scan(src));
        let mask = test_mask(&tokens);
        tokens
            .into_iter()
            .zip(mask)
            .filter(|(_, m)| *m)
            .map(|(t, _)| t.text)
            .collect()
    }

    #[test]
    fn test_items_end_where_the_item_ends() {
        let module = masked_texts("#[cfg(test)]\nmod tests { fn a() { b(); } }\nfn after() {}");
        assert!(module.contains(&"b".to_string()));
        assert!(!module.contains(&"after".to_string()));

        let field = masked_texts("struct S {\n#[cfg(test)]\nhits: u64,\nlive: u8 }");
        assert!(field.contains(&"hits".to_string()));
        assert!(!field.contains(&"live".to_string()));

        let last_field = masked_texts("struct S { live: u8,\n#[cfg(test)]\nhits: u64 }\nfn f() {}");
        assert!(last_field.contains(&"hits".to_string()));
        assert!(!last_field.contains(&"f".to_string()));

        let statement = masked_texts("fn f() {\n#[cfg(test)]\nlet x = g(1);\nh(); }");
        assert!(statement.contains(&"g".to_string()));
        assert!(!statement.contains(&"h".to_string()));
    }
}
