//! `detlint` — the determinism & concurrency static-analysis gate for the
//! Meterstick workspace.
//!
//! Meterstick's variability results are only trustworthy if the simulator
//! is bit-identical at any `tick_threads`. CI proves that *dynamically* by
//! diffing campaign CSVs at 1/4/8 worker threads; `detlint` excludes whole
//! classes of nondeterminism *statically*, before a run, by machine-checking
//! the tick contract stated in `docs/ARCHITECTURE.md`:
//!
//! | rule | contract clause |
//! |------|-----------------|
//! | `no-hash-iteration` | tick-path crates never iterate `HashMap`/`HashSet` (order would leak into merged output) |
//! | `no-wall-clock` | modeled time never reads `Instant::now`/`SystemTime` (bench crate exempt) |
//! | `no-ambient-rng` | no `thread_rng`/`from_entropy`/`from_os_rng`/`OsRng`; all randomness flows from campaign seeds |
//! | `no-unsafe` | no `unsafe` token anywhere; every crate root carries `forbid(unsafe_code)` |
//! | `no-bare-spawn` | no `thread::spawn`/`thread::Builder` outside `mlg_world::pool` |
//! | `no-debug-output` | no `println!`/`eprintln!`/`dbg!` in library crates (sinks, bench exempt) |
//! | `pub-without-caller` | every `pub fn`/`const`/`static` and every `pub` field of a `pub struct` under `crates/*/src` has a non-test caller outside its file (`benchmark/src` and `examples/` count) |
//!
//! Violations are waivable inline with
//! `// detlint: allow(<rule>) -- <reason>`; every waiver is counted and
//! printed in the report so exceptions stay auditable. Run it locally with:
//!
//! ```text
//! cargo run -p detlint -- --workspace
//! ```
//!
//! The scanner is hand-rolled and comment/string-aware (the build container
//! is offline, so no `syn` — the same discipline as the vendored dependency
//! shims): rule patterns can never fire on comments, doc text or string
//! literals, which also lets this crate's own fixtures and pattern tables
//! live in plain strings.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod report;
pub mod rules;
pub mod scanner;
mod surface;
pub mod workspace;

pub use report::Report;
pub use rules::{Finding, RuleId, Waiver};
pub use workspace::{lint_workspace, workspace_root_from_build};

use rules::check_file;
use scanner::{scan, tokenize};
use workspace::classify;

/// Lints a set of source texts, each as if it lived at its
/// workspace-relative path, as one workspace: `pub-without-caller` across
/// all of them, every per-file rule on each member file. Files under
/// `benchmark/src/` are read as callers only, never linted; files the
/// workspace walk would skip (e.g. under `vendor/`) are ignored. The
/// fixture tests and [`lint_workspace`] both come through here.
#[must_use]
pub fn lint_sources(sources: &[(&str, &str)]) -> Report {
    let files: Vec<_> = sources
        .iter()
        .filter_map(|&(rel_path, source)| {
            let ctx = classify(rel_path);
            if ctx.is_none() && !rel_path.starts_with("benchmark/src/") {
                return None;
            }
            let scanned = scan(source);
            let tokens = tokenize(&scanned);
            Some((ctx, scanned, tokens))
        })
        .collect();
    let tokens_by_file: Vec<_> = files
        .iter()
        .map(|(ctx, _, tokens)| (ctx.as_ref(), tokens.as_slice()))
        .collect();
    let mut uncalled = surface::pub_without_caller(&tokens_by_file);
    let mut report = Report::default();
    for (ctx, scanned, tokens) in &files {
        let Some(ctx) = ctx else { continue };
        let (own, rest) = uncalled.into_iter().partition(|f| f.file == ctx.rel_path);
        uncalled = rest;
        let outcome = check_file(ctx, scanned, tokens, own);
        report.files_scanned += 1;
        report.findings.extend(outcome.findings);
        report.waivers.extend(outcome.waivers);
    }
    report
        .findings
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    report
}
