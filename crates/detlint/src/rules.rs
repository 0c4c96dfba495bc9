//! The determinism-contract rules and the per-file checking pass.
//!
//! Each rule encodes one clause of the tick contract stated in
//! `docs/ARCHITECTURE.md` ("Machine-checked determinism contract"):
//!
//! * [`RuleId::NoHashIteration`] — iterating a `std` `HashMap`/`HashSet`
//!   (or calling `.iter()`/`.keys()`/`.values()`/`.drain()`/… on one) is
//!   forbidden in the tick-path crates, where iteration order leaks into
//!   merged tick output.
//! * [`RuleId::NoWallClock`] — `Instant::now`/`SystemTime` are forbidden
//!   outside the bench crate: modeled time must never read the host clock.
//! * [`RuleId::NoAmbientRng`] — `thread_rng`, `from_entropy`, `from_os_rng`
//!   and `OsRng` are forbidden everywhere: all randomness flows from
//!   campaign seeds.
//! * [`RuleId::NoUnsafe`] — no `unsafe` token anywhere, and every crate
//!   root must carry the `forbid(unsafe_code)` attribute.
//! * [`RuleId::NoBareSpawn`] — `thread::spawn`/`thread::Builder` are
//!   forbidden outside `mlg_world::pool`: all tick fan-out goes through
//!   `TickPipeline::scope()`.
//! * [`RuleId::NoDebugOutput`] — `println!`/`eprintln!`/`dbg!` are
//!   forbidden in library crates (sinks and bench binaries are exempt).
//! * [`RuleId::PubWithoutCaller`] — a `pub` function, constant or static
//!   that nothing but tests reaches; checked across the workspace by
//!   `crate::surface`, not per file.
//!
//! Violations can be waived inline:
//!
//! ```text
//! // detlint: allow(no-wall-clock) -- measuring substrate overhead itself
//! ```
//!
//! on the offending line or on a standalone comment line directly above it.
//! The reason after `--` is mandatory; a reason-less waiver is itself a
//! finding. A file-level `// detlint: substrate-timing -- <reason>` marker
//! exempts a whole module from the wall-clock rule (for explicitly-marked
//! substrate-timing code) and is counted as a waiver like any other.

use crate::scanner::{ScannedFile, Token};
use crate::workspace::{FileContext, TargetKind};

/// Identifies one rule of the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Hash-order iteration in a tick-path crate.
    NoHashIteration,
    /// Host-clock reads outside the bench crate.
    NoWallClock,
    /// Entropy-seeded randomness anywhere.
    NoAmbientRng,
    /// `unsafe` code or a crate root missing `forbid(unsafe_code)`.
    NoUnsafe,
    /// Thread creation outside the tick worker pool.
    NoBareSpawn,
    /// Debug printing in library crates.
    NoDebugOutput,
    /// A `pub` item no non-test code outside its defining file mentions.
    PubWithoutCaller,
    /// A detlint annotation that does not parse (unknown rule, missing
    /// reason); never waivable.
    InvalidWaiver,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 8] = [
        RuleId::NoHashIteration,
        RuleId::NoWallClock,
        RuleId::NoAmbientRng,
        RuleId::NoUnsafe,
        RuleId::NoBareSpawn,
        RuleId::NoDebugOutput,
        RuleId::PubWithoutCaller,
        RuleId::InvalidWaiver,
    ];

    /// The kebab-case id used in reports and waiver annotations.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoHashIteration => "no-hash-iteration",
            RuleId::NoWallClock => "no-wall-clock",
            RuleId::NoAmbientRng => "no-ambient-rng",
            RuleId::NoUnsafe => "no-unsafe",
            RuleId::NoBareSpawn => "no-bare-spawn",
            RuleId::NoDebugOutput => "no-debug-output",
            RuleId::PubWithoutCaller => "pub-without-caller",
            RuleId::InvalidWaiver => "invalid-waiver",
        }
    }

    /// Parses a kebab-case rule id as written in a waiver annotation.
    /// `invalid-waiver` is deliberately not accepted: it cannot be waived.
    #[must_use]
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .filter(|r| *r != RuleId::InvalidWaiver)
            .find(|r| r.name() == name.trim())
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

/// One waiver annotation found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Workspace-relative path of the file carrying the waiver.
    pub file: String,
    /// 1-indexed line of the annotation.
    pub line: usize,
    /// The rules it waives.
    pub rules: Vec<RuleId>,
    /// The mandatory justification after `--`.
    pub reason: String,
    /// Whether the waiver is the file-level substrate-timing marker.
    pub file_level: bool,
}

/// Result of linting one file.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileOutcome {
    /// Surviving (un-waived) findings.
    pub findings: Vec<Finding>,
    /// Every waiver annotation present in the file.
    pub waivers: Vec<Waiver>,
}

/// Crate directories on the tick path, where hash-order iteration leaks
/// into merged tick output.
///
/// The `daemon` crate is deliberately **not** here: it observes ticks
/// after the fact through `TickObserver` and can never feed data back
/// into the simulation, so its containers cannot perturb tick output.
const TICK_PATH_CRATES: [&str; 5] = [
    "mlg-world",
    "mlg-entity",
    "mlg-server",
    "mlg-bots",
    "mlg-protocol",
];

/// Cloud-model modules pulled under the hash-iteration rule individually:
/// the `cloud-sim` crate as a whole sits outside the tick path (its
/// recommendation/reporting helpers are free to use hash containers), but
/// these modules run *inside* the tick loop — the compute engine converts
/// per-tick work to durations and the interference/tenancy models perturb
/// them — so hash-order iteration there would leak into tick output just
/// like in a tick-path crate. Renaming or splitting one must update this
/// table; `crates/detlint/tests/workspace_clean.rs` pins their existence.
const TICK_PATH_MODEL_MODULES: [&str; 3] = [
    "crates/cloud-sim/src/engine.rs",
    "crates/cloud-sim/src/interference.rs",
    "crates/cloud-sim/src/temporal.rs",
];

/// Crate directories exempt from the wall-clock rule:
///
/// * `bench` — the benchmark harness legitimately measures host time;
/// * `daemon` — the resident daemon *presents* runs in wall-clock terms
///   (real-time pacing, liveness of SSE streams); it sits outside the
///   tick loop, whose modeled time stays host-clock-free.
const WALL_CLOCK_EXEMPT_CRATES: [&str; 2] = ["bench", "daemon"];

/// Files allowed to create threads:
///
/// * the persistent tick worker pool (all tick fan-out goes through
///   `TickPipeline::scope()`);
/// * the daemon's HTTP surface (the accept thread and per-connection
///   threads are control plane, not tick fan-out, and touch simulation
///   state only through the `DaemonHandle` lock).
const SPAWN_EXEMPT_FILES: [&str; 2] = ["crates/mlg-world/src/pool.rs", "crates/daemon/src/http.rs"];

/// Crate directories exempt from the debug-output rule in *library* code.
/// Split from [`WALL_CLOCK_EXEMPT_CRATES`] on purpose: the daemon crate is
/// wall-clock-exempt but its library must still route output through
/// sinks/streams, never print.
const DEBUG_OUTPUT_EXEMPT_CRATES: [&str; 1] = ["bench"];

/// Library files exempt from the debug-output rule: result sinks write to
/// their configured streams by design.
const DEBUG_OUTPUT_EXEMPT_FILES: [&str; 1] = ["crates/core/src/sink.rs"];

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const HASH_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];
const HASH_CTORS: [&str; 4] = ["new", "with_capacity", "default", "from"];
const AMBIENT_RNG_IDENTS: [&str; 4] = ["thread_rng", "from_entropy", "from_os_rng", "OsRng"];
const DEBUG_MACROS: [&str; 3] = ["println", "eprintln", "dbg"];

/// Lints one scanned file under the per-file rules that apply to `ctx`,
/// and applies its waivers to those findings and to `workspace_findings`
/// (the file's findings from the workspace-level rules).
pub(crate) fn check_file(
    ctx: &FileContext,
    scanned: &ScannedFile,
    tokens: &[Token],
    workspace_findings: Vec<Finding>,
) -> FileOutcome {
    let mut outcome = FileOutcome::default();
    collect_waivers(ctx, scanned, &mut outcome);
    let substrate_timing_file = outcome.waivers.iter().any(|w| w.file_level);

    let mut raw = workspace_findings;
    if ctx.crate_in(&TICK_PATH_CRATES) || TICK_PATH_MODEL_MODULES.contains(&ctx.rel_path.as_str()) {
        check_hash_iteration(ctx, tokens, &mut raw);
    }
    if !ctx.crate_in(&WALL_CLOCK_EXEMPT_CRATES) && !substrate_timing_file {
        check_wall_clock(ctx, tokens, &mut raw);
    }
    check_ambient_rng(ctx, tokens, &mut raw);
    check_no_unsafe(ctx, tokens, &mut raw);
    if !SPAWN_EXEMPT_FILES.contains(&ctx.rel_path.as_str()) {
        check_bare_spawn(ctx, tokens, &mut raw);
    }
    if ctx.kind == TargetKind::Lib
        && !ctx.crate_in(&DEBUG_OUTPUT_EXEMPT_CRATES)
        && !DEBUG_OUTPUT_EXEMPT_FILES.contains(&ctx.rel_path.as_str())
    {
        check_debug_output(ctx, tokens, &mut raw);
    }

    // Apply line waivers: a finding survives unless a waiver for its rule
    // sits on the same line or on a comment-only line directly above it.
    for finding in raw {
        let waived = outcome.waivers.iter().any(|w| {
            !w.file_level
                && w.rules.contains(&finding.rule)
                && (w.line == finding.line
                    || (w.line + 1 == finding.line
                        && scanned
                            .lines
                            .get(w.line - 1)
                            .is_some_and(|l| l.is_comment_only())))
        });
        if !waived {
            outcome.findings.push(finding);
        }
    }
    outcome.findings.sort_by_key(|f| f.line);
    outcome
}

fn collect_waivers(ctx: &FileContext, scanned: &ScannedFile, outcome: &mut FileOutcome) {
    for (idx, line) in scanned.lines.iter().enumerate() {
        for comment in &line.comments {
            let Some(rest) = comment.trim().strip_prefix("detlint:") else {
                continue;
            };
            let rest = rest.trim();
            if let Some(marker) = rest.strip_prefix("substrate-timing") {
                let reason = marker.trim().strip_prefix("--").map(str::trim);
                match reason {
                    Some(r) if !r.is_empty() => outcome.waivers.push(Waiver {
                        file: ctx.rel_path.clone(),
                        line: idx + 1,
                        rules: vec![RuleId::NoWallClock],
                        reason: r.to_string(),
                        file_level: true,
                    }),
                    _ => outcome.findings.push(malformed_waiver(ctx, idx + 1)),
                }
            } else if let Some(spec) = rest.strip_prefix("allow(") {
                let Some((rules_part, tail)) = spec.split_once(')') else {
                    outcome.findings.push(malformed_waiver(ctx, idx + 1));
                    continue;
                };
                let names: Vec<&str> = rules_part.split(',').collect();
                let rules: Vec<RuleId> = names.iter().filter_map(|n| RuleId::parse(n)).collect();
                // Every named rule must parse; a typo'd rule id must not
                // silently waive nothing (or the wrong thing).
                if rules.len() != names.len() {
                    outcome.findings.push(malformed_waiver(ctx, idx + 1));
                    continue;
                }
                let reason = tail.trim().strip_prefix("--").map(str::trim);
                match reason {
                    Some(r) if !rules.is_empty() && !r.is_empty() => {
                        outcome.waivers.push(Waiver {
                            file: ctx.rel_path.clone(),
                            line: idx + 1,
                            rules,
                            reason: r.to_string(),
                            file_level: false,
                        });
                    }
                    _ => outcome.findings.push(malformed_waiver(ctx, idx + 1)),
                }
            } else {
                outcome.findings.push(malformed_waiver(ctx, idx + 1));
            }
        }
    }
}

fn malformed_waiver(ctx: &FileContext, line: usize) -> Finding {
    Finding {
        file: ctx.rel_path.clone(),
        line,
        rule: RuleId::InvalidWaiver,
        message: "malformed detlint annotation; use `detlint: allow(<rule>) -- <reason>` \
                  or `detlint: substrate-timing -- <reason>` (the reason is mandatory)"
            .to_string(),
    }
}

/// Identifiers in this file declared (or bound) with a `HashMap`/`HashSet`
/// type: struct fields and `let` bindings with an explicit type, plus
/// bindings initialized from a hash-type constructor.
fn tracked_hash_idents(tokens: &[Token]) -> Vec<String> {
    let mut tracked = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // Walk back over a qualifying path (`std :: collections ::`).
        let mut j = i;
        while j >= 2 && tokens[j - 1].text == "::" {
            j -= 2;
        }
        // `name : [path ::] HashMap` — a field or typed binding.
        if j >= 2 && tokens[j - 1].text == ":" && is_ident(&tokens[j - 2].text) {
            push_unique(&mut tracked, tokens[j - 2].text.clone());
            continue;
        }
        // `name = [path ::] HashMap :: ctor` — an inferred binding.
        if j >= 2
            && tokens[j - 1].text == "="
            && is_ident(&tokens[j - 2].text)
            && tokens.get(i + 1).is_some_and(|t| t.text == "::")
            && tokens
                .get(i + 2)
                .is_some_and(|t| HASH_CTORS.contains(&t.text.as_str()))
        {
            push_unique(&mut tracked, tokens[j - 2].text.clone());
        }
    }
    tracked
}

fn is_ident(text: &str) -> bool {
    text.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn push_unique(v: &mut Vec<String>, s: String) {
    if !v.contains(&s) {
        v.push(s);
    }
}

fn check_hash_iteration(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Finding>) {
    let tracked = tracked_hash_idents(tokens);
    if tracked.is_empty() {
        return;
    }
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if tracked.contains(&t.text) {
            // `name . iter ( …` and friends.
            if tokens.get(i + 1).is_some_and(|n| n.text == ".") {
                if let Some(m) = tokens.get(i + 2) {
                    if HASH_ITER_METHODS.contains(&m.text.as_str())
                        && tokens.get(i + 3).is_some_and(|p| p.text == "(")
                    {
                        out.push(Finding {
                            file: ctx.rel_path.clone(),
                            line: m.line,
                            rule: RuleId::NoHashIteration,
                            message: format!(
                                "`.{}()` on `{}` iterates a hash container in a tick-path \
                                 crate; use an ordered container or iterate a sorted/insertion \
                                 key order instead",
                                m.text, t.text
                            ),
                        });
                    }
                }
            }
        }
        // `for pat in [&][mut] path.to.name {` — iterating the map itself.
        // The iterated expression is a (possibly dotted) path whose final
        // segment is a tracked identifier, directly followed by the loop
        // body's opening brace.
        if t.text == "in" {
            let mut j = i + 1;
            while tokens
                .get(j)
                .is_some_and(|n| n.text == "&" || n.text == "mut")
            {
                j += 1;
            }
            let mut last_ident: Option<&Token> = None;
            while let Some(seg) = tokens.get(j) {
                if !is_ident(&seg.text) {
                    break;
                }
                last_ident = Some(seg);
                if tokens.get(j + 1).is_some_and(|n| n.text == ".")
                    && tokens.get(j + 2).is_some_and(|n| is_ident(&n.text))
                {
                    j += 2;
                } else {
                    j += 1;
                    break;
                }
            }
            if let Some(name) = last_ident {
                if tracked.contains(&name.text) && tokens.get(j).is_some_and(|n| n.text == "{") {
                    out.push(Finding {
                        file: ctx.rel_path.clone(),
                        line: name.line,
                        rule: RuleId::NoHashIteration,
                        message: format!(
                            "`for … in {}` iterates a hash container in a tick-path crate; \
                             iterate an ordered key list instead",
                            name.text
                        ),
                    });
                }
            }
        }
    }
}

fn check_wall_clock(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.text == "Instant"
            && tokens.get(i + 1).is_some_and(|n| n.text == "::")
            && tokens.get(i + 2).is_some_and(|n| n.text == "now")
        {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::NoWallClock,
                message: "`Instant::now` reads the host clock; modeled time must come from \
                          the compute engine (bench crate and marked substrate-timing \
                          modules are exempt)"
                    .to_string(),
            });
        } else if t.text == "SystemTime" {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::NoWallClock,
                message: "`SystemTime` reads the host clock; modeled time must come from \
                          the compute engine"
                    .to_string(),
            });
        }
    }
}

fn check_ambient_rng(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Finding>) {
    for t in tokens {
        if AMBIENT_RNG_IDENTS.contains(&t.text.as_str()) {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::NoAmbientRng,
                message: format!(
                    "`{}` draws entropy from the environment; all randomness must flow \
                     from campaign seeds (`StdRng::seed_from_u64`)",
                    t.text
                ),
            });
        }
    }
}

fn check_no_unsafe(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Finding>) {
    for t in tokens {
        if t.text == "unsafe" {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::NoUnsafe,
                message: "the workspace is `unsafe`-free by contract; every crate root \
                          forbids unsafe_code"
                    .to_string(),
            });
        }
    }
    if ctx.is_crate_root && !has_forbid_unsafe(tokens) {
        out.push(Finding {
            file: ctx.rel_path.clone(),
            line: 1,
            rule: RuleId::NoUnsafe,
            message: "crate root is missing the `#![forbid(unsafe_code)]` attribute".to_string(),
        });
    }
}

fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    tokens
        .windows(3)
        .any(|w| w[0].text == "forbid" && w[1].text == "(" && w[2].text == "unsafe_code")
}

fn check_bare_spawn(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if tokens[i].text == "thread"
            && tokens.get(i + 1).is_some_and(|n| n.text == "::")
            && tokens
                .get(i + 2)
                .is_some_and(|n| n.text == "spawn" || n.text == "Builder")
        {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: tokens[i].line,
                rule: RuleId::NoBareSpawn,
                message: format!(
                    "`thread::{}` outside `mlg_world::pool`; all tick fan-out goes through \
                     `TickPipeline::scope()` so worker count and lifecycle stay centralized",
                    tokens[i + 2].text
                ),
            });
        }
    }
}

fn check_debug_output(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if DEBUG_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.text == "!")
        {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::NoDebugOutput,
                message: format!(
                    "`{}!` in a library crate; route output through a `ResultSink` (bench \
                     binaries and sinks are exempt)",
                    t.text
                ),
            });
        }
    }
}
