//! Per-rule fixture tests: every rule fires on a bad snippet, stays quiet
//! on a good one, and respects an inline waiver.
//!
//! Fixtures are inline string literals rather than files on disk, for a
//! reason worth keeping: detlint's scanner blanks string-literal bodies, so
//! these deliberately-violating snippets can live inside the linted
//! workspace without tripping the workspace-clean meta-test.

use detlint::{lint_source, RuleId};

/// Lints `src` as if it were the named file and returns the rules of the
/// surviving findings.
fn rules_at(path: &str, src: &str) -> Vec<RuleId> {
    lint_source(path, src)
        .findings
        .iter()
        .map(|f| f.rule)
        .collect()
}

const TICK_PATH_FILE: &str = "crates/mlg-world/src/fixture.rs";
const LIB_FILE: &str = "crates/core/src/fixture.rs";

// ---------------------------------------------------------------- rule 1

#[test]
fn hash_iteration_fires_on_method_iteration_in_tick_path() {
    let src = "use std::collections::HashMap;\n\
               struct S { cells: HashMap<u32, u32> }\n\
               impl S { fn f(&self) { for v in self.cells.values() { drop(v); } } }\n";
    assert_eq!(rules_at(TICK_PATH_FILE, src), vec![RuleId::NoHashIteration]);
}

#[test]
fn hash_iteration_fires_on_for_loop_over_map() {
    let src = "fn f() {\n\
               let mut m = std::collections::HashSet::new();\n\
               m.insert(1u32);\n\
               for v in &m { drop(v); }\n\
               }\n";
    assert_eq!(rules_at(TICK_PATH_FILE, src), vec![RuleId::NoHashIteration]);
}

#[test]
fn hash_iteration_fires_on_drain_and_keys() {
    let src = "fn f(mut m: std::collections::HashMap<u32, u32>) {\n\
               m.drain();\n\
               let _k = m.keys();\n\
               }\n";
    assert_eq!(
        rules_at(TICK_PATH_FILE, src),
        vec![RuleId::NoHashIteration, RuleId::NoHashIteration]
    );
}

#[test]
fn hash_iteration_still_tracks_tables_declared_with_a_fixed_hasher() {
    // The tick path's lookup-only tables name a third type parameter (the
    // fixed position hasher). They keep the literal `HashMap<`/`HashSet<`
    // spelling — no alias — precisely so this rule still sees them: take
    // the declaration from the real file and iterate it.
    const DECLARATION: &str = "index: HashMap<ChunkPos, usize, PosHashBuilder>,";
    assert!(
        include_str!("../../mlg-world/src/world.rs").contains(DECLARATION),
        "ShardStore::index is no longer declared as this fixture spells it"
    );
    let src = format!(
        "struct ShardStore {{ {DECLARATION} }}\n\
         impl ShardStore {{ fn f(&self) {{ for k in self.index.keys() {{ drop(k); }} }} }}\n"
    );
    assert_eq!(
        rules_at(TICK_PATH_FILE, &src),
        vec![RuleId::NoHashIteration]
    );
    let src = "fn f() {\n\
               let queued: HashSet<BlockPos, PosHashBuilder> = HashSet::default();\n\
               for p in &queued { drop(p); }\n\
               }\n";
    assert_eq!(rules_at(TICK_PATH_FILE, src), vec![RuleId::NoHashIteration]);
}

#[test]
fn hash_lookup_without_iteration_is_clean() {
    let src = "use std::collections::HashMap;\n\
               struct S { cells: HashMap<u32, u32> }\n\
               impl S { fn f(&self) -> Option<&u32> { self.cells.get(&1) } }\n";
    assert!(rules_at(TICK_PATH_FILE, src).is_empty());
}

#[test]
fn hash_iteration_is_allowed_outside_tick_path_crates() {
    let src = "fn f(m: &std::collections::HashMap<u32, u32>) -> usize { m.values().count() }\n";
    assert!(rules_at("crates/cloud-sim/src/fixture.rs", src).is_empty());
}

#[test]
fn hash_iteration_respects_waiver() {
    let src = "use std::collections::HashMap;\n\
               struct S { cells: HashMap<u32, u32> }\n\
               impl S { fn f(&mut self) {\n\
               // detlint: allow(no-hash-iteration) -- clears buckets; order-free\n\
               for v in self.cells.values_mut() { *v = 0; }\n\
               } }\n";
    let outcome = lint_source(TICK_PATH_FILE, src);
    assert!(outcome.findings.is_empty());
    assert_eq!(outcome.waivers.len(), 1);
    assert_eq!(outcome.waivers[0].rules, vec![RuleId::NoHashIteration]);
    assert_eq!(outcome.waivers[0].reason, "clears buckets; order-free");
}

// ---------------------------------------------------------------- rule 2

#[test]
fn wall_clock_fires_on_instant_now_and_system_time() {
    let src = "fn f() { let _t = std::time::Instant::now(); }\n\
               fn g() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    let rules = rules_at(LIB_FILE, src);
    assert!(rules.contains(&RuleId::NoWallClock));
    assert!(rules.len() >= 2, "both clock reads must be reported");
}

#[test]
fn wall_clock_is_exempt_in_bench_crate() {
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert!(rules_at("crates/bench/src/fixture.rs", src).is_empty());
}

#[test]
fn wall_clock_respects_line_waiver_and_file_marker() {
    let waived = "// detlint: allow(no-wall-clock) -- measuring the substrate itself\n\
                  fn f() { let _t = std::time::Instant::now(); }\n";
    assert!(rules_at(LIB_FILE, waived).is_empty());

    let marked = "// detlint: substrate-timing -- this module measures host overhead\n\
                  fn f() { let _t = std::time::Instant::now(); }\n\
                  fn g() { let _u = std::time::Instant::now(); }\n";
    let outcome = lint_source(LIB_FILE, marked);
    assert!(outcome.findings.is_empty(), "file marker covers every site");
    assert_eq!(outcome.waivers.len(), 1);
    assert!(outcome.waivers[0].file_level);
}

#[test]
fn wall_clock_is_exempt_in_daemon_crate_by_table() {
    // The resident daemon presents runs in wall-clock terms (pacing, SSE
    // liveness); the crate is classified in WALL_CLOCK_EXEMPT_CRATES
    // rather than accreting per-line waivers.
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert!(rules_at("crates/daemon/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- rule 3

#[test]
fn ambient_rng_fires_everywhere_even_in_bench() {
    let src = "fn f() { let _r = rand::thread_rng(); }\n";
    assert_eq!(
        rules_at("crates/bench/src/fixture.rs", src),
        vec![RuleId::NoAmbientRng]
    );
    let src2 = "fn f() { let _r = StdRng::from_entropy(); }\n";
    assert_eq!(rules_at(LIB_FILE, src2), vec![RuleId::NoAmbientRng]);
    let src3 = "fn f() { let _r = StdRng::from_os_rng(); let _o = OsRng; }\n";
    assert_eq!(
        rules_at(LIB_FILE, src3),
        vec![RuleId::NoAmbientRng, RuleId::NoAmbientRng]
    );
}

#[test]
fn seeded_rng_is_clean() {
    let src = "fn f(seed: u64) { let _r = StdRng::seed_from_u64(seed); }\n";
    assert!(rules_at(LIB_FILE, src).is_empty());
}

#[test]
fn ambient_rng_respects_waiver() {
    let src = "// detlint: allow(no-ambient-rng) -- fixture exercising the waiver path\n\
               fn f() { let _r = rand::thread_rng(); }\n";
    let outcome = lint_source(LIB_FILE, src);
    assert!(outcome.findings.is_empty());
    assert_eq!(outcome.waivers.len(), 1);
}

// ---------------------------------------------------------------- rule 4

#[test]
fn unsafe_token_fires_anywhere() {
    let src = "fn f() { let p = 0u8; let _v = unsafe { *(&p as *const u8) }; }\n";
    assert_eq!(rules_at("tests/fixture.rs", src), vec![RuleId::NoUnsafe]);
}

#[test]
fn crate_root_must_forbid_unsafe_code() {
    let bare = "pub fn f() {}\n";
    assert_eq!(
        rules_at("crates/mlg-world/src/lib.rs", bare),
        vec![RuleId::NoUnsafe]
    );
    let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(rules_at("crates/mlg-world/src/lib.rs", good).is_empty());
    // Non-root files don't need the attribute.
    assert!(rules_at("crates/mlg-world/src/other.rs", bare).is_empty());
}

#[test]
fn unsafe_in_comments_and_strings_does_not_fire() {
    let src = "// this comment says unsafe\nconst S: &str = \"unsafe\";\n";
    assert!(rules_at("crates/mlg-world/src/other.rs", src).is_empty());
}

#[test]
fn unsafe_respects_waiver() {
    let src = "// detlint: allow(no-unsafe) -- fixture exercising the waiver path\n\
               fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
    assert!(lint_source("crates/mlg-world/src/other.rs", src)
        .findings
        .is_empty());
}

// ---------------------------------------------------------------- rule 5

#[test]
fn bare_spawn_fires_outside_the_pool() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(rules_at(LIB_FILE, src), vec![RuleId::NoBareSpawn]);
    let builder = "fn f() { std::thread::Builder::new(); }\n";
    assert_eq!(rules_at(LIB_FILE, builder), vec![RuleId::NoBareSpawn]);
}

#[test]
fn the_pool_may_spawn() {
    let src = "fn f() { std::thread::Builder::new(); }\n";
    assert!(rules_at("crates/mlg-world/src/pool.rs", src).is_empty());
}

#[test]
fn scoped_helpers_are_not_bare_spawns() {
    let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    assert!(rules_at(LIB_FILE, src).is_empty());
}

#[test]
fn daemon_http_surface_may_spawn_but_the_rest_of_the_crate_may_not() {
    // Control-plane threads (accept loop, per-connection handlers) are
    // confined to the daemon's http.rs; thread creation anywhere else in
    // the crate still violates the contract.
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    assert!(rules_at("crates/daemon/src/http.rs", src).is_empty());
    assert_eq!(
        rules_at("crates/daemon/src/daemon.rs", src),
        vec![RuleId::NoBareSpawn]
    );
}

#[test]
fn bare_spawn_respects_waiver() {
    let src = "// detlint: allow(no-bare-spawn) -- fixture exercising the waiver path\n\
               fn f() { std::thread::spawn(|| {}); }\n";
    assert!(lint_source(LIB_FILE, src).findings.is_empty());
}

// ---------------------------------------------------------------- rule 6

#[test]
fn debug_output_fires_in_library_code() {
    let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); let _v = dbg!(1); }\n";
    assert_eq!(
        rules_at(LIB_FILE, src),
        vec![
            RuleId::NoDebugOutput,
            RuleId::NoDebugOutput,
            RuleId::NoDebugOutput
        ]
    );
}

#[test]
fn debug_output_is_exempt_in_binaries_sinks_and_bench() {
    let src = "fn main() { println!(\"table row\"); }\n";
    assert!(rules_at("crates/bench/src/bin/fixture.rs", src).is_empty());
    assert!(rules_at("crates/core/src/sink.rs", src).is_empty());
    assert!(rules_at("crates/bench/src/fixture.rs", src).is_empty());
    assert!(rules_at("tests/fixture.rs", src).is_empty());
    assert!(rules_at("examples/fixture.rs", src).is_empty());
}

#[test]
fn debug_output_still_fires_in_the_daemon_library() {
    // The wall-clock and debug-output exemption tables are split on
    // purpose: the daemon crate is wall-clock-exempt, but its library
    // must still route output through sinks, never print.
    let src = "fn f() { println!(\"x\"); }\n";
    assert_eq!(
        rules_at("crates/daemon/src/daemon.rs", src),
        vec![RuleId::NoDebugOutput]
    );
    // The daemon binary, like every binary, may print.
    let bin = "fn main() { println!(\"x\"); }\n";
    assert!(rules_at("crates/daemon/src/main.rs", bin).is_empty());
}

#[test]
fn debug_output_respects_waiver() {
    let src = "fn f() { println!(\"x\"); } // detlint: allow(no-debug-output) -- fixture\n";
    let outcome = lint_source(LIB_FILE, src);
    assert!(outcome.findings.is_empty(), "same-line waiver applies");
    assert_eq!(outcome.waivers.len(), 1);
}

// ------------------------------------------------------- waiver mechanism

#[test]
fn waiver_must_name_the_right_rule() {
    let src = "// detlint: allow(no-debug-output) -- wrong rule for this site\n\
               fn f() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(rules_at(LIB_FILE, src), vec![RuleId::NoWallClock]);
}

#[test]
fn waiver_only_covers_the_adjacent_line() {
    let src = "// detlint: allow(no-wall-clock) -- too far away\n\
               fn unrelated() {}\n\
               fn f() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(rules_at(LIB_FILE, src), vec![RuleId::NoWallClock]);
}

#[test]
fn waiver_without_reason_is_a_finding() {
    let src = "// detlint: allow(no-wall-clock)\n\
               fn f() {}\n";
    assert_eq!(rules_at(LIB_FILE, src), vec![RuleId::InvalidWaiver]);
}

#[test]
fn waiver_with_unknown_rule_is_a_finding() {
    let src = "// detlint: allow(no-such-rule) -- typo'd rule id\nfn f() {}\n";
    assert_eq!(rules_at(LIB_FILE, src), vec![RuleId::InvalidWaiver]);
}

#[test]
fn one_waiver_can_name_several_rules() {
    let src = "// detlint: allow(no-wall-clock, no-debug-output) -- fixture\n\
               fn f() { println!(\"{:?}\", std::time::Instant::now()); }\n";
    let outcome = lint_source(LIB_FILE, src);
    assert!(outcome.findings.is_empty());
    assert_eq!(outcome.waivers[0].rules.len(), 2);
}

#[test]
fn vendored_shims_are_exempt_entirely() {
    let src = "fn f() { unsafe { std::thread::spawn(|| {}) }; }\n";
    assert!(lint_source("vendor/rand/src/lib.rs", src)
        .findings
        .is_empty());
}

#[test]
fn patterns_inside_strings_and_comments_never_fire() {
    let src = "// Instant::now, thread_rng, println! in a comment\n\
               const DOC: &str = \"dbg! thread::spawn SystemTime\";\n\
               fn f() -> &'static str { DOC }\n";
    assert!(rules_at(LIB_FILE, src).is_empty());
}
