//! Meta-test: the workspace itself must lint clean, so a fresh contract
//! violation fails plain `cargo test -q` even before the dedicated CI job
//! runs. Every waiver that is supposed to exist is pinned below — adding a
//! waiver means consciously updating this test.

use std::collections::BTreeMap;
use std::path::Path;

use detlint::scanner::{scan, test_mask, tokenize};
use detlint::{lint_sources, lint_workspace, workspace_root_from_build, RuleId};

#[test]
fn the_workspace_lints_clean() {
    let root = workspace_root_from_build();
    let report = lint_workspace(&root).expect("workspace sources are readable");
    assert!(
        report.crates_scanned >= 12,
        "sanity: the walk found the member crates (got {})",
        report.crates_scanned
    );
    assert!(
        report.files_scanned > 40,
        "sanity: the walk found the source files (got {})",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "detlint found contract violations:\n{}",
        report.render()
    );
}

/// A snippet that iterates a hash table: reported exactly where the
/// hash-iteration rule covers the file it is placed in.
const HASH_ITERATION: &str = "fn f(m: std::collections::HashMap<u32, u32>) { m.keys(); }\n";

fn hash_iteration_is_checked_in(path: &str) -> bool {
    lint_sources(&[(path, HASH_ITERATION)])
        .findings
        .iter()
        .any(|f| f.rule == RuleId::NoHashIteration)
}

#[test]
fn tick_path_entity_modules_are_covered() {
    // Entity-substrate modules that must exist and be scanned under the
    // tick-path coverage: the row store, the deterministic spatial index,
    // and the per-tick simulation passes that consume them. A module
    // rename or split must update this list; losing one silently would
    // shrink the lint surface.
    const ENTITY_MODULES: [&str; 8] = [
        "crates/mlg-entity/src/ai.rs",
        "crates/mlg-entity/src/items.rs",
        "crates/mlg-entity/src/manager.rs",
        "crates/mlg-entity/src/physics.rs",
        "crates/mlg-entity/src/spatial.rs",
        "crates/mlg-entity/src/spawning.rs",
        "crates/mlg-entity/src/store.rs",
        "crates/mlg-entity/src/tnt.rs",
    ];
    let root = workspace_root_from_build();
    for module in ENTITY_MODULES {
        assert!(
            root.join(module).is_file(),
            "expected tick-path entity module missing: {module} \
             (renamed or split? update ENTITY_MODULES)"
        );
        assert!(
            hash_iteration_is_checked_in(module),
            "entity module {module} sits outside hash-iteration coverage"
        );
    }
}

#[test]
fn tick_path_model_modules_are_covered() {
    // The cloud-model modules that run inside the tick loop are pulled
    // under the hash-iteration rule one by one; the temporal module is the
    // motivating entry (the tenancy process runs inside every tick). The
    // rest of `cloud-sim` stays free to iterate hash containers.
    const MODEL_MODULES: [&str; 3] = [
        "crates/cloud-sim/src/engine.rs",
        "crates/cloud-sim/src/interference.rs",
        "crates/cloud-sim/src/temporal.rs",
    ];
    let root = workspace_root_from_build();
    for module in MODEL_MODULES {
        assert!(
            root.join(module).is_file(),
            "expected cloud-model module missing: {module} \
             (renamed or split? update MODEL_MODULES and TICK_PATH_MODEL_MODULES)"
        );
        assert!(
            hash_iteration_is_checked_in(module),
            "cloud-model module {module} sits outside hash-iteration coverage"
        );
    }
    assert!(!hash_iteration_is_checked_in(
        "crates/cloud-sim/src/recommendations.rs"
    ));
}

#[test]
fn every_waiver_is_accounted_for() {
    let root = workspace_root_from_build();
    let report = lint_workspace(&root).expect("workspace sources are readable");
    let mut sites: Vec<String> = report
        .waivers
        .iter()
        .map(|w| format!("{}:{}", w.file, w.rules[0].name()))
        .collect();
    sites.sort();
    // The full, intentional exemption surface of the workspace. If this
    // assertion fails because you added a waiver, confirm the reason is
    // genuine and extend the list; if it fails because one disappeared,
    // the underlying code was fixed — shrink the list.
    assert_eq!(
        sites,
        [
            "crates/cloud-sim/src/metrics_collector.rs:pub-without-caller",
            // TemporalProfile's eight parameters and TenancyEffect::residents.
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/cloud-sim/src/temporal.rs:pub-without-caller",
            "crates/core/src/executor.rs:no-debug-output",
            "crates/core/src/executor.rs:no-wall-clock",
            "crates/core/src/executor.rs:no-wall-clock",
            "crates/mlg-protocol/src/accounting.rs:pub-without-caller",
            "crates/mlg-protocol/src/accounting.rs:pub-without-caller",
            "crates/mlg-protocol/src/codec.rs:pub-without-caller",
            "crates/mlg-protocol/src/codec.rs:pub-without-caller",
            "crates/mlg-server/src/config.rs:pub-without-caller",
            "crates/mlg-server/src/config.rs:pub-without-caller",
            "crates/mlg-server/src/handler.rs:pub-without-caller",
            "crates/mlg-server/src/server.rs:pub-without-caller",
            "crates/mlg-server/src/server.rs:pub-without-caller",
            "crates/mlg-world/src/chunk.rs:pub-without-caller",
            "crates/mlg-world/src/shard.rs:pub-without-caller",
            "crates/mlg-world/src/world.rs:pub-without-caller",
            "crates/mlg-world/src/world.rs:pub-without-caller",
            "crates/mlg-world/src/world.rs:pub-without-caller",
            "crates/workloads/src/tnt.rs:pub-without-caller",
        ],
        "waiver surface changed:\n{}",
        report.render()
    );
}

/// Library panic sites — `.unwrap()`, `.expect(` and `panic!(` in code, not
/// in comments or strings — per `.rs` file under `crates/*/src`, outside
/// `#[cfg(test)]` items.
fn library_panic_sites(root: &Path) -> BTreeMap<String, usize> {
    const SITES: [&[&str]; 3] = [
        &[".", "unwrap", "(", ")"],
        &[".", "expect", "("],
        &["panic", "!", "("],
    ];
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let entries = std::fs::read_dir(dir).expect("source directories are readable");
        for entry in entries {
            let path = entry.expect("directory entries are readable").path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is readable");
    for member in crates {
        let src = member
            .expect("crates/ entries are readable")
            .path()
            .join("src");
        if src.is_dir() {
            walk(&src, &mut files);
        }
    }
    let mut counts = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("sources are readable");
        let tokens = tokenize(&scan(&text));
        let in_test = test_mask(&tokens);
        let sites = (0..tokens.len())
            .filter(|&i| !in_test[i])
            .filter(|&i| {
                SITES.iter().any(|site| {
                    let texts = tokens[i..].iter().map(|t| t.text.as_str());
                    texts.take(site.len()).eq(site.iter().copied())
                })
            })
            .count();
        if sites > 0 {
            let rel = file.strip_prefix(root).expect("under the root");
            counts.insert(rel.display().to_string(), sites);
        }
    }
    counts
}

#[test]
fn library_panic_sites_only_shrink() {
    // Every library panic site is a crash a caller cannot handle. The count
    // is pinned so that it can only go down: a new site fails here, and a
    // removed one asks for the pin to be lowered with it.
    const PINNED: usize = 49;
    let counts = library_panic_sites(&workspace_root_from_build());
    let total: usize = counts.values().sum();
    let listing: String = counts
        .iter()
        .map(|(file, sites)| format!("  {sites:3}  {file}\n"))
        .collect();
    assert!(
        total <= PINNED,
        "{total} library panic sites, {} more than the {PINNED} pinned; per file:\n{listing}",
        total - PINNED
    );
    assert!(
        total == PINNED,
        "{total} library panic sites, {} fewer than pinned: lower PINNED to {total}; per file:\n{listing}",
        PINNED - total
    );
}

#[test]
fn every_mutant_line_applies_to_the_tree() {
    // `scripts/mutants.py` runs `tests/mutants.txt` only in the nightly job;
    // a snippet an edit made stale is caught here instead, by the same
    // parse: 4 or 5 tab-separated fields, an optional fifth starting with
    // `equivalent: `, and a snippet (`\n` and `\t` unescaped) found exactly
    // once in its file.
    let root = workspace_root_from_build();
    let list = std::fs::read_to_string(root.join("tests/mutants.txt"))
        .expect("tests/mutants.txt is readable");
    let unescape = |field: &str| field.replace("\\n", "\n").replace("\\t", "\t");
    let mut mutants = 0;
    let mut problems = Vec::new();
    for (number, line) in (1..).zip(list.lines()) {
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        mutants += 1;
        let fields: Vec<&str> = line.split('\t').collect();
        if !(4..=5).contains(&fields.len()) {
            problems.push(format!(
                "line {number}: {} fields, not 4 or 5",
                fields.len()
            ));
            continue;
        }
        if fields.len() == 5 && !fields[4].starts_with("equivalent: ") {
            problems.push(format!(
                "line {number}: the fifth field must start with 'equivalent: '"
            ));
        }
        let Ok(source) = std::fs::read_to_string(root.join(fields[0])) else {
            problems.push(format!("line {number}: {} is not readable", fields[0]));
            continue;
        };
        let found = source.matches(&unescape(fields[1])).count();
        if found != 1 {
            problems.push(format!(
                "line {number}: snippet found {found} times in {}",
                fields[0]
            ));
        }
    }
    assert!(mutants > 0, "tests/mutants.txt lists no mutant");
    assert!(
        problems.is_empty(),
        "tests/mutants.txt:\n{}",
        problems.join("\n")
    );
}
