//! Meta-test: the workspace itself must lint clean, so a fresh contract
//! violation fails plain `cargo test -q` even before the dedicated CI job
//! runs. Every waiver that is supposed to exist is pinned below — adding a
//! waiver means consciously updating this test.

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
