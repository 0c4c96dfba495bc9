//! Workspace discovery: which files to lint and under which context.
//!
//! The walk is manifest-driven: every `crates/<dir>` with a `Cargo.toml` is
//! a member, plus the umbrella package rooted at the workspace root
//! (`src/`, `tests/`, `examples/`). The vendored dependency shims under
//! `vendor/` are third-party stand-ins and are exempt, as are build
//! artifacts (`target/`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::report::Report;
use crate::rules::check_file;

/// What kind of compilation target a file belongs to; several rules only
/// apply to library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Part of the crate's library (`src/**` minus `src/bin` and
    /// `src/main.rs`).
    Lib,
    /// A binary target (`src/main.rs`, `src/bin/**`).
    Bin,
    /// An integration test (`tests/**`).
    Test,
    /// A benchmark target (`benches/**`).
    Bench,
    /// An example (`examples/**`).
    Example,
}

/// Everything the rule engine needs to know about a file's place in the
/// workspace.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// The member directory name (`mlg-world`, `core`, …); the umbrella
    /// package is `"."`.
    pub crate_dir: String,
    /// The target the file belongs to.
    pub kind: TargetKind,
    /// Whether the file is the crate's library root (`src/lib.rs`), which
    /// must carry the `forbid(unsafe_code)` attribute.
    pub is_crate_root: bool,
}

impl FileContext {
    /// Returns `true` when the file's crate directory is in `dirs`.
    #[must_use]
    pub fn crate_in(&self, dirs: &[&str]) -> bool {
        dirs.contains(&self.crate_dir.as_str())
    }
}

/// Classifies a workspace-relative path (`/`-separated). Returns `None`
/// for files detlint does not lint: the vendored shims and anything
/// outside the member layout.
#[must_use]
pub fn classify(rel_path: &str) -> Option<FileContext> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_dir, in_crate): (&str, &[&str]) = match parts.as_slice() {
        ["vendor", ..] | ["target", ..] => return None,
        ["crates", dir, rest @ ..] => (dir, rest),
        rest => (".", rest),
    };
    let kind = match in_crate {
        ["src", "main.rs"] | ["src", "bin", ..] => TargetKind::Bin,
        ["src", ..] => TargetKind::Lib,
        ["tests", ..] => TargetKind::Test,
        ["benches", ..] => TargetKind::Bench,
        ["examples", ..] => TargetKind::Example,
        _ => return None,
    };
    Some(FileContext {
        rel_path: rel_path.to_string(),
        crate_dir: crate_dir.to_string(),
        kind,
        is_crate_root: in_crate == ["src", "lib.rs"],
    })
}

/// The workspace root this binary was compiled in, for `cargo run -p
/// detlint` and the bench probes (which run from a checkout of the same
/// tree).
#[must_use]
pub fn workspace_root_from_build() -> PathBuf {
    // crates/detlint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("detlint sits two levels below the workspace root")
        .to_path_buf()
}

/// Lints every member source file under `root` and returns the combined
/// report.
///
/// # Errors
///
/// Returns any I/O error encountered while walking the tree or reading a
/// source file.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut files: Vec<PathBuf> = Vec::new();

    // Umbrella package at the root.
    for dir in ["src", "tests", "examples"] {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    // Member crates: each crates/<dir> with a manifest.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        members.sort();
        for member in members {
            report.crates_scanned += 1;
            for dir in ["src", "tests", "benches", "examples"] {
                collect_rs_files(&member.join(dir), &mut files)?;
            }
        }
    }

    files.sort();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Some(ctx) = classify(&rel) else {
            continue;
        };
        let source = fs::read_to_string(&path)?;
        let outcome = check_file(&ctx, &source);
        report.files_scanned += 1;
        report.findings.extend(outcome.findings);
        report.waivers.extend(outcome.waivers);
    }
    report
        .findings
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_member_layout() {
        let lib = classify("crates/mlg-world/src/world.rs").unwrap();
        assert_eq!(lib.crate_dir, "mlg-world");
        assert_eq!(lib.kind, TargetKind::Lib);
        assert!(!lib.is_crate_root);

        let root = classify("crates/core/src/lib.rs").unwrap();
        assert!(root.is_crate_root);

        let bin = classify("crates/bench/src/main.rs").unwrap();
        assert_eq!(bin.kind, TargetKind::Bin);

        let umbrella = classify("src/lib.rs").unwrap();
        assert_eq!(umbrella.crate_dir, ".");
        assert!(umbrella.is_crate_root);

        let test = classify("tests/end_to_end.rs").unwrap();
        assert_eq!(test.kind, TargetKind::Test);

        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("target/debug/build/foo.rs").is_none());
        assert!(classify("docs/ARCHITECTURE.md").is_none());
    }
}
