//! # seal-analyze
//!
//! The workspace checks rustc and clippy cannot make, run as one tier-1
//! test (`check_workspace_finds_nothing` below). A hand-rolled lexer
//! ([`lexer`]) and recursive-descent parser ([`parser`]) build a
//! cross-crate call graph ([`callgraph`]) over every library source, and
//! four passes run on it:
//!
//! * **encryption-boundary** ([`taint`]): weight-derived data reaching a
//!   memory-traffic sink without passing through `CtrCipher` or the lane
//!   pricing model, reported with the full source → … → sink chain;
//! * **panic-freedom** ([`callgraph::panic_freedom`]): a panic site or
//!   index arithmetic reachable from `worker_loop` or
//!   `CompiledModel::execute_into`;
//! * **unsafe-audit** ([`callgraph::unsafe_audit`]): an `unsafe` region
//!   whose `// SAFETY:` comment is missing or names nothing in scope;
//! * **retry-backoff** ([`lint`]): a retry loop that sleeps a constant
//!   delay or none at all.
//!
//! `// seal-lint: allow(<rule>)` on the offending line or the line above
//! suppresses a finding; a directive naming no rule is itself a finding.
//! Everything else — panicking APIs, truncating casts in the crypto hot
//! paths, missing docs, raw thread creation, raw syscalls — is a rustc
//! or clippy lint set at each crate root and in `clippy.toml`.

#![warn(missing_docs)]
#![warn(missing_unsafe_on_extern)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod callgraph;
pub mod ir;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod taint;

pub use ir::Finding;
pub use lint::Rule;

use std::path::{Path, PathBuf};

/// Directory names the workspace walker never descends into.
const SKIP_DIRS: [&str; 6] = ["bin", "tests", "benches", "examples", "fixtures", "target"];

/// Runs every pass over the library sources of the workspace rooted at
/// `root` ([`workspace_sources`]). Findings come sorted by rule, path
/// and line; an empty list means the tree is clean.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading sources.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    check_files(root, &workspace_sources(root)?)
}

/// [`check_workspace`] over an explicit file list (the fixtures' form).
/// Paths are reported relative to `root`.
///
/// # Errors
///
/// Propagates I/O errors reading sources.
pub fn check_files(root: &Path, files: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let mut irs = Vec::with_capacity(files.len());
    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let toks = lexer::lex(&std::fs::read_to_string(file)?);
        findings.extend(lint::lint_tokens(&rel, &toks));
        irs.push(parser::parse_tokens(&rel, &toks));
    }
    let graph = callgraph::CallGraph::build(&irs);
    findings.extend(taint::taint_pass(
        &irs,
        &graph,
        &taint::TaintSpec::default(),
    ));
    findings.extend(callgraph::panic_freedom(
        &irs,
        &graph,
        &callgraph::PANIC_ROOTS,
    ));
    findings.extend(callgraph::unsafe_audit(&irs));
    findings
        .sort_by(|a, b| (a.rule.name(), &a.path, a.line).cmp(&(b.rule.name(), &b.path, b.line)));
    Ok(findings)
}

/// Collects the library `.rs` sources of the workspace rooted at `root`:
/// every `crates/*/src/**` plus the root package's `src/**`, excluding
/// `src/bin/` and the other harness directories.
///
/// # Errors
///
/// Propagates I/O errors from directory walking.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for krate in entries {
            let src = krate.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

/// Recursively collects `.rs` files under `dir`, skipping harness
/// directories ([`SKIP_DIRS`]).
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        // crates/analyze → workspace root is two levels up.
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    #[test]
    fn workspace_walker_finds_library_sources_only() {
        let files = workspace_sources(&root()).unwrap();
        assert!(files
            .iter()
            .any(|f| f.ends_with("crates/crypto/src/aes.rs")));
        assert!(files.iter().any(|f| f.ends_with("src/lib.rs")));
        let strs: Vec<String> = files.iter().map(|f| f.to_string_lossy().into()).collect();
        assert!(
            strs.iter().all(|f| !f.contains("/bin/")
                && !f.contains("/tests/")
                && !f.contains("/benches/")
                && !f.contains("/fixtures/")
                && !f.contains("/lint-fixtures/")),
            "harness files leaked into {strs:?}"
        );
    }

    #[test]
    fn check_workspace_finds_nothing() {
        let findings = check_workspace(&root()).unwrap();
        let report: Vec<String> = findings.iter().map(Finding::to_string).collect();
        assert!(
            findings.is_empty(),
            "fix or justify every finding:\n{}",
            report.join("\n")
        );
    }
}
