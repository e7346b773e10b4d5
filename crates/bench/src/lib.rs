//! # seal-bench
//!
//! Shared plumbing for the figure/table harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md`'s experiment index) and prints the same
//! rows/series the paper reports. Binaries accept `--full` for the
//! paper-scale configuration and default to a `--quick` configuration that
//! finishes in seconds.

#![warn(missing_docs)]
#![warn(missing_unsafe_on_extern)]
#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::fmt::Display;

/// Maps `f` over `items` on one thread each (scoped; results in input
/// order), delegating to [`seal_pool::scoped_map`] — the workspace's
/// single audited home for scoped threads. The harnesses use this to run
/// independent schemes/architectures concurrently — every simulation and
/// training routine in the workspace is deterministic and `Send`, so
/// parallel order cannot change results.
///
/// # Panics
///
/// Propagates a panic from any worker thread (a harness bug, not a
/// recoverable condition).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    seal_pool::scoped_map(items, f)
}

/// Run scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Seconds-scale smoke configuration (default).
    Quick,
    /// Paper-scale configuration (`--full`).
    Full,
}

impl RunMode {
    /// Parses `--full` / `--quick` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            RunMode::Full
        } else {
            RunMode::Quick
        }
    }

    /// Returns `true` in full (paper-scale) mode.
    pub fn is_full(&self) -> bool {
        matches!(self, RunMode::Full)
    }
}

impl Display for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunMode::Quick => "quick (use --full for paper-scale runs)",
            RunMode::Full => "full",
        })
    }
}

/// Prints a figure/table banner.
pub fn banner(title: &str, mode: RunMode) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("mode: {mode}");
    println!("================================================================");
}

/// Prints a table header row followed by a separator.
pub fn header(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Formats one table cell value right-aligned.
pub fn cell(value: impl Display, width: usize) -> String {
    format!("{value:>width$}  ")
}

/// Prints a row of preformatted cells.
pub fn row(cells: &[String]) {
    println!("{}", cells.concat());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_quick() {
        // Test binaries never pass --full.
        assert_eq!(RunMode::from_args(), RunMode::Quick);
        assert!(!RunMode::from_args().is_full());
    }

    #[test]
    fn cell_right_aligns() {
        assert_eq!(cell("ab", 4), "  ab  ");
    }
}
