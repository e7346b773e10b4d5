//! Integration tests for `seal-analyze`: every pass reports exactly the
//! seeds of its fixture (`fixtures/bad_retry.rs`, `fixtures/deep/*`), and
//! the serving loop the panic-freedom pass roots on resolves.
//!
//! The fixtures of the rules that became rustc/clippy lints live in the
//! `lint-fixtures/` package, which `scripts/check.sh` runs clippy on.

use std::path::{Path, PathBuf};

use seal_analyze::{check_files, Finding, Rule};

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel)
}

fn check(dir: &Path, files: &[PathBuf]) -> Vec<Finding> {
    check_files(dir, files).expect("fixtures are readable")
}

#[test]
fn retry_fixture_yields_both_seeded_retry_loops() {
    let findings = check(&fixture(""), &[fixture("bad_retry.rs")]);
    let rules: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        rules,
        vec![(Rule::RetryBackoff, 17), (Rule::RetryBackoff, 25)],
        "full findings: {findings:#?}"
    );
    // Constant-sleep retry anchors on the sleep, busy retry on the loop;
    // both point at the accepted replacement. The `Backoff`-driven
    // variable delay in the same file stays clean.
    assert!(findings.iter().all(|f| f.message.contains("Backoff")));
}

// ---------------------------------------------------------------------------
// Call-graph passes: taint / panic-freedom / unsafe-audit over the seeded
// fixtures.
// ---------------------------------------------------------------------------

fn deep_fixture_files() -> (PathBuf, Vec<PathBuf>) {
    let dir = fixture("deep");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("deep fixture dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    (dir, files)
}

#[test]
fn taint_pass_fails_on_the_seeded_weight_to_bus_bypass_with_full_chain() {
    let (dir, files) = deep_fixture_files();
    let deep = check(&dir, &files);
    let taint: Vec<_> = deep
        .iter()
        .filter(|f| f.rule == Rule::EncryptionBoundary)
        .collect();
    assert_eq!(
        taint.len(),
        2,
        "exactly the two seeded bypasses: {:?}",
        deep
    );
    let f = taint[0];
    assert_eq!(f.fun, "crate::bypass::leak_weights");
    assert!(f.message.contains("without CtrCipher"), "{}", f.message);
    let chain: Vec<&str> = f.chain.iter().map(|h| h.qual.as_str()).collect();
    assert_eq!(
        chain,
        vec![
            "crate::bypass::Linear::weights",
            "crate::bypass::stage_weights",
            "crate::bypass::leak_weights",
            "crate::bypass::EnginePipeline::submit",
        ],
        "the full source->...->sink chain must be reported"
    );
    // The sanitized counterpart in the same file stays clean.
    assert!(!taint.iter().any(|f| f.fun.contains("ship")));
}

#[test]
fn taint_pass_treats_the_streaming_trace_as_a_sink() {
    let (dir, files) = deep_fixture_files();
    let deep = check(&dir, &files);
    let on_requests: Vec<_> = deep
        .iter()
        .filter(|f| f.rule == Rule::EncryptionBoundary && f.path.ends_with("bypass_requests.rs"))
        .collect();
    assert_eq!(on_requests.len(), 1, "{:?}", deep);
    let f = on_requests[0];
    assert_eq!(f.fun, "crate::bypass_requests::leak_requests");
    let chain: Vec<&str> = f.chain.iter().map(|h| h.qual.as_str()).collect();
    assert_eq!(
        chain,
        vec![
            "crate::bypass_requests::BatchNorm2d::gamma",
            "crate::bypass_requests::stage_scales",
            "crate::bypass_requests::leak_requests",
            "crate::bypass_requests::Workload::requests",
        ],
        "`Workload::requests` must be a sink beside `Workload::trace`"
    );
    // Streaming a ciphertext-sized workload is not a finding.
    assert!(!deep.iter().any(|f| f.fun.contains("replay_ciphertext")));
}

#[test]
fn panic_and_unsafe_fixtures_yield_exactly_the_seeded_findings() {
    let (dir, files) = deep_fixture_files();
    let deep = check(&dir, &files);
    let panics: Vec<&str> = deep
        .iter()
        .filter(|f| f.rule == Rule::PanicFreedom)
        .map(|f| f.fun.as_str())
        .collect();
    // `step` is reachable from `worker_loop`; `checked_step` is justified
    // and `offline_tool` is unreachable from any root.
    assert_eq!(
        panics,
        vec!["crate::bad_reachable_panics::step"],
        "{:?}",
        deep
    );
    let unsafes: Vec<&str> = deep
        .iter()
        .filter(|f| f.rule == Rule::UnsafeAudit)
        .map(|f| f.fun.as_str())
        .collect();
    assert_eq!(
        unsafes,
        vec![
            "crate::bad_unsafe::sum_unchecked",
            "crate::bad_unsafe::stale_comment"
        ],
        "naked and stale-named unsafe are reported; the documented one is not"
    );
    // Nothing else fires: the fixtures' directives all name real rules.
    assert_eq!(deep.len(), 2 + 1 + 2, "{deep:#?}");
}

#[test]
fn worker_loop_roots_both_serving_transports() {
    use seal_analyze::callgraph::{qual_matches, CallGraph, PANIC_ROOTS};
    use seal_analyze::parser::parse_file;

    // The panic-freedom pass roots the serving stack by fn *name*. Pin
    // that the name resolves to the one loop both transports run, and
    // that the wire reply path is actually under it — a rename must fail
    // here instead of silently un-rooting the server.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources: Vec<PathBuf> = seal_analyze::workspace_sources(&root)
        .expect("workspace sources")
        .into_iter()
        .filter(|p| {
            let rel = p.strip_prefix(&root).expect("under the root");
            rel.starts_with("crates/serve/src") || rel.starts_with("crates/net/src")
        })
        .collect();
    let files: Vec<_> = sources
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).expect("under the root");
            let source = std::fs::read_to_string(p).expect("readable source");
            parse_file(&rel.to_string_lossy(), &source)
        })
        .collect();
    let graph = CallGraph::build(&files);
    let qual = |ni: usize| {
        let n = graph.nodes[ni];
        files[n.file].fns[n.fun].qual.as_str()
    };

    assert!(PANIC_ROOTS.contains(&"worker_loop"));
    let roots: Vec<usize> = graph.nodes_matching(&files, "worker_loop").collect();
    let names: Vec<&str> = roots.iter().map(|&ni| qual(ni)).collect();
    assert_eq!(names.len(), 1, "exactly one serving loop, got {names:?}");

    let mut reached = vec![false; graph.nodes.len()];
    let mut stack = roots;
    while let Some(ni) = stack.pop() {
        if !std::mem::replace(&mut reached[ni], true) {
            stack.extend(graph.edges[ni].iter().map(|e| e.callee));
        }
    }
    for pattern in ["netserve::encode_reply", "Responder::send"] {
        assert!(
            (0..graph.nodes.len()).any(|ni| reached[ni] && qual_matches(qual(ni), pattern)),
            "{pattern} is not reachable from worker_loop"
        );
    }
}
