//! Integration tests for the `seal-analyze` gate: fixture lint coverage,
//! semantic-pass rejection diagnostics, and CLI exit codes.

use std::path::PathBuf;
use std::process::Command;

use seal_analyze::{lint_paths, Rule};

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(rel)
}

#[test]
fn panic_fixture_yields_every_seeded_finding() {
    let findings = lint_paths(&[fixture("bad_panics.rs")]).unwrap();
    let rules: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        rules,
        vec![
            (Rule::MissingDocs, 7),
            (Rule::Unwrap, 9),
            (Rule::Expect, 14),
            (Rule::Panic, 16),
            (Rule::Todo, 24),
            (Rule::Unimplemented, 26),
        ],
        "full findings: {findings:#?}"
    );
}

#[test]
fn code_after_a_cfg_test_struct_field_is_still_linted() {
    let findings = lint_paths(&[fixture("bad_gated_field.rs")]).unwrap();
    let rules: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        rules,
        vec![(Rule::Unwrap, 20)],
        "full findings: {findings:#?}"
    );
}

#[test]
fn cast_fixture_yields_only_the_truncating_casts() {
    let findings = lint_paths(&[fixture("crypto/aes.rs")]).unwrap();
    let rules: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        rules,
        vec![
            (Rule::TruncatingCast, 8),
            (Rule::TruncatingCast, 13),
            (Rule::TruncatingCast, 13),
        ],
        "full findings: {findings:#?}"
    );
}

#[test]
fn concurrency_fixture_yields_only_the_lock_unwraps() {
    let findings = lint_paths(&[fixture("bad_concurrency.rs")]).unwrap();
    let rules: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        rules,
        vec![
            (Rule::LockUnwrap, 10),
            (Rule::LockUnwrap, 16),
            (Rule::LockUnwrap, 21),
        ],
        "full findings: {findings:#?}"
    );
    // The poisoned-lock recovery idiom in the same file stays clean, and
    // the sync-specific rule replaces (not duplicates) the generic ones.
    assert!(!findings
        .iter()
        .any(|f| matches!(f.rule, Rule::Unwrap | Rule::Expect)));
}

#[test]
fn thread_spawn_fixture_yields_only_the_raw_spawns() {
    let findings = lint_paths(&[fixture("bad_thread_spawn.rs")]).unwrap();
    let rules: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        rules,
        vec![(Rule::ThreadSpawn, 11), (Rule::ThreadSpawn, 17)],
        "full findings: {findings:#?}"
    );
    // Both the detached `thread::spawn` and the hand-rolled
    // `thread::scope` are caught; the pool-delegating function stays
    // clean and `Scope::spawn` method calls are not double-counted.
    assert!(findings[0].message.contains("spawn_worker"));
    assert!(findings[1].message.contains("scoped_map"));
}

#[test]
fn retry_fixture_yields_both_seeded_retry_loops() {
    let findings = lint_paths(&[fixture("bad_retry.rs")]).unwrap();
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

#[test]
fn raw_syscall_fixture_yields_the_extern_block_and_bare_calls() {
    let findings = lint_paths(&[fixture("bad_raw_syscall.rs")]).unwrap();
    let rules: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        rules,
        vec![
            (Rule::RawSyscall, 5),
            (Rule::RawSyscall, 12),
            (Rule::RawSyscall, 17),
        ],
        "full findings: {findings:#?}"
    );
    // The path-qualified shim calls and the `.bind(…)` method call in the
    // same file stay clean; every message points at the audited shim.
    assert!(findings.iter().all(|f| f.message.contains("sys.rs")));
}

#[test]
fn raw_syscall_rule_is_exempt_only_in_the_sys_shim() {
    // The identical source attributed to the audited shim is clean; any
    // other crate path fires.
    let src = std::fs::read_to_string(fixture("bad_raw_syscall.rs")).unwrap();
    let shim = seal_analyze::lint_source("crates/net/src/sys.rs", &src);
    assert!(
        !shim.iter().any(|f| f.rule == Rule::RawSyscall),
        "raw-syscall fired inside its own shim: {shim:#?}"
    );
    let elsewhere = seal_analyze::lint_source("crates/serve/src/netserve.rs", &src);
    assert_eq!(
        elsewhere.iter().filter(|f| f.rule == Rule::RawSyscall).count(),
        3,
        "{elsewhere:#?}"
    );
}

#[test]
fn hot_alloc_fixture_yields_only_the_unsanctioned_allocations() {
    let findings = lint_paths(&[fixture("tensor/src/ops/bad_hot_alloc.rs")]).unwrap();
    let rules: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        rules,
        vec![
            (Rule::HotPathAlloc, 9),
            (Rule::HotPathAlloc, 16),
            (Rule::HotPathAlloc, 20),
            (Rule::HotPathAlloc, 25),
        ],
        "full findings: {findings:#?}"
    );
    // The allow(hot-path-alloc)-annotated compile-time pack and the
    // caller-buffer idiom stay clean; every message points at the
    // accepted replacements.
    assert!(findings
        .iter()
        .all(|f| f.message.contains("caller-provided buffer")));
}

#[test]
fn hot_alloc_rule_is_scoped_to_the_inference_hot_path() {
    // The same source outside `tensor/src/ops/` (or `nn/src/plan.rs`)
    // must not fire: allocation is only a defect where the zero-alloc
    // steady-state contract applies.
    let src = std::fs::read_to_string(fixture("tensor/src/ops/bad_hot_alloc.rs")).unwrap();
    let findings = seal_analyze::lint_source("crates/serve/src/server.rs", &src);
    assert!(
        !findings.iter().any(|f| f.rule == Rule::HotPathAlloc),
        "hot-path-alloc fired outside its path scope: {findings:#?}"
    );
}

#[test]
fn linting_the_whole_fixture_dir_finds_all_files() {
    let findings = lint_paths(&[fixture("")]).unwrap();
    assert!(findings.iter().any(|f| f.path.ends_with("bad_panics.rs")));
    assert!(findings.iter().any(|f| f.path.ends_with("bad_concurrency.rs")));
    assert!(findings.iter().any(|f| f.path.ends_with("bad_thread_spawn.rs")));
    assert!(findings.iter().any(|f| f.path.ends_with("bad_retry.rs")));
    assert!(findings.iter().any(|f| f.path.ends_with("aes.rs")));
    assert!(findings.iter().any(|f| f.path.ends_with("bad_hot_alloc.rs")));
    assert!(findings.iter().any(|f| f.path.ends_with("bad_raw_syscall.rs")));
    assert!(findings.iter().any(|f| f.path.ends_with("bad_gated_field.rs")));
    assert_eq!(findings.len(), 24);
}

#[test]
fn shape_pass_rejects_mismatched_conv_to_linear_chain() {
    use seal_nn::layers::{Conv2d, Flatten, Linear};
    use seal_nn::{check_model, Sequential};
    use seal_tensor::ops::Conv2dGeometry;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;
    use seal_tensor::Shape;

    let mut rng = StdRng::seed_from_u64(1);
    // conv_out emits 8×16×16 = 2048 features once flattened; the linear
    // layer expects 128 — the chain must be rejected statically, naming
    // the rejecting layer and its producer.
    let model = Sequential::new("mismatched")
        .with(Box::new(
            Conv2d::new(&mut rng, "conv_out", 3, 8, Conv2dGeometry::same3x3()).unwrap(),
        ))
        .with(Box::new(Flatten::new("flatten")))
        .with(Box::new(Linear::new(&mut rng, "classifier", 128, 10).unwrap()));
    let err = check_model(&model, &Shape::nchw(1, 3, 16, 16)).unwrap_err();
    assert_eq!(err.layer, "classifier");
    assert_eq!(err.producer.as_deref(), Some("flatten"));
    let diag = err.to_string();
    assert!(
        diag.contains("classifier") && diag.contains("flatten"),
        "diagnostic must name both layers: {diag}"
    );
}

#[test]
fn plan_pass_rejects_a_decoupled_plan() {
    use seal_core::{analyze_plan, EncryptionPlan, LayerPlan, PlanFinding, SePolicy};
    let mut policy = SePolicy::paper_default();
    policy.boundary_full_encryption = false;
    // 3 of 6 rows encrypted (ratio 0.5 holds) but one index out of range
    // breaks the row/channel coupling derivation's preconditions.
    let layer = LayerPlan {
        name: "conv2".into(),
        is_conv: true,
        rows: 6,
        encrypted_rows: vec![0, 2, 9],
        fully_encrypted: false,
    };
    let findings = analyze_plan(&EncryptionPlan::from_parts(policy, vec![layer])).unwrap_err();
    assert!(findings
        .iter()
        .any(|f| matches!(f, PlanFinding::RowOutOfRange { row: 9, .. })));
}

fn run_cli(args: &[&str], cwd: &std::path::Path) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_seal-analyze"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_workspace_mode_is_clean_on_the_merged_tree() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (code, stdout, stderr) = run_cli(&["--workspace"], &root);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("no findings"), "{stdout}");
    assert!(stdout.contains("semantic checks clean"), "{stdout}");
}

#[test]
fn cli_exits_nonzero_on_fixture_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let fixtures = fixture("");
    let (code, stdout, _) = run_cli(&[fixtures.to_str().unwrap()], &root);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[unwrap]"), "{stdout}");
    assert!(stdout.contains("[truncating-cast]"), "{stdout}");
}

#[test]
fn cli_json_output_is_parseable_shape() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let target = fixture("bad_panics.rs");
    let (code, stdout, _) = run_cli(&["--json", target.to_str().unwrap()], &root);
    assert_eq!(code, 1);
    let line = stdout.trim();
    assert!(line.starts_with("{\"findings\":["), "{line}");
    assert!(line.ends_with("\"semantic\":[]}"), "{line}");
    assert!(line.contains("\"rule\":\"missing-docs\""), "{line}");
}

#[test]
fn cli_rejects_unknown_flags_with_usage_error() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (code, _, stderr) = run_cli(&["--bogus"], &root);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"), "{stderr}");
}

// ---------------------------------------------------------------------------
// Deep passes: taint / panic-freedom / unsafe-audit over the seeded
// fixtures, the JSON report, the baseline workflow, and cache
// invalidation.
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
    use seal_analyze::driver::{analyze_files, DeepOptions};
    let (dir, files) = deep_fixture_files();
    let a = analyze_files(&dir, &files, &DeepOptions::default()).expect("analysis");
    let taint: Vec<_> =
        a.deep.iter().filter(|f| f.rule == Rule::EncryptionBoundary).collect();
    assert_eq!(taint.len(), 2, "exactly the two seeded bypasses: {:?}", a.deep);
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
    use seal_analyze::driver::{analyze_files, DeepOptions};
    let (dir, files) = deep_fixture_files();
    let a = analyze_files(&dir, &files, &DeepOptions::default()).expect("analysis");
    let on_requests: Vec<_> = a
        .deep
        .iter()
        .filter(|f| f.rule == Rule::EncryptionBoundary && f.path.ends_with("bypass_requests.rs"))
        .collect();
    assert_eq!(on_requests.len(), 1, "{:?}", a.deep);
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
    assert!(!a.deep.iter().any(|f| f.fun.contains("replay_ciphertext")));
}

#[test]
fn panic_and_unsafe_fixtures_yield_exactly_the_seeded_findings() {
    use seal_analyze::driver::{analyze_files, DeepOptions};
    let (dir, files) = deep_fixture_files();
    let a = analyze_files(&dir, &files, &DeepOptions::default()).expect("analysis");
    let panics: Vec<&str> = a
        .deep
        .iter()
        .filter(|f| f.rule == Rule::PanicFreedom)
        .map(|f| f.fun.as_str())
        .collect();
    // `step` is reachable from `worker_loop`; `checked_step` is justified
    // and `offline_tool` is unreachable from any root.
    assert_eq!(panics, vec!["crate::bad_reachable_panics::step"], "{:?}", a.deep);
    let unsafes: Vec<&str> = a
        .deep
        .iter()
        .filter(|f| f.rule == Rule::UnsafeAudit)
        .map(|f| f.fun.as_str())
        .collect();
    assert_eq!(
        unsafes,
        vec!["crate::bad_unsafe::sum_unchecked", "crate::bad_unsafe::stale_comment"],
        "naked and stale-named unsafe are reported; the documented one is not"
    );
}

#[test]
fn cli_deep_mode_prints_the_chain_and_exits_nonzero() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (code, stdout, _) = run_cli(&["--deep", "crates/analyze/fixtures/deep"], &root);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[encryption-boundary]"), "{stdout}");
    assert!(stdout.contains("crate::bypass::Linear::weights"), "{stdout}");
    assert!(stdout.contains("-> crate::bypass::EnginePipeline::submit"), "{stdout}");
    assert!(stdout.contains("[panic-freedom]"), "{stdout}");
    assert!(stdout.contains("[unsafe-audit]"), "{stdout}");
}

#[test]
fn cli_report_json_has_the_stable_golden_shape() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir =
        std::env::temp_dir().join(format!("seal-analyze-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let report = dir.join("analyze_report.json");
    let (code, _, _) = run_cli(
        &[
            "--deep",
            "crates/analyze/fixtures/deep",
            "--timing",
            "--report",
            report.to_str().expect("utf8 path"),
        ],
        &root,
    );
    assert_eq!(code, 1);
    let text = std::fs::read_to_string(&report).expect("report written");
    // Golden shape: stable keys in a stable order, chain hops inline.
    assert!(text.starts_with("{\"files\":4,\"cache\":{"), "{text}");
    assert!(text.contains("\"timings_ms\":{\"parse\":"), "{text}");
    assert!(text.contains("\"rule\":\"encryption-boundary\""), "{text}");
    assert!(text.contains("\"rule\":\"panic-freedom\""), "{text}");
    assert!(text.contains("\"rule\":\"unsafe-audit\""), "{text}");
    assert!(
        text.contains("\"chain\":[{\"fn\":\"crate::bypass::Linear::weights\""),
        "{text}"
    );
    for pass in ["callgraph", "encryption-boundary", "panic-freedom", "unsafe-audit"] {
        assert!(text.contains(&format!("\"{pass}\":")), "missing {pass} timing: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_baseline_workflow_suppresses_known_findings_under_fail_on_new() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir =
        std::env::temp_dir().join(format!("seal-analyze-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let baseline = dir.join("baseline.txt");
    let bl = baseline.to_str().expect("utf8 path");
    // Without a baseline the seeded findings fail the run.
    let (code, _, _) = run_cli(
        &["--deep", "crates/analyze/fixtures/deep", "--fail-on=new", "--baseline", bl],
        &root,
    );
    assert_eq!(code, 1, "empty baseline must not mask findings");
    // Write the baseline, then the same invocation passes.
    let (code, _, stderr) = run_cli(
        &["--deep", "crates/analyze/fixtures/deep", "--write-baseline", "--baseline", bl],
        &root,
    );
    assert_eq!(code, 0, "{stderr}");
    let (code, stdout, _) = run_cli(
        &["--deep", "crates/analyze/fixtures/deep", "--fail-on=new", "--baseline", bl],
        &root,
    );
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("baselined deep finding(s) ignored"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_cache_invalidation_reanalyzes_only_edited_files() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir =
        std::env::temp_dir().join(format!("seal-analyze-inval-{}", std::process::id()));
    let src_dir = dir.join("src_copy");
    let cache_dir = dir.join("cache");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    for f in std::fs::read_dir(fixture("deep")).expect("deep dir") {
        let p = f.expect("entry").path();
        std::fs::copy(&p, src_dir.join(p.file_name().expect("name"))).expect("copy");
    }
    let args = [
        "--deep",
        src_dir.to_str().expect("utf8"),
        "--cache-dir",
        cache_dir.to_str().expect("utf8"),
    ];
    let (_, _, stderr) = run_cli(&args, &root);
    assert!(stderr.contains("cache 0 hit(s) / 4 miss(es)"), "cold: {stderr}");
    let (_, _, stderr) = run_cli(&args, &root);
    assert!(stderr.contains("cache 4 hit(s) / 0 miss(es)"), "warm: {stderr}");
    // Edit one file: only that file re-analyzes.
    let edited = src_dir.join("bad_unsafe.rs");
    let mut text = std::fs::read_to_string(&edited).expect("read");
    text.push_str("\nfn appended() {}\n");
    std::fs::write(&edited, text).expect("write");
    let (_, _, stderr) = run_cli(&args, &root);
    assert!(stderr.contains("cache 3 hit(s) / 1 miss(es)"), "invalidated: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_loop_roots_both_serving_transports() {
    use seal_analyze::callgraph::{qual_matches, CallGraph, DEFAULT_PANIC_ROOTS};
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

    assert!(DEFAULT_PANIC_ROOTS.contains(&"worker_loop"));
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
