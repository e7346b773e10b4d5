//! Encryption-boundary taint pass.
//!
//! SEAL's core invariant: model weights never cross the accelerator
//! memory boundary in plaintext. In this codebase that means data
//! originating from the weight **sources** (the `seal_nn` layer parameter
//! accessors, `PackedB`'s packed panels) may only reach the memory-traffic
//! **sinks** (`EnginePipeline::submit*`, the gpusim address-trace
//! emission) through a **sanitizer** (`CtrCipher` encryption or the
//! serve cost-lane pricing model, which prices traffic as ciphertext).
//!
//! The pass propagates taint up the call graph: a fn is tainted when it
//! calls a source, or calls a tainted fn that is not a sanitizer
//! (sanitizer outputs are ciphertext — the taint stops there). A tainted
//! non-sanitizer fn that calls a sink is a violation, reported with the
//! full source→…→sink call chain. `seal-lint:
//! allow(encryption-boundary)` on the offending fn's declaration
//! suppresses it with a written justification.

use crate::callgraph::{qual_matches, CallGraph};
use crate::ir::{ChainHop, DeepFinding, FileIr};
use crate::lint::Rule;
use std::collections::VecDeque;

/// Source / sink / sanitizer patterns (qual suffixes at `::` boundaries).
#[derive(Debug, Clone)]
pub struct TaintSpec {
    /// Fns returning or materialising weight-derived data.
    pub sources: Vec<String>,
    /// Fns that move bytes onto the simulated memory bus.
    pub sinks: Vec<String>,
    /// Fns whose output is ciphertext / priced-as-ciphertext traffic.
    pub sanitizers: Vec<String>,
}

impl Default for TaintSpec {
    /// The committed source/sink table for this workspace (documented in
    /// DESIGN §6g).
    fn default() -> TaintSpec {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        TaintSpec {
            sources: s(&[
                "Linear::weights",
                "Linear::bias",
                "Conv2d::weights",
                "Conv2d::bias",
                "BatchNorm2d::gamma",
                "BatchNorm2d::beta",
                "BatchNorm2d::running_mean",
                "BatchNorm2d::running_var",
                "PackedB::pack",
                "PackedB::from_slice",
            ]),
            sinks: s(&[
                "EnginePipeline::submit",
                "EnginePipeline::submit_with_recovery",
                "Workload::trace",
                "Workload::requests",
            ]),
            sanitizers: s(&[
                "CtrCipher::encrypt",
                "CtrCipher::decrypt",
                "CtrCipher::encrypt_tagged",
                "CtrCipher::decrypt_verified",
                "CostModel::cost_batch",
            ]),
        }
    }
}

/// How a fn became tainted (for chain reconstruction).
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// The fn calls a source directly (node index of the source, line).
    Source(usize, u32),
    /// The fn calls an already-tainted fn (node index, call line).
    Via(usize, u32),
}

/// Runs the taint pass; returns violations sorted by (path, line).
pub fn taint_pass(files: &[FileIr], graph: &CallGraph, spec: &TaintSpec) -> Vec<DeepFinding> {
    let n = graph.nodes.len();
    let quals: Vec<&str> = graph
        .nodes
        .iter()
        .map(|nd| files[nd.file].fns[nd.fun].qual.as_str())
        .collect();
    let matches_any =
        |q: &str, pats: &[String]| pats.iter().any(|p| qual_matches(q, p));
    let is_source: Vec<bool> = quals.iter().map(|q| matches_any(q, &spec.sources)).collect();
    let is_sink: Vec<bool> = quals.iter().map(|q| matches_any(q, &spec.sinks)).collect();
    let is_sanitizer: Vec<bool> = quals
        .iter()
        .map(|q| matches_any(q, &spec.sanitizers))
        .collect();

    // Seed: every non-test fn that calls a source.
    let mut origin: Vec<Option<Origin>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (ni, edges) in graph.edges.iter().enumerate() {
        let nd = graph.nodes[ni];
        if files[nd.file].fns[nd.fun].is_test {
            continue;
        }
        for e in edges {
            if is_source[e.callee] && origin[ni].is_none() {
                origin[ni] = Some(Origin::Source(e.callee, e.line));
                queue.push_back(ni);
            }
        }
    }
    // Propagate caller-ward: callers of tainted non-sanitizer fns taint.
    let mut callers: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (ni, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            callers[e.callee].push((ni, e.line));
        }
    }
    while let Some(ni) = queue.pop_front() {
        if is_sanitizer[ni] {
            continue; // taint is laundered at a sanitizer boundary
        }
        for &(caller, line) in &callers[ni] {
            let nd = graph.nodes[caller];
            if files[nd.file].fns[nd.fun].is_test || origin[caller].is_some() {
                continue;
            }
            origin[caller] = Some(Origin::Via(ni, line));
            queue.push_back(caller);
        }
    }

    // Violations: tainted non-sanitizer fn calls a sink.
    let mut findings = Vec::new();
    for (ni, org) in origin.iter().enumerate() {
        if org.is_none() || is_sanitizer[ni] {
            continue;
        }
        let nd = graph.nodes[ni];
        let file = &files[nd.file];
        let f = &file.fns[nd.fun];
        if f.allow_taint {
            continue;
        }
        for e in &graph.edges[ni] {
            if !is_sink[e.callee] {
                continue;
            }
            let mut chain = chain_from_source(files, graph, &origin, ni);
            let sink_nd = graph.nodes[e.callee];
            let sink_qual = files[sink_nd.file].fns[sink_nd.fun].qual.clone();
            chain.push(ChainHop {
                qual: sink_qual.clone(),
                path: file.path.clone(),
                line: e.line,
            });
            findings.push(DeepFinding {
                rule: Rule::EncryptionBoundary,
                path: file.path.clone(),
                line: e.line,
                fun: f.qual.clone(),
                message: format!(
                    "weight-derived data reaches memory-traffic sink `{sink_qual}` without CtrCipher/lane-pricing sanitization"
                ),
                chain,
            });
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// Builds the source→…→fn part of a violation chain by walking taint
/// origins backward from `target`.
fn chain_from_source(
    files: &[FileIr],
    graph: &CallGraph,
    origin: &[Option<Origin>],
    target: usize,
) -> Vec<ChainHop> {
    let hop = |ni: usize, line: u32| {
        let nd = graph.nodes[ni];
        ChainHop {
            qual: files[nd.file].fns[nd.fun].qual.clone(),
            path: files[nd.file].path.clone(),
            line,
        }
    };
    let mut rev = Vec::new();
    let mut cur = target;
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > 64 {
            break;
        }
        // Each fn hop carries the line where taint enters it: the call
        // into the next (callee-ward) hop. The source hop itself gets the
        // line of the call that read it.
        match origin[cur] {
            Some(Origin::Via(next, line)) => {
                rev.push(hop(cur, line));
                cur = next;
            }
            Some(Origin::Source(src, line)) => {
                rev.push(hop(cur, line));
                let snd = graph.nodes[src];
                rev.push(hop(src, files[snd.file].fns[snd.fun].line));
                break;
            }
            None => {
                let nd = graph.nodes[cur];
                rev.push(hop(cur, files[nd.file].fns[nd.fun].line));
                break;
            }
        }
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    /// A miniature weight→bus bypass: `leak_weights` reads `weights()`
    /// and hands the bytes straight to `EnginePipeline::submit`.
    const BYPASS: &str = "\
struct Linear;\n\
impl Linear {\n  pub fn weights(&self) -> &[f32] { &[] }\n}\n\
struct EnginePipeline;\n\
impl EnginePipeline {\n  pub fn submit(&mut self, bytes: u64) -> u64 { bytes }\n}\n\
fn leak_weights(l: &Linear, e: &mut EnginePipeline) {\n\
  let w = l.weights();\n\
  e.submit(w.len() as u64);\n\
}\n";

    #[test]
    fn bypass_is_reported_with_full_chain() {
        let files = vec![parse_file("demo/src/lib.rs", BYPASS)];
        let g = CallGraph::build(&files);
        let findings = taint_pass(&files, &g, &TaintSpec::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.fun, "demo::leak_weights");
        let chain: Vec<&str> = f.chain.iter().map(|h| h.qual.as_str()).collect();
        assert_eq!(
            chain,
            vec![
                "demo::Linear::weights",
                "demo::leak_weights",
                "demo::EnginePipeline::submit"
            ]
        );
    }

    #[test]
    fn sanitized_flow_is_clean() {
        let src = "\
struct Linear;\nimpl Linear {\n  pub fn weights(&self) -> &[f32] { &[] }\n}\n\
struct CtrCipher;\nimpl CtrCipher {\n  pub fn encrypt(&mut self, b: &mut [u8]) {}\n}\n\
struct EnginePipeline;\nimpl EnginePipeline {\n  pub fn submit(&mut self, bytes: u64) -> u64 { bytes }\n}\n\
struct CostModel;\nimpl CostModel {\n  pub fn cost_batch(&mut self, e: &mut EnginePipeline) { e.submit(64); }\n}\n\
fn serve(l: &Linear, c: &mut CtrCipher, m: &mut CostModel, e: &mut EnginePipeline) {\n\
  let w = l.weights();\n\
  c.encrypt(&mut []);\n\
  m.cost_batch(e);\n\
}\n";
        let files = vec![parse_file("demo/src/lib.rs", src)];
        let g = CallGraph::build(&files);
        let findings = taint_pass(&files, &g, &TaintSpec::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn taint_propagates_through_intermediate_fns() {
        let src = "\
struct Linear;\nimpl Linear {\n  pub fn weights(&self) -> &[f32] { &[] }\n}\n\
struct EnginePipeline;\nimpl EnginePipeline {\n  pub fn submit(&mut self, b: u64) -> u64 { b }\n}\n\
fn gather(l: &Linear) -> usize { l.weights().len() }\n\
fn relay(l: &Linear) -> usize { gather(l) }\n\
fn emit(l: &Linear, e: &mut EnginePipeline) { let n = relay(l); e.submit(n as u64); }\n";
        let files = vec![parse_file("demo/src/lib.rs", src)];
        let g = CallGraph::build(&files);
        let findings = taint_pass(&files, &g, &TaintSpec::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        let chain: Vec<&str> = findings[0].chain.iter().map(|h| h.qual.as_str()).collect();
        assert_eq!(
            chain,
            vec![
                "demo::Linear::weights",
                "demo::gather",
                "demo::relay",
                "demo::emit",
                "demo::EnginePipeline::submit"
            ]
        );
    }

    #[test]
    fn fn_level_allow_suppresses_with_justification() {
        let src = "\
struct Linear;\nimpl Linear {\n  pub fn weights(&self) -> &[f32] { &[] }\n}\n\
struct EnginePipeline;\nimpl EnginePipeline {\n  pub fn submit(&mut self, b: u64) -> u64 { b }\n}\n\
// seal-lint: allow(encryption-boundary) — metadata bytes only, no weight data\n\
fn metadata_probe(l: &Linear, e: &mut EnginePipeline) { let _ = l.weights(); e.submit(8); }\n";
        let files = vec![parse_file("demo/src/lib.rs", src)];
        let g = CallGraph::build(&files);
        assert!(taint_pass(&files, &g, &TaintSpec::default()).is_empty());
    }
}
