//! Cross-crate call graph over the parsed IR, plus the two reachability
//! passes that run on it: panic-freedom and unsafe-audit.
//!
//! Resolution is best-effort and intentionally over-approximate where
//! the token-level IR cannot know better:
//!
//! * **Bare calls** resolve through the caller's module, then its `use`
//!   imports, then a unique workspace-wide name match (falling back to
//!   same-crate candidates when the name is ambiguous).
//! * **Path calls** resolve through import aliases, exact qualified
//!   names, then a last-two-segment suffix index (`Type::method`,
//!   `module::fn`). Paths into `std` fall out of the graph naturally —
//!   nothing in the workspace matches them.
//! * **Method calls** link to *every* same-name inherent/trait method in
//!   the workspace (receiver types are unknown), preferring same-crate
//!   candidates when any exist. For reachability this errs toward false
//!   edges, never missed ones.

use crate::ir::{CallKind, ChainHop, FileIr, Finding, UnsafeIr, UnsafeKind};
use crate::lint::Rule;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// The panic-freedom roots: the serve batching loop and the compiled
/// plan executor — the two fns a panic mid-batch would take down.
pub const PANIC_ROOTS: [&str; 2] = ["worker_loop", "CompiledModel::execute_into"];

/// `qual` matches `pattern` when equal or when `pattern` is a
/// `::`-boundary suffix of `qual` (`CompiledModel::execute_into` matches
/// `seal_nn::plan::CompiledModel::execute_into`).
pub fn qual_matches(qual: &str, pattern: &str) -> bool {
    qual == pattern
        || (qual.len() > pattern.len() + 2
            && qual.ends_with(pattern)
            && qual[..qual.len() - pattern.len()].ends_with("::"))
}

/// One node of the call graph: `files[file].fns[fun]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Index into the `FileIr` slice.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fun: usize,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub callee: usize,
    /// Call-site line in the caller.
    pub line: u32,
}

/// The resolved cross-crate call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Flattened fn nodes, in file order.
    pub nodes: Vec<Node>,
    /// Resolved out-edges per node (deduplicated).
    pub edges: Vec<Vec<Edge>>,
    by_qual: HashMap<String, usize>,
}

impl CallGraph {
    /// Builds the graph for a workspace's worth of parsed files.
    pub fn build(files: &[FileIr]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, _) in f.fns.iter().enumerate() {
                nodes.push(Node { file: fi, fun: gi });
            }
        }
        let mut by_qual: HashMap<String, usize> = HashMap::new();
        let mut bare_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut suffix2: HashMap<String, Vec<usize>> = HashMap::new();
        for (ni, n) in nodes.iter().enumerate() {
            let f = &files[n.file].fns[n.fun];
            by_qual.entry(f.qual.clone()).or_insert(ni);
            if f.type_name.is_some() {
                methods_by_name.entry(&f.name).or_default().push(ni);
            } else {
                bare_by_name.entry(&f.name).or_default().push(ni);
            }
            let segs: Vec<&str> = f.qual.split("::").collect();
            if segs.len() >= 2 {
                let key = format!("{}::{}", segs[segs.len() - 2], segs[segs.len() - 1]);
                suffix2.entry(key).or_default().push(ni);
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (ni, n) in nodes.iter().enumerate() {
            let file = &files[n.file];
            let f = &file.fns[n.fun];
            let mut out: BTreeSet<(usize, u32)> = BTreeSet::new();
            for call in &f.calls {
                let targets = match call.kind {
                    CallKind::Macro => Vec::new(),
                    CallKind::Method => {
                        let name = call.segments[0].as_str();
                        let all = methods_by_name.get(name).cloned().unwrap_or_default();
                        // Cross-crate candidates are kept only when their
                        // defining type is named somewhere in the caller's
                        // file (a `use`, a signature, a constructor —
                        // anything). Without this, ubiquitous std method
                        // names (`.load()` on an atomic, `.run()`, `.get()`)
                        // would stitch unrelated crates together and make
                        // every fn "reachable". Same-crate candidates stay
                        // unconditionally: dyn dispatch inside a crate never
                        // names the concrete receiver type.
                        let visible: Vec<usize> = all
                            .into_iter()
                            .filter(|&t| {
                                let tf = &files[nodes[t].file];
                                tf.crate_name == file.crate_name
                                    || tf.fns[nodes[t].fun].type_name.as_deref().is_some_and(|ty| {
                                        file.idents.binary_search_by(|x| x.as_str().cmp(ty)).is_ok()
                                    })
                            })
                            .collect();
                        prefer_same_crate(visible, &nodes, files, &file.crate_name)
                    }
                    CallKind::Bare => resolve_bare(
                        &call.segments[0],
                        file,
                        &by_qual,
                        &bare_by_name,
                        &nodes,
                        files,
                    ),
                    CallKind::Path => resolve_path(&call.segments, file, &by_qual, &suffix2, files),
                };
                for t in targets {
                    if t != ni {
                        out.insert((t, call.line));
                    }
                }
            }
            // One edge per callee (first call line wins) keeps chains short.
            let mut seen = BTreeSet::new();
            edges[ni] = out
                .into_iter()
                .filter(|(t, _)| seen.insert(*t))
                .map(|(callee, line)| Edge { callee, line })
                .collect();
        }
        CallGraph {
            nodes,
            edges,
            by_qual,
        }
    }

    /// Node index by exact qualified name.
    pub fn node_by_qual(&self, qual: &str) -> Option<usize> {
        self.by_qual.get(qual).copied()
    }

    /// All node indices whose qual matches the `::`-boundary pattern.
    pub fn nodes_matching<'a>(
        &'a self,
        files: &'a [FileIr],
        pattern: &'a str,
    ) -> impl Iterator<Item = usize> + 'a {
        self.nodes.iter().enumerate().filter_map(move |(ni, n)| {
            qual_matches(&files[n.file].fns[n.fun].qual, pattern).then_some(ni)
        })
    }
}

fn prefer_same_crate(
    candidates: Vec<usize>,
    nodes: &[Node],
    files: &[FileIr],
    crate_name: &str,
) -> Vec<usize> {
    let same: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&ni| files[nodes[ni].file].crate_name == crate_name)
        .collect();
    if same.is_empty() {
        candidates
    } else {
        same
    }
}

fn resolve_bare(
    name: &str,
    file: &FileIr,
    by_qual: &HashMap<String, usize>,
    bare_by_name: &HashMap<&str, Vec<usize>>,
    nodes: &[Node],
    files: &[FileIr],
) -> Vec<usize> {
    // 1. Same module.
    if let Some(&ni) = by_qual.get(&format!("{}::{}", file.module_prefix(), name)) {
        return vec![ni];
    }
    // 2. Imports: `use a::b::name;` or an alias binding.
    for imp in &file.imports {
        if imp.alias == name {
            if let Some(&ni) = by_qual.get(&imp.segments.join("::")) {
                return vec![ni];
            }
        }
    }
    // 2b. Glob imports: `use a::b::*;`.
    for imp in &file.imports {
        if imp.alias == "*" {
            let mut q = imp.segments.join("::");
            q.push_str("::");
            q.push_str(name);
            if let Some(&ni) = by_qual.get(&q) {
                return vec![ni];
            }
        }
    }
    // 3. Workspace-wide: unique match, else same-crate candidates.
    let all = bare_by_name.get(name).cloned().unwrap_or_default();
    if all.len() == 1 {
        return all;
    }
    all.into_iter()
        .filter(|&ni| files[nodes[ni].file].crate_name == file.crate_name)
        .collect()
}

fn resolve_path(
    segments: &[String],
    file: &FileIr,
    by_qual: &HashMap<String, usize>,
    suffix2: &HashMap<String, Vec<usize>>,
    files: &[FileIr],
) -> Vec<usize> {
    // 1. Expand a leading import alias (`Pipe::submit` → full path).
    for imp in &file.imports {
        if imp.alias == segments[0] {
            let mut full = imp.segments.clone();
            full.extend(segments[1..].iter().cloned());
            if let Some(&ni) = by_qual.get(&full.join("::")) {
                return vec![ni];
            }
        }
    }
    // 2. Exact qualified name.
    let joined = segments.join("::");
    if let Some(&ni) = by_qual.get(&joined) {
        return vec![ni];
    }
    // 3. Same-module prefix (`helper_mod::f()` for a sibling module).
    let prefixed = format!("{}::{}", file.module_prefix(), joined);
    if let Some(&ni) = by_qual.get(&prefixed) {
        return vec![ni];
    }
    // 4. Suffix index on the last two segments, then narrow by the full
    //    written path.
    if segments.len() >= 2 {
        let key = segments[segments.len() - 2..].join("::");
        if let Some(cands) = suffix2.get(&key) {
            let narrowed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&ni| {
                    let n = node_of(files, ni);
                    qual_matches(n, &joined) || n == joined
                })
                .collect();
            if !narrowed.is_empty() {
                return narrowed;
            }
            return cands.clone();
        }
    }
    Vec::new()
}

/// Qual of node `ni` given the flat enumeration order used by `build`.
fn node_of(files: &[FileIr], ni: usize) -> &str {
    let mut k = ni;
    for f in files {
        if k < f.fns.len() {
            return &f.fns[k].qual;
        }
        k -= f.fns.len();
    }
    ""
}

// ───────────────────────── panic-freedom pass ─────────────────────────

/// Walks the call graph from `roots` (qual-suffix patterns) and reports
/// every reachable non-test fn containing an unsuppressed panic site or
/// index-arithmetic site, with the call chain from the root.
pub fn panic_freedom(files: &[FileIr], graph: &CallGraph, roots: &[&str]) -> Vec<Finding> {
    let n = graph.nodes.len();
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut root_of: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    for pat in roots {
        for ni in graph.nodes_matching(files, pat) {
            let node = graph.nodes[ni];
            if files[node.file].fns[node.fun].is_test || root_of[ni].is_some() {
                continue;
            }
            root_of[ni] = Some(ni);
            queue.push_back(ni);
        }
    }
    while let Some(ni) = queue.pop_front() {
        for e in &graph.edges[ni] {
            let c = graph.nodes[e.callee];
            if files[c.file].fns[c.fun].is_test || root_of[e.callee].is_some() {
                continue;
            }
            root_of[e.callee] = root_of[ni];
            parent[e.callee] = Some((ni, e.line));
            queue.push_back(e.callee);
        }
    }

    let mut findings = Vec::new();
    for (ni, &r) in root_of.iter().enumerate() {
        let Some(root) = r else { continue };
        let node = graph.nodes[ni];
        let file = &files[node.file];
        let f = &file.fns[node.fun];
        if f.allow_panic_freedom {
            continue;
        }
        let mut parts: Vec<String> = Vec::new();
        let mut first_line = u32::MAX;
        let mut by_kind: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        for p in f.panics.iter().filter(|p| !p.allowed) {
            by_kind.entry(p.kind.name()).or_default().push(p.line);
            first_line = first_line.min(p.line);
        }
        let idx_lines: Vec<u32> = f
            .indexes
            .iter()
            .filter(|s| !s.allowed)
            .map(|s| s.line)
            .collect();
        if let Some(&l) = idx_lines.first() {
            first_line = first_line.min(l);
        }
        for (k, lines) in &by_kind {
            parts.push(format!("{} at line(s) {}", k, join_lines(lines)));
        }
        if !idx_lines.is_empty() {
            parts.push(format!(
                "index arithmetic at line(s) {}",
                join_lines(&idx_lines)
            ));
        }
        if parts.is_empty() {
            continue;
        }
        let root_qual = {
            let rn = graph.nodes[root];
            files[rn.file].fns[rn.fun].qual.clone()
        };
        findings.push(Finding {
            rule: Rule::PanicFreedom,
            path: file.path.clone(),
            line: if first_line == u32::MAX {
                f.line
            } else {
                first_line
            },
            fun: f.qual.clone(),
            message: format!(
                "reachable from `{}` without a panic-freedom justification: {}",
                root_qual,
                parts.join("; ")
            ),
            chain: chain_to(files, graph, &parent, root, ni),
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

fn join_lines(lines: &[u32]) -> String {
    const MAX: usize = 6;
    let mut s: Vec<String> = lines.iter().take(MAX).map(u32::to_string).collect();
    if lines.len() > MAX {
        s.push(format!("+{} more", lines.len() - MAX));
    }
    s.join(", ")
}

/// Reconstructs the root→target hop list from BFS parent pointers.
fn chain_to(
    files: &[FileIr],
    graph: &CallGraph,
    parent: &[Option<(usize, u32)>],
    root: usize,
    target: usize,
) -> Vec<ChainHop> {
    let mut rev = Vec::new();
    let mut cur = target;
    loop {
        let n = graph.nodes[cur];
        let f = &files[n.file].fns[n.fun];
        match parent[cur] {
            Some((pred, line)) if cur != root => {
                rev.push(ChainHop {
                    qual: f.qual.clone(),
                    path: files[graph.nodes[pred].file].path.clone(),
                    line,
                });
                cur = pred;
            }
            _ => {
                rev.push(ChainHop {
                    qual: f.qual.clone(),
                    path: files[n.file].path.clone(),
                    line: f.line,
                });
                break;
            }
        }
    }
    rev.reverse();
    rev
}

// ───────────────────────── unsafe-audit pass ─────────────────────────

/// Audits every `unsafe` block and `unsafe impl`: a `// SAFETY:` comment
/// must be attached, and when the comment states backticked bound names,
/// at least one must be visible in the enclosing scope (fn idents for
/// blocks, file idents for impls) — a comment naming nothing in scope has
/// drifted from the code it justifies.
pub fn unsafe_audit(files: &[FileIr]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for u in &file.item_unsafes {
            audit_one(file, u, None, &mut findings);
        }
        for f in file.fns.iter().filter(|f| !f.is_test) {
            for u in &f.unsafes {
                audit_one(file, u, Some(f), &mut findings);
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

fn audit_one(
    file: &FileIr,
    u: &UnsafeIr,
    f: Option<&crate::ir::FnIr>,
    findings: &mut Vec<Finding>,
) {
    if u.allowed {
        return;
    }
    let what = match u.kind {
        UnsafeKind::Block => "unsafe block",
        UnsafeKind::Impl => "unsafe impl",
    };
    let fun = f.map(|f| f.qual.clone()).unwrap_or_default();
    if u.safety.is_none() {
        findings.push(Finding {
            rule: Rule::UnsafeAudit,
            path: file.path.clone(),
            line: u.line,
            fun,
            message: format!("{what} without a `// SAFETY:` comment"),
            chain: Vec::new(),
        });
        return;
    }
    if u.names.is_empty() {
        return; // comment exists, states no checkable names
    }
    let in_scope = |name: &str| {
        let last = name.rsplit("::").next().unwrap_or(name);
        f.is_some_and(|f| f.idents.binary_search_by(|i| i.as_str().cmp(last)).is_ok())
            || file
                .idents
                .binary_search_by(|i| i.as_str().cmp(last))
                .is_ok()
    };
    if !u.names.iter().any(|n| in_scope(n)) {
        findings.push(Finding {
            rule: Rule::UnsafeAudit,
            path: file.path.clone(),
            line: u.line,
            fun,
            message: format!(
                "{what} SAFETY comment names [{}] but none appear in the enclosing scope",
                u.names.join(", ")
            ),
            chain: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph(files: &[FileIr]) -> CallGraph {
        CallGraph::build(files)
    }

    #[test]
    fn qual_suffix_matching_respects_segment_boundaries() {
        assert!(qual_matches(
            "seal_nn::plan::CompiledModel::execute_into",
            "CompiledModel::execute_into"
        ));
        assert!(qual_matches(
            "seal_serve::server::worker_loop",
            "worker_loop"
        ));
        assert!(!qual_matches(
            "seal_serve::server::my_worker_loop",
            "worker_loop"
        ));
    }

    #[test]
    fn bare_calls_resolve_same_module_then_imports() {
        let a = parse_file(
            "demo/src/lib.rs",
            "use other::dep::helper;\nfn top() { local(); helper(); }\nfn local() {}\n",
        );
        let b = parse_file("other/src/dep.rs", "pub fn helper() {}\n");
        let files = vec![a, b];
        let g = graph(&files);
        let top = g.node_by_qual("demo::top").unwrap();
        let callees: Vec<&str> = g.edges[top]
            .iter()
            .map(|e| {
                let n = g.nodes[e.callee];
                files[n.file].fns[n.fun].qual.as_str()
            })
            .collect();
        assert!(callees.contains(&"demo::local"));
        assert!(callees.contains(&"other::dep::helper"));
    }

    #[test]
    fn method_calls_over_approximate_to_same_name_methods() {
        let a = parse_file("a/src/lib.rs", "fn go(x: W) { x.fire(); }\n");
        let b = parse_file(
            "b/src/lib.rs",
            "struct W;\nimpl W {\n  pub fn fire(&self) { panic!(\"boom\"); }\n}\n",
        );
        let files = vec![a, b];
        let g = graph(&files);
        let go = g.node_by_qual("a::go").unwrap();
        assert_eq!(g.edges[go].len(), 1);
    }

    #[test]
    fn panic_freedom_reports_reachable_sites_with_chain() {
        let src = "fn worker_loop() { step(); }\nfn step() { deep(); }\nfn deep(v: &[u32]) { v.first().unwrap(); }\nfn unreached() { panic!(\"never\"); }\n";
        let files = vec![parse_file("a/src/lib.rs", src)];
        let g = graph(&files);
        let findings = panic_freedom(&files, &g, &["worker_loop"]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.fun, "a::deep");
        let chain: Vec<&str> = f.chain.iter().map(|h| h.qual.as_str()).collect();
        assert_eq!(chain, vec!["a::worker_loop", "a::step", "a::deep"]);
    }

    #[test]
    fn panic_freedom_respects_fn_level_allow() {
        let src = "fn worker_loop() { step(); }\n// seal-lint: allow(panic-freedom) — justified\nfn step() { x.unwrap(); }\n";
        let files = vec![parse_file("a/src/lib.rs", src)];
        let g = graph(&files);
        assert!(panic_freedom(&files, &g, &["worker_loop"]).is_empty());
    }

    #[test]
    fn unsafe_audit_flags_missing_and_disconnected_comments() {
        let src = "fn f(len: usize) {\n  unsafe { go(len) }\n}\nfn g(len: usize) {\n  // SAFETY: `phantom_thing` bounds this.\n  unsafe { go(len) }\n}\nfn h(len: usize) {\n  // SAFETY: `len` is bounded above.\n  unsafe { go(len) }\n}\n";
        let files = vec![parse_file("a/src/lib.rs", src)];
        let findings = unsafe_audit(&files);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("without"));
        assert!(findings[1].message.contains("phantom_thing"));
    }
}
