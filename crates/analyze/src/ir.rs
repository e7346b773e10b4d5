//! Intermediate representation for the deep analysis passes.
//!
//! [`FileIr`] is what the recursive-descent parser ([`crate::parser`])
//! produces for one source file: the file's crate/module coordinates, its
//! `use` imports, and one [`FnIr`] per function with every call site,
//! panic site, index-arithmetic site and `unsafe` region recorded. The
//! call-graph ([`crate::callgraph`]) and taint ([`crate::taint`]) passes
//! consume a slice of `FileIr`s and never re-read source text.

use std::path::Path;

/// How a call expression names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `f(…)` — a bare name resolved through module scope and imports.
    Bare,
    /// `a::b::f(…)` — an explicit path (with `Self` already substituted).
    Path,
    /// `x.f(…)` — a method call; the receiver type is unknown, so
    /// resolution over-approximates to every same-name inherent method.
    Method,
    /// `f!(…)` — a macro invocation (not resolved; panic macros are
    /// recorded separately as [`PanicSite`]s).
    Macro,
}

/// One call expression inside a function body (closure bodies are
/// attributed to the enclosing function — for reachability that is the
/// conservative choice: the closure's effects happen wherever it is
/// eventually invoked, and its definer is the one fn we can name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallIr {
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Shape of the call expression.
    pub kind: CallKind,
    /// Path segments naming the callee. For [`CallKind::Bare`],
    /// [`CallKind::Method`] and [`CallKind::Macro`] this is one segment.
    pub segments: Vec<String>,
}

/// The kind of construct a [`PanicSite`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `todo!` / `unimplemented!` / `unreachable!`.
    PanicMacro,
    /// `assert!` / `assert_eq!` / `assert_ne!` (`debug_assert*` is
    /// excluded: it vanishes in release builds, the profile serving runs).
    AssertMacro,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
}

impl PanicKind {
    /// Human/JSON label.
    pub fn name(self) -> &'static str {
        match self {
            PanicKind::PanicMacro => "panic!",
            PanicKind::AssertMacro => "assert!",
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
        }
    }
}

/// A potential panic inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: u32,
    /// What kind of panic construct.
    pub kind: PanicKind,
    /// `true` when a `seal-lint: allow(panic-freedom)` directive covers
    /// this line.
    pub allowed: bool,
}

/// A slice/array index expression whose index contains arithmetic
/// (`+`, `-`, `*`) — the shape of off-by-one bugs the panic-freedom pass
/// exists to surface. Plain `v[i]` is not recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSite {
    /// 1-based source line of the opening bracket.
    pub line: u32,
    /// `true` when an `allow(panic-freedom)` directive covers this line.
    pub allowed: bool,
}

/// What an [`UnsafeIr`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// An `unsafe { … }` block.
    Block,
    /// An `unsafe impl … for …` item.
    Impl,
}

/// One `unsafe` region and the `// SAFETY:` evidence attached to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeIr {
    /// 1-based source line of the `unsafe` keyword.
    pub line: u32,
    /// Block or impl.
    pub kind: UnsafeKind,
    /// The `SAFETY:` comment text (from the marker to the end of the
    /// contiguous comment run), if one precedes the region or opens it.
    pub safety: Option<String>,
    /// Backticked identifier-like names stated in the comment
    /// (`` `len` ``, `` `KernelMode::degrade` `` → `len`,
    /// `KernelMode::degrade`). The audit pass checks at least one is
    /// visible in the enclosing scope.
    pub names: Vec<String>,
    /// `true` when an `allow(unsafe-audit)` directive covers this line.
    pub allowed: bool,
}

/// One function (free fn, inherent/trait method, or nested fn).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnIr {
    /// Bare name.
    pub name: String,
    /// Fully qualified name: `crate::module::…::[Type::]name`.
    pub qual: String,
    /// Impl/trait type the fn is a method of, if any.
    pub type_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` region or carrying a `#[test]`-ish
    /// attribute — excluded from all deep passes.
    pub is_test: bool,
    /// `seal-lint: allow(panic-freedom)` on the declaration suppresses
    /// every site in the body (the fn-granular justification form).
    pub allow_panic_freedom: bool,
    /// `seal-lint: allow(encryption-boundary)` on the declaration.
    pub allow_taint: bool,
    /// Call sites, in source order.
    pub calls: Vec<CallIr>,
    /// Panic sites, in source order.
    pub panics: Vec<PanicSite>,
    /// Index-arithmetic sites, in source order.
    pub indexes: Vec<IndexSite>,
    /// `unsafe` blocks in the body, in source order.
    pub unsafes: Vec<UnsafeIr>,
    /// Distinct identifiers appearing in the signature or body (sorted) —
    /// the scope the unsafe-audit pass checks SAFETY-stated names against.
    pub idents: Vec<String>,
}

/// One `use` declaration leaf: `use a::b::{c as d}` yields segments
/// `[a, b, c]` bound to alias `d`; glob imports bind alias `*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// Full path segments.
    pub segments: Vec<String>,
    /// Local binding name (`*` for glob imports).
    pub alias: String,
}

/// Parsed representation of one source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileIr {
    /// Path as reported (workspace-relative, so findings are
    /// machine-independent).
    pub path: String,
    /// Crate identifier (`seal_tensor`, `seal` for the root package).
    pub crate_name: String,
    /// Module path inside the crate (empty for `lib.rs`).
    pub module_path: Vec<String>,
    /// `use` imports, flattened to leaves.
    pub imports: Vec<UsePath>,
    /// Functions, in source order (nested fns follow their parent).
    pub fns: Vec<FnIr>,
    /// Item-level `unsafe impl`s (fn-body unsafe blocks live on [`FnIr`]).
    pub item_unsafes: Vec<UnsafeIr>,
    /// Distinct identifiers anywhere in the file (sorted) — fallback
    /// scope for SAFETY names that reference file-level items.
    pub idents: Vec<String>,
}

impl FileIr {
    /// `crate::module::path` prefix for qualifying this file's items.
    pub fn module_prefix(&self) -> String {
        let mut s = self.crate_name.clone();
        for m in &self.module_path {
            s.push_str("::");
            s.push_str(m);
        }
        s
    }
}

/// One hop of a reported call chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Fully qualified fn name.
    pub qual: String,
    /// File the fn lives in.
    pub path: String,
    /// Line: the fn's declaration for the first hop, the call site in the
    /// previous hop's body for subsequent hops.
    pub line: u32,
}

/// One finding of a `seal-analyze` pass, with its evidence chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which pass fired.
    pub rule: crate::lint::Rule,
    /// File of the offending fn, loop, unsafe region or directive.
    pub path: String,
    /// 1-based line of the primary site.
    pub line: u32,
    /// Fully qualified fn (empty for token findings and item-level
    /// unsafe impls).
    pub fun: String,
    /// Human-readable description.
    pub message: String,
    /// Call chain from root/source to the site (empty unless the pass
    /// walks the call graph).
    pub chain: Vec<ChainHop>,
}

impl std::fmt::Display for Finding {
    /// `path:line: [rule] fun: message`, then one indented line per hop
    /// of the call chain.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] ", self.path, self.line, self.rule.name())?;
        if !self.fun.is_empty() {
            write!(f, "{}: ", self.fun)?;
        }
        write!(f, "{}", self.message)?;
        for (i, hop) in self.chain.iter().enumerate() {
            let arrow = if i == 0 { "   " } else { "-> " };
            write!(f, "\n    {arrow}{} ({}:{})", hop.qual, hop.path, hop.line)?;
        }
        Ok(())
    }
}

/// Derives `(crate_name, module_path)` from a workspace-relative path.
///
/// `crates/tensor/src/ops/matmul.rs` → `(seal_tensor, [ops, matmul])`;
/// the root package's `src/bin/figure.rs` → `(seal, [bin, figure])`;
/// `fixture_dir/src/lib.rs` → `(fixture_dir, [])`. Files outside any
/// `src/` tree (single-file fixtures) become crate `crate` with the file
/// stem as the module.
pub fn crate_and_module(path: &Path) -> (String, Vec<String>) {
    let comps: Vec<String> = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let src_pos = comps.iter().position(|c| c == "src");
    let (crate_name, rest) = match src_pos {
        Some(i) => {
            let name = if i >= 2 && comps[i - 2] == "crates" {
                format!("seal_{}", sanitize(&comps[i - 1]))
            } else if i == 0 {
                "seal".to_string()
            } else {
                sanitize(&comps[i - 1])
            };
            (name, &comps[i + 1..])
        }
        None => {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            return ("crate".to_string(), vec![sanitize(&stem)]);
        }
    };
    let mut module: Vec<String> = rest
        .iter()
        .map(|c| sanitize(c.trim_end_matches(".rs")))
        .collect();
    if matches!(
        module.last().map(String::as_str),
        Some("lib" | "mod" | "main")
    ) {
        module.pop();
    }
    (crate_name, module)
}

fn sanitize(s: &str) -> String {
    s.replace('-', "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn crate_and_module_derivation() {
        let cases: [(&str, &str, &[&str]); 6] = [
            (
                "crates/tensor/src/ops/matmul.rs",
                "seal_tensor",
                &["ops", "matmul"],
            ),
            ("crates/nn/src/lib.rs", "seal_nn", &[]),
            ("crates/serve/src/server.rs", "seal_serve", &["server"]),
            ("src/main.rs", "seal", &[]),
            ("bypass/src/lib.rs", "bypass", &[]),
            ("bad_panics.rs", "crate", &["bad_panics"]),
        ];
        for (p, want_crate, want_mod) in cases {
            let (c, m) = crate_and_module(&PathBuf::from(p));
            assert_eq!(c, want_crate, "{p}");
            assert_eq!(
                m,
                want_mod.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                "{p}"
            );
        }
    }

    #[test]
    fn module_prefix_joins_with_double_colon() {
        let f = FileIr {
            path: "crates/tensor/src/ops/matmul.rs".into(),
            crate_name: "seal_tensor".into(),
            module_path: vec!["ops".into(), "matmul".into()],
            imports: vec![],
            fns: vec![],
            item_unsafes: vec![],
            idents: vec![],
        };
        assert_eq!(f.module_prefix(), "seal_tensor::ops::matmul");
    }
}
