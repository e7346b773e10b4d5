//! The lint rules, driven by the token stream of [`crate::lexer`].
//!
//! Scope policy (what "library code" means here):
//!
//! * only files under a crate's `src/` are linted; `tests/`, `benches/`,
//!   `examples/`, `fixtures/` and `src/bin/` are harness/test surface and
//!   skipped by the workspace walker;
//! * `#[cfg(test)]` items (and their whole blocks) are skipped;
//! * a finding on a line carrying — or immediately below — a
//!   `// seal-lint: allow(<rule>)` directive is suppressed.

use crate::lexer::{lex, Tok, TokKind};
use crate::report::Finding;

/// Stable rule identifiers, as used in `allow(...)` directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `.unwrap()` in library code.
    Unwrap,
    /// `.expect(…)` in library code.
    Expect,
    /// `panic!(…)` in library code.
    Panic,
    /// `todo!(…)` anywhere.
    Todo,
    /// `unimplemented!(…)` anywhere.
    Unimplemented,
    /// Truncating `as` cast in a crypto hot-path file.
    TruncatingCast,
    /// `pub fn` without a doc comment.
    MissingDocs,
    /// `.lock().unwrap()`-style panic on a synchronisation primitive
    /// (`lock`/`join`/`read`/`write` followed by `unwrap`/`expect`).
    LockUnwrap,
    /// `thread::spawn` / `thread::scope` outside the `seal-pool` runtime
    /// crate — all thread creation must go through the audited pool.
    ThreadSpawn,
    /// Retry loop without backoff: a `loop`/`while` body that matches on
    /// `Err` and either sleeps a *constant* delay between attempts or
    /// retries (`continue`) without sleeping at all.
    RetryBackoff,
    /// Raw syscall surface (`extern "C"` declarations, bare calls to the
    /// libc-level socket/epoll symbols) outside `crates/net/src/sys.rs` —
    /// the one audited home for the hand-rolled syscall shim.
    RawSyscall,
    /// Heap allocation (`Vec::new`, `vec!`, `.to_vec()`, `.collect()`) in
    /// an inference hot-path file — the blocked tensor kernels and the
    /// compiled-plan executor, whose steady-state contract is zero
    /// allocation (caller-provided buffers, grow-only thread-local
    /// scratch, the plan's activation arena).
    HotPathAlloc,
    /// Deep pass: weight-derived data reaching a memory-traffic sink
    /// (`EnginePipeline::submit*`, gpusim trace emission) without passing
    /// through `CtrCipher`/lane pricing. Reported with the full call chain.
    EncryptionBoundary,
    /// Deep pass: `panic!`/`unwrap`/`expect`/index-arithmetic reachable
    /// from a serve/plan root (`worker_loop`, `execute_into`) in non-test
    /// code without a justified `allow` directive.
    PanicFreedom,
    /// Deep pass: `unsafe` block or `unsafe impl` without a `// SAFETY:`
    /// comment whose stated bound names appear in the enclosing scope.
    UnsafeAudit,
}

impl Rule {
    /// The identifier used in diagnostics and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Unwrap => "unwrap",
            Rule::Expect => "expect",
            Rule::Panic => "panic",
            Rule::Todo => "todo",
            Rule::Unimplemented => "unimplemented",
            Rule::TruncatingCast => "truncating-cast",
            Rule::MissingDocs => "missing-docs",
            Rule::LockUnwrap => "lock-unwrap",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::RetryBackoff => "retry-backoff",
            Rule::RawSyscall => "raw-syscall",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::EncryptionBoundary => "encryption-boundary",
            Rule::PanicFreedom => "panic-freedom",
            Rule::UnsafeAudit => "unsafe-audit",
        }
    }

    /// Parses a rule name (the inverse of [`name`](Self::name)).
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "unwrap" => Rule::Unwrap,
            "expect" => Rule::Expect,
            "panic" => Rule::Panic,
            "todo" => Rule::Todo,
            "unimplemented" => Rule::Unimplemented,
            "truncating-cast" => Rule::TruncatingCast,
            "missing-docs" => Rule::MissingDocs,
            "lock-unwrap" => Rule::LockUnwrap,
            "thread-spawn" => Rule::ThreadSpawn,
            "retry-backoff" => Rule::RetryBackoff,
            "raw-syscall" => Rule::RawSyscall,
            "hot-path-alloc" => Rule::HotPathAlloc,
            "encryption-boundary" => Rule::EncryptionBoundary,
            "panic-freedom" => Rule::PanicFreedom,
            "unsafe-audit" => Rule::UnsafeAudit,
            _ => return None,
        })
    }
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 12] = [
    Rule::Unwrap,
    Rule::Expect,
    Rule::Panic,
    Rule::Todo,
    Rule::Unimplemented,
    Rule::TruncatingCast,
    Rule::MissingDocs,
    Rule::LockUnwrap,
    Rule::ThreadSpawn,
    Rule::RetryBackoff,
    Rule::RawSyscall,
    Rule::HotPathAlloc,
];

/// The call-graph passes, in reporting order. These run on the parsed IR
/// (`crate::callgraph`, `crate::taint`), not in the token-lint driver, but
/// share the `Rule` namespace so `allow(...)` directives and baselines use
/// one vocabulary.
pub const DEEP_RULES: [Rule; 3] = [
    Rule::EncryptionBoundary,
    Rule::PanicFreedom,
    Rule::UnsafeAudit,
];

/// Zero-argument methods whose `Result` encodes a *peer failure* (poisoned
/// lock, panicked thread) rather than a local error: unwrapping them turns
/// one thread's failure into a panic cascade across the runtime.
const SYNC_ACQUIRERS: [&str; 4] = ["lock", "join", "read", "write"];

/// Integer types an `as` cast can silently truncate to on the 32-bit-plus
/// words the crypto kernels move around.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Files whose inner loops feed the AES engine: a truncating cast here is
/// a correctness smell (dropped counter/address bits), so the cast rule
/// applies only to them.
const CRYPTO_HOT_PATHS: [&str; 3] = ["aes.rs", "ctr.rs", "engine.rs"];

/// The libc-level symbols the hand-rolled network stack declares; a bare
/// call to one of these (not `.method()`, not a `path::` segment, not an
/// `fn` declaration) is direct raw-syscall use.
const SYSCALL_NAMES: [&str; 12] = [
    "socket",
    "bind",
    "listen",
    "accept4",
    "epoll_create1",
    "epoll_ctl",
    "epoll_wait",
    "setsockopt",
    "getsockname",
    "pipe2",
    "fcntl",
    "syscall",
];

/// Returns `true` when `path` is the audited syscall shim
/// `crates/net/src/sys.rs` — the single file where `extern "C"`
/// declarations and direct syscall invocations are sanctioned, and the
/// one place the [`Rule::RawSyscall`] rule does not apply.
pub fn is_net_sys(path: &str) -> bool {
    path.replace('\\', "/").ends_with("crates/net/src/sys.rs")
}

/// Returns `true` when `path` belongs to the `seal-pool` runtime crate —
/// the single audited home for thread creation, and the one place the
/// [`Rule::ThreadSpawn`] rule does not apply.
pub fn is_pool_runtime(path: &str) -> bool {
    path.replace('\\', "/").contains("crates/pool/")
}

/// Returns `true` when `path` belongs to the inference hot path the
/// [`Rule::HotPathAlloc`] rule watches: the blocked tensor kernels under
/// `tensor/src/ops/` (including the int8 quantized GEMM in
/// `ops/quant.rs`) and the compiled-plan executor `nn/src/plan.rs`.
/// Sanctioned allocations there (one-time compile/pack steps, grow-only
/// scratch) carry explicit `allow(hot-path-alloc)` directives, which
/// doubles as documentation of *why* each one is off the steady-state
/// path.
pub fn is_inference_hot_path(path: &str) -> bool {
    let normalized = path.replace('\\', "/");
    normalized.contains("/tensor/src/ops/") || normalized.ends_with("/nn/src/plan.rs")
}

/// Returns `true` when `path` is one of the crypto hot-path files the
/// truncating-cast rule watches.
pub fn is_crypto_hot_path(path: &str) -> bool {
    let normalized = path.replace('\\', "/");
    if !normalized.contains("crypto") {
        return false;
    }
    let file = normalized.rsplit('/').next().unwrap_or(&normalized);
    CRYPTO_HOT_PATHS.contains(&file)
}

/// Lints one file's source text. `path` is used for reporting and for the
/// hot-path file selection of [`Rule::TruncatingCast`].
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let toks = lex(source);
    let suppressed = test_region_lines(&toks);
    let allows = allow_directives(&toks);
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_trivia()).collect();

    let mut findings = Vec::new();
    let mut emit = |rule: Rule, line: u32, message: String| {
        if suppressed.contains(&line) {
            return;
        }
        if let Some(rules) = allows.get(&line) {
            if rules.contains(&rule) {
                return;
            }
        }
        findings.push(Finding {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    panic_rules(&code, &mut emit);
    if is_crypto_hot_path(path) {
        cast_rule(&code, &mut emit);
    }
    if is_inference_hot_path(path) {
        hot_path_alloc_rule(&code, &mut emit);
    }
    if !is_pool_runtime(path) {
        thread_spawn_rule(&code, &mut emit);
    }
    if !is_net_sys(path) {
        raw_syscall_rule(&code, &mut emit);
    }
    retry_backoff_rule(&code, &mut emit);
    missing_docs_rule(&toks, &suppressed, &mut emit);

    findings.sort_by_key(|f| f.line);
    findings
}

/// Lines covered by `#[cfg(test)]`-gated items, including the attribute
/// lines themselves.
pub(crate) fn test_region_lines(toks: &[Tok]) -> std::collections::BTreeSet<u32> {
    let code: Vec<(usize, &Tok)> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_trivia())
        .collect();
    let mut lines = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < code.len() {
        if let Some(after_attr) = cfg_test_attr_end(&code, i) {
            let start_line = code[i].1.line;
            // Skip to the gated item's opening brace and match it — or
            // stop where an item with no brace of its own ends: a `;`
            // (`use`, `mod foo;`, a statement), a `,` (struct field,
            // enum variant, match arm) or the *enclosing* item's closer.
            // Only separators outside every bracket count; `<…>` is
            // tracked in the brace-less header so `Map<K, V>` is one item.
            let mut j = after_attr;
            let mut depth = 0usize;
            let mut angle = 0usize;
            let mut end_line = code[j.min(code.len() - 1)].1.line;
            while j < code.len() {
                let t = code[j].1;
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => {
                            if depth == 0 {
                                // Not ours: the gated item ended on the
                                // previous token.
                                break;
                            }
                            depth -= 1;
                            if depth == 0 && t.text == "}" {
                                end_line = t.line;
                                break;
                            }
                        }
                        ";" | "," if depth == 0 && angle == 0 => {
                            end_line = t.line;
                            break;
                        }
                        "<" if depth == 0 => angle += 1,
                        // `->` and `=>` are not closers.
                        ">" if depth == 0 && !matches!(code[j - 1].1.text.as_str(), "-" | "=") => {
                            angle = angle.saturating_sub(1);
                        }
                        _ => {}
                    }
                }
                end_line = t.line;
                j += 1;
            }
            for l in start_line..=end_line {
                lines.insert(l);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    lines
}

/// If the code tokens at `i` start a `#[cfg(test)]`-style attribute
/// (any `cfg` attribute mentioning `test` outside a `not(...)`), returns
/// the index just past its closing `]`.
fn cfg_test_attr_end(code: &[(usize, &Tok)], i: usize) -> Option<usize> {
    if code[i].1.text != "#" || code.get(i + 1)?.1.text != "[" {
        return None;
    }
    if code.get(i + 2)?.1.text != "cfg" {
        return None;
    }
    // Scan to the matching `]`, tracking whether `test` appears and
    // whether we are inside a `not(...)` group.
    let mut depth = 0usize;
    let mut not_depth: Option<usize> = None;
    let mut has_test = false;
    let mut j = i + 1;
    while j < code.len() {
        let t = code[j].1;
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") => depth += 1,
            (TokKind::Punct, ")") => {
                depth -= 1;
                if not_depth == Some(depth) {
                    not_depth = None;
                }
            }
            (TokKind::Ident, "not") if not_depth.is_none() => not_depth = Some(depth),
            (TokKind::Ident, "test") if not_depth.is_none() => has_test = true,
            (TokKind::Punct, "]") if depth == 0 => {
                return if has_test { Some(j + 1) } else { None };
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses `seal-lint: allow(rule, rule…)` directives out of comments. The
/// returned map covers the comment's own line **and** the line below it
/// (so a directive can sit on its own line above the finding).
pub(crate) fn allow_directives(toks: &[Tok]) -> std::collections::BTreeMap<u32, Vec<Rule>> {
    let mut map: std::collections::BTreeMap<u32, Vec<Rule>> = std::collections::BTreeMap::new();
    for t in toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        let Some(at) = t.text.find("seal-lint:") else {
            continue;
        };
        let rest = &t.text[at + "seal-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            continue;
        };
        let inner = &rest[open + "allow(".len()..open + close];
        let rules: Vec<Rule> = inner
            .split(',')
            .filter_map(|s| Rule::from_name(s.trim()))
            .collect();
        if rules.is_empty() {
            continue;
        }
        // Comments can span lines (block comments); anchor on the last
        // line so `line + 1` is the first code line below the comment.
        let last_line = t.line + t.text.matches('\n').count() as u32;
        for l in [last_line, last_line + 1] {
            map.entry(l).or_default().extend(rules.iter().copied());
        }
    }
    map
}

/// `.unwrap()` / `.expect(` / `panic!` / `todo!` / `unimplemented!`.
fn panic_rules(code: &[&Tok], emit: &mut impl FnMut(Rule, u32, String)) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && code[i - 1].kind == TokKind::Punct && code[i - 1].text == ".";
        let next_is = |s: &str| {
            code.get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == s)
        };
        // `.lock().unwrap()` / `.join().expect(…)` and friends: the receiver
        // is a zero-argument call of a synchronisation acquirer, i.e. the
        // four code tokens before `unwrap`/`expect` are `<acquirer> ( ) .`.
        let sync_receiver = || -> Option<&'static str> {
            if i < 4 {
                return None;
            }
            let (recv, open, close) = (code[i - 4], code[i - 3], code[i - 2]);
            (recv.kind == TokKind::Ident
                && open.kind == TokKind::Punct
                && open.text == "("
                && close.kind == TokKind::Punct
                && close.text == ")")
                .then(|| SYNC_ACQUIRERS.iter().find(|a| **a == recv.text))
                .flatten()
                .copied()
        };
        match t.text.as_str() {
            "unwrap" | "expect" if prev_dot && next_is("(") => {
                if let Some(acq) = sync_receiver() {
                    emit(
                        Rule::LockUnwrap,
                        t.line,
                        format!(
                            "`.{acq}().{}(…)` panics on a poisoned/failed peer — recover \
                             (`unwrap_or_else(|e| e.into_inner())`) or return an error",
                            t.text
                        ),
                    );
                } else if t.text == "unwrap" {
                    emit(
                        Rule::Unwrap,
                        t.line,
                        "`.unwrap()` in library code — propagate the error instead".into(),
                    );
                } else {
                    emit(
                        Rule::Expect,
                        t.line,
                        "`.expect(…)` in library code — propagate the error instead".into(),
                    );
                }
            }
            "panic" if next_is("!") => emit(
                Rule::Panic,
                t.line,
                "`panic!` in library code — return a typed error instead".into(),
            ),
            "todo" if next_is("!") => {
                emit(Rule::Todo, t.line, "`todo!` left in code".into())
            }
            "unimplemented" if next_is("!") => emit(
                Rule::Unimplemented,
                t.line,
                "`unimplemented!` left in code".into(),
            ),
            _ => {}
        }
    }
}

/// `thread::spawn(` / `thread::scope(` outside `crates/pool/`: raw thread
/// creation bypasses the pool's determinism contract (fixed chunk
/// boundaries, panic-safe join, `SEAL_THREADS` override), so library code
/// must use `seal_pool::{parallel_for, scoped_map, spawn_worker}` instead.
fn thread_spawn_rule(code: &[&Tok], emit: &mut impl FnMut(Rule, u32, String)) {
    for (i, t) in code.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "thread") {
            continue;
        }
        // The lexer emits `::` as two `:` puncts: match `thread : : <fn>`.
        let colons = code
            .get(i + 1)
            .zip(code.get(i + 2))
            .is_some_and(|(a, b)| {
                a.kind == TokKind::Punct
                    && a.text == ":"
                    && b.kind == TokKind::Punct
                    && b.text == ":"
            });
        if !colons {
            continue;
        }
        let Some(callee) = code.get(i + 3) else {
            continue;
        };
        if callee.kind == TokKind::Ident && matches!(callee.text.as_str(), "spawn" | "scope") {
            let replacement = if callee.text == "spawn" {
                "`seal_pool::spawn_worker` (or `seal_pool::parallel_for`)"
            } else {
                "`seal_pool::scoped_map`"
            };
            emit(
                Rule::ThreadSpawn,
                callee.line,
                format!(
                    "`thread::{}` outside the seal-pool runtime — use {replacement} \
                     so threading stays deterministic and audited",
                    callee.text
                ),
            );
        }
    }
}

/// Raw syscall surface outside the audited `crates/net/src/sys.rs` shim:
/// an `extern "C"` (or any `extern "…"`) declaration, or a *bare* call to
/// one of the libc-level symbols in [`SYSCALL_NAMES`]. Path-qualified
/// calls (`sys::accept_nonblocking(…)`) go through a named, auditable
/// wrapper module and stay clean, as do `.method()` calls (`listener
/// .bind(…)` is std API, not libc) and `fn` declarations themselves.
fn raw_syscall_rule(code: &[&Tok], emit: &mut impl FnMut(Rule, u32, String)) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "extern" {
            // `extern "C" { … }` / `pub extern "C" fn …`: the ABI string
            // right after the keyword is what distinguishes an FFI
            // surface from `extern crate`.
            if code
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Str)
            {
                emit(
                    Rule::RawSyscall,
                    t.line,
                    "`extern \"C\"` declaration outside crates/net/src/sys.rs — \
                     the raw syscall surface must stay in the one audited shim"
                        .into(),
                );
            }
            continue;
        }
        if !SYSCALL_NAMES.contains(&t.text.as_str()) {
            continue;
        }
        let opens_call = code
            .get(i + 1)
            .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
        if !opens_call {
            continue;
        }
        // `.bind(…)` is a method, `sys::listen(…)`/`libc::socket(…)` are
        // path-qualified (the lexer splits `::` into two `:` puncts), and
        // `fn accept4(…)` is a declaration — only a bare call means the
        // raw symbol itself is in scope here.
        let shielded = i > 0 && {
            let p = code[i - 1];
            (p.kind == TokKind::Punct && (p.text == "." || p.text == ":"))
                || (p.kind == TokKind::Ident && p.text == "fn")
        };
        if shielded {
            continue;
        }
        emit(
            Rule::RawSyscall,
            t.line,
            format!(
                "bare call to raw syscall `{}` outside crates/net/src/sys.rs — \
                 go through the audited seal-net sys shim (or a safe wrapper)",
                t.text
            ),
        );
    }
}

/// Heap allocation in inference hot-path files: `Vec::new(…)`, `vec![…]`,
/// `.to_vec()` and `.collect(…)`. The kernels and the plan executor keep
/// a zero-allocation steady state (caller-provided output buffers,
/// grow-only thread-local pack scratch, the plan's activation arena);
/// each sanctioned exception — one-time compile/pack allocations, the
/// lazily-grown scratch declarations themselves — carries an explicit
/// `allow(hot-path-alloc)` directive at the call site.
fn hot_path_alloc_rule(code: &[&Tok], emit: &mut impl FnMut(Rule, u32, String)) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && code[i - 1].kind == TokKind::Punct && code[i - 1].text == ".";
        let next_is = |s: &str| {
            code.get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == s)
        };
        // The lexer emits `::` as two `:` puncts: match `Vec : : new`.
        let vec_new = || {
            code.get(i + 1)
                .zip(code.get(i + 2))
                .zip(code.get(i + 3))
                .is_some_and(|((a, b), c)| {
                    a.kind == TokKind::Punct
                        && a.text == ":"
                        && b.kind == TokKind::Punct
                        && b.text == ":"
                        && c.kind == TokKind::Ident
                        && c.text == "new"
                })
        };
        let flag = |what: &str| {
            format!(
                "{what} allocates in an inference hot path — write into a \
                 caller-provided buffer, the plan arena, or grow-only \
                 thread-local scratch (allow(hot-path-alloc) for sanctioned \
                 compile-time allocations)"
            )
        };
        match t.text.as_str() {
            "vec" if next_is("!") => emit(Rule::HotPathAlloc, t.line, flag("`vec!`")),
            "Vec" if vec_new() => emit(Rule::HotPathAlloc, t.line, flag("`Vec::new`")),
            "to_vec" if prev_dot && next_is("(") => {
                emit(Rule::HotPathAlloc, t.line, flag("`.to_vec()`"))
            }
            "collect" if prev_dot => emit(Rule::HotPathAlloc, t.line, flag("`.collect()`")),
            _ => {}
        }
    }
}

/// `as u8|u16|u32|i8|i16|i32` in crypto hot-path files.
fn cast_rule(code: &[&Tok], emit: &mut impl FnMut(Rule, u32, String)) {
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "as" {
            if let Some(n) = code.get(i + 1) {
                if n.kind == TokKind::Ident && NARROW_INTS.contains(&n.text.as_str()) {
                    emit(
                        Rule::TruncatingCast,
                        t.line,
                        format!(
                            "`as {}` in a crypto hot path can silently drop bits — \
                             use `try_from` or mask explicitly",
                            n.text
                        ),
                    );
                }
            }
        }
    }
}

/// Retry loops that hammer a failing resource. A `loop`/`while` body
/// counts as a retry loop when it matches on `Err` (or calls `is_err`);
/// it is flagged when it sleeps a *constant* delay between attempts, or
/// retries via `continue` without sleeping at all. A variable delay
/// (e.g. `backoff.next_delay()`) passes — that is the accepted idiom.
/// `for` loops are finite iteration, not retry, and bounded respawn
/// loops that fall through to re-enter (no `continue`) are tolerated —
/// the supervisor pattern restarts a worker, it does not poll a resource.
fn retry_backoff_rule(code: &[&Tok], emit: &mut impl FnMut(Rule, u32, String)) {
    struct Fire {
        open: usize,
        close: usize,
        line: u32,
        message: &'static str,
    }
    let mut fires: Vec<Fire> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !(t.kind == TokKind::Ident && (t.text == "loop" || t.text == "while")) {
            continue;
        }
        let Some((open, close)) = loop_body(code, i) else {
            continue;
        };
        let body = &code[open + 1..close];
        let fallible = body
            .iter()
            .any(|b| b.kind == TokKind::Ident && (b.text == "Err" || b.text == "is_err"));
        if !fallible {
            continue;
        }
        let retries = body
            .iter()
            .any(|b| b.kind == TokKind::Ident && b.text == "continue");
        let mut any_sleep = false;
        let mut const_sleep: Option<u32> = None;
        for (j, s) in body.iter().enumerate() {
            let opens_call = body
                .get(j + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
            if !(s.kind == TokKind::Ident && s.text == "sleep" && opens_call) {
                continue;
            }
            any_sleep = true;
            if const_sleep.is_none() && sleep_arg_is_constant(body, j + 1) {
                const_sleep = Some(s.line);
            }
        }
        if let Some(line) = const_sleep {
            fires.push(Fire {
                open,
                close,
                line,
                message: "retry loop sleeps a constant delay between attempts — \
                          back off exponentially (`seal_faults::Backoff`) so retries \
                          do not hammer the failing resource",
            });
        } else if !any_sleep && retries {
            fires.push(Fire {
                open,
                close,
                line: t.line,
                message: "retry loop with no sleep between attempts — busy retry \
                          hammers the failing resource; add exponential backoff \
                          (`seal_faults::Backoff`)",
            });
        }
    }
    // A nested retry loop fires on its own; do not re-report its tokens
    // through every enclosing loop. Keep only innermost fires, then
    // dedupe lines (outer and inner may anchor on the same sleep).
    let mut seen_lines = std::collections::BTreeSet::new();
    for f in &fires {
        let contains_other = fires.iter().any(|g| {
            (g.open, g.close) != (f.open, f.close) && g.open >= f.open && g.close <= f.close
        });
        if !contains_other && seen_lines.insert(f.line) {
            emit(Rule::RetryBackoff, f.line, f.message.into());
        }
    }
}

/// Locates the `{ … }` body of the `loop`/`while` keyword at `kw`:
/// the first brace outside the condition's parens/brackets, matched to
/// its closing brace. Returns code-token indices of both braces.
fn loop_body(code: &[&Tok], kw: usize) -> Option<(usize, usize)> {
    let mut nested = 0usize;
    let mut open = None;
    for (j, t) in code.iter().enumerate().skip(kw + 1) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => nested += 1,
            ")" | "]" => nested = nested.saturating_sub(1),
            "{" if nested == 0 => {
                open = Some(j);
                break;
            }
            ";" if nested == 0 => return None,
            _ => {}
        }
    }
    let open = open?;
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, j));
                }
            }
            _ => {}
        }
    }
    None
}

/// Classifies the argument of a `sleep(…)` call (given the index of its
/// opening paren) as a compile-time-constant delay. Constant means every
/// identifier in the argument is a type/path segment (`std`, `core`,
/// `time`, `thread`, `Duration`, a `from_*` constructor, an
/// uppercase-initial type) or a `SCREAMING_CASE` constant — numeric
/// literals are constant, any other lowercase identifier (a variable or
/// method like `backoff.next_delay()`) makes the delay variable.
fn sleep_arg_is_constant(body: &[&Tok], open: usize) -> bool {
    let mut depth = 0usize;
    let mut saw_any = false;
    for t in body.iter().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return saw_any;
                    }
                }
                _ => {}
            }
            continue;
        }
        if depth == 0 {
            continue;
        }
        saw_any = true;
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text.as_str();
        let path_segment = matches!(s, "std" | "core" | "time" | "thread" | "Duration")
            || s.starts_with("from_")
            || s.starts_with(|c: char| c.is_ascii_uppercase());
        let screaming = s
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
        if !(path_segment || screaming) {
            return false;
        }
    }
    false
}

/// `pub fn` (plain `pub`, not `pub(crate)`/`pub(super)`) without an
/// immediately preceding doc comment. Attributes between the docs and the
/// `fn` are allowed.
fn missing_docs_rule(
    toks: &[Tok],
    suppressed: &std::collections::BTreeSet<u32>,
    emit: &mut impl FnMut(Rule, u32, String),
) {
    // Work on the full token list (docs included), skipping plain comments.
    let toks: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "pub") || suppressed.contains(&t.line) {
            continue;
        }
        // Restricted visibility is not public API.
        if toks
            .get(i + 1)
            .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(")
        {
            continue;
        }
        // Allow qualifiers between `pub` and `fn`.
        let mut j = i + 1;
        while toks.get(j).is_some_and(|n| {
            n.kind == TokKind::Ident
                && matches!(n.text.as_str(), "const" | "unsafe" | "async" | "extern")
                || n.kind == TokKind::Str // `extern "C"`
        }) {
            j += 1;
        }
        let Some(fn_tok) = toks.get(j) else { continue };
        if !(fn_tok.kind == TokKind::Ident && fn_tok.text == "fn") {
            continue;
        }
        let name = toks
            .get(j + 1)
            .map(|n| n.text.clone())
            .unwrap_or_else(|| "?".into());
        // Walk backwards over attributes `#[…]`; documented iff the next
        // thing above is a doc comment.
        let mut k = i;
        let documented = loop {
            if k == 0 {
                break false;
            }
            k -= 1;
            match toks[k].kind {
                // Only *outer* docs (`///`, `/**`) document the following
                // item; inner docs (`//!`, `/*!`) belong to the enclosing
                // module.
                TokKind::Doc => {
                    break toks[k].text.starts_with("///") || toks[k].text.starts_with("/**");
                }
                TokKind::Punct if toks[k].text == "]" => {
                    // Skip the attribute: rewind to its `#`.
                    let mut depth = 1usize;
                    while k > 0 && depth > 0 {
                        k -= 1;
                        match toks[k].text.as_str() {
                            "]" => depth += 1,
                            "[" => depth -= 1,
                            _ => {}
                        }
                    }
                    if k > 0 && toks[k - 1].text == "#" {
                        k -= 1;
                        continue;
                    }
                    break false;
                }
                _ => break false,
            }
        };
        if !documented {
            emit(
                Rule::MissingDocs,
                t.line,
                format!("public function `{name}` has no doc comment"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_found(src: &str) -> Vec<(Rule, u32)> {
        lint_source("lib.rs", src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn flags_every_panic_api() {
        let src = "fn f() {\n  a.unwrap();\n  b.expect(\"x\");\n  panic!(\"y\");\n  todo!();\n  unimplemented!();\n}\n";
        let found = rules_found(src);
        assert_eq!(
            found,
            vec![
                (Rule::Unwrap, 2),
                (Rule::Expect, 3),
                (Rule::Panic, 4),
                (Rule::Todo, 5),
                (Rule::Unimplemented, 6),
            ]
        );
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(rules_found("fn f() { a.unwrap_or(0); a.expect_err(e); }").is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let src = "fn f() { let s = \"call .unwrap() now\"; } // a.unwrap()\n/* panic!(\"no\") */\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g() { x.unwrap(); }\n}\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn cfg_test_on_a_braceless_item_ends_at_its_separator() {
        // A gated struct field (with or without a trailing comma), enum
        // variant, match arm or parameter has no brace of its own: the
        // region must end at the `,` — or before the enclosing closer —
        // and everything after it is still linted.
        for src in [
            "struct S {\n  a: u8,\n  #[cfg(test)]\n  probe: Map<u8, u8>,\n}\nfn f() { x.unwrap(); }\n",
            "struct S {\n  a: u8,\n  #[cfg(test)]\n  probe: u32\n}\nfn f() { x.unwrap(); }\n",
            "enum E {\n  A,\n  #[cfg(test)]\n  B(u8, u8),\n}\nfn f() { x.unwrap(); }\n",
            "fn g(a: u8, #[cfg(test)] b: u8) {\n}\n\n\n\nfn f() { x.unwrap(); }\n",
        ] {
            assert_eq!(rules_found(src), vec![(Rule::Unwrap, 6)], "{src}");
        }
        // A gated function keeps its whole body, whatever its header holds.
        let src = "#[cfg(test)]\nfn g<A, B>(a: [A; 2], b: B) -> Map<A, B> {\n  x.unwrap()\n}\nfn f() { y.unwrap(); }\n";
        assert_eq!(rules_found(src), vec![(Rule::Unwrap, 5)]);
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        assert_eq!(rules_found(src), vec![(Rule::Unwrap, 2)]);
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "fn f() { x.unwrap(); } // seal-lint: allow(unwrap)\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn allow_on_line_above_suppresses() {
        let src = "fn f() {\n  // seal-lint: allow(expect)\n  x.expect(\"invariant\");\n}\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn allow_covers_only_its_rule() {
        let src = "fn f() { x.unwrap(); } // seal-lint: allow(expect)\n";
        assert_eq!(rules_found(src), vec![(Rule::Unwrap, 1)]);
    }

    #[test]
    fn cast_rule_only_in_crypto_hot_paths() {
        let src = "fn f(x: u64) -> u8 { x as u8 }";
        assert!(lint_source("crates/tensor/src/ops.rs", src).is_empty());
        let found = lint_source("crates/crypto/src/ctr.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::TruncatingCast);
        // Widening casts stay legal.
        assert!(lint_source("crates/crypto/src/aes.rs", "fn f(x: u8) -> usize { x as usize }")
            .is_empty());
    }

    #[test]
    fn hot_path_alloc_scope_pins_the_quantized_kernels() {
        // The int8 GEMM lives on the steady-state inference path, so
        // `ops/quant.rs` must sit inside the hot-path-alloc scope — a
        // caller-provided-buffer regression there should fail the lint,
        // not slide by because the file is newer than the rule.
        let src = "fn f() { let v = vec![0u8; 64]; }";
        for path in [
            "crates/tensor/src/ops/quant.rs",
            "crates/tensor/src/ops/prepack.rs",
            "crates/nn/src/plan.rs",
        ] {
            assert!(is_inference_hot_path(path), "{path} must be in scope");
            let found = lint_source(path, src);
            assert!(
                found.iter().any(|f| f.rule == Rule::HotPathAlloc),
                "{path} did not flag a hot-path allocation"
            );
        }
        // The serving layer allocates freely; only the kernels are pinned.
        assert!(!is_inference_hot_path("crates/serve/src/server.rs"));
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn undocumented_pub_fn_flagged_documented_ok() {
        let src = "/// Documented.\npub fn good() {}\npub fn bad() {}\n";
        let found = rules_found(src);
        assert_eq!(found, vec![(Rule::MissingDocs, 3)]);
        let msg = &lint_source("lib.rs", src)[0].message;
        assert!(msg.contains("bad"), "{msg}");
    }

    #[test]
    fn attributes_between_docs_and_fn_are_fine() {
        let src = "/// Documented.\n#[inline]\n#[must_use]\npub fn good() -> u8 { 0 }\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn restricted_visibility_not_flagged() {
        assert!(rules_found("pub(crate) fn internal() {}").is_empty());
    }

    #[test]
    fn pub_const_unsafe_fn_still_checked() {
        let found = rules_found("pub const unsafe fn scary() {}");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, Rule::MissingDocs);
    }

    #[test]
    fn lock_unwrap_preferred_over_generic_unwrap() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n  *m.lock().unwrap()\n}\n";
        assert_eq!(rules_found(src), vec![(Rule::LockUnwrap, 2)]);
        let src = "fn f(h: std::thread::JoinHandle<u8>) -> u8 {\n  h.join().expect(\"worker\")\n}\n";
        assert_eq!(rules_found(src), vec![(Rule::LockUnwrap, 2)]);
        let src = "fn f(l: &std::sync::RwLock<u8>) -> u8 {\n  *l.read().unwrap() + *l.write().unwrap()\n}\n";
        assert_eq!(
            rules_found(src),
            vec![(Rule::LockUnwrap, 2), (Rule::LockUnwrap, 2)]
        );
    }

    #[test]
    fn lock_unwrap_ignores_recovery_idiom_and_other_receivers() {
        // Poisoned-lock recovery is the accepted pattern.
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n  *m.lock().unwrap_or_else(|e| e.into_inner())\n}\n";
        assert!(rules_found(src).is_empty());
        // `.read(buf)` takes an argument, so it is io, not a lock — the
        // unwrap is still flagged, but as the generic rule.
        let src = "fn f() { r.read(&mut buf).unwrap(); parse().unwrap(); }";
        assert_eq!(
            rules_found(src),
            vec![(Rule::Unwrap, 1), (Rule::Unwrap, 1)]
        );
    }

    #[test]
    fn lock_unwrap_suppressible_by_its_own_allow() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n  // seal-lint: allow(lock-unwrap)\n  *m.lock().unwrap()\n}\n";
        assert!(rules_found(src).is_empty());
        // A generic unwrap allow does not cover the concurrency rule.
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n  // seal-lint: allow(unwrap)\n  *m.lock().unwrap()\n}\n";
        assert_eq!(rules_found(src), vec![(Rule::LockUnwrap, 3)]);
    }

    #[test]
    fn thread_spawn_and_scope_flagged_outside_pool() {
        let src = "fn f() {\n  std::thread::spawn(|| {});\n  thread::scope(|s| {});\n}\n";
        assert_eq!(
            rules_found(src),
            vec![(Rule::ThreadSpawn, 2), (Rule::ThreadSpawn, 3)]
        );
        let msg = &lint_source("lib.rs", src)[0].message;
        assert!(msg.contains("spawn_worker"), "{msg}");
    }

    #[test]
    fn thread_spawn_exempt_in_pool_runtime_and_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert!(lint_source("crates/pool/src/lib.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n  fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(rules_found(gated).is_empty());
    }

    #[test]
    fn thread_spawn_ignores_lookalikes() {
        // Method calls (`scope.spawn`, `builder.spawn`) and other
        // `thread::` items are not raw thread creation.
        let src = "fn f(s: &Scope) { s.spawn(|| {}); std::thread::sleep(d); thread::yield_now(); }";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn thread_spawn_suppressible_by_allow() {
        let src = "fn f() {\n  // seal-lint: allow(thread-spawn)\n  std::thread::spawn(|| {});\n}\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn raw_syscall_extern_blocks_and_bare_calls_flagged() {
        let src = "extern \"C\" {\n  fn socket(d: i32, t: i32, p: i32) -> i32;\n}\nfn f() -> i32 {\n  unsafe { socket(2, 1, 0) }\n}\n";
        assert_eq!(
            rules_found(src),
            vec![(Rule::RawSyscall, 1), (Rule::RawSyscall, 5)]
        );
        let msg = &lint_source("lib.rs", src)[1].message;
        assert!(msg.contains("sys shim"), "{msg}");
    }

    #[test]
    fn raw_syscall_exempt_in_the_sys_shim() {
        let src = "extern \"C\" {\n  fn epoll_wait(e: i32) -> i32;\n}\nfn f(e: i32) -> i32 { unsafe { epoll_wait(e) } }\n";
        assert!(lint_source("crates/net/src/sys.rs", src).is_empty());
        assert!(!lint_source("crates/serve/src/netserve.rs", src).is_empty());
    }

    #[test]
    fn raw_syscall_ignores_wrappers_methods_and_declarations() {
        // Path-qualified shim calls, std method calls on a receiver, and
        // local fn items that merely share a syscall's name are all fine.
        let src = "fn f() {\n  let l = sys::listen(7);\n  socket2::socket(1);\n  listener.bind(addr);\n}\nfn bind(x: u8) -> u8 { x }\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn raw_syscall_suppressible_by_allow() {
        let src = "fn f() -> i32 {\n  // seal-lint: allow(raw-syscall)\n  unsafe { fcntl(0, 3) }\n}\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn constant_sleep_retry_loop_flagged() {
        let src = "fn f() {\n  loop {\n    match try_send() {\n      Ok(_) => break,\n      Err(_) => std::thread::sleep(Duration::from_millis(10)),\n    }\n  }\n}\n";
        assert_eq!(rules_found(src), vec![(Rule::RetryBackoff, 5)]);
        let msg = &lint_source("lib.rs", src)[0].message;
        assert!(msg.contains("Backoff"), "{msg}");
    }

    #[test]
    fn busy_retry_loop_without_sleep_flagged() {
        let src = "fn f() {\n  while running() {\n    if send().is_err() {\n      continue;\n    }\n    break;\n  }\n}\n";
        assert_eq!(rules_found(src), vec![(Rule::RetryBackoff, 2)]);
    }

    #[test]
    fn screaming_const_delay_is_still_constant() {
        let src = "fn f() {\n  loop {\n    if poll().is_err() {\n      thread::sleep(RETRY_DELAY);\n      continue;\n    }\n    break;\n  }\n}\n";
        assert_eq!(rules_found(src), vec![(Rule::RetryBackoff, 4)]);
    }

    #[test]
    fn variable_backoff_sleep_is_clean() {
        let src = "fn f() {\n  let mut b = Backoff::new(base, max);\n  loop {\n    match try_send() {\n      Ok(_) => break,\n      Err(_) => std::thread::sleep(b.next_delay()),\n    }\n  }\n}\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn for_loops_and_non_fallible_loops_are_not_retry() {
        // `for` is finite iteration; a loop with no Err handling is a
        // worker/event loop, not a retry.
        let src = "fn f() {\n  for x in xs {\n    if x.is_err() { continue; }\n  }\n  loop {\n    if done() { break; }\n    step();\n  }\n}\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn bounded_respawn_loop_without_continue_is_clean() {
        // The supervisor idiom: re-enter the body on panic until the
        // budget runs out. No `continue`, no polling — tolerated.
        let src = "fn f() {\n  loop {\n    match run() {\n      Ok(()) => break,\n      Err(p) => { record(p); if give_up() { break; } }\n    }\n  }\n}\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn outer_loop_is_not_double_flagged_for_an_inner_violation() {
        let src = "fn f() {\n  while live() {\n    if take().is_err() {\n      continue;\n    }\n    loop {\n      match send() {\n        Ok(_) => break,\n        Err(_) => std::thread::sleep(Duration::from_millis(5)),\n      }\n    }\n  }\n}\n";
        assert_eq!(rules_found(src), vec![(Rule::RetryBackoff, 9)]);
    }

    #[test]
    fn retry_backoff_suppressible_by_allow() {
        let src = "fn f() {\n  loop {\n    match try_send() {\n      Ok(_) => break,\n      // seal-lint: allow(retry-backoff)\n      Err(_) => std::thread::sleep(Duration::from_millis(10)),\n    }\n  }\n}\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn rule_names_roundtrip() {
        for r in ALL_RULES.into_iter().chain(DEEP_RULES) {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("nonsense"), None);
    }
}
