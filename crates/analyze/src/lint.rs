//! The token passes, driven by the token stream of [`crate::lexer`]:
//! the `retry-backoff` rule and the `seal-lint: allow(...)` directives
//! every pass honours.
//!
//! Everything else the token linter used to check is a compiler lint
//! now (`clippy::{unwrap_used, expect_used, panic, todo, unimplemented,
//! cast_possible_truncation, disallowed_methods}`, rustc `missing_docs`
//! and `unsafe_code`); `crates/analyze/lint-fixtures/` proves each of
//! those on the fixtures this module's rules were written against.
//!
//! Scope: `#[cfg(test)]` items (and their whole blocks) are skipped, and
//! a finding on a line carrying — or immediately below — a
//! `// seal-lint: allow(<rule>)` directive is suppressed. A directive
//! naming no known rule is itself a finding, so a misspelled or retired
//! rule name cannot silently suppress nothing.

use crate::ir::Finding;
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Stable rule identifiers, as used in `allow(...)` directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Retry loop without backoff: a `loop`/`while` body that matches on
    /// `Err` and either sleeps a *constant* delay between attempts or
    /// retries (`continue`) without sleeping at all.
    RetryBackoff,
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
    /// A `seal-lint: allow(...)` directive naming a rule that does not
    /// exist.
    UnknownAllow,
}

impl Rule {
    /// The identifier used in diagnostics and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RetryBackoff => "retry-backoff",
            Rule::EncryptionBoundary => "encryption-boundary",
            Rule::PanicFreedom => "panic-freedom",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::UnknownAllow => "unknown-allow",
        }
    }

    /// Parses a rule name an `allow(...)` directive may use.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.name() == name)
    }
}

/// Every rule an `allow(...)` directive can name (an unknown name
/// cannot be allowed away).
pub const ALL_RULES: [Rule; 4] = [
    Rule::RetryBackoff,
    Rule::EncryptionBoundary,
    Rule::PanicFreedom,
    Rule::UnsafeAudit,
];

/// Runs the token passes over one lexed file: `retry-backoff`, and one
/// `unknown-allow` finding per directive entry that names no rule.
pub fn lint_tokens(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let suppressed = test_region_lines(toks);
    let (allows, unknown) = allow_directives(toks);
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_trivia()).collect();
    let finding = |rule: Rule, line: u32, message: String| Finding {
        rule,
        path: path.to_string(),
        line,
        fun: String::new(),
        message,
        chain: Vec::new(),
    };

    let mut findings: Vec<Finding> = unknown
        .into_iter()
        .map(|(line, name)| {
            let known: Vec<&str> = ALL_RULES.iter().map(|r| r.name()).collect();
            finding(
                Rule::UnknownAllow,
                line,
                format!(
                    "`seal-lint: allow({name})` names no rule, so it suppresses nothing \
                     (rules: {})",
                    known.join(", ")
                ),
            )
        })
        .collect();
    retry_backoff_rule(&code, &mut |rule, line, message| {
        let allowed = allows.get(&line).is_some_and(|rs| rs.contains(&rule));
        if !suppressed.contains(&line) && !allowed {
            findings.push(finding(rule, line, message));
        }
    });
    findings.sort_by_key(|f| f.line);
    findings
}

/// Lines covered by `#[cfg(test)]`-gated items, including the attribute
/// lines themselves.
pub(crate) fn test_region_lines(toks: &[Tok]) -> BTreeSet<u32> {
    let code: Vec<(usize, &Tok)> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_trivia())
        .collect();
    let mut lines = BTreeSet::new();
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

/// The rules an `allow` directive covers, by line.
pub(crate) type AllowMap = BTreeMap<u32, Vec<Rule>>;

/// Parses `seal-lint: allow(rule, rule…)` directives out of comments.
/// The returned map covers the comment's own line **and** the line below
/// it (so a directive can sit on its own line above the finding); the
/// list holds every `(line, name)` entry that names no rule.
pub(crate) fn allow_directives(toks: &[Tok]) -> (AllowMap, Vec<(u32, String)>) {
    let mut map = AllowMap::new();
    let mut unknown = Vec::new();
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
        let mut rules = Vec::new();
        for name in inner.split(',').map(str::trim) {
            match Rule::from_name(name) {
                Some(rule) => rules.push(rule),
                None => unknown.push((t.line, name.to_string())),
            }
        }
        // Comments can span lines (block comments); anchor on the last
        // line so `line + 1` is the first code line below the comment.
        let last_line = t.line + t.text.matches('\n').count() as u32;
        for l in [last_line, last_line + 1] {
            map.entry(l).or_default().extend(rules.iter().copied());
        }
    }
    (map, unknown)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_found(src: &str) -> Vec<(Rule, u32)> {
        lint_tokens("lib.rs", &lex(src))
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    /// A busy retry loop on one line: one `retry-backoff` finding when
    /// that line is linted.
    const BUSY: &str = "fn f() { while a() { if b().is_err() { continue; } } }";

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let src = "fn f() { let s = \"while x { if e.is_err() { continue; } }\"; }\n\
                   // while x { if e.is_err() { continue; } }\n";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = format!("fn g() {{}}\n#[cfg(test)]\nmod tests {{\n  {BUSY}\n}}\n");
        assert!(rules_found(&src).is_empty());
    }

    #[test]
    fn cfg_test_on_a_braceless_item_ends_at_its_separator() {
        // A gated struct field (with or without a trailing comma), enum
        // variant, match arm or parameter has no brace of its own: the
        // region must end at the `,` — or before the enclosing closer —
        // and everything after it is still linted.
        for head in [
            "struct S {\n  a: u8,\n  #[cfg(test)]\n  probe: Map<u8, u8>,\n}\n",
            "struct S {\n  a: u8,\n  #[cfg(test)]\n  probe: u32\n}\n",
            "enum E {\n  A,\n  #[cfg(test)]\n  B(u8, u8),\n}\n",
            "fn g(a: u8, #[cfg(test)] b: u8) {\n}\n\n\n\n",
        ] {
            let src = format!("{head}{BUSY}\n");
            assert_eq!(rules_found(&src), vec![(Rule::RetryBackoff, 6)], "{src}");
        }
        // A gated function keeps its whole body, whatever its header holds.
        let src = format!(
            "#[cfg(test)]\nfn g<A, B>(a: [A; 2], b: B) -> Map<A, B> {{\n  {BUSY}\n}}\n{BUSY}\n"
        );
        assert_eq!(rules_found(&src), vec![(Rule::RetryBackoff, 5)]);
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = format!("#[cfg(not(test))]\n{BUSY}\n");
        assert_eq!(rules_found(&src), vec![(Rule::RetryBackoff, 2)]);
    }

    #[test]
    fn allow_on_same_line_or_line_above_suppresses_only_its_rule() {
        assert!(rules_found(&format!("{BUSY} // seal-lint: allow(retry-backoff)\n")).is_empty());
        assert!(rules_found(&format!("// seal-lint: allow(retry-backoff)\n{BUSY}\n")).is_empty());
        assert_eq!(
            rules_found(&format!("{BUSY} // seal-lint: allow(panic-freedom)\n")),
            vec![(Rule::RetryBackoff, 1)]
        );
    }

    #[test]
    fn unknown_rule_names_in_an_allow_are_findings() {
        // A misspelled name suppresses nothing: the loop below is still
        // reported, and so is the directive itself.
        let src = format!("// seal-lint: allow(retry-backof)\n{BUSY}\n");
        let found = lint_tokens("lib.rs", &lex(&src));
        assert_eq!(
            found.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
            vec![(Rule::UnknownAllow, 1), (Rule::RetryBackoff, 2)]
        );
        assert!(
            found[0].message.contains("allow(retry-backof)"),
            "{}",
            found[0].message
        );
        // Every unknown entry of a list is reported; the known one works.
        let src = "fn f() {\n  // seal-lint: allow(panic-freedom, unwrap, hot-path-alloc)\n  x.unwrap();\n}\n";
        assert_eq!(
            rules_found(src),
            vec![(Rule::UnknownAllow, 2), (Rule::UnknownAllow, 2)]
        );
        // Doc comments describing the syntax are not directives.
        assert!(
            rules_found("/// `// seal-lint: allow(<rule>)` suppresses.\nfn f() {}\n").is_empty()
        );
    }

    #[test]
    fn constant_sleep_retry_loop_flagged() {
        let src = "fn f() {\n  loop {\n    match try_send() {\n      Ok(_) => break,\n      Err(_) => std::thread::sleep(Duration::from_millis(10)),\n    }\n  }\n}\n";
        assert_eq!(rules_found(src), vec![(Rule::RetryBackoff, 5)]);
        let msg = &lint_tokens("lib.rs", &lex(src))[0].message;
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
        for r in ALL_RULES {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("nonsense"), None);
        assert_eq!(Rule::from_name("unwrap"), None);
        assert_eq!(Rule::from_name(Rule::UnknownAllow.name()), None);
    }
}
