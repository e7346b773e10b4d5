//! Hand-rolled recursive-descent parser over the [`crate::lexer`] token
//! stream.
//!
//! This is not a full Rust parser — it recognises exactly the constructs
//! the deep passes need and degrades gracefully on everything else, the
//! same contract the lexer makes: items (`mod`, `impl`, `trait`, `fn`,
//! `use`), call expressions (bare, path-qualified, method, macro), panic
//! constructs, index expressions with arithmetic, and `unsafe` regions
//! with their `// SAFETY:` evidence. Closure bodies are scanned as part
//! of the enclosing function: for reachability analysis the closure's
//! effects are attributed to its definer, the one function we can name
//! statically.
//!
//! Known, deliberate approximations (all conservative for our passes):
//! turbofish calls (`f::<T>(…)`) are not recognised as calls, `unsafe fn`
//! bodies are not audited as blocks (their contract lives in `# Safety`
//! docs), and method calls record only the method name — resolution
//! over-approximates the receiver type.

use crate::ir::{
    crate_and_module, CallIr, CallKind, FileIr, FnIr, IndexSite, PanicKind, PanicSite, UnsafeIr,
    UnsafeKind, UsePath,
};
use crate::lexer::{lex, Tok, TokKind};
use crate::lint::{allow_directives, test_region_lines, AllowMap, Rule};
use std::collections::BTreeSet;
use std::path::Path;

/// Reserved words that can precede `(` without being a call.
const KEYWORDS: [&str; 38] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "while",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn panic_macro_kind(name: &str) -> Option<PanicKind> {
    match name {
        "panic" | "todo" | "unimplemented" => Some(PanicKind::PanicMacro),
        "assert" | "assert_eq" | "assert_ne" => Some(PanicKind::AssertMacro),
        _ => None,
    }
}

/// Parses one source file into its [`FileIr`].
///
/// Never fails: unrecognised constructs are skipped token-by-token, so
/// the IR for malformed input is simply sparser.
pub fn parse_file(path: &str, source: &str) -> FileIr {
    let toks = lex(source);
    parse_tokens(path, &toks)
}

/// Parses an already-lexed token stream ([`crate::check_workspace`]
/// lexes once and feeds both the token passes and the parser).
pub fn parse_tokens(path: &str, toks: &[Tok]) -> FileIr {
    let (crate_name, module_path) = crate_and_module(Path::new(path));
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_trivia())
        .map(|(i, _)| i)
        .collect();
    let file_idents: BTreeSet<String> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    let mut p = Parser {
        toks,
        code,
        i: 0,
        allows: allow_directives(toks).0,
        test_lines: test_region_lines(toks),
        crate_name: crate_name.clone(),
        module_stack: module_path.clone(),
        imports: Vec::new(),
        fns: Vec::new(),
        item_unsafes: Vec::new(),
    };
    p.parse_items(None, false);
    FileIr {
        path: path.replace('\\', "/"),
        crate_name,
        module_path,
        imports: p.imports,
        fns: p.fns,
        item_unsafes: p.item_unsafes,
        idents: file_idents.into_iter().collect(),
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    /// Indices of non-trivia tokens in `toks`.
    code: Vec<usize>,
    /// Cursor into `code`.
    i: usize,
    allows: AllowMap,
    test_lines: BTreeSet<u32>,
    crate_name: String,
    module_stack: Vec<String>,
    imports: Vec<UsePath>,
    fns: Vec<FnIr>,
    item_unsafes: Vec<UnsafeIr>,
}

impl Parser<'_> {
    fn tok(&self, k: usize) -> Option<&Tok> {
        self.code.get(self.i + k).map(|&f| &self.toks[f])
    }

    fn txt(&self, k: usize) -> &str {
        self.tok(k).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn line(&self) -> u32 {
        self.tok(0).map(|t| t.line).unwrap_or(0)
    }

    /// Code token text at an absolute `code` index (for backward walks).
    fn txt_at(&self, ci: usize) -> &str {
        self.code
            .get(ci)
            .map(|&f| self.toks[f].text.as_str())
            .unwrap_or("")
    }

    fn kind_at(&self, ci: usize) -> Option<TokKind> {
        self.code.get(ci).map(|&f| self.toks[f].kind)
    }

    fn allowed_at(&self, line: u32, rule: Rule) -> bool {
        self.allows.get(&line).is_some_and(|rs| rs.contains(&rule))
    }

    // ───────────────────────── item level ─────────────────────────

    fn parse_items(&mut self, impl_ty: Option<&str>, end_at_brace: bool) {
        let mut pending_test = false;
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                "}" if end_at_brace => {
                    self.i += 1;
                    return;
                }
                "#" => pending_test |= self.skip_attr(),
                "pub" => {
                    self.i += 1;
                    if self.txt(0) == "(" {
                        self.skip_balanced("(", ")");
                    }
                }
                "use" => {
                    self.parse_use();
                    pending_test = false;
                }
                "mod" => {
                    self.i += 1;
                    let name = if self.tok(0).is_some_and(|t| t.kind == TokKind::Ident) {
                        let n = self.txt(0).to_string();
                        self.i += 1;
                        n
                    } else {
                        String::new()
                    };
                    if self.txt(0) == "{" {
                        self.i += 1;
                        self.module_stack.push(name);
                        self.parse_items(None, true);
                        self.module_stack.pop();
                    } else if self.txt(0) == ";" {
                        self.i += 1;
                    }
                    pending_test = false;
                }
                "impl" => {
                    self.parse_impl();
                    pending_test = false;
                }
                "trait" => {
                    self.parse_trait();
                    pending_test = false;
                }
                "fn" => {
                    self.parse_fn(impl_ty.map(str::to_string), pending_test);
                    pending_test = false;
                }
                "unsafe" => match self.txt(1) {
                    "impl" => {
                        let u = self.unsafe_ir(UnsafeKind::Impl);
                        self.item_unsafes.push(u);
                        self.i += 1; // past `unsafe`; loop handles `impl`
                    }
                    // `unsafe fn` / `unsafe trait`: plain modifier here.
                    _ => self.i += 1,
                },
                "struct" | "enum" | "union" => {
                    self.i += 1;
                    self.skip_to_semi_or_block();
                    pending_test = false;
                }
                "const" | "static" if self.txt(1) != "fn" => {
                    self.i += 1;
                    self.skip_to_semi();
                    pending_test = false;
                }
                "const" | "static" | "async" => self.i += 1,
                "type" => {
                    self.i += 1;
                    self.skip_to_semi();
                    pending_test = false;
                }
                "extern" => {
                    self.i += 1;
                    if self.tok(0).is_some_and(|t| t.kind == TokKind::Str) {
                        self.i += 1; // ABI string; `fn` or `{` follows
                    }
                    if self.txt(0) == "{" {
                        self.skip_balanced("{", "}");
                    } else if self.txt(0) == "crate" {
                        self.skip_to_semi();
                    }
                }
                "macro_rules" => {
                    self.i += 1;
                    self.skip_macro_def();
                    pending_test = false;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Skips `#[…]` / `#![…]`; returns `true` when the attribute mentions
    /// `test` (`#[test]`, `#[cfg(test)]`, custom test harnesses).
    fn skip_attr(&mut self) -> bool {
        self.i += 1; // '#'
        if self.txt(0) == "!" {
            self.i += 1;
        }
        if self.txt(0) != "[" {
            return false;
        }
        let mut depth = 0usize;
        let mut saw_test = false;
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        break;
                    }
                }
                "test" => saw_test = true,
                _ => {}
            }
            self.i += 1;
        }
        saw_test
    }

    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0usize;
        while let Some(t) = self.tok(0) {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skips to the `;` ending an item, tolerating `{…}` initialisers.
    fn skip_to_semi(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Skips a struct/enum-style item: either to `;` (tuple/unit) or over
    /// the balanced `{…}` body.
    fn skip_to_semi_or_block(&mut self) {
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                ";" => {
                    self.i += 1;
                    return;
                }
                "{" => {
                    self.skip_balanced("{", "}");
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Skips a `macro_rules! name { … }` definition (any delimiter).
    fn skip_macro_def(&mut self) {
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                "(" => return self.skip_balanced("(", ")"),
                "[" => return self.skip_balanced("[", "]"),
                "{" => return self.skip_balanced("{", "}"),
                ";" => {
                    self.i += 1;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    // ───────────────────────── use imports ─────────────────────────

    fn parse_use(&mut self) {
        self.i += 1; // `use`
        let prefix = Vec::new();
        self.parse_use_tree(prefix);
        if self.txt(0) == ";" {
            self.i += 1;
        }
    }

    fn parse_use_tree(&mut self, mut prefix: Vec<String>) {
        loop {
            match self.txt(0) {
                "{" => {
                    self.i += 1;
                    while self.txt(0) != "}" && self.tok(0).is_some() {
                        self.parse_use_tree(prefix.clone());
                        if self.txt(0) == "," {
                            self.i += 1;
                        }
                    }
                    if self.txt(0) == "}" {
                        self.i += 1;
                    }
                    return;
                }
                "*" => {
                    self.i += 1;
                    self.imports.push(UsePath {
                        segments: prefix,
                        alias: "*".to_string(),
                    });
                    return;
                }
                "" | ";" | "," | "}" => return,
                seg => {
                    let seg = seg.to_string();
                    self.i += 1;
                    if self.txt(0) == ":" && self.txt(1) == ":" {
                        self.i += 2;
                        if seg == "self" {
                            continue; // `use self::x` — prefix unchanged
                        }
                        prefix.push(seg);
                        continue;
                    }
                    // Leaf. `self` rebinds the prefix itself.
                    let (segments, mut alias) = if seg == "self" {
                        let a = prefix.last().cloned().unwrap_or_default();
                        (prefix, a)
                    } else {
                        let mut s = prefix;
                        s.push(seg.clone());
                        (s, seg)
                    };
                    if self.txt(0) == "as" {
                        self.i += 1;
                        alias = self.txt(0).to_string();
                        self.i += 1;
                    }
                    self.imports.push(UsePath { segments, alias });
                    return;
                }
            }
        }
    }

    // ───────────────────────── impl / trait ─────────────────────────

    fn parse_impl(&mut self) {
        self.i += 1; // `impl`
        if self.txt(0) == "<" {
            self.skip_angles();
        }
        // Header tokens up to `{`/`;`, splitting at a top-level `for`.
        let mut after_for: Vec<String> = Vec::new();
        let mut before_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut angle = 0i32;
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                "{" | ";" => break,
                "<" => angle += 1,
                ">" if self.i > 0 && self.txt_at(self.i - 1) == "-" => {}
                ">" => angle -= 1,
                "for" if angle == 0 => {
                    saw_for = true;
                    self.i += 1;
                    continue;
                }
                _ => {}
            }
            if t.kind == TokKind::Ident && angle == 0 {
                if saw_for {
                    after_for.push(t.text.clone());
                } else {
                    before_for.push(t.text.clone());
                }
            }
            self.i += 1;
        }
        let ty_toks = if saw_for { &after_for } else { &before_for };
        let ty = ty_toks
            .iter()
            .rev()
            .find(|s| !matches!(s.as_str(), "dyn" | "mut" | "where" | "Send" | "Sync"))
            .cloned();
        if self.txt(0) == "{" {
            self.i += 1;
            self.parse_items(ty.as_deref(), true);
        } else if self.txt(0) == ";" {
            self.i += 1;
        }
    }

    /// Skips a balanced `<…>` generic list, tolerating `->` inside
    /// higher-ranked bounds.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" if self.i > 0 && self.txt_at(self.i - 1) == "-" => {}
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                "{" | ";" => return, // malformed; bail
                _ => {}
            }
            self.i += 1;
        }
    }

    fn parse_trait(&mut self) {
        self.i += 1; // `trait`
        let name = if self.tok(0).is_some_and(|t| t.kind == TokKind::Ident) {
            let n = self.txt(0).to_string();
            self.i += 1;
            Some(n)
        } else {
            None
        };
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                "{" => {
                    self.i += 1;
                    self.parse_items(name.as_deref(), true);
                    return;
                }
                ";" => {
                    self.i += 1;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    // ───────────────────────── functions ─────────────────────────

    fn parse_fn(&mut self, impl_ty: Option<String>, pending_test: bool) {
        let line = self.line();
        self.i += 1; // `fn`
        if self.tok(0).map(|t| t.kind) != Some(TokKind::Ident) {
            return;
        }
        let name = self.txt(0).trim_start_matches("r#").to_string();
        self.i += 1;
        let mut qual = self.crate_name.clone();
        for m in &self.module_stack {
            qual.push_str("::");
            qual.push_str(m);
        }
        if let Some(t) = &impl_ty {
            qual.push_str("::");
            qual.push_str(t);
        }
        qual.push_str("::");
        qual.push_str(&name);

        let mut idents: BTreeSet<String> = BTreeSet::new();
        // Signature: up to the body `{` or a decl-only `;`.
        while let Some(t) = self.tok(0) {
            match t.text.as_str() {
                "{" | ";" => break,
                _ => {
                    if t.kind == TokKind::Ident {
                        idents.insert(t.text.clone());
                    }
                    self.i += 1;
                }
            }
        }
        let mut f = FnIr {
            name,
            qual,
            type_name: impl_ty.clone(),
            line,
            is_test: pending_test || self.test_lines.contains(&line),
            allow_panic_freedom: self.allowed_at(line, Rule::PanicFreedom),
            allow_taint: self.allowed_at(line, Rule::EncryptionBoundary),
            calls: Vec::new(),
            panics: Vec::new(),
            indexes: Vec::new(),
            unsafes: Vec::new(),
            idents: Vec::new(),
        };
        if self.txt(0) == ";" {
            self.i += 1;
            f.idents = idents.into_iter().collect();
            self.fns.push(f);
            return;
        }
        if self.txt(0) != "{" {
            f.idents = idents.into_iter().collect();
            self.fns.push(f);
            return;
        }
        self.i += 1; // body `{`
        self.parse_fn_body(&mut f, &mut idents, impl_ty.as_deref());
        f.idents = idents.into_iter().collect();
        self.fns.push(f);
    }

    fn parse_fn_body(
        &mut self,
        f: &mut FnIr,
        idents: &mut BTreeSet<String>,
        impl_ty: Option<&str>,
    ) {
        let mut depth = 1usize;
        while depth > 0 {
            let Some(t) = self.tok(0) else { break };
            let line = t.line;
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    self.i += 1;
                }
                "}" => {
                    depth -= 1;
                    self.i += 1;
                }
                "#" => {
                    self.skip_attr();
                }
                "unsafe" if self.txt(1) == "{" => {
                    let u = self.unsafe_ir(UnsafeKind::Block);
                    f.unsafes.push(u);
                    self.i += 1;
                }
                "fn" => {
                    // Nested fn: its own FnIr; body consumed by recursion.
                    self.parse_fn(impl_ty.map(str::to_string), f.is_test);
                }
                "[" => {
                    if self.is_postfix_index() && self.bracket_has_arith() {
                        let allowed = self.allowed_at(line, Rule::PanicFreedom);
                        if f.indexes.last().map(|s| s.line) != Some(line) {
                            f.indexes.push(IndexSite { line, allowed });
                        }
                    }
                    self.i += 1;
                }
                _ if t.kind == TokKind::Ident => {
                    let text = t.text.clone();
                    idents.insert(text.clone());
                    let nx = self.txt(1);
                    if nx == "!" && matches!(self.txt(2), "(" | "[" | "{") {
                        if let Some(kind) = panic_macro_kind(&text) {
                            f.panics.push(PanicSite {
                                line,
                                kind,
                                allowed: self.allowed_at(line, Rule::PanicFreedom),
                            });
                        } else {
                            f.calls.push(CallIr {
                                line,
                                kind: CallKind::Macro,
                                segments: vec![text],
                            });
                        }
                        self.i += 2; // ident + `!`; delimiter scanned normally
                    } else if nx == "(" {
                        self.record_call(f, &text, line, impl_ty);
                        self.i += 1;
                    } else {
                        self.i += 1;
                    }
                }
                _ => self.i += 1,
            }
        }
    }

    /// Classifies `name(` at the cursor as a panic site or a call.
    fn record_call(&mut self, f: &mut FnIr, name: &str, line: u32, impl_ty: Option<&str>) {
        let prev = if self.i > 0 {
            self.txt_at(self.i - 1)
        } else {
            ""
        };
        if prev == "." && matches!(name, "unwrap" | "expect") {
            let kind = if name == "unwrap" {
                PanicKind::Unwrap
            } else {
                PanicKind::Expect
            };
            f.panics.push(PanicSite {
                line,
                kind,
                allowed: self.allowed_at(line, Rule::PanicFreedom),
            });
            return;
        }
        if is_keyword(name) {
            return;
        }
        if prev == "." {
            f.calls.push(CallIr {
                line,
                kind: CallKind::Method,
                segments: vec![name.to_string()],
            });
            return;
        }
        // Walk back over a `seg::seg::` chain.
        let mut segments = vec![name.to_string()];
        let mut j = self.i;
        while j >= 3
            && self.txt_at(j - 1) == ":"
            && self.txt_at(j - 2) == ":"
            && self.kind_at(j - 3) == Some(TokKind::Ident)
        {
            segments.insert(0, self.txt_at(j - 3).to_string());
            j -= 3;
        }
        if segments.len() == 1 {
            f.calls.push(CallIr {
                line,
                kind: CallKind::Bare,
                segments,
            });
            return;
        }
        // Normalise the head segment.
        match segments[0].as_str() {
            "Self" => {
                if let Some(t) = impl_ty {
                    segments[0] = t.to_string();
                }
            }
            "crate" => segments[0] = self.crate_name.clone(),
            "self" => {
                let mut head: Vec<String> = vec![self.crate_name.clone()];
                head.extend(self.module_stack.iter().cloned());
                segments.splice(0..1, head);
            }
            _ => {}
        }
        f.calls.push(CallIr {
            line,
            kind: CallKind::Path,
            segments,
        });
    }

    /// Is the `[` at the cursor a postfix index (rather than an array
    /// literal, slice type, or attribute)?
    fn is_postfix_index(&self) -> bool {
        if self.i == 0 {
            return false;
        }
        let prev = self.txt_at(self.i - 1);
        match self.kind_at(self.i - 1) {
            Some(TokKind::Ident) => !is_keyword(prev),
            Some(TokKind::Punct) => matches!(prev, ")" | "]"),
            _ => false,
        }
    }

    /// Does the bracket group starting at the cursor contain `+`/`-`/`*`?
    fn bracket_has_arith(&self) -> bool {
        let mut depth = 0usize;
        let mut k = self.i;
        while let Some(&fi) = self.code.get(k) {
            match self.toks[fi].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                "+" | "-" | "*" => return true,
                _ => {}
            }
            k += 1;
        }
        false
    }

    // ───────────────────────── unsafe regions ─────────────────────────

    /// Builds the [`UnsafeIr`] for the `unsafe` keyword at the cursor.
    fn unsafe_ir(&self, kind: UnsafeKind) -> UnsafeIr {
        let line = self.line();
        let fi = self.code[self.i];
        let safety = self.safety_before(fi).or_else(|| self.safety_inside(kind));
        let names = safety.as_deref().map(safety_names).unwrap_or_default();
        UnsafeIr {
            line,
            kind,
            safety,
            names,
            allowed: self.allowed_at(line, Rule::UnsafeAudit),
        }
    }

    /// Searches backward from full-token index `fi` for a `SAFETY:`
    /// comment attached to the current statement / match arm, skipping
    /// attributes and stopping at statement boundaries.
    fn safety_before(&self, fi: usize) -> Option<String> {
        let mut j = fi;
        let mut steps = 0usize;
        while j > 0 && steps < 80 {
            j -= 1;
            steps += 1;
            let t = &self.toks[j];
            if t.is_trivia() {
                // Collect the contiguous trivia run ending at `j`.
                let mut k = j;
                while k > 0 && self.toks[k - 1].is_trivia() {
                    k -= 1;
                }
                let run = &self.toks[k..=j];
                if let Some(p) = run.iter().position(|t| t.text.contains("SAFETY:")) {
                    return Some(join_comment_run(&run[p..]));
                }
                j = k; // keep scanning above a non-SAFETY run
            } else if matches!(t.text.as_str(), "{" | "}" | ";" | ",") {
                return None;
            } else if t.text == "]" {
                // Skip a `#[…]` attribute backward.
                let mut bd = 1usize;
                while j > 0 && bd > 0 {
                    j -= 1;
                    steps += 1;
                    match self.toks[j].text.as_str() {
                        "]" => bd += 1,
                        "[" => bd -= 1,
                        _ => {}
                    }
                }
                while j > 0 && matches!(self.toks[j - 1].text.as_str(), "#" | "!") {
                    j -= 1;
                }
            }
        }
        None
    }

    /// Accepts a `SAFETY:` comment as the first thing inside the block:
    /// `unsafe { // SAFETY: … }`.
    fn safety_inside(&self, kind: UnsafeKind) -> Option<String> {
        if kind != UnsafeKind::Block {
            return None;
        }
        let brace = *self.code.get(self.i + 1)?;
        let mut j = brace + 1;
        let mut run_start = None;
        while let Some(t) = self.toks.get(j) {
            if !t.is_trivia() {
                break;
            }
            if run_start.is_none() && t.text.contains("SAFETY:") {
                run_start = Some(j);
            }
            j += 1;
        }
        run_start.map(|s| join_comment_run(&self.toks[s..j]))
    }
}

/// Joins a comment run into one line of prose, stripping comment markers.
fn join_comment_run(run: &[Tok]) -> String {
    run.iter()
        .map(|t| {
            t.text
                .trim_start_matches('/')
                .trim_start_matches('*')
                .trim_end_matches('/')
                .trim_end_matches('*')
                .trim()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Extracts backticked identifier-like names (`` `len` ``,
/// `` `KernelMode::degrade` ``) from a SAFETY comment; prose fragments in
/// backticks are ignored.
pub fn safety_names(text: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut rest = text;
    while let Some(a) = rest.find('`') {
        let after = &rest[a + 1..];
        let Some(b) = after.find('`') else { break };
        let raw = after[..b]
            .trim_start_matches('&')
            .trim_start_matches("mut ")
            .trim_end_matches("()");
        let ident_like = !raw.is_empty()
            && raw
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            && raw
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == ':');
        if ident_like && !names.iter().any(|n| n == raw) {
            names.push(raw.to_string());
        }
        rest = &after[b + 1..];
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CallKind, PanicKind, UnsafeKind};

    fn parse(src: &str) -> FileIr {
        parse_file("demo/src/lib.rs", src)
    }

    fn the_fn<'a>(ir: &'a FileIr, name: &str) -> &'a FnIr {
        ir.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn fns_get_qualified_names() {
        let ir = parse("mod inner { pub fn helper() {} }\npub fn top() {}\n");
        assert_eq!(the_fn(&ir, "helper").qual, "demo::inner::helper");
        assert_eq!(the_fn(&ir, "top").qual, "demo::top");
    }

    #[test]
    fn impl_methods_qualify_with_their_type() {
        let src = "struct Engine;\nimpl Engine {\n  pub fn submit(&mut self) {}\n}\nimpl Drop for Engine {\n  fn drop(&mut self) {}\n}\n";
        let ir = parse(src);
        assert_eq!(the_fn(&ir, "submit").qual, "demo::Engine::submit");
        assert_eq!(the_fn(&ir, "drop").qual, "demo::Engine::drop");
        assert_eq!(the_fn(&ir, "submit").type_name.as_deref(), Some("Engine"));
    }

    #[test]
    fn calls_are_classified() {
        let src = "fn f() { helper(); seal_pool::parallel_for(4); x.observe(1); vec![1]; Self::go(); }\nimpl T { fn m(&self) { Self::go(); } }\n";
        let ir = parse(src);
        let f = the_fn(&ir, "f");
        let kinds: Vec<(CallKind, String)> = f
            .calls
            .iter()
            .map(|c| (c.kind, c.segments.join("::")))
            .collect();
        assert!(kinds.contains(&(CallKind::Bare, "helper".into())));
        assert!(kinds.contains(&(CallKind::Path, "seal_pool::parallel_for".into())));
        assert!(kinds.contains(&(CallKind::Method, "observe".into())));
        assert!(kinds.contains(&(CallKind::Macro, "vec".into())));
        // `Self` inside an impl resolves to the impl type.
        let m = the_fn(&ir, "m");
        assert!(m
            .calls
            .iter()
            .any(|c| c.kind == CallKind::Path && c.segments == vec!["T", "go"]));
    }

    #[test]
    fn panic_sites_and_allows() {
        let src = "fn f() {\n  let x = v.pop().unwrap();\n  assert!(x > 0);\n  // seal-lint: allow(panic-freedom)\n  let y = w.get(0).expect(\"w\");\n  panic!(\"boom\");\n}\n";
        let f0 = parse(src);
        let f = the_fn(&f0, "f");
        let kinds: Vec<(PanicKind, bool)> = f.panics.iter().map(|p| (p.kind, p.allowed)).collect();
        assert_eq!(
            kinds,
            vec![
                (PanicKind::Unwrap, false),
                (PanicKind::AssertMacro, false),
                (PanicKind::Expect, true),
                (PanicKind::PanicMacro, false),
            ]
        );
    }

    #[test]
    fn index_arithmetic_is_recorded_plain_indexing_is_not() {
        let src = "fn f(o: &mut [f32], s: &[f32], r: usize, c: usize, n: usize) {\n  o[r * n + c] = s[r];\n  let t = &s[..n - 1];\n  let p = s[c];\n}\n";
        let ir = parse(src);
        let f = the_fn(&ir, "f");
        assert_eq!(f.indexes.len(), 2);
        assert_eq!(f.indexes[0].line, 2);
        assert_eq!(f.indexes[1].line, 3);
    }

    #[test]
    fn unsafe_blocks_carry_safety_evidence() {
        let src = "fn f(len: usize) {\n  // SAFETY: `len` is checked by the caller.\n  unsafe { go(len) }\n  unsafe { go(len) }\n}\n";
        let ir = parse(src);
        let f = the_fn(&ir, "f");
        assert_eq!(f.unsafes.len(), 2);
        assert!(f.unsafes[0]
            .safety
            .as_deref()
            .is_some_and(|s| s.contains("len")));
        assert_eq!(f.unsafes[0].names, vec!["len"]);
        assert!(f.unsafes[1].safety.is_none());
    }

    #[test]
    fn safety_comment_survives_attr_and_match_arm_between() {
        let src = "fn f(m: M) {\n  match m {\n    // SAFETY: `installed` guards this arm.\n    #[cfg(target_arch = \"x86_64\")]\n    M::A => unsafe { go() },\n    _ => {}\n  }\n}\n";
        let ir = parse(src);
        let f = the_fn(&ir, "f");
        assert_eq!(f.unsafes.len(), 1);
        assert_eq!(f.unsafes[0].names, vec!["installed"]);
    }

    #[test]
    fn unsafe_impls_are_item_level() {
        let src = "struct P(*mut u8);\n// SAFETY: `P` is only written from one thread.\nunsafe impl Send for P {}\nunsafe impl Sync for P {}\n";
        let ir = parse(src);
        assert_eq!(ir.item_unsafes.len(), 2);
        assert_eq!(ir.item_unsafes[0].kind, UnsafeKind::Impl);
        assert!(ir.item_unsafes[0].safety.is_some());
        assert!(ir.item_unsafes[1].safety.is_none());
    }

    #[test]
    fn use_trees_flatten_to_leaves() {
        let src = "use seal_tensor::ops::{matmul, prepack::PackedB};\nuse seal_crypto::engine::EnginePipeline as Pipe;\nuse seal_core::*;\n";
        let ir = parse(src);
        let find = |alias: &str| ir.imports.iter().find(|u| u.alias == alias);
        assert_eq!(
            find("matmul").map(|u| u.segments.clone()),
            Some(vec!["seal_tensor".into(), "ops".into(), "matmul".into()])
        );
        assert_eq!(
            find("PackedB").map(|u| u.segments.clone()),
            Some(vec![
                "seal_tensor".into(),
                "ops".into(),
                "prepack".into(),
                "PackedB".into()
            ])
        );
        assert_eq!(
            find("Pipe").map(|u| u.segments.clone()),
            Some(vec![
                "seal_crypto".into(),
                "engine".into(),
                "EnginePipeline".into()
            ])
        );
        assert!(ir
            .imports
            .iter()
            .any(|u| u.alias == "*" && u.segments == vec!["seal_core"]));
    }

    #[test]
    fn test_fns_are_marked() {
        let src =
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\npub fn real() {}\n";
        let ir = parse(src);
        assert!(the_fn(&ir, "t").is_test);
        assert!(!the_fn(&ir, "real").is_test);
    }

    #[test]
    fn closures_attribute_calls_to_the_enclosing_fn() {
        let src = "fn f(v: &[u32]) { v.iter().map(|x| transform(x)).count(); }\n";
        let ir = parse(src);
        let f = the_fn(&ir, "f");
        assert!(f
            .calls
            .iter()
            .any(|c| c.kind == CallKind::Bare && c.segments == vec!["transform"]));
    }

    #[test]
    fn safety_names_extraction_skips_prose() {
        let names = safety_names(
            "SAFETY: `dst` and `KernelMode::degrade` guard this; `max(0, x)` is prose.",
        );
        assert_eq!(names, vec!["dst", "KernelMode::degrade"]);
    }
}
