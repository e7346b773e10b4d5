//! A minimal hand-rolled Rust lexer.
//!
//! Just enough tokenization for the token passes and the parser:
//! comments (line, block, doc), string/char/byte literals (including raw
//! strings), lifetimes, numbers, identifiers, and single-character
//! punctuation, each tagged with its 1-based source line. The lexer
//! never fails — unexpected bytes become punctuation tokens — because
//! the passes must degrade gracefully on code the compiler would reject.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `r#raw` identifiers).
    Ident,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
    /// Numeric literal.
    Num,
    /// String literal (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'x'`).
    Char,
    /// Single punctuation character.
    Punct,
    /// Non-doc comment (`// …` or `/* … */`).
    Comment,
    /// Doc comment (`/// …`, `//! …`, `/** … */`, `/*! … */`).
    Doc,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Source text (for `Punct` the single character).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// `true` for comment/doc tokens (skipped by most rules).
    pub fn is_trivia(&self) -> bool {
        matches!(self.kind, TokKind::Comment | TokKind::Doc)
    }
}

/// Lexes `source` into tokens. Whitespace is dropped; comments are kept
/// (the allow-directive scanner and the missing-docs rule need them).
pub fn lex(source: &str) -> Vec<Tok> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    toks: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.toks.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                'r' | 'b' | 'c' if self.literal_prefix() => self.prefixed_literal(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        self.toks
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        // `////…` dividers are plain comments; `///` and `//!` are docs.
        let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
        self.push(
            if doc { TokKind::Doc } else { TokKind::Comment },
            text,
            line,
        );
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        let doc = (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
            || text.starts_with("/*!");
        self.push(
            if doc { TokKind::Doc } else { TokKind::Comment },
            text,
            line,
        );
    }

    /// Does the current `r`/`b`/`c` start a string/char literal prefix
    /// (`r"`, `r#"`, `b"`, `b'`, `br"`, `c"`, …) rather than an identifier?
    fn literal_prefix(&self) -> bool {
        let mut i = 1;
        // Optional second prefix letter (`br`, `cr`).
        if matches!(self.peek(0), Some('b') | Some('c')) && self.peek(i) == Some('r') {
            i += 1;
        }
        // Raw identifiers `r#name` must not count: require `#`s to be
        // followed by a quote.
        let mut j = i;
        while self.peek(j) == Some('#') {
            j += 1;
        }
        if j > i {
            return self.peek(j) == Some('"');
        }
        matches!(self.peek(i), Some('"'))
            || (self.peek(0) == Some('b') && self.peek(i) == Some('\''))
    }

    fn prefixed_literal(&mut self, line: u32) {
        let mut text = String::new();
        // Consume the prefix letters.
        while matches!(self.peek(0), Some('r') | Some('b') | Some('c')) {
            if let Some(c) = self.bump() {
                text.push(c);
            }
        }
        if self.peek(0) == Some('\'') {
            // Byte literal `b'x'`.
            self.char_body(&mut text);
            self.push(TokKind::Char, text, line);
            return;
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        // Opening quote.
        if let Some(c) = self.bump() {
            text.push(c);
        }
        if hashes > 0 || text.contains('r') {
            // Raw string: ends at `"` + `hashes` hashes, no escapes.
            loop {
                match self.bump() {
                    None => break,
                    Some('"') => {
                        text.push('"');
                        let mut seen = 0;
                        while seen < hashes && self.peek(0) == Some('#') {
                            seen += 1;
                            text.push('#');
                            self.bump();
                        }
                        if seen == hashes {
                            break;
                        }
                    }
                    Some(c) => text.push(c),
                }
            }
        } else {
            self.cooked_string_body(&mut text);
        }
        self.push(TokKind::Str, text, line);
    }

    fn string(&mut self, line: u32) {
        let mut text = String::new();
        if let Some(c) = self.bump() {
            text.push(c);
        }
        self.cooked_string_body(&mut text);
        self.push(TokKind::Str, text, line);
    }

    fn cooked_string_body(&mut self, text: &mut String) {
        loop {
            match self.bump() {
                None => break,
                Some('\\') => {
                    text.push('\\');
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                Some('"') => {
                    text.push('"');
                    break;
                }
                Some(c) => text.push(c),
            }
        }
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a` / `'static` (lifetime) vs `'x'` / `'\n'` (char literal): a
        // lifetime is a quote, then ident chars, with no closing quote.
        if let Some(c1) = self.peek(1) {
            if (c1.is_alphabetic() || c1 == '_') && self.peek(2) != Some('\'') {
                let mut text = String::from("'");
                self.bump();
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokKind::Lifetime, text, line);
                return;
            }
        }
        let mut text = String::new();
        self.char_body(&mut text);
        self.push(TokKind::Char, text, line);
    }

    fn char_body(&mut self, text: &mut String) {
        // Opening quote.
        if let Some(c) = self.bump() {
            text.push(c);
        }
        loop {
            match self.bump() {
                None => break,
                Some('\\') => {
                    text.push('\\');
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                Some('\'') => {
                    text.push('\'');
                    break;
                }
                Some(c) => text.push(c),
            }
        }
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '#' && text == "r" {
                // Raw identifier `r#type`.
                text.push('#');
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // One decimal point, and only when a digit follows: `1.5`
                // is a float, but `1.max(2)` is a method call on a literal
                // and `0..n` is a range.
                if text.contains('.') {
                    break;
                }
                text.push('.');
                self.bump();
            } else if matches!(c, '+' | '-')
                && !text.starts_with("0x")
                && !text.starts_with("0b")
                && !text.starts_with("0o")
                && text.chars().last().is_some_and(|e| matches!(e, 'e' | 'E'))
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                // Signed exponent: `1e-5` / `2.5E+3` is one float literal,
                // not a subtraction.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let toks = kinds("let x = 42;");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, "=".into()),
                (TokKind::Num, "42".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn comments_are_classified() {
        let toks = kinds("// plain\n/// doc\n//! inner\n/* block */\n/** docblock */");
        assert_eq!(toks[0].0, TokKind::Comment);
        assert_eq!(toks[1].0, TokKind::Doc);
        assert_eq!(toks[2].0, TokKind::Doc);
        assert_eq!(toks[3].0, TokKind::Comment);
        assert_eq!(toks[4].0, TokKind::Doc);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "a { \" } b"; x"#);
        assert!(toks.iter().all(|(k, t)| *k != TokKind::Punct || t != "{"));
        assert_eq!(toks.last().map(|(k, _)| *k), Some(TokKind::Ident));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let toks = kinds(r###"let a = r#"raw " body"#; let r#type = 1;"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("raw")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Char && t == "'\\n'"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokKind::Comment);
        assert!(toks[0].1.contains("still"));
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n\nc");
        assert_eq!(
            toks.iter().map(|t| t.line).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
    }

    #[test]
    fn range_is_not_a_float() {
        let toks = kinds("0..n");
        assert_eq!(toks[0], (TokKind::Num, "0".into()));
        assert_eq!(toks[1], (TokKind::Punct, ".".into()));
        assert_eq!(toks[2], (TokKind::Punct, ".".into()));
    }

    #[test]
    fn method_call_on_numeric_literal_is_not_a_float() {
        // Regression: `1.max(2)` used to lex as one Num token `1.max`,
        // hiding the call from the parser's call-site scanner.
        let toks = kinds("let x = 1.max(2);");
        assert_eq!(toks[3], (TokKind::Num, "1".into()));
        assert_eq!(toks[4], (TokKind::Punct, ".".into()));
        assert_eq!(toks[5], (TokKind::Ident, "max".into()));
        // Plain floats still lex as one token.
        let toks = kinds("1.5 + 2.25");
        assert_eq!(toks[0], (TokKind::Num, "1.5".into()));
        assert_eq!(toks[2], (TokKind::Num, "2.25".into()));
    }

    #[test]
    fn signed_exponents_are_one_token() {
        // Regression: `1e-5` used to split at the sign and misparse as a
        // subtraction.
        let toks = kinds("let eps = 1e-5; let b = 2.5E+3; let c = 1.0e-7f64;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1e-5"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Num && t == "2.5E+3"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Num && t == "1.0e-7f64"));
        // Hex literals never absorb a following sign.
        let toks = kinds("0xE-1");
        assert_eq!(toks[0], (TokKind::Num, "0xE".into()));
        assert_eq!(toks[1], (TokKind::Punct, "-".into()));
        assert_eq!(toks[2], (TokKind::Num, "1".into()));
        // A real subtraction after a decimal literal is untouched.
        let toks = kinds("x - 3");
        assert_eq!(toks[1], (TokKind::Punct, "-".into()));
    }

    #[test]
    fn multi_hash_raw_strings_with_embedded_terminators() {
        // `"#` inside an `r##"…"##` body must not terminate the literal.
        let src = "r##\"has \"# inside\"## next";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokKind::Str);
        assert!(toks[0].1.contains("inside"));
        assert_eq!(toks[1], (TokKind::Ident, "next".into()));
        // Zero-hash raw strings terminate at the first quote.
        let toks = kinds("r\"a\\\" tail");
        assert_eq!(toks[0], (TokKind::Str, "r\"a\\\"".into()));
    }

    #[test]
    fn deeply_nested_block_comments_track_lines() {
        let toks = lex("/* a\n /* b\n /* c */\n */\n*/ after");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert_eq!(toks[1].text, "after");
        assert_eq!(toks[1].line, 5);
    }

    #[test]
    fn lifetime_char_disambiguation_in_match_arms() {
        let toks = kinds("match c { 'a'..='z' => 1, '_' => 2, _ => 3 }");
        let chars: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, vec!["'a'", "'z'", "'_'"]);
        let toks = kinds("'outer: loop { let q = 'q'; break 'outer; }");
        let lifes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifes, vec!["'outer", "'outer"]);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'q'"));
    }

    #[test]
    fn byte_literals() {
        let toks = kinds(r#"let m = b"SEAL"; let b = b'x';"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("SEAL")));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "b'x'"));
    }
}
