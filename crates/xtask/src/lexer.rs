//! A small hand-rolled Rust lexer for the lint pass.
//!
//! The PR 2 scanner worked line-by-line over comment-stripped text, which
//! made three whole classes of diagnostics unreliable:
//!
//! * **string blindness** — string *contents* were kept, so a fixture or
//!   message containing `.unwrap()` / `HashMap` tripped the rules
//!   (false positives that forced crate-level exemptions);
//! * **raw strings** — `r#"…"#` was lexed as a plain `"` string, so an
//!   interior `"` desynchronised the whole state machine;
//! * **line granularity** — a call split across lines
//!   (`.expect(\n"x")`) was invisible to the argument checks
//!   (false negatives).
//!
//! This module replaces that with a real token stream. It is *not* a full
//! Rust lexer (no multi-char operator fusion, no numeric validation) —
//! it is exactly the subset the rules need, with two hard guarantees:
//!
//! 1. **Round-trip**: concatenating `token.text` over [`lex`]'s output
//!    reproduces the input byte-for-byte (property-tested). Nothing is
//!    ever skipped or invented, so line numbers are exact.
//! 2. **Totality**: any input lexes without panicking. Malformed source
//!    degrades to [`TokenKind::Unknown`] tokens rather than derailing
//!    the scan.
//!
//! Handled correctly, with tests: line and (nested) block comments,
//! `"…"` / `b"…"` / `c"…"` strings, raw strings with any hash depth
//! (`r"…"`, `r#"…"#`, `br##"…"##`, `cr#"…"#`), char and byte-char
//! literals (including `'"'`, `'\''`, and `'/'`), lifetime-vs-char
//! disambiguation (`<'a>` vs `'a'`), raw identifiers (`r#type`), and
//! numeric literals with suffixes, underscores, and exponents.

/// Classification of one source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace (may span lines).
    Whitespace,
    /// `// …` up to (not including) the newline; doc comments included.
    LineComment,
    /// `/* … */`, nesting handled; doc block comments included.
    BlockComment,
    /// Identifier or keyword, including raw identifiers (`r#type`) and
    /// primitive type names (`u32`, `f64`, …).
    Ident,
    /// `'a`, `'static`, `'_` — a quote introducing a lifetime, not a char.
    Lifetime,
    /// `'x'`, `'\n'`, `b'x'` — char and byte-char literals.
    Char,
    /// `"…"`, `b"…"`, `c"…"` — escaped (cooked) string literals.
    Str,
    /// `r"…"`, `r#"…"#`, `br##"…"##`, `cr#"…"#` — raw string literals.
    RawStr,
    /// Integer literal (`42`, `0xFF_u32`, `0b1010`).
    Int,
    /// Float literal (`1.0`, `2f64`, `1e-3`, `1.`).
    Float,
    /// A single punctuation character (`.`, `:`, `!`, `<`, …).
    Punct,
    /// Anything unexpected (stray quote, invalid byte); never fatal.
    Unknown,
}

impl TokenKind {
    /// Whether rules should see this token (comments and whitespace are
    /// layout, not code — but pragmas are read from comment tokens).
    pub fn is_significant(self) -> bool {
        !matches!(self, TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// One lexed span. `text` borrows from the source; concatenating the
/// `text` of every token in order reproduces the source exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    pub kind: TokenKind,
    pub text: &'a str,
    /// 1-based line of the token's first character.
    pub line: usize,
}

/// Lexes `src` into a complete, round-tripping token stream.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer { src, chars: src.char_indices().collect(), pos: 0, line: 1 }.run()
}

struct Lexer<'a> {
    src: &'a str,
    /// `(byte offset, char)` pairs; `pos` indexes into this.
    chars: Vec<(usize, char)>,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        let mut out = Vec::new();
        while self.pos < self.chars.len() {
            let start = self.pos;
            let start_line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            let lo = self.chars[start].0;
            let hi = self.chars.get(self.pos).map_or(self.src.len(), |&(o, _)| o);
            out.push(Token { kind, text: &self.src[lo..hi], line: start_line });
        }
        out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    /// Consumes one char, tracking line numbers.
    fn bump(&mut self) {
        if let Some(&(_, c)) = self.chars.get(self.pos) {
            if c == '\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Lexes one token starting at `self.pos`, advancing past it.
    fn next_kind(&mut self) -> TokenKind {
        let c = self.peek(0).expect("next_kind called with input remaining");
        if c.is_whitespace() {
            while self.peek(0).is_some_and(char::is_whitespace) {
                self.bump();
            }
            return TokenKind::Whitespace;
        }
        if c == '/' {
            match self.peek(1) {
                Some('/') => return self.line_comment(),
                Some('*') => return self.block_comment(),
                _ => {
                    self.bump();
                    return TokenKind::Punct;
                }
            }
        }
        if c == '"' {
            return self.cooked_string();
        }
        if c == '\'' {
            return self.quote();
        }
        if c.is_ascii_digit() {
            return self.number();
        }
        if is_ident_start(c) {
            return self.ident_or_prefixed_literal();
        }
        self.bump();
        if c.is_ascii_punctuation() {
            TokenKind::Punct
        } else {
            TokenKind::Unknown
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
        TokenKind::LineComment
    }

    fn block_comment(&mut self) -> TokenKind {
        self.bump_n(2); // /*
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('*'), Some('/')) => {
                    self.bump_n(2);
                    depth -= 1;
                }
                (Some('/'), Some('*')) => {
                    self.bump_n(2);
                    depth += 1;
                }
                (Some(_), _) => self.bump(),
                (None, _) => break, // unterminated: degrade gracefully
            }
        }
        TokenKind::BlockComment
    }

    /// A `"…"` body with escape handling; the opening quote is at `pos`.
    fn cooked_string(&mut self) -> TokenKind {
        self.bump(); // "
        loop {
            match self.peek(0) {
                Some('\\') => self.bump_n(2),
                Some('"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
                None => break, // unterminated
            }
        }
        TokenKind::Str
    }

    /// `'` disambiguation: char literal vs lifetime.
    fn quote(&mut self) -> TokenKind {
        // 'x' forms, in order of the decision that identifies them:
        //   '\…'          escaped char literal
        //   'c'           any single char followed by a closing quote
        //   'ident        lifetime (no closing quote after one char)
        match (self.peek(1), self.peek(2)) {
            (Some('\\'), _) => {
                self.bump_n(2); // ' and backslash
                self.bump(); // the escaped char itself
                // \u{…} and \x…: consume to the closing quote.
                while self.peek(0).is_some_and(|c| c != '\'' && c != '\n') {
                    self.bump();
                }
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                TokenKind::Char
            }
            (Some(_), Some('\'')) => {
                self.bump_n(3);
                TokenKind::Char
            }
            (Some(c), _) if is_ident_start(c) => {
                self.bump(); // '
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                TokenKind::Lifetime
            }
            _ => {
                self.bump();
                TokenKind::Unknown // stray quote
            }
        }
    }

    fn number(&mut self) -> TokenKind {
        let mut float = false;
        if self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'))
        {
            self.bump_n(2);
            while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                self.bump();
            }
            return TokenKind::Int;
        }
        while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            self.bump();
        }
        // A dot continues the number only when it is not a range (`1..2`),
        // a method call on the literal (`1.max(2)`), or a tuple-ish access.
        if self.peek(0) == Some('.') {
            let after = self.peek(1);
            let is_fraction =
                after.is_none_or(|c| c.is_ascii_digit() || !(c == '.' || is_ident_start(c)));
            if is_fraction {
                float = true;
                self.bump(); // .
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.bump();
                }
            }
        }
        // Exponent: `1e3`, `2.5E-7`. An `e` not followed by digits/sign is
        // a suffix (`1e` is not valid Rust; treat as suffix anyway).
        if matches!(self.peek(0), Some('e' | 'E'))
            && (self.peek(1).is_some_and(|c| c.is_ascii_digit())
                || (matches!(self.peek(1), Some('+' | '-'))
                    && self.peek(2).is_some_and(|c| c.is_ascii_digit())))
        {
            float = true;
            self.bump(); // e
            if matches!(self.peek(0), Some('+' | '-')) {
                self.bump();
            }
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.bump();
            }
        }
        // Type suffix: `1u32`, `1.0f64`.
        if self.peek(0).is_some_and(is_ident_start) {
            let suffix_start = self.pos;
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump();
            }
            let lo = self.chars[suffix_start].0;
            let hi = self.chars.get(self.pos).map_or(self.src.len(), |&(o, _)| o);
            if matches!(&self.src[lo..hi], "f32" | "f64") {
                float = true;
            }
        }
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }

    /// An identifier, or one of the literal prefixes (`r` `b` `c` `br`
    /// `cr`) when immediately followed by a string/char opener.
    fn ident_or_prefixed_literal(&mut self) -> TokenKind {
        // Raw string forms: prefix containing `r`, then `#`* then `"`.
        if let Some(hashes) = self.raw_string_lookahead() {
            return self.raw_string(hashes);
        }
        // Cooked prefixed strings: b"…", c"…".
        if matches!(self.peek(0), Some('b' | 'c')) && self.peek(1) == Some('"') {
            self.bump();
            return self.cooked_string();
        }
        // Byte char: b'x'.
        if self.peek(0) == Some('b') && self.peek(1) == Some('\'') {
            self.bump();
            return self.quote();
        }
        // Raw identifier: r#type (but r#"…" was handled above).
        if self.peek(0) == Some('r')
            && self.peek(1) == Some('#')
            && self.peek(2).is_some_and(is_ident_start)
        {
            self.bump_n(2);
        }
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        TokenKind::Ident
    }

    /// If the input at `pos` opens a raw string (`r`, `br`, `cr`, plus
    /// `#`*, plus `"`), returns the hash count and consumes the prefix
    /// *up to and including* the opening quote.
    fn raw_string_lookahead(&mut self) -> Option<usize> {
        let prefix_len = match (self.peek(0), self.peek(1)) {
            (Some('r'), _) => 1,
            (Some('b' | 'c'), Some('r')) => 2,
            _ => return None,
        };
        let mut hashes = 0;
        while self.peek(prefix_len + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(prefix_len + hashes) != Some('"') {
            return None;
        }
        self.bump_n(prefix_len + hashes + 1);
        Some(hashes)
    }

    /// Body of a raw string whose opening `"` was just consumed: scan for
    /// `"` followed by `hashes` hash marks (no escapes in raw strings).
    fn raw_string(&mut self, hashes: usize) -> TokenKind {
        loop {
            match self.peek(0) {
                Some('"') => {
                    let closed = (1..=hashes).all(|k| self.peek(k) == Some('#'));
                    self.bump();
                    if closed {
                        self.bump_n(hashes);
                        return TokenKind::RawStr;
                    }
                }
                Some(_) => self.bump(),
                None => return TokenKind::RawStr, // unterminated
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::TokenKind::*;
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).iter().filter(|t| t.kind.is_significant()).map(|t| (t.kind, t.text)).collect()
    }

    fn roundtrip(src: &str) {
        let joined: String = lex(src).iter().map(|t| t.text).collect();
        assert_eq!(joined, src, "token spans must concatenate to the source");
    }

    #[test]
    fn idents_and_punct() {
        assert_eq!(
            kinds("let x = a.unwrap();"),
            vec![
                (Ident, "let"),
                (Ident, "x"),
                (Punct, "="),
                (Ident, "a"),
                (Punct, "."),
                (Ident, "unwrap"),
                (Punct, "("),
                (Punct, ")"),
                (Punct, ";"),
            ]
        );
    }

    #[test]
    fn string_contents_are_one_token() {
        let ts = kinds("let s = \".unwrap() HashMap thread_rng\";");
        assert_eq!(ts[3], (Str, "\".unwrap() HashMap thread_rng\""));
        roundtrip("let s = \".unwrap() HashMap thread_rng\";");
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let src = r#"let s = "she said \"hi\""; x"#;
        let ts = kinds(src);
        assert_eq!(ts[3].0, Str);
        assert_eq!(ts.last().expect("trailing ident after the string"), &(Ident, "x"));
        roundtrip(src);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"interior " quote and .unwrap()"#; y"###;
        let ts = kinds(src);
        assert_eq!(ts[3].0, RawStr);
        assert_eq!(ts[3].1, r##"r#"interior " quote and .unwrap()"#"##);
        assert_eq!(ts.last().expect("trailing ident after the raw string"), &(Ident, "y"));
        roundtrip(src);
    }

    #[test]
    fn raw_string_zero_hashes_and_double_hashes() {
        assert_eq!(kinds(r#"r"ab" z"#)[0], (RawStr, r#"r"ab""#));
        let src = "r##\"has \"# inside\"## z";
        assert_eq!(kinds(src)[0], (RawStr, "r##\"has \"# inside\"##"));
        roundtrip(src);
    }

    #[test]
    fn byte_and_c_string_prefixes() {
        assert_eq!(kinds(r#"b"bytes" x"#)[0], (Str, r#"b"bytes""#));
        assert_eq!(kinds(r#"c"cstr" x"#)[0], (Str, r#"c"cstr""#));
        assert_eq!(kinds(r##"br#"raw"# x"##)[0], (RawStr, r##"br#"raw"#"##));
        assert_eq!(kinds("b'x' y")[0], (Char, "b'x'"));
    }

    #[test]
    fn raw_ident_is_an_ident_not_a_raw_string() {
        assert_eq!(kinds("r#type = 1;")[0], (Ident, "r#type"));
        roundtrip("r#type = 1;");
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        assert_eq!(kinds(src), vec![(Ident, "a"), (Ident, "b")]);
        roundtrip(src);
    }

    #[test]
    fn unterminated_block_comment_reaches_eof() {
        let src = "a /* never closed";
        assert_eq!(kinds(src), vec![(Ident, "a")]);
        roundtrip(src);
    }

    #[test]
    fn char_literal_containing_a_quote_mark() {
        // '"' must not open a string; '//' content must not open a comment.
        let src = "let q = '\"'; let s = '/'; mark();";
        let ts = kinds(src);
        assert_eq!(ts[3], (Char, "'\"'"));
        assert_eq!(ts[8], (Char, "'/'"));
        assert_eq!(ts[10], (Ident, "mark"));
        roundtrip(src);
    }

    #[test]
    fn escaped_char_literals() {
        assert_eq!(kinds(r"'\n' x")[0], (Char, r"'\n'"));
        assert_eq!(kinds(r"'\'' x")[0], (Char, r"'\''"));
        assert_eq!(kinds(r"'\u{1F600}' x")[0], (Char, r"'\u{1F600}'"));
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; }";
        let ts = kinds(src);
        assert!(ts.contains(&(Lifetime, "'a")), "{ts:?}");
        assert!(ts.contains(&(Char, "'a'")), "{ts:?}");
        assert!(ts.contains(&(Lifetime, "'a")));
        roundtrip(src);
    }

    #[test]
    fn static_and_anonymous_lifetimes() {
        assert!(kinds("&'static str").contains(&(Lifetime, "'static")));
        assert!(kinds("Foo<'_>").contains(&(Lifetime, "'_")));
    }

    #[test]
    fn numbers_ints_floats_ranges_and_suffixes() {
        assert_eq!(kinds("42 ")[0], (Int, "42"));
        assert_eq!(kinds("0xFF_u32 ")[0], (Int, "0xFF_u32"));
        assert_eq!(kinds("1.5 ")[0], (Float, "1.5"));
        assert_eq!(kinds("1e-3 ")[0], (Float, "1e-3"));
        assert_eq!(kinds("2f64 ")[0], (Float, "2f64"));
        assert_eq!(kinds("1. ")[0], (Float, "1."));
        // Ranges and literal method calls do not absorb the dot.
        assert_eq!(kinds("0..n")[..3], [(Int, "0"), (Punct, "."), (Punct, ".")]);
        assert_eq!(kinds("1.max(2)")[..3], [(Int, "1"), (Punct, "."), (Ident, "max")]);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let src = "a\n\nb /* c\nd */ e\n\"s1\ns2\" f";
        let sig: Vec<(usize, &str)> = lex(src)
            .iter()
            .filter(|t| t.kind.is_significant())
            .map(|t| (t.line, t.text))
            .collect();
        assert_eq!(
            sig,
            vec![(1, "a"), (3, "b"), (4, "e"), (5, "\"s1\ns2\""), (6, "f")]
        );
    }

    #[test]
    fn comment_markers_inside_strings_do_not_comment() {
        let src = "let url = \"https://example.com\"; let x = 1;";
        let ts = kinds(src);
        assert!(ts.contains(&(Ident, "x")), "{ts:?}");
        roundtrip(src);
    }

    #[test]
    fn totality_on_garbage() {
        for src in ["'", "\"unclosed", "r#\"unclosed", "\u{0}\u{7f}é'", "/*/", "b'", "1e"] {
            roundtrip(src); // must not panic, must round-trip
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Fragments chosen to collide in interesting ways when concatenated:
    /// literal openers, comment markers, quotes, numbers, idents.
    const FRAGMENTS: &[&str] = &[
        "fn", "let", "x", "_y", "r", "b", "c", "br", "r#type", " ", "\n", "\t", "(", ")", "{",
        "}", "<", ">", ";", ":", "::", ".", "..", "=", "->", "'a", "'a'", "'\\n'", "'\"'", "//",
        "/*", "*/", "/", "*", "\"", "\\\"", "\"str\"", "r\"raw\"", "r#\"raw#\"#", "b\"by\"",
        "b'z'", "#", "##", "0", "1.5", "0xFF", "1e-3", "2f64", "1..9", "unwrap", "HashMap",
        "thread_rng", "é", "∀", "\u{0}",
    ];

    fn soup() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..FRAGMENTS.len(), 0..60)
            .prop_map(|ix| ix.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    proptest! {
        /// Concatenated token spans reproduce the source byte-for-byte,
        /// for arbitrary (frequently malformed) fragment soups.
        #[test]
        fn lex_round_trips_spans(src in soup()) {
            let toks = lex(&src);
            let joined: String = toks.iter().map(|t| t.text).collect();
            prop_assert_eq!(&joined, &src);
        }

        /// Line numbers are consistent: non-decreasing, starting at 1,
        /// and each token's line equals 1 + newlines before its start.
        #[test]
        fn lex_line_numbers_consistent(src in soup()) {
            let toks = lex(&src);
            let mut consumed = 0usize;
            let mut newlines = 0usize;
            for t in &toks {
                prop_assert_eq!(t.line, newlines + 1);
                consumed += t.text.len();
                newlines += t.text.matches('\n').count();
            }
            prop_assert_eq!(consumed, src.len());
        }
    }
}
