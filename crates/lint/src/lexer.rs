//! A minimal Rust token scanner: enough lexical fidelity to search for
//! patterns (`.unwrap()`, `as u16`, `thread::sleep`) without false matches
//! inside comments, strings, char literals, or raw strings — the failure
//! mode that makes grep-based audits untrustworthy.
//!
//! Also extracts `// ldp-lint: allow(<rules>) -- <reason>` escape-hatch
//! directives, attaching each to the source line it suppresses.

use std::collections::{HashMap, HashSet};

use crate::rules::Rule;

/// One significant token; literals are opaque (their text never matters to
/// any rule, only that they do not leak identifier-shaped fragments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    Ident(String),
    Punct(char),
    Literal,
}

#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

impl Token {
    pub fn is_ident(&self, text: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == text)
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(&self.kind, TokenKind::Punct(p) if *p == c)
    }

    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(i) => Some(i),
            _ => None,
        }
    }
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    /// line number → rules suppressed on that line.
    pub allows: HashMap<u32, HashSet<Rule>>,
    /// Malformed or unknown-rule directives: (line, what is wrong).
    pub bad_directives: Vec<(u32, String)>,
}

pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    // Directives seen on comment-only lines; they apply to the next line
    // that produces a token. (line, rules)
    let mut pending: Vec<(u32, HashSet<Rule>)> = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_has_token = false;

    macro_rules! push_tok {
        ($kind:expr) => {{
            // A pending standalone directive covers the first line that
            // carries real tokens after it.
            if !line_has_token && !pending.is_empty() {
                for (_, rules) in pending.drain(..) {
                    out.allows.entry(line).or_default().extend(rules);
                }
            }
            line_has_token = true;
            out.tokens.push(Token { kind: $kind, line });
        }};
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                line_has_token = false;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'\n' {
                    end += 1;
                }
                let text = &src[start..end];
                if let Some(directive) = text.trim_start().strip_prefix("ldp-lint:") {
                    match parse_directive(directive) {
                        Ok(rules) => {
                            if line_has_token {
                                out.allows.entry(line).or_default().extend(rules);
                            } else {
                                pending.push((line, rules));
                            }
                        }
                        Err(why) => out.bad_directives.push((line, why)),
                    }
                }
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comments, counting newlines.
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        line_has_token = false;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line, &mut line_has_token);
                push_tok!(TokenKind::Literal);
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let next = bytes.get(i + 1).copied();
                if next == Some(b'\\') {
                    // Escaped char literal.
                    i += 2; // past '\
                    if i < bytes.len() {
                        i += 1; // escaped char (covers \n \t \' \\ \0; \x.. and
                                // \u{..} tails are consumed by the quote scan)
                    }
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    push_tok!(TokenKind::Literal);
                } else if next.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                    // Find where the ident run ends; a closing quote right
                    // after a single char means char literal.
                    let mut j = i + 1;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    if j == i + 2 && bytes.get(j) == Some(&b'\'') {
                        i = j + 1;
                        push_tok!(TokenKind::Literal);
                    } else {
                        // Lifetime: skip it entirely (no rule cares).
                        i = j;
                    }
                } else {
                    // Bare quote (e.g. in macro), treat as punct.
                    push_tok!(TokenKind::Punct('\''));
                    i += 1;
                }
            }
            b'r' | b'b' if is_literal_prefix(bytes, i) => {
                i = skip_prefixed_literal(bytes, i, &mut line, &mut line_has_token);
                push_tok!(TokenKind::Literal);
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                push_tok!(TokenKind::Ident(src[start..i].to_string()));
            }
            _ if b.is_ascii_digit() => {
                // Number literal; a single dot continues it only when
                // followed by a digit (so `0..10` leaves the range dots).
                i += 1;
                while i < bytes.len() {
                    let c = bytes[i];
                    let continues = c.is_ascii_alphanumeric()
                        || c == b'_'
                        || (c == b'.' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit()));
                    if continues {
                        i += 1;
                    } else {
                        break;
                    }
                }
                push_tok!(TokenKind::Literal);
            }
            _ => {
                push_tok!(TokenKind::Punct(b as char));
                i += 1;
            }
        }
    }
    // Trailing standalone directives suppress nothing; report them so a
    // typo at end-of-file is not silently ignored.
    for (dline, _) in pending {
        out.bad_directives.push((
            dline,
            "allow directive does not precede any code".to_string(),
        ));
    }
    out
}

/// Parses the text after `ldp-lint:`; expects `allow(<r1>[, <r2>...]) -- <reason>`.
fn parse_directive(text: &str) -> Result<HashSet<Rule>, String> {
    let text = text.trim();
    let inner = text
        .strip_prefix("allow(")
        .ok_or_else(|| format!("expected `allow(<rule>) -- <reason>`, got `{text}`"))?;
    let close = inner
        .find(')')
        .ok_or_else(|| "unclosed `allow(` directive".to_string())?;
    let (list, rest) = inner.split_at(close);
    let rest = rest[1..].trim();
    let reason = rest.strip_prefix("--").map(str::trim).unwrap_or_default();
    if reason.is_empty() {
        return Err("allow directive needs a justification: `-- <reason>`".to_string());
    }
    let mut rules = HashSet::new();
    for name in list.split(',') {
        let name = name.trim();
        let rule = Rule::from_name(name)
            .ok_or_else(|| format!("unknown rule `{name}` in allow directive"))?;
        rules.insert(rule);
    }
    if rules.is_empty() {
        return Err("allow directive lists no rules".to_string());
    }
    Ok(rules)
}

/// Is `bytes[i..]` the start of a raw/byte string or byte char literal
/// (`r"`, `r#"`, `b"`, `br"`, `b'`, `br#"` ...)?
fn is_literal_prefix(bytes: &[u8], i: usize) -> bool {
    let rest = &bytes[i..];
    let after_prefix = |n: usize| -> Option<u8> { rest.get(n).copied() };
    match rest[0] {
        b'r' => matches!(after_prefix(1), Some(b'"') | Some(b'#')),
        b'b' => match after_prefix(1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => matches!(after_prefix(2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Skips a `"`-delimited string starting at `bytes[i] == b'"'`; returns the
/// index just past the closing quote.
fn skip_string(bytes: &[u8], i: usize, line: &mut u32, line_has_token: &mut bool) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\n' => {
                *line += 1;
                *line_has_token = false;
                j += 1;
            }
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skips `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, or `b'x'`.
fn skip_prefixed_literal(
    bytes: &[u8],
    i: usize,
    line: &mut u32,
    line_has_token: &mut bool,
) -> usize {
    let mut j = i;
    let mut raw = false;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') {
        raw |= bytes[j] == b'r';
        j += 1;
    }
    if !raw {
        return match bytes.get(j) {
            Some(b'"') => skip_string(bytes, j, line, line_has_token),
            Some(b'\'') => {
                // Byte char literal b'x' or b'\n'.
                let mut k = j + 1;
                if bytes.get(k) == Some(&b'\\') {
                    k += 1;
                }
                k += 1;
                while k < bytes.len() && bytes[k] != b'\'' {
                    k += 1;
                }
                k + 1
            }
            _ => j + 1,
        };
    }
    // Raw string: count hashes, then scan for `"` + same number of hashes.
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return j; // not actually a raw string; resync
    }
    j += 1;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            *line += 1;
            *line_has_token = false;
            j += 1;
            continue;
        }
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(String::from))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let src = r##"
            // not.unwrap() here
            /* nor.unwrap() /* nested */ here */
            let s = "x.unwrap()";
            let r = r#"y.unwrap()"#;
            let c = '\'';
            real.unwrap();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids.iter().filter(|i| *i == "unwrap").count(),
            1,
            "only the real call should survive: {ids:?}"
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'q';";
        let lexed = lex(src);
        // The char literal is one Literal token; lifetimes vanish.
        let lits = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 1);
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let src = "let x = y.unwrap(); // ldp-lint: allow(r1) -- test shim\n";
        let lexed = lex(src);
        assert!(lexed.allows.get(&1).is_some_and(|r| r.contains(&Rule::R1)));
        assert!(lexed.bad_directives.is_empty());
    }

    #[test]
    fn standalone_allow_applies_to_next_line() {
        let src = "\n// ldp-lint: allow(r2, r5) -- fixture\nlet x = 1;\n";
        let lexed = lex(src);
        let rules = lexed.allows.get(&3).expect("next code line covered");
        assert!(rules.contains(&Rule::R2) && rules.contains(&Rule::R5));
    }

    #[test]
    fn directive_without_reason_is_rejected() {
        let lexed = lex("// ldp-lint: allow(r1)\nlet x = 1;\n");
        assert_eq!(lexed.bad_directives.len(), 1);
        assert!(lexed.allows.is_empty());
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let lexed = lex("// ldp-lint: allow(r9) -- what\nlet x = 1;\n");
        assert_eq!(lexed.bad_directives.len(), 1);
    }

    #[test]
    fn number_ranges_keep_their_dots() {
        let lexed = lex("let r = 0..10; let f = 1.5;");
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "range dots survive, float dot is absorbed");
    }
}
