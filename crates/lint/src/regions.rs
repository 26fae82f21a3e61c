//! Region analysis over the token stream: which line spans belong to
//! `#[cfg(test)]` / `#[test]` items. They are computed by brace matching —
//! no full parse needed, because the rules only ask "is this line inside
//! such a region".

use crate::lexer::Token;

/// Inclusive line spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    pub fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

pub fn in_any(spans: &[Span], line: u32) -> bool {
    spans.iter().any(|s| s.contains(line))
}

/// Line spans of test-only code: items under `#[cfg(test)]` (or any
/// `cfg(...)` whose arguments mention `test`) and `#[test]` functions.
pub fn test_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_end = match matching(tokens, i + 1, '[', ']') {
                Some(e) => e,
                None => break,
            };
            if attr_is_test(&tokens[i + 2..attr_end]) {
                if let Some(span) = item_body_span(tokens, attr_end + 1) {
                    spans.push(span);
                }
            }
            i = attr_end + 1;
        } else {
            i += 1;
        }
    }
    merge(spans)
}

/// Does an attribute's inner token list mark test code? Covers `test`,
/// `cfg(test)`, `cfg(all(test, ...))`. A `not(...)`
/// anywhere means the item is compiled *outside* tests (`cfg(not(test))`),
/// so it stays subject to the rules.
fn attr_is_test(inner: &[Token]) -> bool {
    inner.iter().any(|t| t.is_ident("test")) && !inner.iter().any(|t| t.is_ident("not"))
}

/// From an item's first token (after its attribute), the line span of its
/// brace-delimited body; `None` for braceless items (`#[cfg(test)] use ...`).
fn item_body_span(tokens: &[Token], mut i: usize) -> Option<Span> {
    let start_line = tokens.get(i)?.line;
    // Scan to the body `{`, stopping at `;` (no body). Skip stacked
    // attributes and any nested delimiters in the signature (generics use
    // `<`>` which we don't track; parens and brackets we do).
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            let close = matching(tokens, i, '{', '}')?;
            return Some(Span {
                start: start_line,
                end: tokens[close].line,
            });
        }
        if t.is_punct(';') {
            return None;
        }
        if t.is_punct('(') {
            i = matching(tokens, i, '(', ')')? + 1;
            continue;
        }
        if t.is_punct('[') {
            i = matching(tokens, i, '[', ']')? + 1;
            continue;
        }
        i += 1;
    }
    None
}

/// Index of the delimiter matching `tokens[open]`.
fn matching(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    debug_assert!(tokens[open].is_punct(open_c));
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn merge(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_by_key(|s| (s.start, s.end));
    let mut out: Vec<Span> = Vec::with_capacity(spans.len());
    for s in spans {
        match out.last_mut() {
            Some(last) if s.start <= last.end => last.end = last.end.max(s.end),
            _ => out.push(s),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_is_spanned() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
fn also_real() {}
";
        let spans = test_spans(&lex(src).tokens);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].contains(3) && spans[0].contains(5));
        assert!(!spans[0].contains(1) && !spans[0].contains(6));
    }

    #[test]
    fn test_attr_fn_is_spanned() {
        let src = "\
#[test]
fn check() {
    body();
}
fn not_test() {}
";
        let spans = test_spans(&lex(src).tokens);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].contains(3));
        assert!(!spans[0].contains(5));
    }

    #[test]
    fn cfg_test_on_braceless_item_is_skipped() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn real() {}\n";
        let spans = test_spans(&lex(src).tokens);
        assert!(spans.is_empty());
    }
}
