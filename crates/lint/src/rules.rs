//! The seven project rules. Each check walks the token stream of one file;
//! R4 additionally correlates parser entry points with round-trip tests
//! across a whole crate.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{Lexed, Token};
use crate::regions::{in_any, Span};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// No `unwrap`/`expect`/`panic!`/`unreachable!` in hot-path modules.
    R1,
    /// No lossy `as u8`/`as u16`/`as u32` casts in wire-format code
    /// (`crates/wire` plus the trace on-disk writers).
    R2,
    /// No `thread::sleep` or blocking I/O inside async code.
    R3,
    /// Public parser entry points need a round-trip test (name convention).
    R4,
    /// No `let _ = ...send...(...)` in hot-path modules: a discarded send
    /// result silently swallows an I/O failure the replay must account for.
    R5,
    /// No `.abort()` on a task handle: the vendored runtime runs each task
    /// on its own thread and `abort` only detaches it, so a task blocked
    /// on a socket lives on.
    R6,
    /// No clock reads, `tokio::` paths, socket types or `.await` in the
    /// sans-I/O querier core: its drivers own time and I/O.
    R7,
    /// Meta: a malformed or unknown `ldp-lint:` directive.
    Directive,
}

impl Rule {
    pub fn from_name(name: &str) -> Option<Rule> {
        match name.to_ascii_lowercase().as_str() {
            "r1" | "hot-path-panic" => Some(Rule::R1),
            "r2" | "lossy-cast" => Some(Rule::R2),
            "r3" | "blocking-async" => Some(Rule::R3),
            "r4" | "parser-roundtrip" => Some(Rule::R4),
            "r5" | "swallowed-send" => Some(Rule::R5),
            "r6" | "detached-task" => Some(Rule::R6),
            "r7" | "sans-io" => Some(Rule::R7),
            _ => None,
        }
    }

    pub fn id(&self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::Directive => "directive",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rules apply to one file; workspace mode derives this from the
/// path, fixture mode turns everything on.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// R1: the file is a designated hot-path module.
    pub hot_path: bool,
    /// R2: the file emits wire-format bytes (`crates/wire` or a trace
    /// on-disk writer).
    pub wire: bool,
    /// R3: async bodies in this file must not block.
    pub async_blocking: bool,
    /// R6: task handles in this file must not be aborted.
    pub task_handles: bool,
    /// R7: the file is part of the sans-I/O querier core.
    pub sans_io: bool,
}

impl FileScope {
    pub fn all() -> FileScope {
        FileScope {
            hot_path: true,
            wire: true,
            async_blocking: true,
            task_handles: true,
            sans_io: true,
        }
    }
}

/// One file, lexed and region-annotated, ready for rule checks.
pub struct FileAnalysis {
    pub path: PathBuf,
    pub lexed: Lexed,
    pub test_spans: Vec<Span>,
    pub async_spans: Vec<Span>,
}

impl FileAnalysis {
    pub fn new(path: PathBuf, src: &str) -> FileAnalysis {
        let lexed = crate::lexer::lex(src);
        let test_spans = crate::regions::test_spans(&lexed.tokens);
        let async_spans = crate::regions::async_spans(&lexed.tokens);
        FileAnalysis {
            path,
            lexed,
            test_spans,
            async_spans,
        }
    }

    fn allowed(&self, line: u32, rule: Rule) -> bool {
        self.lexed
            .allows
            .get(&line)
            .is_some_and(|rules| rules.contains(&rule))
    }

    fn diag(&self, diags: &mut Vec<Diagnostic>, line: u32, rule: Rule, message: String) {
        if rule != Rule::Directive && self.allowed(line, rule) {
            return;
        }
        diags.push(Diagnostic {
            file: self.path.clone(),
            line,
            rule,
            message,
        });
    }

    /// Runs the per-file rules (R1–R3, R5–R7 plus directive hygiene).
    pub fn check(&self, scope: FileScope) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for &(line, ref why) in &self.lexed.bad_directives {
            self.diag(&mut diags, line, Rule::Directive, why.clone());
        }
        if scope.hot_path {
            self.check_r1(&mut diags);
            self.check_r5(&mut diags);
        }
        if scope.wire {
            self.check_r2(&mut diags);
        }
        if scope.async_blocking {
            self.check_r3(&mut diags);
        }
        if scope.task_handles {
            self.check_r6(&mut diags);
        }
        if scope.sans_io {
            self.check_r7(&mut diags);
        }
        diags
    }

    /// R1: `.unwrap()` / `.expect(` / `panic!` / `unreachable!` outside
    /// `#[cfg(test)]`.
    fn check_r1(&self, diags: &mut Vec<Diagnostic>) {
        let toks = &self.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if in_any(&self.test_spans, t.line) {
                continue;
            }
            let Some(name) = t.ident() else { continue };
            let hit = match name {
                "unwrap" | "expect" => {
                    // Require `.name(` so type names and our own rule
                    // definitions don't match.
                    i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                }
                "panic" | "unreachable" => toks.get(i + 1).is_some_and(|n| n.is_punct('!')),
                _ => false,
            };
            if hit {
                let what = match name {
                    "unwrap" | "expect" => format!(".{name}()"),
                    _ => format!("{name}!"),
                };
                self.diag(
                    diags,
                    t.line,
                    Rule::R1,
                    format!("`{what}` in hot-path code; return a typed error instead"),
                );
            }
        }
    }

    /// R2: `as u8`/`as u16`/`as u32` outside `#[cfg(test)]`.
    fn check_r2(&self, diags: &mut Vec<Diagnostic>) {
        let toks = &self.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("as") || in_any(&self.test_spans, t.line) {
                continue;
            }
            let Some(target) = toks.get(i + 1).and_then(Token::ident) else {
                continue;
            };
            if matches!(target, "u8" | "u16" | "u32") {
                self.diag(
                    diags,
                    t.line,
                    Rule::R2,
                    format!(
                        "lossy `as {target}` cast in wire code; use `{target}::try_from` \
                         (or annotate a deliberate truncation)"
                    ),
                );
            }
        }
    }

    /// R3: blocking calls inside async bodies (outside tests — the test
    /// runtime is allowed to block).
    fn check_r3(&self, diags: &mut Vec<Diagnostic>) {
        let toks = &self.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            let line = t.line;
            if !in_any(&self.async_spans, line) || in_any(&self.test_spans, line) {
                continue;
            }
            // `thread::sleep` (with or without a `std::` prefix).
            if t.is_ident("thread")
                && path_sep(toks, i + 1)
                && toks.get(i + 3).is_some_and(|n| n.is_ident("sleep"))
            {
                self.diag(
                    diags,
                    line,
                    Rule::R3,
                    "`thread::sleep` inside async fn blocks the executor; \
                     use `tokio::time::sleep`"
                        .to_string(),
                );
            }
            // Blocking std I/O constructors: `std::fs::...`,
            // `std::net::{TcpStream,TcpListener,UdpSocket}::...`,
            // `File::open/create`.
            if t.is_ident("std") && path_sep(toks, i + 1) {
                match toks.get(i + 3).and_then(Token::ident) {
                    Some("fs") => self.diag(
                        diags,
                        line,
                        Rule::R3,
                        "blocking `std::fs` call inside async fn; \
                         use `tokio::task::spawn_blocking`"
                            .to_string(),
                    ),
                    Some("net")
                        if path_sep(toks, i + 4)
                            && matches!(
                                toks.get(i + 6).and_then(Token::ident),
                                Some("TcpStream" | "TcpListener" | "UdpSocket")
                            ) =>
                    {
                        self.diag(
                            diags,
                            line,
                            Rule::R3,
                            "blocking `std::net` socket inside async fn; \
                             use the `tokio::net` equivalents"
                                .to_string(),
                        );
                    }
                    _ => {}
                }
            }
            if t.is_ident("File")
                && path_sep(toks, i + 1)
                && matches!(
                    toks.get(i + 3).and_then(Token::ident),
                    Some("open" | "create")
                )
            {
                self.diag(
                    diags,
                    line,
                    Rule::R3,
                    "blocking `File` I/O inside async fn; \
                     use `tokio::task::spawn_blocking`"
                        .to_string(),
                );
            }
        }
    }

    /// R5: `let _ = ...send...(...)` outside `#[cfg(test)]`. Discarding a
    /// send result in hot-path code swallows the very failures the
    /// fault-tolerance counters exist to account for.
    fn check_r5(&self, diags: &mut Vec<Diagnostic>) {
        let toks = &self.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("let") || in_any(&self.test_spans, t.line) {
                continue;
            }
            if !(toks.get(i + 1).is_some_and(|n| n.is_ident("_"))
                && toks.get(i + 2).is_some_and(|n| n.is_punct('=')))
            {
                continue;
            }
            // Scan the initializer (up to its terminating `;`) for a call
            // to an identifier containing `send`.
            for j in i + 3..toks.len() {
                if toks[j].is_punct(';') {
                    break;
                }
                let Some(name) = toks[j].ident() else {
                    continue;
                };
                if name.contains("send") && toks.get(j + 1).is_some_and(|n| n.is_punct('(')) {
                    self.diag(
                        diags,
                        t.line,
                        Rule::R5,
                        format!(
                            "`let _ =` discards the result of `{name}(...)` in hot-path \
                             code; handle the error or count the failure"
                        ),
                    );
                    break;
                }
            }
        }
    }

    /// R6: `.abort()` outside `#[cfg(test)]`. The vendored runtime cannot
    /// cancel a thread blocked in a syscall, so `abort` detaches the task:
    /// a reader blocked on a socket outlives its owner, and the socket with
    /// it. Let the task end on its own instead.
    fn check_r6(&self, diags: &mut Vec<Diagnostic>) {
        let toks = &self.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("abort") || in_any(&self.test_spans, t.line) {
                continue;
            }
            let call = i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
            if call {
                self.diag(
                    diags,
                    t.line,
                    Rule::R6,
                    "`.abort()` only detaches a task in the thread-per-task runtime; \
                     a task blocked on I/O outlives it — make the task end on its own"
                        .to_string(),
                );
            }
        }
    }
}

impl FileAnalysis {
    /// R7: outside `#[cfg(test)]`, the querier core reads no clock
    /// (`Instant::now`, `SystemTime::now`), names no `tokio::` path and no
    /// socket type, and never `.await`s: time comes in as an argument and
    /// I/O goes out as actions, so the simulator drives the same code as
    /// the live engine.
    fn check_r7(&self, diags: &mut Vec<Diagnostic>) {
        let toks = &self.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if in_any(&self.test_spans, t.line) {
                continue;
            }
            let what = match name {
                "Instant" | "SystemTime"
                    if path_sep(toks, i + 1)
                        && toks.get(i + 3).is_some_and(|n| n.is_ident("now")) =>
                {
                    format!("`{name}::now`")
                }
                "tokio" if path_sep(toks, i + 1) => "`tokio::`".to_string(),
                "await" if i > 0 && toks[i - 1].is_punct('.') => "`.await`".to_string(),
                "UdpSocket" | "TcpStream" | "TcpListener" | "UnixStream" | "UnixDatagram"
                | "UnixListener" => format!("socket type `{name}`"),
                _ => continue,
            };
            self.diag(
                diags,
                t.line,
                Rule::R7,
                format!(
                    "{what} in the sans-I/O querier core; take the time as an \
                     argument and leave the I/O to a driver"
                ),
            );
        }
    }
}

/// Are `toks[i]`, `toks[i+1]` the two colons of a `::`?
fn path_sep(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(':')) && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// Function names treated as public parser entry points by R4.
const ENTRY_POINT_NAMES: &[&str] = &["from_bytes", "parse", "decode", "decode_body", "parse_zone"];

#[derive(Debug)]
pub struct EntryPoint {
    pub file: PathBuf,
    pub line: u32,
    pub fn_name: String,
    /// File stem of the defining module (`message` for `message.rs`).
    pub module: String,
}

/// Collects `pub fn <entry-point-name>` declarations outside test regions.
pub fn entry_points(analysis: &FileAnalysis) -> Vec<EntryPoint> {
    let toks = &analysis.lexed.tokens;
    let module = analysis
        .path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || in_any(&analysis.test_spans, t.line) {
            continue;
        }
        // `pub fn name` or `pub(crate) fn name` — the latter is not a
        // public entry point, so require `fn` directly after `pub`.
        let Some(ft) = toks.get(i + 1) else { continue };
        if !ft.is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 2).and_then(Token::ident) else {
            continue;
        };
        if ENTRY_POINT_NAMES.contains(&name) {
            out.push(EntryPoint {
                file: analysis.path.clone(),
                line: toks[i + 2].line,
                fn_name: name.to_string(),
                module: module.clone(),
            });
        }
    }
    out
}

/// Collects names of `#[test]` functions whose name contains `roundtrip`
/// or `round_trip`, paired with the file they live in.
pub fn roundtrip_tests(analysis: &FileAnalysis) -> Vec<(PathBuf, String)> {
    let toks = &analysis.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
            continue;
        };
        if !(name.contains("roundtrip") || name.contains("round_trip")) {
            continue;
        }
        // Must be a test: inside a test span, or in a `tests/` integration
        // file (where `#[test]` fns are not under `#[cfg(test)]`).
        let in_tests_dir = analysis.path.components().any(|c| c.as_os_str() == "tests");
        if in_any(&analysis.test_spans, t.line) || in_tests_dir {
            out.push((analysis.path.clone(), name.to_string()));
        }
    }
    out
}

/// R4: every entry point must be covered by some round-trip test — one in
/// the same file, one whose name mentions the module, or one whose name
/// mentions the entry point's own name.
pub fn check_r4(
    entries: &[EntryPoint],
    tests: &[(PathBuf, String)],
    allows: impl Fn(&Path, u32) -> bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let names: HashSet<&str> = tests.iter().map(|(_, n)| n.as_str()).collect();
    for ep in entries {
        if allows(&ep.file, ep.line) {
            continue;
        }
        let covered = tests.iter().any(|(file, _)| file == &ep.file)
            || names
                .iter()
                .any(|n| n.contains(ep.module.as_str()) || n.contains(ep.fn_name.as_str()));
        if !covered {
            diags.push(Diagnostic {
                file: ep.file.clone(),
                line: ep.line,
                rule: Rule::R4,
                message: format!(
                    "public parser entry point `{}` (module `{}`) has no round-trip \
                     test; add a `#[test]` whose name contains `roundtrip` and \
                     `{}` or `{}`",
                    ep.fn_name, ep.module, ep.module, ep.fn_name
                ),
            });
        }
    }
    diags
}
