//! `ldp-lint`: a dependency-free source-level analyzer enforcing the
//! workspace's safety invariants as machine-checkable rules.
//!
//! | rule | alias              | what it forbids                                            |
//! |------|--------------------|------------------------------------------------------------|
//! | R1   | `hot-path-panic`   | `unwrap`/`expect`/`panic!`/`unreachable!` in hot paths     |
//! | R2   | `lossy-cast`       | `as u8`/`as u16`/`as u32` in wire-format code              |
//! | R4   | `parser-roundtrip` | public parser entry points without a round-trip test       |
//! | R5   | `swallowed-send`   | `let _ = …send…(…)` discarding I/O results in hot paths    |
//! | R7   | `sans-io`          | clock reads, `tokio::`, sockets, `.await` in the core      |
//!
//! Escape hatch (requires a reason):
//! `// ldp-lint: allow(r1) -- justification`, either trailing on the
//! offending line or on its own line directly above it.
//!
//! Why source-level rather than a rustc driver: the rules are lexical
//! invariants about *this* codebase (designated hot-path files, a naming
//! convention for tests), the linter must build offline with zero
//! dependencies, and token-stream analysis with comment/string stripping
//! is already exact enough to have no false positives here.

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub mod lexer;
pub mod regions;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::{
    check_r4, entry_points, roundtrip_tests, Diagnostic, FileAnalysis, FileScope, Rule,
};

/// Hot-path modules for R1/R5: every file in these crates' `src` trees...
const HOT_PATH_CRATES: &[&str] = &["wire", "server", "proxy"];
/// ...plus these individual files.
const HOT_PATH_FILES: &[&str] = &[
    "crates/replay/src/engine.rs",
    "crates/replay/src/ledger.rs",
    // Every record's outcome row is written and answered here.
    "crates/replay/src/outcome.rs",
    "crates/replay/src/ready.rs",
    "crates/replay/src/retry.rs",
    // The per-shard counter block: its cells are bumped per send, per
    // answer and per expiry.
    "crates/metrics/src/shard.rs",
    "crates/netsim/src/tcp.rs",
    // The span ring records a stamp per query stage inside the send path;
    // a panic or allocation spike here would distort the very latencies
    // it exists to measure.
    "crates/obs/src/span.rs",
    // Telemetry counter/gauge handles are bumped on every send/receive;
    // the registry's hot-path methods must stay panic-free and lock-free.
    "crates/telemetry/src/registry.rs",
    // Zone lookup runs on every answer the server computes.
    "crates/zone/src/lookup.rs",
    "crates/zone/src/zone.rs",
    "crates/zone/src/zoneset.rs",
    "crates/zone/src/view.rs",
];

/// The sans-I/O querier core that R7 audits: the state machine and the
/// ledger, timeout wheel and outcome log it owns.
const SANS_IO_FILES: &[&str] = &[
    "crates/replay/src/querier.rs",
    "crates/replay/src/ledger.rs",
    "crates/replay/src/retry.rs",
    "crates/replay/src/outcome.rs",
];

/// Crates whose parser entry points R4 audits.
const R4_CRATES: &[&str] = &["wire", "zone"];

/// Files outside `crates/wire` that also emit wire-format fields — the
/// trace on-disk writers — so R2's no-lossy-cast rule covers them too.
const R2_WIRE_FILES: &[&str] = &[
    "crates/trace/src/capture.rs",
    "crates/trace/src/pcap.rs",
    "crates/trace/src/stream.rs",
];

/// Derives the rule scope for one file from its workspace-relative path.
pub fn workspace_scope(rel: &Path) -> FileScope {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let in_crate_src = |krate: &str| rel_str.starts_with(&format!("crates/{krate}/src/"));
    FileScope {
        hot_path: HOT_PATH_CRATES.iter().any(|c| in_crate_src(c))
            || HOT_PATH_FILES.iter().any(|f| rel_str == *f),
        wire: in_crate_src("wire") || R2_WIRE_FILES.iter().any(|f| rel_str == *f),
        sans_io: SANS_IO_FILES.iter().any(|f| rel_str == *f),
    }
}

/// Lints the whole workspace rooted at `root`. Scans `crates/*/{src,tests}`
/// and the root package's `src`, `tests`, and `examples`; skips `vendor`
/// and `target` entirely.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    files.sort();

    let mut diags = Vec::new();
    // Per-crate R4 state, keyed by crate name.
    type R4State = (Vec<rules::EntryPoint>, Vec<(PathBuf, String)>);
    let mut r4: std::collections::BTreeMap<String, R4State> = Default::default();
    let mut allows: Vec<FileAnalysis> = Vec::new();

    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let src = std::fs::read_to_string(&path)?;
        let analysis = FileAnalysis::new(rel.clone(), src.as_str());
        let rel_str = rel.to_string_lossy().replace('\\', "/");

        // R1, R2, R5 and R7 only audit library/binary sources, not test or bench code
        // (tests are free to unwrap).
        let is_test_file = rel_str.contains("/tests/") || rel_str.starts_with("tests/");
        if !is_test_file {
            diags.extend(analysis.check(workspace_scope(&rel)));
        } else {
            // Directive hygiene still applies everywhere.
            diags.extend(analysis.check(FileScope::default()));
        }

        // R4 bookkeeping for the audited crates.
        if let Some(krate) = R4_CRATES
            .iter()
            .find(|c| rel_str.starts_with(&format!("crates/{c}/")))
        {
            let slot = r4.entry((*krate).to_string()).or_default();
            if rel_str.contains("/src/") && !is_test_file {
                slot.0.extend(entry_points(&analysis));
            }
            slot.1.extend(roundtrip_tests(&analysis));
            allows.push(analysis);
        }
    }

    for (entries, tests) in r4.values() {
        diags.extend(check_r4(entries, tests, |file, line| {
            allows.iter().any(|a| {
                a.path == file
                    && a.lexed
                        .allows
                        .get(&line)
                        .is_some_and(|r| r.contains(&Rule::R4))
            })
        }));
    }

    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(diags)
}

/// Lints an explicit file list with every rule enabled (fixture mode),
/// but R7 only on `r7_*` files: it holds the core to a stricter standard
/// than the driver code every other fixture is written as. R4 treats the
/// given set as one crate: entry points anywhere in the set must be
/// covered by round-trip tests anywhere in the set.
pub fn lint_files(paths: &[PathBuf]) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut analyses = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(path)?;
        analyses.push(FileAnalysis::new(path.clone(), src.as_str()));
    }
    let mut entries = Vec::new();
    let mut tests = Vec::new();
    for analysis in &analyses {
        let r7 = analysis
            .path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("r7_"));
        diags.extend(analysis.check(FileScope {
            sans_io: r7,
            ..FileScope::all()
        }));
        entries.extend(entry_points(analysis));
        tests.extend(roundtrip_tests(analysis));
    }
    diags.extend(check_r4(&entries, &tests, |file, line| {
        analyses.iter().any(|a| {
            a.path == file
                && a.lexed
                    .allows
                    .get(&line)
                    .is_some_and(|r| r.contains(&Rule::R4))
        })
    }));
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(diags)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            // `fixtures` directories hold linter test data with deliberate
            // violations — they are inputs for `lint_files`, not source.
            if name == "target" || name == "vendor" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_is_path_derived() {
        let s = workspace_scope(Path::new("crates/wire/src/message.rs"));
        assert!(s.hot_path && s.wire);
        let s = workspace_scope(Path::new("crates/replay/src/engine.rs"));
        assert!(s.hot_path && !s.wire);
        let s = workspace_scope(Path::new("crates/replay/src/retry.rs"));
        assert!(s.hot_path, "the retry layer rides the engine hot path");
        for f in ["ledger.rs", "ready.rs"] {
            let s = workspace_scope(&Path::new("crates/replay/src").join(f));
            assert!(s.hot_path, "{f} runs at every querier wake");
        }
        let s = workspace_scope(Path::new("crates/replay/src/outcome.rs"));
        assert!(s.hot_path, "outcome rows are written per record");
        let s = workspace_scope(Path::new("crates/replay/src/plan.rs"));
        assert!(!s.hot_path);
        let s = workspace_scope(Path::new("crates/netsim/src/tcp.rs"));
        assert!(s.hot_path);
        let s = workspace_scope(Path::new("crates/obs/src/span.rs"));
        assert!(s.hot_path, "span stamping rides the engine hot path");
        let s = workspace_scope(Path::new("crates/obs/src/manifest.rs"));
        assert!(!s.hot_path, "manifest emission is post-run, not hot");
        let s = workspace_scope(Path::new("crates/telemetry/src/registry.rs"));
        assert!(s.hot_path, "counter handles are bumped per send/receive");
        let s = workspace_scope(Path::new("crates/telemetry/src/http.rs"));
        assert!(!s.hot_path, "scrape serving is off the send path");
        for f in ["lookup.rs", "zone.rs", "zoneset.rs", "view.rs"] {
            let s = workspace_scope(&Path::new("crates/zone/src").join(f));
            assert!(s.hot_path && !s.wire, "{f} runs on every answer");
        }
        for f in ["master.rs", "dnssec.rs"] {
            let s = workspace_scope(&Path::new("crates/zone/src").join(f));
            assert!(!s.hot_path, "{f} runs at zone build, not per answer");
        }
        let s = workspace_scope(Path::new("crates/metrics/src/shard.rs"));
        assert!(
            s.hot_path && !s.wire,
            "shard counter cells are bumped per send"
        );
        let s = workspace_scope(Path::new("crates/metrics/src/report.rs"));
        assert!(!s.hot_path && !s.wire);
        // The trace on-disk writers are wire scope without being hot path.
        for f in ["capture.rs", "pcap.rs", "stream.rs"] {
            let s = workspace_scope(&Path::new("crates/trace/src").join(f));
            assert!(s.wire && !s.hot_path, "{f} should be R2 wire scope");
        }
        let s = workspace_scope(Path::new("crates/trace/src/text.rs"));
        assert!(!s.wire, "text format is not packed binary wire scope");
        // R7: the querier core, and nothing else.
        for f in ["querier.rs", "ledger.rs", "retry.rs", "outcome.rs"] {
            let s = workspace_scope(&Path::new("crates/replay/src").join(f));
            assert!(s.sans_io, "{f} is part of the sans-I/O core");
        }
        for f in ["engine.rs", "sim.rs", "ready.rs", "timing.rs", "plan.rs"] {
            let s = workspace_scope(&Path::new("crates/replay/src").join(f));
            assert!(!s.sans_io, "{f} is not core code");
        }
        assert!(!workspace_scope(Path::new("crates/server/src/live.rs")).sans_io);
    }
}
