//! End-to-end tests: run the built `ldp-lint` binary against the fixture
//! files and assert on exit status and `file:line` diagnostics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(files: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ldp-lint"));
    for f in files {
        cmd.arg(fixture(f));
    }
    cmd.output().expect("spawn ldp-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[track_caller]
fn assert_clean(files: &[&str]) {
    let out = run(files);
    assert!(
        out.status.success(),
        "expected clean for {files:?}, got:\n{}",
        stdout(&out)
    );
    assert!(stdout(&out).contains("ldp-lint: clean"));
}

#[track_caller]
fn assert_violations(files: &[&str], rule: &str, want: &[u32]) {
    let out = run(files);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected violations for {files:?}, got:\n{}",
        stdout(&out)
    );
    let text = stdout(&out);
    for line in want {
        let file_line = format!("{}:{line}:", fixture(files[0]).display());
        assert!(
            text.lines()
                .any(|l| l.starts_with(&file_line) && l.contains(rule)),
            "missing `{file_line} ... {rule}` in:\n{text}"
        );
    }
    let reported = text
        .lines()
        .filter(|l| l.contains(&format!("[{rule}]")))
        .count();
    assert_eq!(
        reported,
        want.len(),
        "diagnostic count for {rule} in:\n{text}"
    );
}

#[test]
fn r1_fixtures() {
    assert_violations(&["r1_violation.rs"], "R1", &[3, 4, 6, 9]);
    assert_clean(&["r1_clean.rs"]);
    assert_clean(&["r1_allowed.rs"]);
}

#[test]
fn r2_fixtures() {
    assert_violations(&["r2_violation.rs"], "R2", &[3, 7]);
    assert_clean(&["r2_clean.rs"]);
    assert_clean(&["r2_allowed.rs"]);
}

#[test]
fn r3_fixtures() {
    assert_violations(&["r3_violation.rs"], "R3", &[3, 4, 9]);
    assert_clean(&["r3_clean.rs"]);
    assert_clean(&["r3_allowed.rs"]);
}

#[test]
fn r4_fixtures() {
    assert_violations(&["r4_violation.rs"], "R4", &[2]);
    assert_clean(&["r4_clean.rs"]);
    assert_clean(&["r4_allowed.rs"]);
    // An uncovered entry point in one file is satisfied by a round-trip test
    // in another file of the same set.
    assert_clean(&["r4_violation.rs", "r4_clean.rs"]);
}

#[test]
fn r5_fixtures() {
    assert_violations(&["r5_violation.rs"], "R5", &[4, 5, 6]);
    assert_clean(&["r5_clean.rs"]);
    assert_clean(&["r5_allowed.rs"]);
}

#[test]
fn r6_fixtures() {
    assert_violations(&["r6_violation.rs"], "R6", &[3, 5]);
    assert_clean(&["r6_clean.rs"]);
    assert_clean(&["r6_allowed.rs"]);
}

#[test]
fn r7_fixtures() {
    assert_violations(&["r7_violation.rs"], "R7", &[4, 7, 10, 11, 13, 14]);
    assert_clean(&["r7_clean.rs"]);
    assert_clean(&["r7_allowed.rs"]);
}

#[test]
fn malformed_directives_are_diagnosed() {
    let out = run(&["bad_directive.rs"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(
        text.contains(":3:"),
        "missing line 3 (no reason) in:\n{text}"
    );
    assert!(
        text.contains(":8:"),
        "missing line 8 (unknown rule) in:\n{text}"
    );
}

#[test]
fn workspace_mode_is_clean_on_this_repo() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_ldp-lint"))
        .arg("--workspace")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn ldp-lint");
    assert!(
        out.status.success(),
        "workspace must lint clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_ldp-lint"))
        .output()
        .expect("spawn ldp-lint");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_ldp-lint"))
        .arg("--unknown-flag")
        .output()
        .expect("spawn ldp-lint");
    assert_eq!(out.status.code(), Some(2));
}
