//! The `repro` binary rejects a bad command line or an unwritable
//! output directory with a one-line message and exit status 1, never a
//! panic and never a run that ignores part of what it was asked.
//! `metadata-overhead` runs no sweep, so each case takes milliseconds.

use std::path::Path;
use std::process::Command;

/// Runs `repro` with `args`; returns its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], message: &str) {
    let (code, stderr) = repro(args);
    assert_eq!(
        code,
        Some(1),
        "repro {args:?} must exit 1; stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "repro {args:?} panicked: {stderr}"
    );
    assert!(
        stderr.contains(message),
        "repro {args:?} must say `{message}`; stderr: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr}");
}

#[test]
fn help_is_an_unknown_flag() {
    assert_rejected(
        &["metadata-overhead", "--help"],
        "--quick, --seed N, --csv DIR and --json DIR",
    );
}

#[test]
fn misspelled_flag_is_rejected() {
    assert_rejected(&["metadata-overhead", "--qiuck"], "unknown flag `--qiuck`");
}

#[test]
fn second_experiment_id_is_rejected() {
    assert_rejected(
        &["metadata-overhead", "hw-overhead"],
        "unexpected operand `hw-overhead`",
    );
}

#[test]
fn unwritable_json_dir_is_reported() {
    // A directory below a regular file cannot be created.
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-cli-regular-file");
    std::fs::write(&file, b"").expect("create a regular file");
    let dir = file.join("sub");
    let dir = dir.to_str().expect("UTF-8 path");
    assert_rejected(
        &["metadata-overhead", "--json", dir],
        &format!("cannot write {dir}: "),
    );
}
