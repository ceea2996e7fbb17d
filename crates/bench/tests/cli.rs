//! `repro` refuses a bad command line with the usage and exit code 2, and
//! a memo store it cannot open with exit code 1, before any experiment
//! runs. It prints each table once under `all`, and ends quietly when its
//! stdout is closed.
//!
//! Each refusal case names `table1`, a static table, so a build that let
//! the bad argument through would finish fast and fail here instead of
//! starting a full-scale run.

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

fn assert_refused(args: &[&str]) {
    assert_exits(args, 2, "usage: repro");
}

fn assert_exits(args: &[&str], code: i32, message: &str) {
    // A scratch working directory per case: a build that misread `--csv
    // --quick` would write its CSV files into it.
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "loas-repro-cli-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run repro");
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        output.stdout.is_empty(),
        "{args:?} ran before refusing: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn a_non_numeric_worker_count_is_refused() {
    assert_refused(&["--workers", "abc", "table1"]);
}

#[test]
fn an_unknown_flag_is_refused() {
    assert_refused(&["--qiuck", "table1"]);
}

#[test]
fn a_flag_missing_its_value_is_refused() {
    assert_refused(&["--csv", "--quick", "table1"]);
}

#[test]
fn an_unknown_experiment_is_refused() {
    assert_refused(&["table1", "fig99"]);
}

#[test]
fn a_store_that_cannot_open_fails_without_a_panic() {
    let file = std::env::temp_dir().join(format!("loas-repro-cli-store-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    assert_exits(
        &["--store", file.to_str().unwrap(), "table1"],
        1,
        "cannot open memo store",
    );
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn all_prints_each_table_once() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--workers", "1", "all"])
        .output()
        .expect("run repro");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let headers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("=== ")).collect();
    for table4 in ["=== Table IV (left)", "=== Table IV (right)", "=== Fig. 15"] {
        let count = headers.iter().filter(|h| h.starts_with(table4)).count();
        assert_eq!(count, 1, "`{table4}` printed {count} times:\n{stdout}");
    }
    let mut unique = headers.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        headers.len(),
        "a table printed twice:\n{stdout}"
    );
}

#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    // The read end is closed before `repro` starts, so its first write
    // fails with a broken pipe, with no race against the output.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--workers", "1", "table3"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_ne!(output.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
}
