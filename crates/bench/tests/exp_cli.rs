//! Exit codes of the `exp` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exp_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn exp(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run exp")
}

#[test]
fn unwritable_results_directory_exits_2_naming_the_path() {
    let dir = workdir("blocked");
    // A plain file where the results directory should go.
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    let out = exp(&dir, &["fig8_9"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot create results:"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writes_results_json_and_rejects_unknown_names() {
    let dir = workdir("ok");
    let out = exp(&dir, &["fig8_9"]);
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(dir.join("results/fig8_9.json")).unwrap();
    assert!(json.contains("\"start_at_front_reads\": 195"), "{json}");

    let out = exp(&dir, &["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment or flag fig99"));
    std::fs::remove_dir_all(&dir).unwrap();
}
