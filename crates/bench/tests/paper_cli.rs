//! The `paper` binary refuses misspelt experiment names and options: running
//! nothing and exiting 0 would read as a clean run.

use std::process::Command;

fn paper(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("the paper binary runs")
}

#[test]
fn misspelt_experiment_exits_2_and_lists_the_valid_names() {
    let out = paper(&["tabel2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tabel2"), "{stderr}");
    assert!(
        stderr.contains("table2") && stderr.contains("sec85"),
        "{stderr}"
    );
}

#[test]
fn misspelt_option_exits_2() {
    let out = paper(&["--ful", "table5"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--ful"));
}
