//! The `paper` binary refuses misspelt experiment names and options: running
//! nothing and exiting 0 would read as a clean run. Names it no longer has
//! (the `serve` demo and its client-count option) are refused the same way,
//! so a stale script fails loudly.

use std::process::Command;

fn paper(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("the paper binary runs")
}

#[test]
fn misspelt_experiment_exits_2_and_lists_the_valid_names() {
    for name in ["tabel2", "serve"] {
        let out = paper(&[name]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        assert!(out.stdout.is_empty(), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment {name}")),
            "{stderr}"
        );
        assert!(
            stderr.contains("table2") && stderr.contains("sec85"),
            "{stderr}"
        );
    }
}

#[test]
fn misspelt_option_exits_2() {
    for args in [&["--ful", "table5"][..], &["--clients", "4", "table5"]] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(args[0]));
    }
}
