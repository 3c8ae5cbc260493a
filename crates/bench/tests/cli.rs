//! The `pq` dispatcher: a known subcommand runs, anything else gets
//! the list of subcommands on stderr and exit status 2.

use std::process::Command;

const SUBCOMMANDS: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "agreement",
    "ablation",
    "sweep",
    "export",
    "edge_cell",
    "runall",
];

#[test]
fn missing_or_unknown_subcommand_lists_all_thirteen_and_exits_2() {
    for args in [&[][..], &["nonsense"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_pq"))
            .args(args)
            .output()
            .expect("spawn pq");
        assert_eq!(out.status.code(), Some(2), "pq {args:?}");
        assert!(out.stdout.is_empty(), "pq {args:?} printed to stdout");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
        let listed: Vec<&str> = stderr
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .filter(|word| SUBCOMMANDS.contains(word))
            .collect();
        assert_eq!(listed, SUBCOMMANDS, "pq {args:?} said: {stderr}");
    }
}

#[test]
fn table1_prints_table_1_and_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_pq"))
        .arg("table1")
        .output()
        .expect("spawn pq");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    assert!(stdout.starts_with("== Table 1: protocol configurations =="));
    assert!(stdout.lines().any(|l| l.starts_with("QUIC+BBR")));
}
