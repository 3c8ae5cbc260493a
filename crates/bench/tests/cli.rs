//! The `pq` binary: a known subcommand runs, anything else gets the
//! list of subcommands on stderr and exit status 2; `pq runall`'s own
//! manifest carries the smoke and chaos runs' roots and trees from
//! `results/contract.txt`, `pq edge_cell` prints the edge-cell runs'
//! roots, and the trace and profiler knobs write their files.

use pq_bench::CHAOS_SPEC;
use pq_obs::json::Value;
use std::process::Command;

/// `run`'s committed nodes in `results/contract.txt`, as `<key> <value>`.
fn committed(run: &str) -> Vec<&'static str> {
    let prefix = format!("{run} ");
    let file = include_str!("../../../results/contract.txt");
    file.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .collect()
}

/// `run`'s committed `root` node: its study digest.
fn root(run: &str) -> &'static str {
    let mut nodes = committed(run).into_iter();
    nodes
        .find_map(|n| n.strip_prefix("root "))
        .expect("a root line")
}

const SUBCOMMANDS: [&str; 11] = [
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "agreement",
    "ablation",
    "edge_cell",
    "runall",
];

/// No name, a typo and the two deleted subcommands `sweep` and
/// `export` all get the list.
#[test]
fn missing_or_unknown_subcommand_lists_all_eleven_and_exits_2() {
    for args in [&[][..], &["nonsense"], &["sweep"], &["export"]] {
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

/// `pq runall` at smoke scale and seed 1910 in a fresh directory, with
/// a stale `atomic_write` temp file planted in `results/`: the run
/// sweeps the temp file and holds its manifest's `study_digest` and
/// `contract` to `run`'s committed root and tree. A killed run is
/// rerun, so this is the run a rerun is.
fn runall_holds_the_pin(run: &str, faults: Option<&str>, jobs: u32) {
    let dir = std::env::temp_dir().join(format!("pq-cli-runall-{}-{run}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let results = dir.join("results");
    std::fs::create_dir_all(&results).unwrap();
    let stale = results.join(format!(
        "manifest.json{}4242",
        pq_ckpt::atomicio::TMP_MARKER
    ));
    std::fs::write(&stale, b"{\"torn\":").unwrap();

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pq"));
    cmd.arg("runall")
        .current_dir(&dir)
        .env("PQ_SCALE", "smoke")
        .env("PQ_SEED", "1910")
        .env("PQ_JOBS", jobs.to_string())
        .env_remove("PQ_STACKS")
        .env_remove("PQ_FAULTS");
    if let Some(spec) = faults {
        cmd.env("PQ_FAULTS", spec);
    }
    let out = cmd.output().expect("spawn pq");
    assert!(
        out.status.success(),
        "runall failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(results.join("manifest.json")).expect("manifest");
    let m = Value::parse(&text).expect("manifest JSON");
    let get = |key: &str| m.get(key).unwrap_or_else(|| panic!("manifest has {key}"));
    assert_eq!(get("study_digest").as_str(), Some(root(run)));
    let field = |n: &Value, k| n.get(k).and_then(Value::as_str).unwrap().to_string();
    let node = |n: &Value| format!("{} {}", field(n, "key"), field(n, "value"));
    let tree: Vec<String> = get("contract").as_arr().unwrap().iter().map(node).collect();
    let moved = tree.iter().zip(committed(run)).find(|(a, b)| a != b);
    assert_eq!((tree.len(), moved), (committed(run).len(), None), "{run}");
    assert_eq!(get("jobs").as_u64(), Some(u64::from(jobs)));
    assert_eq!(get("fault_spec").as_str(), Some(faults.unwrap_or("")));
    for retired in ["resumable", "resumed_from_cells", "journal_records"] {
        assert!(m.get(retired).is_none(), "manifest still has {retired}");
    }
    assert!(!stale.exists(), "the stale temp file survived the run");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smoke_runall_at_4_workers_writes_the_pinned_digest() {
    runall_holds_the_pin("smoke", None, 4);
}

#[test]
fn chaos_runall_at_1_worker_writes_the_pinned_digest() {
    runall_holds_the_pin("chaos", Some(CHAOS_SPEC), 1);
}

/// `pq edge_cell` at seed 1910 prints exactly one line, `run`'s
/// committed root, whatever the worker count.
fn edge_cell_holds_the_pin(run: &str, faults: Option<&str>, jobs: u32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pq"));
    cmd.arg("edge_cell")
        .env("PQ_SEED", "1910")
        .env("PQ_JOBS", jobs.to_string())
        .env_remove("PQ_FAULTS");
    if let Some(spec) = faults {
        cmd.env("PQ_FAULTS", spec);
    }
    let out = cmd.output().expect("spawn pq");
    assert!(
        out.status.success(),
        "edge_cell failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 digest");
    assert_eq!(stdout, format!("study_digest={}\n", root(run)));
}

#[test]
fn edge_cell_at_4_workers_prints_the_pinned_digest() {
    edge_cell_holds_the_pin("edge_cell", None, 4);
}

#[test]
fn chaos_edge_cell_at_1_worker_prints_the_pinned_digest() {
    edge_cell_holds_the_pin("edge_cell_chaos", Some(CHAOS_SPEC), 1);
}

/// `pq table2` with each knob that names an output file set, and no
/// level: its link probe opens `link:` spans, so each output has
/// something in it. `PQ_TRACE_OUT` alone turns the tracer on, so a knob
/// warning (here a malformed `PQ_SEED`) reaches the exported trace as
/// well as stderr.
#[test]
fn trace_and_profile_knobs_write_their_outputs() {
    let dir = std::env::temp_dir().join(format!("pq-cli-outputs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, folded) = (dir.join("trace.json"), dir.join("prof.folded"));
    let out = Command::new(env!("CARGO_BIN_EXE_pq"))
        .arg("table2")
        .env("PQ_SEED", "not-a-seed")
        .env("PQ_TRACE_OUT", &trace)
        .env("PQ_PROF_ALLOC", "1")
        .env("PQ_PROF_OUT", &folded)
        .output()
        .expect("spawn pq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "table2 failed: {stderr}");

    let doc =
        Value::parse(&std::fs::read_to_string(&trace).expect("trace written")).expect("trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("a traceEvents array");
    assert!(
        events.iter().any(|e| e
            .get("name")
            .and_then(Value::as_str)
            .is_some_and(|n| n.contains("unparsable PQ_SEED"))),
        "the knob warning is missing from the trace"
    );

    let folded = std::fs::read_to_string(&folded).expect("folded profile written");
    assert!(folded.lines().any(|l| l.starts_with("link:")), "{folded}");
    for line in folded.lines() {
        let (frames, self_ns) = line.rsplit_once(' ').expect("`frames self_ns`");
        assert!(
            !frames.is_empty() && self_ns.parse::<u64>().is_ok(),
            "{line:?}"
        );
    }
    assert!(stderr.contains("[table2] alloc: "), "{stderr}");

    // An unknown level warns and leaves tracing off, so no trace is
    // written.
    std::fs::remove_file(&trace).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pq"))
        .arg("table2")
        .env("PQ_TRACE", "bogus")
        .env("PQ_TRACE_OUT", &trace)
        .output()
        .expect("spawn pq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "table2 failed: {stderr}");
    assert!(stderr.contains("unknown PQ_TRACE=\"bogus\""), "{stderr}");
    assert!(!trace.exists(), "a trace was written with tracing off");

    std::fs::remove_dir_all(&dir).ok();
}
