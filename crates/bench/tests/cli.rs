//! The `pq` binary: a known subcommand runs, anything else gets the
//! list of subcommands on stderr and exit status 2; `pq runall`'s own
//! manifest carries the smoke and chaos runs' trees from
//! `results/contract.txt` and its smoke stdout is
//! `results/runall_smoke.txt`, `pq edge_cell` prints the edge-cell
//! runs' trees, the trace and profiler knobs write their files, and the
//! trace holds the grid's page loads, the same at any worker count.

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

/// A static table reads no run knob, so each one that is set warns.
#[test]
fn table1_prints_table_1_and_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_pq"))
        .arg("table1")
        .env("PQ_SCALE", "full")
        .env("PQ_SEED", "5")
        .output()
        .expect("spawn pq");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    assert!(stdout.starts_with("== Table 1: protocol configurations =="));
    assert!(stdout.lines().any(|l| l.starts_with("QUIC+BBR")));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for knob in ["PQ_SCALE", "PQ_SEED"] {
        let warning = format!("{knob} is set but `pq table1` does not read it");
        assert!(stderr.contains(&warning), "{stderr}");
    }
}

/// `pq runall` at smoke scale and seed 1910 in a fresh directory, with
/// a stale `atomic_write` temp file planted in `results/`: the run
/// sweeps the temp file and holds its manifest's `contract` to `run`'s
/// committed tree — whose `grid` node holds the grid's loads, events
/// and faults — and its stdout to `stdout` where one is given. A killed
/// run is rerun, so this is the run a rerun is.
fn runall_holds_the_pin(run: &str, faults: Option<&str>, jobs: u32, stdout: Option<&str>) {
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
    let field = |n: &Value, k| n.get(k).and_then(Value::as_str).unwrap().to_string();
    let node = |n: &Value| format!("{} {}", field(n, "key"), field(n, "value"));
    let tree: Vec<String> = get("contract").as_arr().unwrap().iter().map(node).collect();
    let moved = tree.iter().zip(committed(run)).find(|(a, b)| a != b);
    assert_eq!((tree.len(), moved), (committed(run).len(), None), "{run}");
    assert_eq!(get("jobs").as_u64(), Some(u64::from(jobs)));
    assert_eq!(get("fault_spec").as_str(), Some(faults.unwrap_or("")));
    // The tree holds the digest (`root`), the funnels, and the grid's
    // retries, loads, events and faults (`grid`); the manifest does
    // not restate them.
    for retired in [
        "resumable",
        "resumed_from_cells",
        "journal_records",
        "study_digest",
        "funnel_ab",
        "funnel_rating",
        "runs_retried",
        "plt_ms",
        "sim_events",
        "pageloads",
        "faults_injected",
    ] {
        assert!(m.get(retired).is_none(), "manifest still has {retired}");
    }
    assert!(!stale.exists(), "the stale temp file survived the run");
    if let Some(want) = stdout {
        // Every printed table and figure, Table 1's values and Table
        // 2's measured columns included, which no contract node covers.
        let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let moved = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1);
        assert!(
            got == want,
            "{run}: stdout differs from the recording (first moved line {moved:?}, \
             {} vs {} lines)",
            got.lines().count(),
            want.lines().count()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smoke_runall_at_4_workers_writes_the_pinned_digest() {
    let recorded = include_str!("../../../results/runall_smoke.txt");
    runall_holds_the_pin("smoke", None, 4, Some(recorded));
}

#[test]
fn chaos_runall_at_1_worker_writes_the_pinned_digest() {
    runall_holds_the_pin("chaos", Some(CHAOS_SPEC), 1, None);
}

/// `pq edge_cell` at seed 1910 prints `run`'s committed tree, one
/// `<key> <value>` line per node, whatever the worker count and
/// whatever `PQ_STACKS` says, which it does not read and names on
/// stderr when set; a moved node is named.
fn edge_cell_holds_the_pin(run: &str, faults: Option<&str>, stacks: Option<&str>, jobs: u32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pq"));
    cmd.arg("edge_cell")
        .env("PQ_SEED", "1910")
        .env("PQ_JOBS", jobs.to_string())
        .env_remove("PQ_STACKS")
        .env_remove("PQ_FAULTS");
    if let Some(spec) = faults {
        cmd.env("PQ_FAULTS", spec);
    }
    if let Some(stacks) = stacks {
        cmd.env("PQ_STACKS", stacks);
    }
    let out = cmd.output().expect("spawn pq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "edge_cell failed: {stderr}");
    let warning = "PQ_STACKS is set but `pq edge_cell` does not read it";
    assert_eq!(stderr.contains(warning), stacks.is_some(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 tree");
    let tree: Vec<&str> = stdout.lines().collect();
    let moved = tree.iter().zip(committed(run)).find(|(a, b)| **a != *b);
    assert_eq!((tree.len(), moved), (committed(run).len(), None), "{run}");
}

#[test]
fn edge_cell_at_4_workers_prints_the_pinned_tree() {
    edge_cell_holds_the_pin("edge_cell", None, None, 4);
    edge_cell_holds_the_pin("edge_cell", None, Some("all"), 4);
}

#[test]
fn chaos_edge_cell_at_1_worker_prints_the_pinned_tree() {
    edge_cell_holds_the_pin("edge_cell_chaos", Some(CHAOS_SPEC), None, 1);
}

/// `PQ_TRACE=debug PQ_TRACE_OUT=… pq edge_cell` under the chaos spec:
/// `(the tree's grid loads, the page-load processes, their rows)`, the
/// rows as JSON text in file order, metadata included.
fn traced_edge_cell(dir: &std::path::Path, jobs: u32) -> (u64, usize, Vec<String>) {
    let path = dir.join(format!("trace-{jobs}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_pq"))
        .arg("edge_cell")
        .env("PQ_SEED", "1910")
        .env("PQ_JOBS", jobs.to_string())
        .env("PQ_FAULTS", CHAOS_SPEC)
        .env("PQ_TRACE", "debug")
        .env("PQ_TRACE_OUT", &path)
        .env_remove("PQ_STACKS")
        .output()
        .expect("spawn pq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "edge_cell failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 tree");
    let grid = stdout.lines().find_map(|l| l.strip_prefix("grid "));
    let loads = grid
        .and_then(|g| g.split(' ').find_map(|f| f.strip_prefix("loads=")))
        .and_then(|n| n.parse().ok())
        .expect("the tree's grid node counts its loads");

    let text = std::fs::read_to_string(&path).expect("trace written");
    let doc = Value::parse(&text).expect("trace JSON");
    let rows = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("a traceEvents array");
    let str_of = |row: &Value, key: &str| row.get(key).and_then(Value::as_str).map(str::to_string);
    // Page-load processes are named "site · stack · seed N".
    let pids: Vec<u64> = rows
        .iter()
        .filter(|r| str_of(r, "name").as_deref() == Some("process_name"))
        .filter(|r| {
            r.get("args")
                .and_then(|a| str_of(a, "name"))
                .is_some_and(|n| n.contains(" · "))
        })
        .filter_map(|r| r.get("pid").and_then(Value::as_u64))
        .collect();
    let load_rows: Vec<String> = rows
        .iter()
        .filter(|r| {
            r.get("pid")
                .and_then(Value::as_u64)
                .is_some_and(|p| pids.contains(&p))
        })
        .map(Value::to_string)
        .collect();
    (loads, pids.len(), load_rows)
}

/// The traced edge cell under the chaos spec, at one worker and at
/// four: one page-load process per load of the grid, retries included
/// and the ablation view's loads not, and the same rows either way —
/// a load's rows are replayed in grid order, whatever ran them first.
#[test]
fn the_trace_is_the_grid_at_any_worker_count() {
    let dir = std::env::temp_dir().join(format!("pq-cli-trace-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (loads, processes, one) = traced_edge_cell(&dir, 1);
    assert_eq!(processes as u64, loads, "page-load processes at PQ_JOBS=1");
    assert!(
        one.iter().any(|r| r.contains(" queue bytes\"")),
        "no Debug link rows"
    );
    let (loads, processes, four) = traced_edge_cell(&dir, 4);
    assert_eq!(processes as u64, loads, "page-load processes at PQ_JOBS=4");
    let moved = one.iter().zip(&four).position(|(a, b)| a != b);
    assert_eq!(
        (one.len(), moved),
        (four.len(), None),
        "the load rows differ between PQ_JOBS=1 and PQ_JOBS=4"
    );
    std::fs::remove_dir_all(&dir).ok();
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
