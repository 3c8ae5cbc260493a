//! Kill-resume end-to-end: SIGKILL `pq runall` mid-sweep, resume with
//! `PQ_RESUME=1` at a different `PQ_JOBS` worker count, and require the
//! pinned `study_digest` bit-for-bit — clean and under the CI chaos
//! spec.
//!
//! This is the acceptance test of the crash-safety layer: the child
//! process is killed without any chance to clean up (SIGKILL, not
//! SIGTERM), so everything the resumed run recovers comes from the
//! write-ahead cell journal alone.

#![cfg(unix)]

use pq_bench::CHAOS_SPEC;
use pq_obs::json::Value;
use std::path::Path;
use std::process::{Command, Stdio};

/// `pq runall` at smoke scale, seed 1910, in `dir`.
fn runall(dir: &Path, faults: Option<&str>, jobs: u32) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pq"));
    cmd.arg("runall")
        .current_dir(dir)
        .env("PQ_SCALE", "smoke")
        .env("PQ_SEED", "1910")
        .env("PQ_JOBS", jobs.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = faults {
        cmd.env("PQ_FAULTS", spec);
    }
    cmd
}

/// Count intact journal records (complete lines).
fn journal_lines(journal: &Path) -> usize {
    std::fs::read_to_string(journal)
        .map(|s| s.lines().count())
        .unwrap_or(0)
}

fn kill_then_resume(faults: Option<&str>, kill_jobs: u32, resume_jobs: u32, pinned_digest: &str) {
    let dir = std::env::temp_dir().join(format!(
        "pq-kill-resume-{}-{pinned_digest}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("results/journal.jsonl");

    // SIGKILL as soon as a few cells are durable — no destructors, no
    // signal handler, nothing but the journal survives.
    let mut child = runall(&dir, faults, kill_jobs).spawn().expect("spawn pq");
    let mut polls = 0;
    while journal_lines(&journal) < 4 {
        polls += 1;
        assert!(polls < 6000, "journal never grew; is checkpointing wired?");
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("runall finished before it could be killed: {status}");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL pq");
    child.wait().expect("reap pq");
    let after_kill = journal_lines(&journal);
    assert!(journal.exists(), "journal must survive a SIGKILL");

    // Resume at the other worker count: completed cells replayed, the
    // rest rebuilt, output digest bit-identical to the pinned one.
    let status = runall(&dir, faults, resume_jobs)
        .env("PQ_RESUME", "1")
        .status()
        .expect("spawn pq");
    assert!(status.success(), "resumed runall failed");
    let text = std::fs::read_to_string(dir.join("results/manifest.json")).expect("manifest");
    let m = Value::parse(&text).expect("manifest JSON");
    let get = |key: &str| m.get(key).unwrap_or_else(|| panic!("manifest has {key}"));
    assert_eq!(
        get("study_digest").as_str(),
        Some(pinned_digest),
        "resumed digest diverged from the pinned baseline"
    );
    assert!(
        get("resumed_from_cells").as_u64() > Some(0),
        "nothing was resumed (journal had {after_kill} lines at kill time)"
    );
    assert_eq!(get("resumable").as_bool(), Some(false));
    assert!(get("journal_records").as_u64() > Some(0));
    assert_eq!(get("jobs").as_u64(), Some(u64::from(resume_jobs)));
    assert_eq!(get("fault_spec").as_str(), Some(faults.unwrap_or("")));
    assert!(
        !journal.exists(),
        "journal must be retired after the resumed run completes"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smoke_killed_at_1_worker_resumes_at_4_to_the_pinned_digest() {
    kill_then_resume(None, 1, 4, "c0d50f06ad80383f");
}

#[test]
fn chaos_killed_at_4_workers_resumes_at_1_to_the_pinned_digest() {
    kill_then_resume(Some(CHAOS_SPEC), 4, 1, "6a3c5bc812ebed5d");
}
