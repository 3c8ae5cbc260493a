//! # pq-fault — deterministic fault injection + graceful-degradation
//!
//! The paper's testbed survives real-world measurement failures by
//! re-running and filtering: every condition is loaded ≥31 times, and
//! only *valid* recordings feed the stimulus selection (§3, Table 3).
//! This crate is the reproduction's equivalent of a hostile lab: a
//! **seed-deterministic fault injector** that the whole pipeline
//! (sim → transport → web → core → par) consults, plus the shared
//! [`PqError`] taxonomy the hardened layers propagate instead of
//! panicking.
//!
//! ## The determinism contract
//!
//! Every fault decision is a **pure function** of
//! `(fault seed, cell coordinates)` — Gilbert–Elliott chains are
//! seeded per link direction from the page load's run seed, server
//! stalls and truncations per object id, handshake losses per
//! connection index, task panics per `(cell, pass)`. No fault RNG is
//! ever threaded across cells, so a faulted grid is bit-identical at
//! any `PQ_JOBS` worker count, and two runs with the same spec agree
//! bitwise. With no plan (or an empty one) the injector is entirely
//! inert: zero extra RNG draws, zero drift from the committed baselines.
//!
//! A plan is a value the caller threads: `LoadOptions::faults` for one
//! page load, `StimulusSet::build_with_faults` for a grid. This crate
//! keeps no process state and reads no environment; the `pq` binary
//! parses `PQ_FAULTS` once, into its run specification.
//!
//! ## Fault spec grammar ([`FaultPlan::parse`], `PQ_FAULTS` in `pq`)
//!
//! Semicolon-separated clauses, `name:key=value,...` (times in ms,
//! probabilities in `[0,1]`):
//!
//! | Clause | Layer | Meaning |
//! |--------|-------|---------|
//! | `seed=N` | all | fault seed folded into every decision (default `0xFA017`) |
//! | `gel:pgb=,pbg=,good=,bad=` | sim | Gilbert–Elliott burst loss on both link directions |
//! | `flap:at=,dur=[,period=]` | sim | link outage window(s) mid-load |
//! | `bwosc:period=,depth=` | sim | sinusoidal bandwidth oscillation (rate × `[1-depth, 1]`) |
//! | `stall:p=,ms=` | web | per-object server think-time stall |
//! | `trunc:p=[,frac=]` | web | truncated response body (object never completes) |
//! | `hs:p=` | transport | first client flight lost → handshake timeout + backoff |
//! | `panic:p=` | par/core | deliberate task panic per `(cell, pass)` |
//! | `slow:p=,ms=` | par/core | per-cell wall-clock delay (outside the simulator) to exercise the `PQ_CELL_TIMEOUT_MS` watchdog |
//!
//! Example:
//!
//! ```text
//! PQ_FAULTS="seed=7;gel:pgb=0.02,pbg=0.3,bad=0.5;flap:at=1500,dur=400;stall:p=0.05,ms=1200;trunc:p=0.01;hs:p=0.1;panic:p=0.02"
//! ```
//!
//! ## Observability
//!
//! Every injected fault increments the global `fault.injected`
//! counter (link-level faults batched per link on drop); the hardened
//! retry layer adds `run.retries` / `run.quarantined`; fault instants
//! appear on the trace timeline under the `fault` category.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod error;
pub mod inject;
pub mod rng;
pub mod spec;

pub use error::PqError;
pub use inject::{LinkFault, LoadFaults};
pub use rng::{derive_seed, FaultRng};
pub use spec::{
    BwOscConfig, FaultPlan, FlapConfig, GeConfig, HsConfig, PanicConfig, SlowConfig, StallConfig,
    TruncConfig,
};

/// Decide whether the task building `cell_label` deliberately panics
/// on retry pass `pass` — a pure function of `(plan seed, cell,
/// pass)`, so the same cells explode at any worker count. Increments
/// `fault.injected` when the decision is yes.
pub fn injected_panic(plan: &FaultPlan, cell_label: &str, pass: u32) -> bool {
    let Some(p) = &plan.task_panic else {
        return false;
    };
    let hit = FaultRng::derived(plan.seed ^ 0x70A5_1C0F, cell_label, u64::from(pass)).chance(p.p);
    if hit {
        pq_obs::registry().counter_add("fault.injected", 1);
    }
    hit
}

/// Panic-message prefix used by injected task panics, so logs and
/// quarantine reasons can attribute them.
pub const INJECTED_PANIC_MSG: &str = "pq-fault: injected task panic";

/// Decide whether the task building `cell_label` is deliberately
/// delayed, and by how many wall-clock milliseconds — a pure function
/// of `(plan seed, cell)`, so the same cells are slow at any worker
/// count. The delay happens *outside* the simulator (the caller
/// sleeps before building), so the digest is unchanged unless the
/// `PQ_CELL_TIMEOUT_MS` watchdog quarantines the cell. Increments
/// `fault.injected` when the decision is yes.
pub fn injected_slow(plan: &FaultPlan, cell_label: &str) -> Option<u64> {
    let slow = plan.slow.as_ref()?;
    if FaultRng::derived(plan.seed ^ 0x5109_F00D, cell_label, 0).chance(slow.p) {
        pq_obs::registry().counter_add("fault.injected", 1);
        Some(slow.ms.round().max(0.0) as u64)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_panic_is_pure_and_pass_sensitive() {
        let plan = FaultPlan::parse("panic:p=0.5").unwrap();
        let a: Vec<bool> = (0..32)
            .map(|p| injected_panic(&plan, "cell-x", p))
            .collect();
        let b: Vec<bool> = (0..32)
            .map(|p| injected_panic(&plan, "cell-x", p))
            .collect();
        assert_eq!(a, b, "pure function of (seed, cell, pass)");
        assert!(a.iter().any(|&x| x), "p=0.5 fires somewhere in 32 passes");
        assert!(!a.iter().all(|&x| x), "p=0.5 also spares some passes");
        let no_panic = FaultPlan::parse("stall:p=0.1,ms=10").unwrap();
        assert!(!injected_panic(&no_panic, "cell-x", 0));
    }

    #[test]
    fn injected_slow_is_pure_per_cell() {
        let plan = FaultPlan::parse("slow:p=0.5,ms=700").unwrap();
        let cells: Vec<String> = (0..32).map(|i| format!("cell-{i}")).collect();
        let a: Vec<Option<u64>> = cells.iter().map(|c| injected_slow(&plan, c)).collect();
        let b: Vec<Option<u64>> = cells.iter().map(|c| injected_slow(&plan, c)).collect();
        assert_eq!(a, b, "pure function of (seed, cell)");
        assert!(a.iter().any(Option::is_some), "p=0.5 hits some cells");
        assert!(a.iter().any(Option::is_none), "p=0.5 spares some cells");
        assert!(
            a.iter().flatten().all(|&ms| ms == 700),
            "delay comes from the spec"
        );
        let other_seed = FaultPlan::parse("seed=9;slow:p=0.5,ms=700").unwrap();
        let c: Vec<Option<u64>> = cells
            .iter()
            .map(|x| injected_slow(&other_seed, x))
            .collect();
        assert_ne!(a, c, "fault seed folds into the decision");
        let no_slow = FaultPlan::parse("panic:p=0.5").unwrap();
        assert_eq!(injected_slow(&no_slow, "cell-0"), None);
    }
}
