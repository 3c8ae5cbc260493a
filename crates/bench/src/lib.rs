//! # pq-bench — the experiment harness
//!
//! One binary, `pq`, with one subcommand per table/figure of the paper
//! (run with `cargo run --release -p pq-bench --bin pq -- <command>`;
//! no or an unknown command lists them on stderr and exits 2):
//!
//! | Command | Artefact |
//! |---------|----------|
//! | `table1` | Table 1 — protocol configurations |
//! | `table2` | Table 2 — network configurations + emulation validation |
//! | `table3` | Table 3 — participation / conformance-filter funnel |
//! | `fig3`   | Figure 3 — rating agreement across subject groups |
//! | `fig4`   | Figure 4 — A/B vote shares per pair × network |
//! | `fig5`   | Figure 5 — rating means + CIs, ANOVA significance |
//! | `fig6`   | Figure 6 — metric ↔ vote Pearson heatmap |
//! | `agreement` | §4.2 — answer times, replays, demographics |
//! | `ablation`  | extra — filtering, 0-RTT and processing ablations (EXPERIMENTS.md names each one's test) |
//! | `edge_cell` | extra — one edge-stack grid cell's contract tree, for CI |
//! | `runall` | every table and figure above, in order, plus the run manifest |
//!
//! Every grid the workspace runs is a [`RunSpec`] value, which the
//! binary parses its `PQ_*` knobs into once; the library reads no
//! environment. `PQ_SCALE=full` is the paper's grid (36 sites × 4
//! networks × 5 stacks × 31 runs).
//!
//! ## Parallel execution
//!
//! The stimulus grid and both studies execute on the `pq-par` pool
//! (workers claim index chunks from one atomic cursor). `PQ_JOBS` sets
//! the worker count (default: available parallelism; unparsable
//! values warn via the tracer). Output is **bit-identical
//! at any worker count** — every page load and participant derives its
//! RNG purely from `(seed, cell indices)` — and the run manifest
//! records both `jobs` and the run's [`contract()`] tree, so CI can
//! diff a `PQ_JOBS=4` run against `PQ_JOBS=1` and prove it.
//!
//! ## Fault injection
//!
//! Setting `PQ_FAULTS=<spec>` (see [`pq_fault`]) turns the run into a
//! chaos experiment: deterministic burst loss, link flaps, server
//! stalls, truncated responses and handshake-flight drops, all keyed
//! by `(fault seed, cell coordinates)` so the run is still
//! bit-identical at any `PQ_JOBS`. The manifest then records
//! `fault_spec` and `cells_quarantined` next to the tree, whose `grid`
//! node counts the retried runs and the injected faults.
//!
//! ## Observability
//!
//! `pq` parses the trace knobs with the others, configures
//! [`pq_obs`]'s tracer before the command runs and writes the trace
//! after it:
//!
//! * `PQ_TRACE_OUT` — turns the tracer on: where to write the
//!   collected events on exit, in Chrome trace-event format (open in
//!   Perfetto or `chrome://tracing`).
//! * `PQ_TRACE` — trace level (`off`/`warn`/`info`/`debug`; default
//!   `info`). At `info` each page load records its waterfall:
//!   per-object request→processed spans, one track per connection with
//!   cwnd/ssthresh/sRTT counters, retransmit and RTO instants,
//!   handshake spans, and FVC/LVC/PLT markers.
//! * `PQ_TRACE_BUF` — ring capacity in events (default 262144; the
//!   ring overwrites oldest on overflow).
//!
//! Without `PQ_TRACE_OUT`, or with `PQ_TRACE=off`, a set `PQ_TRACE`,
//! `PQ_TRACE_OUT` or `PQ_TRACE_BUF` warns that it has no effect.
//!
//! Worked waterfall example:
//!
//! ```sh
//! PQ_SCALE=smoke PQ_TRACE_OUT=results/trace.json \
//!     cargo run --release -p pq-bench --bin pq -- fig4
//! # then load results/trace.json into https://ui.perfetto.dev
//! ```
//!
//! `runall` additionally writes `results/manifest.json` — grid size,
//! seed, git rev, per-phase wall-times and the contract tree of the
//! views it printed, whose `grid` node counts the loads and events (see
//! [`manifest::manifest_json`]); its smoke-scale stdout is
//! `results/runall_smoke.txt`. Its timings are one sample from one
//! machine; speed is measured by `benches/perf`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod contract;
pub mod manifest;
pub mod report;

pub use contract::contract;

use pq_fault::{FaultPlan, PqError};
use pq_sim::NetworkKind;
use pq_study::stimulus::load_attempt;
use pq_study::{run_study_with, StimulusSet, StudyData};
use pq_transport::Protocol;
use pq_web::{PageLoadResult, Website};
use std::fmt;
use std::sync::Arc;

/// `PQ_SCALE`: how much of the paper's grid [`RunSpec::at`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 4 sites × 3 runs — seconds; CI smoke tests.
    Smoke,
    /// 12 sites × 11 runs — a coffee break.
    Reduced,
    /// 36 sites × 31 runs — the paper's full design.
    Full,
}

/// The chaos spec of the CI `chaos-smoke` job and of every chaos run in
/// `results/contract.txt`; `tests/contract_digests.rs` holds `ci.yml` to
/// this spelling.
pub const CHAOS_SPEC: &str = "seed=7;gel:pgb=0.02,pbg=0.3,bad=0.4;flap:at=1200,dur=300;\
                              stall:p=0.05,ms=800;trunc:p=0.03;hs:p=0.05";

/// One grid: `sites` × `networks` × `stacks`, each cell loaded until
/// `runs` loads are valid, at `seed`, under `faults`. Three methods run
/// it: [`stimuli`](RunSpec::stimuli), [`load`](RunSpec::load) and
/// [`run`](RunSpec::run). `pq` parses it from `PQ_SCALE`
/// ([`RunSpec::at`]), `PQ_SEED`, `PQ_STACKS` and `PQ_FAULTS`
/// ([`RunSpec::with_faults`]); unset, they give [`RunSpec::default`].
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The grid's sites; a stimulus's `site` indexes this list.
    pub sites: Vec<Website>,
    /// The grid's networks.
    pub networks: Vec<NetworkKind>,
    /// Protocol stacks of the grid, sorted and deduplicated (default:
    /// the paper's five, whose [`Protocol::pairs_for`] is Figure 4's).
    pub stacks: Vec<Protocol>,
    /// Valid page loads per cell (the paper: ≥ 31).
    pub runs: u32,
    /// Stimulus and study seed (default 1910, the paper's arXiv month).
    pub seed: u64,
    /// Fault plan, never an empty one (`None` = injection off).
    pub faults: Option<Arc<FaultPlan>>,
}

impl RunSpec {
    /// The paper's grid at `scale`: the first sites of the corpus (the
    /// five lab sites and the §4.4 named sites come first) × Table 2's
    /// networks × Table 1's stacks, at seed 1910, with no faults.
    pub fn at(scale: Scale) -> RunSpec {
        let (sites, runs) = match scale {
            Scale::Smoke => (4, 3),
            Scale::Reduced => (12, 11),
            Scale::Full => (36, 31),
        };
        RunSpec {
            sites: pq_web::corpus().into_iter().take(sites).collect(),
            networks: NetworkKind::ALL.to_vec(),
            stacks: Protocol::ALL.to_vec(),
            runs,
            seed: 1910,
            faults: None,
        }
    }

    /// `pq edge_cell`'s grid: wikipedia.org × LTE × [`edge_stacks`] ×
    /// 3 runs, at this spec's seed and under its fault plan.
    /// `results/contract.txt` pins its [`contract()`], clean and under
    /// the chaos spec.
    pub fn edge_cell(&self) -> RunSpec {
        RunSpec {
            sites: vec![pq_web::site("wikipedia.org").expect("corpus site")],
            networks: vec![NetworkKind::Lte],
            stacks: edge_stacks(),
            runs: 3,
            seed: self.seed,
            faults: self.faults.clone(),
        }
    }

    /// This grid under the fault plan `spec` spells (README "Fault
    /// injection"); a plan with no fault class turns injection off.
    pub fn with_faults(self, spec: &str) -> Result<RunSpec, PqError> {
        let plan = FaultPlan::parse(spec)?;
        Ok(RunSpec {
            faults: (!plan.is_empty()).then(|| Arc::new(plan)),
            ..self
        })
    }

    /// Build the grid: every cell's typical video, or its quarantine.
    pub fn stimuli(&self) -> StimulusSet {
        StimulusSet::build_with_faults(
            &self.sites,
            &self.networks,
            &self.stacks,
            self.runs,
            self.seed,
            self.faults.clone(),
        )
    }

    /// Attempt `attempt` of the cell of `sites[site]`, `network` and
    /// `stack`: the very page load [`stimuli`](RunSpec::stimuli) runs
    /// for it; `None` when `site` is not an index into `sites`.
    pub fn load(
        &self,
        site: u16,
        network: NetworkKind,
        stack: Protocol,
        attempt: u32,
    ) -> Option<PageLoadResult> {
        let (site, faults) = (self.sites.get(usize::from(site))?, self.faults.as_ref());
        Some(load_attempt(
            self.seed, site, network, stack, attempt, faults,
        ))
    }

    /// Build the grid and run both studies over it.
    pub fn run(&self) -> Experiment {
        let stimuli = self.stimuli();
        let pairs = Protocol::pairs_for(&self.stacks);
        let data = run_study_with(&stimuli, &pairs, &self.stacks, self.seed);
        Experiment {
            spec: self.clone(),
            stimuli,
            data,
        }
    }
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec::at(Scale::Reduced)
    }
}

/// `4 sites × 4 networks × 5 stacks × 3 runs, seed=1910`, then
/// `, faults=ON` under a fault plan.
impl fmt::Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        let (sites, networks, stacks) = (self.sites.len(), self.networks.len(), self.stacks.len());
        let (runs, seed) = (self.runs, self.seed);
        let grid = format!("{sites} sites × {networks} networks × {stacks} stacks × {runs} runs");
        let faults = self.faults.as_ref().map_or("", |_| ", faults=ON");
        write!(f, "{grid}, seed={seed}{faults}")
    }
}

/// A fully executed experiment: stimuli plus both studies' raw data.
pub struct Experiment {
    /// The grid it built.
    pub spec: RunSpec,
    /// Typical videos per condition.
    pub stimuli: StimulusSet,
    /// Raw votes, funnels and sessions.
    pub data: StudyData,
}

/// The three edge stacks plus their Table-1 A/B partners (QUIC, TCP+),
/// sorted: the smallest grid where every edge pair runs.
/// `PQ_STACKS=edge` selects it, and [`RunSpec::edge_cell`] runs it.
pub fn edge_stacks() -> Vec<Protocol> {
    let mut stacks = vec![Protocol::Quic, Protocol::TcpPlus];
    stacks.extend(Protocol::EDGE);
    stacks.sort_unstable();
    stacks
}

/// Pretty vote-share bar for terminal tables. Out-of-range shares are
/// clamped to `[0, 1]` (NaN renders empty) so a buggy upstream share
/// can never overflow the table layout.
pub fn share_bar(share: f64, width: usize) -> String {
    let share = if share.is_nan() {
        0.0
    } else {
        share.clamp(0.0, 1.0)
    };
    let filled = (share * width as f64).round() as usize;
    let mut s = String::new();
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_scale_names_a_leading_slice_of_the_corpus() {
        for (scale, sites, runs) in [
            (Scale::Smoke, 4, 3),
            (Scale::Reduced, 12, 11),
            (Scale::Full, 36, 31),
        ] {
            let spec = RunSpec::at(scale);
            assert_eq!((spec.sites.len(), spec.runs), (sites, runs), "{scale:?}");
            assert!(spec.sites.iter().any(|s| s.name == "wikipedia.org"));
            assert_eq!(spec.networks, NetworkKind::ALL);
            assert_eq!(spec.stacks, Protocol::ALL);
        }
        let smoke = RunSpec::at(Scale::Smoke);
        assert_eq!(
            smoke.to_string(),
            "4 sites × 4 networks × 5 stacks × 3 runs, seed=1910"
        );
        let chaos = smoke
            .with_faults(CHAOS_SPEC)
            .expect("the chaos spec parses");
        assert!(chaos.to_string().ends_with(", faults=ON"));
        assert!(chaos.load(4, NetworkKind::Dsl, Protocol::Quic, 0).is_none());
        // A plan with no fault class is no plan; an unparsable one is
        // an error.
        assert!(chaos
            .clone()
            .with_faults("seed=7")
            .unwrap()
            .faults
            .is_none());
        assert!(chaos.with_faults("gel:pgb=2").is_err());
    }

    #[test]
    fn smoke_experiment_runs() {
        let e = RunSpec {
            seed: 5,
            ..RunSpec::at(Scale::Smoke)
        }
        .run();
        assert!(!e.data.ab.is_empty());
        assert!(!e.data.ratings.is_empty());
        assert_eq!(e.stimuli.site_count(), 4);
    }

    /// `PQ_SCALE=smoke PQ_SEED=1910`, built once for every test that
    /// pins what a `pq` view or the manifest shows of it.
    pub(crate) fn smoke_1910() -> &'static Experiment {
        static SMOKE: std::sync::OnceLock<Experiment> = std::sync::OnceLock::new();
        SMOKE.get_or_init(|| RunSpec::at(Scale::Smoke).run())
    }

    /// `pq-perf`'s `lossy_edge_serial` grid cut to its first site at 31
    /// runs: DA2GC and MSS × all eight stacks under that workload's
    /// fault plan, at seed 1910. The pins are what a direct
    /// `StimulusSet::build_with_faults` + `run_study_with` call
    /// returned before the grid went through [`RunSpec`].
    #[test]
    fn the_spec_runs_the_lossy_edge_grid_at_one_site() {
        let spec = RunSpec {
            sites: RunSpec::at(Scale::Reduced).sites[..1].to_vec(),
            networks: vec![NetworkKind::Da2gc, NetworkKind::Mss],
            stacks: Protocol::ALL_WITH_EDGE.to_vec(),
            runs: 31,
            ..RunSpec::default()
        }
        .with_faults("seed=7;gel:pgb=0.01,pbg=0.5,bad=0.2;stall:p=0.05,ms=400;hs:p=0.05")
        .expect("the lossy plan parses");
        let e = spec.run();
        let counts = e.stimuli.counts();
        assert_eq!(
            (counts.loads, counts.events_total(), counts.faults_injected),
            (501, 803_877, 1598)
        );
        assert_eq!(e.stimuli.runs_retried(), 5);
        assert_eq!(e.stimuli.quarantined().len(), 0);
        assert_eq!(
            format!("{:016x}", manifest::study_digest(&e.data)),
            "f24deb5e802a001c"
        );
    }

    #[test]
    fn section_4_2_normality_verdicts_at_smoke_scale() {
        // "Internet values are not normally distributed", hence the
        // median in Fig. 3; the lab's residuals pass. (µWorker's do
        // not at n ≈ 17 000: EXPERIMENTS.md, Deviations.)
        let e = smoke_1910();
        let verdict = |group| {
            let residuals = report::rating_residuals(&e.data.ratings, group);
            let jb = pq_stats::jarque_bera(&residuals).expect("at least 8 residuals");
            jb.is_normal_at(0.01)
        };
        assert!(verdict(pq_study::Group::Lab), "Lab rejected");
        assert!(!verdict(pq_study::Group::Internet), "Internet not rejected");
    }

    #[test]
    fn ablation_1_filtering_raises_the_quic_preferred_share_at_smoke_scale() {
        // EXPERIMENTS.md, Ablations: on MSS QUIC vs TCP, R1–R7 keep
        // 318 of the 730 µWorker votes, and the QUIC-preferred share
        // rises from 601 / 730 (82 %) to 316 / 318 (99 %).
        assert_eq!(
            report::filtering_ablation(smoke_1910()),
            Some([(316.0 / 318.0, 318), (601.0 / 730.0, 730)])
        );
    }

    #[test]
    fn share_bar_renders() {
        assert_eq!(share_bar(0.5, 10), "#####.....");
        assert_eq!(share_bar(0.0, 4), "....");
        assert_eq!(share_bar(1.0, 4), "####");
    }

    #[test]
    fn share_bar_clamps_out_of_range() {
        // > 1.0 must not overflow the bar width.
        assert_eq!(share_bar(1.7, 4), "####");
        assert_eq!(share_bar(f64::INFINITY, 4), "####");
        // Negative shares clamp to empty.
        assert_eq!(share_bar(-0.3, 4), "....");
        assert_eq!(share_bar(f64::NEG_INFINITY, 4), "....");
        // NaN renders empty rather than panicking or filling.
        assert_eq!(share_bar(f64::NAN, 4), "....");
    }
}
