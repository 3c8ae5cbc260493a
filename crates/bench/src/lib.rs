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
//! | `edge_cell` | extra — one edge-stack grid cell's study digest, for CI |
//! | `runall` | every table and figure above, in order, plus the run manifest |
//!
//! The binary parses its `PQ_*` knobs once into a [`RunSpec`]; the
//! library reads no environment. `PQ_SCALE=full` matches the paper (36
//! sites × 4 networks × 5 stacks × 31 runs).
//!
//! ## Parallel execution
//!
//! The stimulus grid and both studies execute on the `pq-par` pool
//! (workers claim index chunks from one atomic cursor). `PQ_JOBS` sets
//! the worker count (default: available parallelism; unparsable
//! values warn via the tracer). Output is **bit-identical
//! at any worker count** — every page load and participant derives its
//! RNG purely from `(seed, cell indices)` — and the run manifest
//! records both `jobs` and a `study_digest` so CI can diff a
//! `PQ_JOBS=4` run against `PQ_JOBS=1` and prove it.
//!
//! ## Fault injection
//!
//! Setting `PQ_FAULTS=<spec>` (see [`pq_fault`]) turns the run into a
//! chaos experiment: deterministic burst loss, link flaps, server
//! stalls, truncated responses and handshake-flight drops, all keyed
//! by `(fault seed, cell coordinates)` so the run is still
//! bit-identical at any `PQ_JOBS`. The manifest then records
//! `fault_spec`, `faults_injected`, `runs_retried` and
//! `cells_quarantined` alongside the usual digest.
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
//! `runall` additionally writes `results/manifest.json` — scale, seed,
//! git rev, per-phase wall-times, Table-3 funnel counts and
//! per-protocol PLT p50/p90/p99 (see [`manifest::manifest_json`]). Its
//! timings are one sample from one machine; speed is measured by
//! `benches/perf`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod contract;
pub mod manifest;
pub mod report;

pub use contract::contract;

use pq_fault::FaultPlan;
use pq_sim::NetworkKind;
use pq_study::{run_study_with, StimulusSet, StudyData};
use pq_transport::Protocol;
use pq_web::{catalogue, Website};
use std::sync::Arc;

/// How much of the full condition space to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 4 sites × 3 runs — seconds; CI smoke tests.
    Smoke,
    /// 12 sites × 11 runs — a coffee break.
    Reduced,
    /// 36 sites × 31 runs — the paper's full design.
    Full,
}

impl Scale {
    /// (sites, runs per condition).
    pub fn params(self) -> (usize, u32) {
        match self {
            Scale::Smoke => (4, 3),
            Scale::Reduced => (12, 11),
            Scale::Full => (36, 31),
        }
    }

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Reduced => "reduced",
            Scale::Full => "full",
        }
    }
}

/// The chaos spec of the CI `chaos-smoke` job and of every chaos run in
/// `results/contract.txt`; `tests/contract_digests.rs` holds `ci.yml` to
/// this spelling.
pub const CHAOS_SPEC: &str = "seed=7;gel:pgb=0.02,pbg=0.3,bad=0.4;flap:at=1200,dur=300;\
                              stall:p=0.05,ms=800;trunc:p=0.03;hs:p=0.05";

/// The corpus subset for a scale: always includes the five lab sites
/// and the §4.4 named sites first.
pub fn sites_for(scale: Scale) -> Vec<Website> {
    let (n, _) = scale.params();
    catalogue::corpus().into_iter().take(n.max(4)).collect()
}

/// One run's configuration, of which [`run_experiment`] and
/// [`edge_cell`] are functions. The `pq` binary parses it from
/// `PQ_SCALE`, `PQ_SEED`, `PQ_STACKS` and `PQ_FAULTS`; unset, they give
/// [`RunSpec::default`].
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// How much of the condition space to simulate.
    pub scale: Scale,
    /// Study seed (default 1910, the paper's arXiv month).
    pub seed: u64,
    /// Protocol stacks of the grid, sorted and deduplicated (default:
    /// the paper's five, whose [`Protocol::pairs_for`] is Figure 4's).
    pub stacks: Vec<Protocol>,
    /// Fault plan, never an empty one (`None` = injection off).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec {
            scale: Scale::Reduced,
            seed: 1910,
            stacks: Protocol::ALL.to_vec(),
            faults: None,
        }
    }
}

/// A fully executed experiment: stimuli plus both studies' raw data.
pub struct Experiment {
    /// The configuration it ran.
    pub spec: RunSpec,
    /// Typical videos per condition.
    pub stimuli: StimulusSet,
    /// Raw votes, funnels and sessions.
    pub data: StudyData,
}

/// Run the full pipeline (stimulus production + both studies) that
/// `spec` describes.
pub fn run_experiment(spec: &RunSpec) -> Experiment {
    let (sites, runs) = (sites_for(spec.scale), spec.scale.params().1);
    let (stimuli, data) = grid(spec, &sites, &NetworkKind::ALL, &spec.stacks, runs);
    Experiment {
        spec: spec.clone(),
        stimuli,
        data,
    }
}

/// The three edge stacks plus their Table-1 A/B partners (QUIC, TCP+),
/// sorted: the smallest grid where every edge pair runs.
/// `PQ_STACKS=edge` selects it, and [`edge_cell`] runs it.
pub fn edge_stacks() -> Vec<Protocol> {
    let mut stacks = vec![Protocol::Quic, Protocol::TcpPlus];
    stacks.extend(Protocol::EDGE);
    stacks.sort_unstable();
    stacks
}

/// Page loads per condition in [`edge_cell`].
pub const EDGE_CELL_RUNS: u32 = 3;

/// `pq edge_cell`: wikipedia.org × LTE × [`edge_stacks`] ×
/// [`EDGE_CELL_RUNS`] runs, through both studies, under `spec`'s seed
/// and fault plan; the experiment's spec has `spec`'s scale and
/// [`edge_stacks`]. `results/contract.txt` pins its [`contract()`],
/// clean and under the chaos spec.
pub fn edge_cell(spec: &RunSpec) -> Experiment {
    let spec = RunSpec {
        stacks: edge_stacks(),
        ..spec.clone()
    };
    let sites = [pq_web::site("wikipedia.org").expect("corpus site")];
    let (stimuli, data) = grid(
        &spec,
        &sites,
        &[NetworkKind::Lte],
        &spec.stacks,
        EDGE_CELL_RUNS,
    );
    Experiment {
        spec,
        stimuli,
        data,
    }
}

/// Build the grid under `spec`'s seed and fault plan, and run both
/// studies over it.
fn grid(
    spec: &RunSpec,
    sites: &[Website],
    networks: &[NetworkKind],
    stacks: &[Protocol],
    runs: u32,
) -> (StimulusSet, StudyData) {
    let faults = spec.faults.clone();
    let stimuli = StimulusSet::build_with_faults(sites, networks, stacks, runs, spec.seed, faults);
    let data = run_study_with(&stimuli, &Protocol::pairs_for(stacks), stacks, spec.seed);
    (stimuli, data)
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
    fn scale_params() {
        assert_eq!(Scale::Smoke.params(), (4, 3));
        assert_eq!(Scale::Full.params(), (36, 31));
        assert_eq!(Scale::Full.label(), "full");
    }

    #[test]
    fn sites_include_lab_domains_at_every_scale() {
        let sites = sites_for(Scale::Smoke);
        assert!(sites.iter().any(|s| s.name == "wikipedia.org"));
        assert_eq!(sites_for(Scale::Full).len(), 36);
    }

    #[test]
    fn smoke_experiment_runs() {
        let e = run_experiment(&RunSpec {
            scale: Scale::Smoke,
            seed: 5,
            ..RunSpec::default()
        });
        assert!(!e.data.ab.is_empty());
        assert!(!e.data.ratings.is_empty());
        assert_eq!(e.stimuli.site_count(), 4);
    }

    /// `PQ_SCALE=smoke PQ_SEED=1910`, built once for every test that
    /// pins what a `pq` view prints of it.
    fn smoke_1910() -> &'static Experiment {
        static SMOKE: std::sync::OnceLock<Experiment> = std::sync::OnceLock::new();
        SMOKE.get_or_init(|| {
            run_experiment(&RunSpec {
                scale: Scale::Smoke,
                ..RunSpec::default()
            })
        })
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
