//! The three workloads: their inputs, the pipeline one repeat runs, and
//! the pinned outputs a repeat is checked against.

use crate::counters::Counters;
use crate::spans::Recorder;
use pq_bench::manifest::study_digest;
use pq_fault::FaultPlan;
use pq_metrics::Metric;
use pq_sim::NetworkKind;
use pq_study::{
    ab_shares, anova_across_protocols, fig3_agreement, metric_correlation, per_site_differences,
    rating_interval, run_study_with, Environment, Group, StimulusSet, StudyData,
};
use pq_transport::Protocol;
use pq_web::Website;
use std::sync::Arc;

/// The seed the pinned outputs belong to (the harness default, the
/// paper's arXiv month).
pub const PINNED_SEED: u64 = 1910;

/// The fault plan of `lossy_edge_serial`: burst loss on top of the
/// in-flight networks' random loss, server stalls and dropped
/// handshake flights — everything that sends a load down the
/// recovery path or makes the harness validate and re-run it.
const LOSSY_PLAN: &str = "seed=7;gel:pgb=0.01,pbg=0.5,bad=0.2;stall:p=0.05,ms=400;hs:p=0.05";

/// What one repeat produced: the digests and the exact counts a perf
/// change must leave alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// `pq_bench::manifest::study_digest` of the study data (of the
    /// per-seed vote folds on `study_resample`).
    pub digest: u64,
    /// Fold of every number the Fig. 3–6 analysis calls returned.
    pub analysis: u64,
    pub loads: u64,
    pub events: u64,
    pub incomplete: u64,
    pub retries: u64,
    pub quarantined: u64,
    pub faults: u64,
    pub votes: u64,
}

impl Outcome {
    /// Names and values of the fields, for printing and comparing.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("digest", self.digest),
            ("analysis", self.analysis),
            ("loads", self.loads),
            ("events", self.events),
            ("incomplete", self.incomplete),
            ("retries", self.retries),
            ("quarantined", self.quarantined),
            ("faults", self.faults),
            ("votes", self.votes),
        ]
    }

    /// `Err` names every field of `self` that differs from `want`.
    pub fn check_against(&self, want: &Outcome) -> Result<(), String> {
        let off: Vec<String> = self
            .fields()
            .iter()
            .zip(want.fields())
            .filter(|(got, want)| got.1 != want.1)
            .map(|(got, want)| {
                if matches!(got.0, "digest" | "analysis") {
                    format!("{} {:016x} != pinned {:016x}", got.0, got.1, want.1)
                } else {
                    format!("{} {} != pinned {}", got.0, got.1, want.1)
                }
            })
            .collect();
        if off.is_empty() {
            Ok(())
        } else {
            Err(off.join(", "))
        }
    }
}

/// The size and shape of a workload's inputs.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Leading sites of the catalogue corpus.
    pub n_sites: usize,
    pub networks: Vec<NetworkKind>,
    pub stacks: Vec<Protocol>,
    /// Valid runs per grid cell.
    pub runs: u32,
    pub plan: Option<&'static str>,
    /// `Some(k)`: the stimulus set is built in set-up and the timed
    /// part re-runs the study and its analysis under `k` study seeds.
    pub resample: Option<u64>,
}

/// One benchmark workload. Why each exists is recorded once, in
/// `BENCHMARK.json` (and at length in README.md).
pub struct Workload {
    pub name: &'static str,
    /// What `work_per_s` counts on this workload.
    pub unit: &'static str,
    /// Wall time of one child's timed part (every pass) on the 2-core
    /// reference box; a child that takes ten times as long is killed
    /// and its repeat counted as failed.
    pub base_cost_s: f64,
    /// How often a child executes the repeat. Each pass must reproduce
    /// the first one's outputs; the child reports, segment by segment,
    /// the fastest execution ([`Repeat::keep_faster`]).
    pub passes: u32,
    /// Outputs at [`PINNED_SEED`].
    pub pins: Outcome,
    spec: fn() -> Spec,
}

impl Workload {
    pub fn spec(&self) -> Spec {
        (self.spec)()
    }

    /// Check one repeat's outputs. At the pinned seed everything is
    /// pinned; at any other seed the counts that the design fixes
    /// (votes; loads, retries, quarantined cells and injected faults
    /// when no fault plan is active) still are.
    pub fn check(&self, seed: u64, got: &Outcome) -> Result<(), String> {
        if seed == PINNED_SEED {
            return got.check_against(&self.pins);
        }
        let mut want = *got;
        want.votes = self.pins.votes;
        if self.spec().plan.is_none() {
            want.loads = self.pins.loads;
            want.quarantined = 0;
            want.retries = 0;
            want.faults = 0;
        }
        got.check_against(&want)
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_grid_serial",
        unit: "pageloads",
        base_cost_s: 6.7,
        passes: 1,
        pins: Outcome {
            digest: 0xa59e_4c62_067a_3e8c,
            analysis: 0x9973_2aee_3119_20bf,
            loads: 2640,
            events: 17_900_446,
            incomplete: 5,
            retries: 0,
            quarantined: 0,
            faults: 0,
            votes: 60_755,
        },
        spec: || Spec {
            n_sites: 12,
            networks: NetworkKind::ALL.to_vec(),
            stacks: Protocol::ALL.to_vec(),
            runs: 11,
            plan: None,
            resample: None,
        },
    },
    Workload {
        name: "lossy_edge_serial",
        unit: "pageloads",
        base_cost_s: 8.4,
        passes: 1,
        pins: Outcome {
            digest: 0xae03_cbcf_7f9d_f2db,
            analysis: 0x5304_da67_f539_2b1f,
            loads: 2175,
            events: 21_824_451,
            incomplete: 259,
            retries: 259,
            quarantined: 0,
            faults: 34_164,
            votes: 23_091,
        },
        spec: || Spec {
            n_sites: 12,
            networks: vec![NetworkKind::Da2gc, NetworkKind::Mss],
            stacks: Protocol::ALL_WITH_EDGE.to_vec(),
            runs: 10,
            plan: Some(LOSSY_PLAN),
            resample: None,
        },
    },
    Workload {
        name: "study_resample",
        unit: "votes",
        base_cost_s: 5.5,
        passes: 5,
        pins: Outcome {
            digest: 0x8436_bad9_2958_1bbc,
            analysis: 0xf7ce_e136_069b_5f91,
            loads: 0,
            events: 0,
            incomplete: 0,
            retries: 0,
            quarantined: 0,
            faults: 0,
            votes: 10 * 60_755,
        },
        spec: || Spec {
            n_sites: 4,
            networks: NetworkKind::ALL.to_vec(),
            stacks: Protocol::ALL.to_vec(),
            runs: 3,
            plan: None,
            resample: Some(10),
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a repeat needs, made in set-up from the spec and the
/// seed; the program under test receives only these.
pub struct Inputs {
    pub spec: Spec,
    pub sites: Vec<Website>,
    pub plan: Option<Arc<FaultPlan>>,
    /// The stimulus set of a resampling workload, built in set-up.
    pub stimuli: Option<StimulusSet>,
}

/// Set-up: corpus generation, fault-plan parse, and on a resampling
/// workload the stimulus build. All of it is `setup_s`. Every workload
/// runs on one worker: two busy vCPUs of a shared host time the host
/// (README.md, "Why the best repeat"); what the pool adds is measured
/// per layer, by the traced run.
pub fn setup(spec: &Spec, seed: u64, rec: &mut Recorder) -> Inputs {
    pq_par::set_jobs(Some(1));
    let sites: Vec<Website> = pq_web::corpus().into_iter().take(spec.n_sites).collect();
    let plan = spec
        .plan
        .map(|p| Arc::new(FaultPlan::parse(p).expect("the workload's fault plan parses")));
    let stimuli = spec
        .resample
        .map(|_| rec.scope("setup.stimulus_build", |_| build(spec, &sites, &plan, seed)));
    Inputs {
        spec: spec.clone(),
        sites,
        plan,
        stimuli,
    }
}

fn build(spec: &Spec, sites: &[Website], plan: &Option<Arc<FaultPlan>>, seed: u64) -> StimulusSet {
    StimulusSet::build_with_faults(
        sites,
        &spec.networks,
        &spec.stacks,
        spec.runs,
        seed,
        plan.clone(),
    )
}

/// Word-wise multiply-xor fold of the numbers a check covers. Cheap
/// enough (one multiply per word) to run inside a timed repeat.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x1_0000_0000_01b3);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Every analysis call `report::print_fig3..6` makes, each figure
/// under its own span; the returned numbers are folded so the work
/// cannot be optimised away and its output is checked.
fn analysis(
    rec: &mut Recorder,
    data: &StudyData,
    stimuli: &StimulusSet,
    stacks: &[Protocol],
) -> u64 {
    let mut fold = Fold::new();
    rec.scope("study.analysis.fig3", |_| {
        let rows = fig3_agreement(&data.ratings, 0.99);
        fold.u64(rows.len() as u64);
        for r in &rows {
            fold.f64(r.lab.mean);
            fold.f64(r.lab.half_width);
            fold.f64(r.micro.mean);
            fold.f64(r.internet_median.unwrap_or(-1.0));
        }
    });
    rec.scope("study.analysis.fig4", |_| {
        let groups = [Group::Lab, Group::MicroWorker];
        for network in NetworkKind::ALL {
            for pair in Protocol::pairs_for(stacks) {
                if let Some(s) = ab_shares(&data.ab, network, pair, &groups) {
                    fold.f64(s.first);
                    fold.f64(s.no_diff);
                    fold.f64(s.second);
                    fold.f64(s.avg_replays);
                    fold.u64(s.n as u64);
                }
            }
        }
    });
    rec.scope("study.analysis.fig5", |_| {
        let cells = [
            (Environment::Work, Some(NetworkKind::Dsl)),
            (Environment::Work, Some(NetworkKind::Lte)),
            (Environment::FreeTime, Some(NetworkKind::Dsl)),
            (Environment::FreeTime, Some(NetworkKind::Lte)),
            (Environment::Plane, Some(NetworkKind::Da2gc)),
            (Environment::Plane, Some(NetworkKind::Mss)),
        ];
        for (env, net) in cells {
            for &p in stacks {
                if let Some(ci) =
                    rating_interval(&data.ratings, env, net, p, Group::MicroWorker, 0.99)
                {
                    fold.f64(ci.mean);
                    fold.f64(ci.half_width);
                }
            }
            if let Some(r) =
                anova_across_protocols(&data.ratings, env, net, stacks, Group::MicroWorker)
            {
                fold.f64(r.f);
                fold.f64(r.p);
            }
        }
        let mut pairs = vec![
            (Protocol::Quic, Protocol::Tcp),
            (Protocol::Quic, Protocol::TcpPlus),
            (Protocol::QuicBbr, Protocol::TcpPlusBbr),
            (Protocol::TcpPlus, Protocol::Tcp),
        ];
        pairs.extend(
            Protocol::EDGE_AB_PAIRS
                .into_iter()
                .filter(|(a, b)| stacks.contains(a) && stacks.contains(b)),
        );
        for network in NetworkKind::ALL {
            let diffs = per_site_differences(
                &data.ratings,
                network,
                &pairs,
                Group::MicroWorker,
                0.90,
                stimuli.site_count(),
            );
            fold.u64(diffs.len() as u64);
            for d in &diffs {
                fold.f64(d.diff);
                fold.f64(d.p);
            }
        }
    });
    rec.scope("study.analysis.fig6", |_| {
        for &protocol in stacks {
            for metric in Metric::ALL {
                for network in NetworkKind::ALL {
                    let envs: &[Environment] = if network.is_inflight() {
                        &[Environment::Plane]
                    } else {
                        &[Environment::FreeTime]
                    };
                    let r = metric_correlation(
                        &data.ratings,
                        stimuli,
                        network,
                        protocol,
                        metric,
                        Group::MicroWorker,
                        envs,
                    );
                    fold.f64(r.unwrap_or(-2.0));
                }
            }
        }
    });
    fold.0
}

/// Fold of one study execution's votes: every bit the analysis reads.
/// The resampling workload folds each seed's votes with this inside
/// the timed loop, where `study_digest`'s byte-wise hash would be a
/// fifth of the loop.
fn vote_fold(data: &StudyData) -> u64 {
    let mut fold = Fold::new();
    for v in &data.ab {
        fold.u64(v.choice as u64 | u64::from(v.replays) << 8 | u64::from(v.valid) << 16);
        fold.f64(v.confidence);
    }
    for v in &data.ratings {
        fold.f64(v.speed);
        fold.f64(v.quality);
        fold.u64(u64::from(v.valid));
    }
    fold.0
}

/// Wall and CPU seconds of one separately timed part of a repeat.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    pub wall_s: f64,
    pub cpu_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Segment) {
    let cpu0 = crate::procstat::cpu_seconds();
    let t0 = std::time::Instant::now();
    let out = f();
    let seg = Segment {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::procstat::cpu_seconds() - cpu0,
    };
    (out, seg)
}

/// What one repeat measured besides its outputs.
pub struct Repeat {
    pub outcome: Outcome,
    /// The timed parts: the whole pipeline on a grid workload, one per
    /// study seed on a resampling one. Nothing outside them is timed.
    pub segments: Vec<Segment>,
}

impl Repeat {
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }

    pub fn cpu_s(&self) -> f64 {
        self.segments.iter().map(|s| s.cpu_s).sum()
    }

    /// Segment by segment, keep the faster execution (by wall time,
    /// with the CPU time of that same execution) of `self` and `again`,
    /// which ran the same work. A segment is deterministic CPU-bound
    /// work, so the faster execution is the less disturbed one, and a
    /// 0.1 s segment finds a quiet moment where a whole pass does not.
    pub fn keep_faster(&mut self, again: &Repeat) {
        for (mine, theirs) in self.segments.iter_mut().zip(&again.segments) {
            if theirs.wall_s < mine.wall_s {
                *mine = *theirs;
            }
        }
    }
}

/// One repeat: stimulus build → both studies → Fig. 3–6 analysis (or,
/// resampling, studies + analysis per study seed), under span
/// `pipeline`. The clock covers the pipeline only; digesting the study
/// data for the check happens after it stops.
pub fn repeat(inp: &Inputs, seed: u64, rec: &mut Recorder) -> Repeat {
    let spec = &inp.spec;
    let pairs = Protocol::pairs_for(&spec.stacks);
    let before = Counters::read();
    let mut segments = Vec::new();
    // `Ok(data)`: digest it once the clock has stopped; `Err(fold)`:
    // the resampling loop already folded each seed's votes.
    let (checked, analysis_fold, votes) = rec.scope("pipeline", |rec| match spec.resample {
        None => {
            let ((data, fold), seg) = timed(|| {
                let stimuli = rec.scope("study.stimulus_build", |_| {
                    build(spec, &inp.sites, &inp.plan, seed)
                });
                let data = rec.scope("study.run_study", |_| {
                    run_study_with(&stimuli, &pairs, &spec.stacks, seed)
                });
                let fold = analysis(rec, &data, &stimuli, &spec.stacks);
                (data, fold)
            });
            segments.push(seg);
            let votes = (data.ab.len() + data.ratings.len()) as u64;
            (Ok(data), fold, votes)
        }
        Some(k) => {
            let stimuli = inp.stimuli.as_ref().expect("set-up built the stimulus set");
            let (mut digests, mut folds, mut votes) = (Fold::new(), Fold::new(), 0);
            for i in 0..k {
                let ((), seg) = timed(|| {
                    let data = rec.scope("study.run_study", |_| {
                        run_study_with(stimuli, &pairs, &spec.stacks, seed.wrapping_add(i))
                    });
                    folds.u64(analysis(rec, &data, stimuli, &spec.stacks));
                    digests.u64(vote_fold(&data));
                    votes += (data.ab.len() + data.ratings.len()) as u64;
                });
                segments.push(seg);
            }
            (Err(digests.0), folds.0, votes)
        }
    });
    let digest = match checked {
        Ok(data) => study_digest(&data),
        Err(fold) => fold,
    };
    let moved = Counters::read().since(&before);
    Repeat {
        outcome: Outcome {
            digest,
            analysis: analysis_fold,
            loads: moved.get("web.pageloads"),
            events: moved.get("sim.events_processed"),
            incomplete: moved.get("web.pageloads_incomplete"),
            retries: moved.get("run.retries"),
            quarantined: moved.get("run.quarantined"),
            faults: moved.get("fault.injected"),
            votes,
        },
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload's code path on a grid small enough for a test: one
    /// site, two runs per cell, two study seeds.
    fn tiny(w: &Workload) -> Spec {
        let mut spec = w.spec();
        spec.n_sites = 1;
        spec.runs = 2;
        spec.resample = spec.resample.map(|_| 2);
        spec
    }

    #[test]
    fn every_workload_repeats_exactly_and_a_wrong_pin_fails_the_check() {
        let _registry = crate::counters::REGISTRY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for w in &WORKLOADS {
            let spec = tiny(w);
            let mut rec = Recorder::off();
            let inputs = setup(&spec, PINNED_SEED, &mut rec);
            let first = repeat(&inputs, PINNED_SEED, &mut rec);
            // One timed segment per study seed, or the whole pipeline.
            assert_eq!(
                first.segments.len() as u64,
                spec.resample.unwrap_or(1),
                "{}",
                w.name
            );
            let a = first.outcome;
            let b = repeat(&inputs, PINNED_SEED, &mut rec).outcome;
            assert_eq!(a.check_against(&b), Ok(()), "{}", w.name);
            assert!(
                a.votes > 0 && a.digest != 0 && a.analysis != 0,
                "{}",
                w.name
            );
            if spec.resample.is_none() {
                let cells = (spec.networks.len() * spec.stacks.len()) as u64;
                assert!(a.loads >= cells * 2 && a.events > a.loads, "{}", w.name);
            } else {
                assert_eq!(
                    (a.loads, a.events),
                    (0, 0),
                    "{}: no simulation in the timed part",
                    w.name
                );
            }
            assert_eq!(spec.plan.is_some(), a.faults > 0, "{}", w.name);

            // One pinned value off by one — each in turn — fails the check.
            for field in 0..a.fields().len() {
                let mut pins = a;
                match field {
                    0 => pins.digest ^= 1,
                    1 => pins.analysis ^= 1,
                    2 => pins.loads += 1,
                    3 => pins.events += 1,
                    4 => pins.incomplete += 1,
                    5 => pins.retries += 1,
                    6 => pins.quarantined += 1,
                    7 => pins.faults += 1,
                    _ => pins.votes += 1,
                }
                let err = a.check_against(&pins).expect_err("a wrong pin must fail");
                assert!(err.contains(a.fields()[field].0), "{}: {err}", w.name);
            }
        }
    }

    #[test]
    fn keep_faster_takes_each_segment_from_its_faster_execution() {
        let seg = |wall_s, cpu_s| Segment { wall_s, cpu_s };
        let rep = |segments| Repeat {
            outcome: WORKLOADS[2].pins,
            segments,
        };
        let mut best = rep(vec![seg(0.12, 0.11), seg(0.20, 0.19), seg(0.13, 0.13)]);
        best.keep_faster(&rep(vec![
            seg(0.15, 0.10),
            seg(0.11, 0.12),
            seg(0.13, 0.09),
        ]));
        // The CPU time is the faster execution's own, not the smaller one.
        assert_eq!(
            best.segments,
            [seg(0.12, 0.11), seg(0.11, 0.12), seg(0.13, 0.13)]
        );
        assert!((best.wall_s() - 0.36).abs() < 1e-12);
        assert!((best.cpu_s() - 0.36).abs() < 1e-12);
    }

    #[test]
    fn tracing_changes_no_output_and_names_every_pipeline_span() {
        let _registry = crate::counters::REGISTRY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let w = by_name("lossy_edge_serial").unwrap();
        let spec = tiny(w);
        let inputs = setup(&spec, 7, &mut Recorder::off());
        let plain = repeat(&inputs, 7, &mut Recorder::off()).outcome;
        let mut rec = Recorder::new("t");
        let traced = repeat(&inputs, 7, &mut rec).outcome;
        assert_eq!(plain, traced);
        let pipeline = rec.find("pipeline").unwrap();
        for name in [
            "study.stimulus_build",
            "study.run_study",
            "study.analysis.fig3",
            "study.analysis.fig4",
            "study.analysis.fig5",
            "study.analysis.fig6",
        ] {
            let id = rec.find(name).unwrap_or_else(|| panic!("no span {name}"));
            assert_eq!(rec.spans()[id].parent, Some(pipeline), "{name}");
        }
        assert_eq!(
            rec.subtree_self_ns(pipeline),
            rec.spans()[pipeline].dur_ns()
        );
        let build = &rec.spans()[rec.find("study.stimulus_build").unwrap()];
        assert_eq!(build.counts.get("web.pageloads"), traced.loads);
    }

    #[test]
    fn off_seed_checks_pin_what_the_design_fixes() {
        let grid = by_name("paper_grid_serial").unwrap();
        let mut got = grid.pins;
        got.digest = 1;
        got.events += 999;
        got.incomplete = 3;
        assert_eq!(grid.check(5, &got), Ok(()));
        assert!(grid.check(PINNED_SEED, &got).is_err());
        got.loads -= 1;
        assert!(grid.check(5, &got).unwrap_err().contains("loads"));
        let lossy = by_name("lossy_edge_serial").unwrap();
        let mut got = lossy.pins;
        got.loads += 40;
        got.retries += 40;
        assert_eq!(lossy.check(5, &got), Ok(()));
        got.votes += 1;
        assert!(lossy.check(5, &got).unwrap_err().contains("votes"));
    }

    #[test]
    fn benchmark_json_names_the_same_workloads_metrics_and_bounds() {
        let text = include_str!("../../../BENCHMARK.json");
        let v = pq_obs::json::Value::parse(text).unwrap();
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(|x| x.as_arr())
                .unwrap()
                .iter()
                .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        let e2e = v.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), crate::driver::END_TO_END.len());
        for (j, m) in e2e.iter().zip(&crate::driver::END_TO_END) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(m.bound));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(j.get("better").unwrap().as_str(), Some(better));
        }
    }
}
