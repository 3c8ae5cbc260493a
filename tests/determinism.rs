//! Cross-crate parallel-determinism suite: the `pq-par` execution
//! engine must never change a single bit of pipeline output.
//!
//! Strategy: run the same pipeline stage with the worker count forced
//! to 1 (the serial reference), 2 and 8 via `pq_par::set_jobs`, and
//! compare outputs **bitwise** (`f64::to_bits`, not approximate
//! equality). Every stage derives its RNG purely from `(seed, cell
//! indices)`, so chunk placement and worker count are invisible in the
//! data — this suite is the proof.
//!
//! The worker-count override is process-global, so the tests that
//! sweep it serialise on one mutex.

use perceiving_quic::prelude::*;
use pq_study::session::{population, StudyKind};
use std::sync::Mutex;

static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` under a forced worker count, restoring auto-detection after.
fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    pq_par::set_jobs(Some(jobs));
    let out = f();
    pq_par::set_jobs(None);
    out
}

fn small_sites() -> Vec<Website> {
    ["apache.org", "wikipedia.org"]
        .iter()
        .map(|n| site(n).unwrap())
        .collect()
}

fn assert_stimuli_identical(a: &StimulusSet, b: &StimulusSet) {
    assert_eq!(a.site_names, b.site_names);
    let mut cells = 0;
    for s in a.iter() {
        let c = s.condition;
        let p = b
            .get(c.site, c.network, c.protocol)
            .expect("same cells survive");
        assert_eq!(s.runs, p.runs);
        assert_eq!(s.metrics.fvc_ms.to_bits(), p.metrics.fvc_ms.to_bits());
        assert_eq!(s.metrics.si_ms.to_bits(), p.metrics.si_ms.to_bits());
        assert_eq!(s.metrics.vc85_ms.to_bits(), p.metrics.vc85_ms.to_bits());
        assert_eq!(s.metrics.lvc_ms.to_bits(), p.metrics.lvc_ms.to_bits());
        assert_eq!(s.metrics.plt_ms.to_bits(), p.metrics.plt_ms.to_bits());
        assert_eq!(s.mean_plt_ms.to_bits(), p.mean_plt_ms.to_bits());
        assert_eq!(s.mean_retransmits.to_bits(), p.mean_retransmits.to_bits());
        assert_eq!(s.video_secs.to_bits(), p.video_secs.to_bits());
        cells += 1;
    }
    assert_eq!(cells, b.iter().count());
}

fn assert_studies_identical(a: &StudyData, b: &StudyData) {
    assert_eq!(a.ab.len(), b.ab.len());
    for (x, y) in a.ab.iter().zip(&b.ab) {
        assert_eq!(x.group, y.group);
        assert_eq!(x.participant, y.participant);
        assert_eq!(x.site, y.site);
        assert_eq!(x.network, y.network);
        assert_eq!(x.pair, y.pair);
        assert_eq!(x.choice, y.choice);
        assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
        assert_eq!(x.replays, y.replays);
        assert_eq!(x.valid, y.valid);
    }
    assert_eq!(a.ratings.len(), b.ratings.len());
    for (x, y) in a.ratings.iter().zip(&b.ratings) {
        assert_eq!(x.group, y.group);
        assert_eq!(x.participant, y.participant);
        assert_eq!(x.site, y.site);
        assert_eq!(x.network, y.network);
        assert_eq!(x.protocol, y.protocol);
        assert_eq!(x.environment, y.environment);
        assert_eq!(x.speed.to_bits(), y.speed.to_bits());
        assert_eq!(x.quality.to_bits(), y.quality.to_bits());
        assert_eq!(x.valid, y.valid);
    }
    for gi in 0..3 {
        assert_eq!(a.funnel_ab[gi], b.funnel_ab[gi]);
        assert_eq!(a.funnel_rating[gi], b.funnel_rating[gi]);
    }
    assert_eq!(a.sessions_ab.len(), b.sessions_ab.len());
    for (x, y) in a.sessions_ab.iter().zip(&b.sessions_ab) {
        assert_eq!(x.conformance, y.conformance);
        assert_eq!(x.secs_per_video.to_bits(), y.secs_per_video.to_bits());
    }
}

#[test]
fn stimulus_set_bit_identical_across_jobs_1_2_8() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sites = small_sites();
    let build = || {
        StimulusSet::build(
            &sites,
            &[NetworkKind::Dsl, NetworkKind::Mss],
            &[Protocol::Tcp, Protocol::Quic],
            3,
            1910,
        )
    };
    let serial = with_jobs(1, build);
    for jobs in [2usize, 8] {
        let parallel = with_jobs(jobs, build);
        assert_stimuli_identical(&serial, &parallel);
    }
}

#[test]
fn study_data_bit_identical_across_jobs_1_2_8() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sites = small_sites();
    // The study design touches every network × protocol, so build the
    // full (small-site) grid once per worker count.
    let pipeline = || {
        let stimuli = StimulusSet::build(&sites, &NetworkKind::ALL, &Protocol::ALL, 2, 77);
        let data = run_study(&stimuli, 9);
        (stimuli, data)
    };
    let (serial_stim, serial_data) = with_jobs(1, pipeline);
    for jobs in [2usize, 8] {
        let (par_stim, par_data) = with_jobs(jobs, pipeline);
        assert_stimuli_identical(&serial_stim, &par_stim);
        assert_studies_identical(&serial_data, &par_data);
    }
}

/// Profiling must be strictly off-path: allocation attribution and
/// span collection on vs off may not move a single bit of the study
/// digest, serial or parallel.
#[test]
fn study_digest_identical_with_profiling_on_and_off() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sites = small_sites();
    let digest = || {
        let stimuli = StimulusSet::build(&sites, &NetworkKind::ALL, &Protocol::ALL, 2, 77);
        pq_bench::manifest::study_digest(&run_study(&stimuli, 9))
    };
    for jobs in [1usize, 4] {
        pq_prof::configure(false, false);
        pq_prof::reset();
        let plain = with_jobs(jobs, digest);
        pq_prof::configure(true, true);
        pq_prof::reset();
        let profiled = with_jobs(jobs, digest);
        assert_emitted_names_are_declared();
        pq_prof::configure(false, false);
        pq_prof::reset();
        assert_eq!(
            plain, profiled,
            "profiling perturbed the study digest at jobs={jobs}"
        );
    }
}

/// Every series the run put in the registry and every frame the
/// profiler recorded must be declared in `pq_obs::names` — checked on
/// what was emitted, formatted names included.
fn assert_emitted_names_are_declared() {
    use pq_obs::names::{METRIC_NAMES, SPAN_NAMES};
    for series in pq_obs::registry().snapshot().keys() {
        let name = series.split('{').next().unwrap_or(series);
        assert!(
            METRIC_NAMES.contains(&name),
            "metric {series:?} is emitted but not declared in METRIC_NAMES"
        );
    }
    let declared = |frame: &str| {
        SPAN_NAMES
            .iter()
            .any(|n| frame == *n || (n.ends_with(':') && frame.starts_with(n)))
    };
    let folded = pq_prof::folded();
    assert!(!folded.is_empty(), "the profiled run recorded no spans");
    for frame in folded.iter().flat_map(|(path, ..)| path.split(';')) {
        assert!(
            declared(frame),
            "span {frame:?} is emitted but not declared in SPAN_NAMES"
        );
    }
}

/// The edge stacks (terminating proxy + middlebox) ride the same
/// determinism contract: a grid containing all three, studied against
/// their Table-1 partners, must be bit-identical at any worker count.
#[test]
fn edge_study_bit_identical_across_jobs_1_4() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sites = small_sites();
    let mut stacks = vec![Protocol::Quic, Protocol::TcpPlus];
    stacks.extend(Protocol::EDGE);
    stacks.sort();
    let pairs = Protocol::pairs_for(&stacks);
    let pipeline = || {
        let stimuli = StimulusSet::build(&sites, &[NetworkKind::Dsl], &stacks, 2, 1910);
        let data = perceiving_quic::study::run_study_with(&stimuli, &pairs, &stacks, 1910);
        (stimuli, data)
    };
    let (serial_stim, serial_data) = with_jobs(1, pipeline);
    let (par_stim, par_data) = with_jobs(4, pipeline);
    assert_stimuli_identical(&serial_stim, &par_stim);
    assert_studies_identical(&serial_data, &par_data);
    assert_eq!(
        pq_bench::manifest::study_digest(&serial_data),
        pq_bench::manifest::study_digest(&par_data),
    );
}

/// QUIC-MBX regression pin: the transparent middlebox's early
/// retransmits and RTT split are pure functions of derived seeds, so
/// this exact digest must hold at every worker count. A change here
/// means middlebox behaviour (or its RNG keying) changed — update the
/// constant only with a matching CHANGES.md entry.
#[test]
fn quic_mbx_digest_is_pinned_across_jobs_1_2_8() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sites = small_sites();
    let stacks = {
        let mut s = vec![Protocol::Quic, Protocol::QuicMbx];
        s.sort();
        s
    };
    let pairs = Protocol::pairs_for(&stacks);
    let digest = || {
        let stimuli = StimulusSet::build(
            &sites,
            &[NetworkKind::Dsl, NetworkKind::Da2gc],
            &stacks,
            2,
            77,
        );
        pq_bench::manifest::study_digest(&perceiving_quic::study::run_study_with(
            &stimuli, &pairs, &stacks, 9,
        ))
    };
    let mut digests = Vec::new();
    for jobs in [1usize, 2, 8] {
        digests.push((jobs, with_jobs(jobs, digest)));
    }
    for (jobs, d) in &digests {
        assert_eq!(
            *d, QUIC_MBX_PINNED_DIGEST,
            "QUIC-MBX digest moved at jobs={jobs}: {d:016x}"
        );
    }
}

/// See [`quic_mbx_digest_is_pinned_across_jobs_1_2_8`].
const QUIC_MBX_PINNED_DIGEST: u64 = 0xbef6_895b_e3c4_5ff6;

#[test]
fn population_bit_identical_across_jobs_1_2_8() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sample = || population(StudyKind::Rating, Group::MicroWorker, 41);
    let serial = with_jobs(1, sample);
    for jobs in [2usize, 8] {
        let parallel = with_jobs(jobs, sample);
        assert_eq!(serial.len(), parallel.len());
        for (x, y) in serial.iter().zip(&parallel) {
            assert_eq!(x.participant.id, y.participant.id);
            assert_eq!(x.conformance, y.conformance);
            assert_eq!(x.rusher, y.rusher);
            assert_eq!(x.secs_per_video.to_bits(), y.secs_per_video.to_bits());
        }
    }
}
