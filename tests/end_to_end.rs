//! Cross-crate integration tests: the full pipeline from emulated
//! packets to study votes, with the paper's qualitative claims as
//! assertions.

use perceiving_quic::prelude::*;
use perceiving_quic::study::{self, ab_shares, Group};
use pq_bench::RunSpec;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

/// Shared mini experiment for the study-level tests (computed once —
/// stimulus production is the expensive part).
fn mini_study() -> (StimulusSet, StudyData) {
    let sites: Vec<Website> = ["wikipedia.org", "gov.uk", "apache.org", "wordpress.com"]
        .iter()
        .map(|n| web::site(n).expect("corpus"))
        .collect();
    let grid = RunSpec {
        sites,
        runs: 5,
        seed: 99,
        ..RunSpec::default()
    };
    let stimuli = grid.stimuli();
    let data = run_study(&stimuli, 99);
    (stimuli, data)
}

#[test]
fn claim_quic_one_rtt_ahead_in_first_visual_change() {
    // §3: the 1-RTT handshake advantage is the primary factor in
    // non-lossy environments.
    let site = web::site("wikipedia.org").unwrap();
    for kind in [NetworkKind::Dsl, NetworkKind::Lte] {
        let net = kind.config();
        let fvc = |p: Protocol| {
            median(
                (0..5)
                    .map(|s| {
                        load_page(&site, &net, p, s, &LoadOptions::default())
                            .metrics
                            .fvc_ms
                    })
                    .collect(),
            )
        };
        let gap = fvc(Protocol::Tcp) - fvc(Protocol::Quic);
        let rtt = net.min_rtt.as_millis_f64();
        assert!(
            gap > 0.4 * rtt,
            "{kind:?}: FVC gap {gap:.0} ms vs RTT {rtt:.0} ms"
        );
    }
}

#[test]
fn claim_tcp_plus_retransmits_more_on_da2gc() {
    // §4.3: "we always found more retransmissions for TCP+ (on avg
    // ×1.5 but up to ×4.8)".
    let net = NetworkKind::Da2gc.config();
    let site = web::site("gov.uk").unwrap();
    let retx = |p: Protocol| -> f64 {
        (0..6)
            .map(|s| load_page(&site, &net, p, 50 + s, &LoadOptions::default()).retransmits)
            .sum::<u64>() as f64
            / 6.0
    };
    let tcp = retx(Protocol::Tcp);
    let plus = retx(Protocol::TcpPlus);
    assert!(
        plus > tcp * 1.2,
        "TCP+ retransmissions {plus:.0} !> 1.2 × TCP {tcp:.0}"
    );
}

#[test]
fn full_pipeline_produces_paper_shaped_ab_votes() {
    let (_stimuli, data) = mini_study();
    let groups = [Group::Lab, Group::MicroWorker];

    // MSS, QUIC vs TCP: the clearest case — QUIC must win outright.
    let mss = ab_shares(
        &data.ab,
        NetworkKind::Mss,
        (Protocol::Quic, Protocol::Tcp),
        &groups,
    )
    .expect("votes exist");
    assert!(mss.first > 0.6, "QUIC share on MSS: {:.2}", mss.first);
    assert!(mss.first > mss.second * 2.0);

    // DSL is harder to call than MSS: more "no difference" and more
    // replays (§4.3: replays express the difficulty of spotting a
    // difference in the DSL network).
    let dsl = ab_shares(
        &data.ab,
        NetworkKind::Dsl,
        (Protocol::Quic, Protocol::Tcp),
        &groups,
    )
    .expect("votes exist");
    assert!(
        dsl.no_diff > mss.no_diff,
        "DSL no-diff {:.2} !> MSS no-diff {:.2}",
        dsl.no_diff,
        mss.no_diff
    );
    assert!(
        dsl.avg_replays > mss.avg_replays,
        "DSL replays {:.2} !> MSS replays {:.2}",
        dsl.avg_replays,
        mss.avg_replays
    );
}

#[test]
fn full_pipeline_rating_study_shapes() {
    let (_stimuli, data) = mini_study();

    // Plane ratings are poor; work/free-time ratings are good
    // (Figure 5's most robust feature).
    let mean = |env: study::Environment| {
        let v: Vec<f64> = data
            .ratings
            .iter()
            .filter(|r| r.valid && r.environment == env && r.group == Group::MicroWorker)
            .map(|r| r.speed)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let work = mean(study::Environment::Work);
    let plane = mean(study::Environment::Plane);
    assert!(work > 45.0, "work ratings {work:.1}");
    assert!(plane < 45.0, "plane ratings {plane:.1}");
    assert!(work - plane > 10.0, "gap {:.1}", work - plane);
}

#[test]
fn speed_index_correlates_best_and_plt_worst_on_slow_networks() {
    // Figure 6's takeaway. Evaluated on MSS where the paper's contrast
    // is sharpest (PLT ≈ 0 correlation there).
    // Spread in size matters: mean votes must vary by speed across
    // sites for the correlation to be measurable (the full corpus has
    // a 50 kB – 5 MB spread; mirror that here).
    let sites: Vec<Website> = [
        "wikipedia.org",
        "gov.uk",
        "apache.org",
        "wordpress.com",
        "spotify.com",
        "etsy.com",
        "nytimes.com",
        "cnn.com",
        "w3.org",
        "gravatar.com",
    ]
    .iter()
    .map(|n| web::site(n).expect("corpus"))
    .collect();
    let grid = RunSpec {
        sites,
        networks: vec![NetworkKind::Mss],
        stacks: vec![Protocol::Quic],
        runs: 5,
        seed: 7,
        faults: None,
    };
    let stimuli = grid.stimuli();
    let data = perceiving_quic::study::run_study_with(
        &stimuli,
        &[(Protocol::Quic, Protocol::Quic)],
        &[Protocol::Quic],
        7,
    );
    let corr = |m: Metric| {
        perceiving_quic::study::metric_correlation(
            &data.ratings,
            &stimuli,
            NetworkKind::Mss,
            Protocol::Quic,
            m,
            Group::MicroWorker,
            &[study::Environment::Plane],
        )
        .expect("enough sites")
    };
    let si = corr(Metric::Si);
    let plt = corr(Metric::Plt);
    assert!(
        si < -0.45,
        "SI correlation should be strongly negative: {si:.2}"
    );
    assert!(
        si < plt,
        "SI ({si:.2}) must correlate better than PLT ({plt:.2})"
    );
}

#[test]
fn table3_funnel_structure() {
    let (_stimuli, data) = mini_study();
    let micro = Group::MicroWorker.calib();
    // Lab is supervised: everyone survives.
    assert_eq!(data.funnel_ab[0].survivors(), data.funnel_ab[0].recruited);
    // µWorker funnels shrink monotonically and end in the paper's
    // ballpark.
    let f = &data.funnel_ab[1];
    assert_eq!(f.recruited, micro.ab.recruited());
    for w in f.after.windows(2) {
        assert!(w[1] <= w[0]);
    }
    assert!((200..=270).contains(&f.survivors()), "{}", f.survivors());
    let fr = &data.funnel_rating[1];
    assert_eq!(fr.recruited, micro.rating.recruited());
    assert!((550..=690).contains(&fr.survivors()), "{}", fr.survivors());
}

#[test]
fn determinism_across_the_whole_pipeline() {
    let grid = RunSpec {
        sites: vec![web::site("apache.org").unwrap()],
        networks: vec![NetworkKind::Lte],
        stacks: vec![Protocol::Quic],
        runs: 3,
        seed: 5,
        faults: None,
    };
    let build = || {
        let stimuli = grid.stimuli();
        let data = perceiving_quic::study::run_study_with(
            &stimuli,
            &[(Protocol::Quic, Protocol::Quic)],
            &[Protocol::Quic],
            5,
        );
        data.ratings.iter().map(|r| r.speed).sum::<f64>()
    };
    assert_eq!(build(), build());
}

#[test]
fn every_stack_completes() {
    // Each of the eight stacks speaks the one HTTP mapping its
    // transport implies — HTTP/2 over TCP, gQUIC's over QUIC, proxy
    // included — and finishes the page.
    let site = web::site("wikipedia.org").unwrap();
    let net = NetworkKind::Dsl.config();
    for protocol in Protocol::ALL_WITH_EDGE {
        let r = load_page(&site, &net, protocol, 7, &LoadOptions::default());
        assert!(r.complete, "{protocol}: incomplete load");
        assert!(r.metrics.well_ordered(), "{protocol}: {:?}", r.metrics);
    }
}

/// The fault-free loads of the paper grid (`RunSpec::at(Reduced)`:
/// `corpus()[..12]` × 4 networks × the five stacks × 11 runs at seed
/// 1910) that never reach onload within the 300 s horizon:
/// `(site, stack, run)`, all on DA2GC, each with thousands of
/// retransmissions. EXPERIMENTS.md lists them as an open input; a fix
/// or a named deviation turns each assertion below into `complete`.
const INCOMPLETE_DA2GC_LOADS: [(&str, Protocol, u32); 5] = [
    ("demorgen.be", Protocol::TcpPlusBbr, 1),
    ("demorgen.be", Protocol::TcpPlusBbr, 4),
    ("nytimes.com", Protocol::TcpPlusBbr, 8),
    ("nature.com", Protocol::TcpPlus, 4),
    ("nature.com", Protocol::TcpPlusBbr, 1),
];

#[test]
fn five_fault_free_paper_grid_loads_stay_incomplete() {
    let grid = RunSpec::at(pq_bench::Scale::Reduced);
    for (name, protocol, run) in INCOMPLETE_DA2GC_LOADS {
        let site = grid.sites.iter().position(|s| s.name == name);
        let site = site.expect("a site of the paper grid") as u16;
        let r = grid.load(site, NetworkKind::Da2gc, protocol, run).unwrap();
        assert!(
            !r.complete,
            "{name} {protocol} run {run} on DA2GC now completes ({} retransmits)",
            r.retransmits
        );
    }
}
