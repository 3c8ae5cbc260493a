//! Failure-injection integration tests: the pipeline must stay
//! correct (not just fast) under pathological network conditions.

use perceiving_quic::prelude::*;
use perceiving_quic::sim::NetworkConfig;

fn custom_net(up_bps: u64, down_bps: u64, rtt_ms: u64, loss: f64, queue_ms: u64) -> NetworkConfig {
    NetworkConfig {
        kind: NetworkKind::Mss, // label only
        up_bps,
        down_bps,
        min_rtt: SimDuration::from_millis(rtt_ms),
        loss,
        queue_ms,
    }
}

#[test]
fn extreme_loss_still_completes() {
    // 20 % loss each way: far beyond the paper's networks.
    let net = custom_net(1_000_000, 2_000_000, 200, 0.20, 200);
    let site = web::site("apache.org").unwrap();
    for proto in [Protocol::Tcp, Protocol::TcpPlus, Protocol::Quic] {
        let r = load_page(&site, &net, proto, 3, &LoadOptions::default());
        assert!(r.complete, "{} did not survive 20% loss", proto.label());
        assert!(r.retransmits > 0);
        assert!(
            r.metrics.well_ordered(),
            "{}: {:?}",
            proto.label(),
            r.metrics
        );
    }
}

#[test]
fn tiny_queue_forces_drops_but_not_livelock() {
    // A 1 ms queue at 10 Mbps ≈ one packet of buffer.
    let net = custom_net(2_000_000, 10_000_000, 40, 0.0, 1);
    let site = web::site("gov.uk").unwrap();
    for proto in [Protocol::Tcp, Protocol::Quic] {
        let r = load_page(&site, &net, proto, 5, &LoadOptions::default());
        assert!(
            r.complete,
            "{}: starved by a one-packet queue",
            proto.label()
        );
    }
}

#[test]
fn very_slow_link_makes_progress() {
    // 64 kbit/s modem territory with satellite latency.
    let net = custom_net(64_000, 64_000, 1200, 0.02, 400);
    let site = web::site("apache.org").unwrap();
    let r = load_page(&site, &net, Protocol::Quic, 7, &LoadOptions::default());
    assert!(r.complete, "modem load incomplete");
    // ~110 kB over 64 kbps ≈ ≥ 14 s.
    assert!(r.metrics.plt_ms > 10_000.0, "plt {:?}", r.metrics.plt_ms);
}

#[test]
fn horizon_cut_produces_partial_but_sane_metrics() {
    // An 8 kbit/s link moves at most ~300 kB in a load's 300 s
    // horizon, far too little for nytimes.com: the load must report
    // incomplete with monotone partial metrics instead of hanging or
    // panicking.
    let net = custom_net(8_000, 8_000, 600, 0.0, 400);
    let site = web::site("nytimes.com").unwrap();
    let r = load_page(&site, &net, Protocol::TcpPlus, 9, &LoadOptions::default());
    assert!(!r.complete);
    assert!(r.plt <= SimTime::from_secs(300));
    assert!(r.metrics.fvc_ms <= r.metrics.lvc_ms + 1e-6);
}

#[test]
fn zero_processing_ablation_still_works() {
    let net = NetworkKind::Dsl.config();
    let site = web::site("wikipedia.org").unwrap();
    let opts = LoadOptions {
        processing_scale: 0.0,
        ..LoadOptions::default()
    };
    let with = load_page(&site, &net, Protocol::Quic, 11, &LoadOptions::default());
    let without = load_page(&site, &net, Protocol::Quic, 11, &opts);
    assert!(without.complete);
    assert!(
        without.metrics.si_ms < with.metrics.si_ms,
        "client processing must add time: {} !< {}",
        without.metrics.si_ms,
        with.metrics.si_ms
    );
}

// ---------------------------------------------------------------------------
// pq-fault spec-driven cases: the injector is threaded explicitly via
// `LoadOptions::faults` or a grid's `RunSpec` (never the process
// global, so tests cannot interfere with each other).
// ---------------------------------------------------------------------------

use perceiving_quic::fault::FaultPlan;
use pq_bench::RunSpec;
use std::sync::Arc;

/// The plan of one page load outside any grid.
fn plan(spec: &str) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::parse(spec).expect("valid fault spec"))
}

/// `sites` × `networks` × `stacks` × `runs` at `seed` under the fault
/// `spec`.
fn faulted(
    sites: &[&str],
    networks: &[NetworkKind],
    stacks: &[Protocol],
    runs: u32,
    seed: u64,
    spec: &str,
) -> RunSpec {
    let grid = RunSpec {
        sites: sites.iter().map(|n| web::site(n).unwrap()).collect(),
        networks: networks.to_vec(),
        stacks: stacks.to_vec(),
        runs,
        seed,
        faults: None,
    };
    grid.with_faults(spec).expect("valid fault spec")
}

#[test]
fn burst_loss_and_flap_mid_load_all_five_stacks() {
    // Gilbert–Elliott burst loss plus a 300 ms link flap mid-load:
    // every protocol stack must either finish the page or report a
    // clean incomplete load — and the visual metrics must stay
    // well-ordered either way. (At grid level an incomplete load is
    // retried and eventually quarantined; here we assert the per-load
    // contract the retry policy builds on.)
    let faults = plan("seed=11;gel:pgb=0.02,pbg=0.3,bad=0.4;flap:at=800,dur=300");
    let net = NetworkKind::Dsl.config();
    let site = web::site("apache.org").unwrap();
    for proto in Protocol::ALL {
        let opts = LoadOptions {
            faults: Some(faults.clone()),
            ..LoadOptions::default()
        };
        let r = load_page(&site, &net, proto, 21, &opts);
        assert!(
            r.metrics.well_ordered(),
            "{} under burst loss + flap: {:?}",
            proto.label(),
            r.metrics
        );
        assert!(
            r.complete || r.metrics.fvc_ms >= 0.0,
            "{}: incomplete load must still carry sane partial metrics",
            proto.label()
        );
    }
}

#[test]
fn handshake_flight_loss_recovers_on_every_stack() {
    // hs:p=1 drops the *first client flight* of every connection; the
    // retransmission machinery (SYN backoff / QUIC RTO) must bring all
    // five stacks back without help.
    let faults = plan("hs:p=1");
    let net = NetworkKind::Dsl.config();
    let site = web::site("gov.uk").unwrap();
    for proto in Protocol::ALL {
        let opts = LoadOptions {
            faults: Some(faults.clone()),
            ..LoadOptions::default()
        };
        let r = load_page(&site, &net, proto, 23, &opts);
        assert!(
            r.complete,
            "{}: lost handshake flight never recovered",
            proto.label()
        );
        assert!(r.metrics.well_ordered(), "{}", proto.label());
        // Recovery costs at least one retransmission timeout.
        let clean = load_page(&site, &net, proto, 23, &LoadOptions::default());
        assert!(
            r.metrics.plt_ms > clean.metrics.plt_ms,
            "{}: dropped flight should cost time ({} !> {})",
            proto.label(),
            r.metrics.plt_ms,
            clean.metrics.plt_ms
        );
    }
}

#[test]
fn handshake_flight_loss_recovers_through_the_proxy() {
    // hs:p=1 drops the first client flight of *every* connection —
    // the browser's H3 connection to the proxy AND each H2 leg the
    // proxy opens towards the origins (the clauses apply independently
    // per path segment). Both tiers must retransmit their way back.
    let faults = plan("hs:p=1");
    let net = NetworkKind::Dsl.config();
    let site = web::site("gov.uk").unwrap();
    for proto in [Protocol::QuicEdge, Protocol::H2Edge] {
        let opts = LoadOptions {
            faults: Some(faults.clone()),
            ..LoadOptions::default()
        };
        let r = load_page(&site, &net, proto, 23, &opts);
        assert!(
            r.complete,
            "{}: lost handshake flight never recovered through the proxy",
            proto.label()
        );
        assert!(r.metrics.well_ordered(), "{}", proto.label());
        let clean = load_page(&site, &net, proto, 23, &LoadOptions::default());
        assert!(
            r.metrics.plt_ms > clean.metrics.plt_ms,
            "{}: dropped flights should cost time ({} !> {})",
            proto.label(),
            r.metrics.plt_ms,
            clean.metrics.plt_ms
        );
    }
}

/// The contract tree of `sites` × DSL and LTE × `stacks` × `runs`
/// under the fault `spec`, through both studies, seed 13, at `jobs`
/// workers.
fn faulted_tree(
    spec: &str,
    sites: &[&str],
    stacks: &[Protocol],
    runs: u32,
    jobs: usize,
) -> Vec<(String, String)> {
    let networks = [NetworkKind::Dsl, NetworkKind::Lte];
    let grid = faulted(sites, &networks, stacks, runs, 13, spec);
    perceiving_quic::par::set_jobs(Some(jobs));
    let e = grid.run();
    perceiving_quic::par::set_jobs(None);
    pq_bench::contract(&e)
}

/// [`faulted_tree`] at 1 and 4 workers: a failure names every node
/// that moved, the `grid` node (quarantines, retries) included.
fn faulted_tree_holds_across_jobs_1_4(spec: &str, sites: &[&str], stacks: &[Protocol], runs: u32) {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tree = |jobs| faulted_tree(spec, sites, stacks, runs, jobs);
    let moved = pq_bench::contract::diff(&tree(1), &tree(4));
    assert!(moved.is_empty(), "jobs=1 vs 4:\n{}", moved.join("\n"));
}

/// The worker-count override is process-global.
static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn faulted_quic_edge_study_digest_identical_across_jobs_1_4() {
    // The chaos contract extends to the proxy stack: a faulted
    // QUIC-EDGE grid (plus its A/B partner) must be bit-identical at
    // PQ_JOBS=1 and 4 — edge pool decisions, leg handshake drops and
    // burst loss are all keyed by derived seeds, never by worker
    // interleaving.
    faulted_tree_holds_across_jobs_1_4(
        "seed=5;gel:pgb=0.02,pbg=0.3,bad=0.35;hs:p=0.2;stall:p=0.05,ms=400",
        &["apache.org", "wikipedia.org"],
        &[Protocol::Quic, Protocol::QuicEdge],
        2,
    );
}

#[test]
fn grid_cells_complete_or_quarantine_under_faults() {
    // Moderate fault mix over a small grid: every cell must either
    // survive (valid stimulus present) or be quarantined — never lost
    // silently, never a panic.
    let (networks, protocols) = (
        [NetworkKind::Dsl, NetworkKind::Lte],
        [Protocol::Tcp, Protocol::Quic],
    );
    let spec = "seed=3;gel:pgb=0.01,pbg=0.3,bad=0.3;stall:p=0.05,ms=800";
    let grid = faulted(&["apache.org", "gov.uk"], &networks, &protocols, 2, 5, spec);
    let (set, sites) = (grid.stimuli(), &grid.sites);
    for (si, site) in sites.iter().enumerate() {
        for net in networks {
            for proto in protocols {
                let present = set.get(si as u16, net, proto).is_some();
                let quarantined = set.quarantined().iter().any(|q| {
                    q.site == site.name && q.network == net.name() && q.protocol == proto.label()
                });
                assert!(
                    present || quarantined,
                    "{}/{}/{} vanished without quarantine",
                    site.name,
                    net.name(),
                    proto.label()
                );
                if present {
                    let s = set.get(si as u16, net, proto).unwrap();
                    assert!(s.metrics.well_ordered());
                }
            }
        }
    }
}

#[test]
fn total_truncation_quarantines_the_grid_but_study_survives() {
    // trunc:p=1 truncates every response body: no load can ever
    // complete, so the retry budget drains and *every* cell is
    // quarantined — and the downstream study must still run on the
    // empty set instead of panicking.
    let stacks = [Protocol::Tcp, Protocol::Quic];
    let grid = faulted(
        &["apache.org"],
        &[NetworkKind::Dsl],
        &stacks,
        2,
        7,
        "trunc:p=1,frac=0.3",
    );
    let set = grid.stimuli();
    assert_eq!(set.quarantined().len(), 2, "{:?}", set.quarantined());
    assert!(set.iter().next().is_none(), "no cell can survive trunc:p=1");
    // Liveness is deterministic: a cell makes at most 16 attempts
    // (2 runs x MAX_BUDGET_FACTOR 8) and then gives up, whatever the
    // machine's speed.
    for q in set.quarantined() {
        assert_eq!(q.reason, "no valid run in 16 attempts", "{q:?}");
        assert_eq!(q.counts.loads, 16, "{q:?}");
    }
    assert_counts_sum_every_attempt(&grid, &set);
    assert_eq!(set.runs_retried(), 32, "every attempt of both cells");
    // Graceful degradation: the studies vote on nothing, but run.
    let data = run_study(&set, 7);
    assert!(data.ab.is_empty());
    assert!(data.ratings.is_empty());
}

/// Re-run every attempt `grid.stimuli()` made for each cell of `set` —
/// `grid.load(site, network, stack, attempt)` for attempt 0, 1, … until
/// `runs` loads were valid (complete, well-ordered) or the cell's
/// budget of 8 × `runs` ran out — and hold each cell's `counts`,
/// quarantined cells' included, to the sum of its attempts'
/// `PageLoadResult::counts`, and the set's `counts()` to the sum over
/// every cell.
fn assert_counts_sum_every_attempt(grid: &RunSpec, set: &StimulusSet) {
    let runs = grid.runs;
    let mut total = web::LoadCounts::default();
    for (si, site) in grid.sites.iter().enumerate() {
        for &network in &grid.networks {
            for &stack in &grid.stacks {
                let (mut counts, mut valid, mut attempt) = (web::LoadCounts::default(), 0, 0);
                while valid < runs && attempt < 8 * runs {
                    let r = grid.load(si as u16, network, stack, attempt).unwrap();
                    valid += u32::from(r.complete && r.metrics.well_ordered());
                    counts += r.counts;
                    attempt += 1;
                }
                let cell = format!("{}/{}/{}", site.name, network.name(), stack.label());
                let built = match set.get(si as u16, network, stack) {
                    Some(s) => {
                        assert_eq!(s.runs, valid, "{cell}");
                        s.counts
                    }
                    None => {
                        let q = set.quarantined().iter().find(|q| {
                            (q.site.as_str(), q.network.as_str(), q.protocol.as_str())
                                == (site.name.as_str(), network.name(), stack.label())
                        });
                        q.unwrap_or_else(|| panic!("{cell} neither built nor quarantined"))
                            .counts
                    }
                };
                assert_eq!(built, counts, "{cell}: counts are not its attempts' sum");
                total += counts;
            }
        }
    }
    assert_eq!(
        set.counts(),
        total,
        "the set's counts are not its cells' sum"
    );
}

#[test]
fn cell_counts_sum_retried_and_quarantined_attempts() {
    // Truncated bodies: some cells retry their way to a valid run,
    // others never find one and are quarantined.
    let stacks = [Protocol::Tcp, Protocol::Quic, Protocol::H2Edge];
    let sites = ["apache.org", "wikipedia.org"];
    let grid = faulted(
        &sites,
        &[NetworkKind::Lte],
        &stacks,
        1,
        5,
        "seed=3;trunc:p=0.15",
    );
    let set = grid.stimuli();
    assert!(
        set.iter().any(|s| s.counts.loads > u64::from(s.runs)),
        "no built cell retried"
    );
    assert_eq!(set.quarantined().len(), 1, "{:?}", set.quarantined());
    assert_counts_sum_every_attempt(&grid, &set);
    // Every load is a stimulus's valid run or a retry.
    assert_eq!(set.runs_retried(), 24);
    assert_eq!(set.counts().loads, 24 + 5);
}

#[test]
fn faulted_grid_is_deterministic_across_worker_counts() {
    // The fault chains are keyed by (fault seed, cell coordinates), so
    // a faulted build must stay bit-identical at any PQ_JOBS.
    faulted_tree_holds_across_jobs_1_4(
        "seed=9;gel:pgb=0.02,pbg=0.25,bad=0.3;stall:p=0.1,ms=500",
        &["apache.org"],
        &[Protocol::Tcp, Protocol::Quic],
        3,
    );
}

#[test]
fn load_page_clamps_broken_configs() {
    // A zero-bandwidth downlink fails `checked()`; `load_page` warns
    // and loads over the clamped config instead of simulating garbage.
    let site = web::site("apache.org").unwrap();
    let mut net = NetworkKind::Dsl.config();
    net.down_bps = 0;
    assert!(
        net.clone().checked().is_err(),
        "zero-bandwidth config must be rejected"
    );
    let opts = LoadOptions::default();
    let r = load_page(&site, &net, Protocol::Quic, 1, &opts);
    let clamped = load_page(&site, &net.clone().sanitized(), Protocol::Quic, 1, &opts);
    assert_eq!(r.metrics.plt_ms.to_bits(), clamped.metrics.plt_ms.to_bits());
    assert!(r.metrics.well_ordered(), "{:?}", r.metrics);
}

#[test]
fn asymmetric_uplink_starvation() {
    // A nearly-dead uplink (16 kbps) chokes requests and ACKs; loads
    // must still finish.
    let net = custom_net(16_000, 5_000_000, 100, 0.0, 300);
    let site = web::site("wordpress.com").unwrap();
    let opts = LoadOptions::default();
    for proto in [Protocol::TcpPlus, Protocol::Quic] {
        let r = load_page(&site, &net, proto, 13, &opts);
        assert!(r.complete, "{}: uplink starvation", proto.label());
    }
}
