//! Report printers: each function regenerates one table/figure of the
//! paper as a terminal table (and is reused by the `runall` binary).
//! Tables 1 and 2 print a fixed configuration; every other printer is a
//! [`View`] of an experiment.

use crate::{share_bar, Experiment};
use pq_metrics::Metric;
use pq_sim::{Link, LinkConfig, NetworkKind, Packet, PushOutcome, SimRng, SimTime};
use pq_stats::jarque_bera;
use pq_study::{
    ab_shares, anova_across_protocols, fig3_agreement, metric_correlation, per_site_differences,
    AgeBracket, Environment, Group, Participant, RatingVote, StudyKind,
};
use pq_transport::Protocol;
use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::sync::OnceLock;

/// A printer that writes one view of an experiment into `out`: `pq`
/// prints the text, and [`crate::contract()`] hashes it.
pub type View = fn(&Experiment, &mut String) -> fmt::Result;

/// The text `view` prints of `e`.
pub fn render(view: View, e: &Experiment) -> String {
    let mut out = String::new();
    view(e, &mut out).expect("writing to a String cannot fail");
    out
}

/// Every view, in paper order, under its `pq` subcommand name, which
/// is also its node in [`crate::contract()`]. `pq runall` runs each
/// one as a phase.
pub const VIEWS: [(&str, View); 7] = [
    ("table3", print_table3),
    ("fig3", print_fig3),
    ("fig4", print_fig4),
    ("fig5", print_fig5),
    ("fig6", print_fig6),
    ("agreement", print_agreement),
    ("ablation", print_ablation),
];

/// Table 1: the protocol configurations under test.
pub fn print_table1() {
    println!("== Table 1: protocol configurations ==");
    println!(
        "{:<10} {:<9} {:<4} {:<7} {:<14} {:<12} SACK blocks/ACK",
        "Protocol", "CC", "IW", "Pacing", "TunedBuffers", "IdleRestart"
    );
    let net = NetworkKind::Dsl.config();
    for p in Protocol::ALL_WITH_EDGE {
        let c = p.config(&net);
        println!(
            "{:<10} {:<9} {:<4} {:<7} {:<14} {:<12} {}",
            p.label(),
            c.cc.name(),
            c.initial_window_segments,
            if c.pacing { "yes" } else { "no" },
            if c.recv_buffer_bytes > 128 * 1024 {
                "2xBDP"
            } else {
                "stock"
            },
            if c.slow_start_after_idle {
                "IW-reset"
            } else {
                "keep"
            },
            c.max_sack_blocks,
        );
    }
    println!();
}

/// Table 2: network configurations, validated against the emulation
/// (measured rate, base RTT and loss on the actual link model).
pub fn print_table2() {
    println!("== Table 2: network configurations (spec | measured) ==");
    println!(
        "{:<7} {:>9} {:>10} {:>9} {:>7} | {:>11} {:>9} {:>8}",
        "Network",
        "Up[Mbps]",
        "Down[Mbps]",
        "RTT[ms]",
        "Loss",
        "meas.Down",
        "meas.RTT",
        "meas.Loss"
    );
    for kind in NetworkKind::ALL {
        let cfg = kind.config();
        let (down_mbps, rtt_ms, loss) = measure_network(&cfg.downlink(), &cfg.uplink());
        println!(
            "{:<7} {:>9.3} {:>10.3} {:>9} {:>6.1}% | {:>11.3} {:>9.1} {:>7.1}%",
            kind.name(),
            cfg.up_bps as f64 / 1e6,
            cfg.down_bps as f64 / 1e6,
            cfg.min_rtt.as_millis_f64(),
            cfg.loss * 100.0,
            down_mbps,
            rtt_ms,
            loss * 100.0,
        );
    }
    println!("(queue budget: 200 ms at line rate, DSL 12 ms; loss per direction)");
    println!();
}

/// Saturate the downlink to measure rate and loss; ping once for RTT.
fn measure_network(down: &LinkConfig, up: &LinkConfig) -> (f64, f64, f64) {
    let _span = pq_prof::span("link:downlink");
    #[expect(clippy::disallowed_methods, reason = "table2 probe, outside the grid")]
    let mut link: Link<u32> = Link::new(down.clone(), SimRng::new(2));
    let mut now = SimTime::ZERO;
    let mut next = match link.push(now, Packet::new(pq_sim::ConnId(0), 1500, 0)) {
        PushOutcome::StartedTx(t) => t,
        _ => unreachable!(),
    };
    let horizon = SimTime::from_secs(30);
    let mut delivered_bytes = 0u64;
    while next <= horizon {
        now = next;
        while link.queued_bytes() < 6000 {
            link.push(now, Packet::new(pq_sim::ConnId(0), 1500, 0));
        }
        let txd = link.on_tx_done(now);
        if let Some((_, p)) = txd.delivery {
            delivered_bytes += u64::from(p.size);
        }
        next = txd.next_tx_done.expect("kept busy");
    }
    let secs = now.as_secs_f64();
    let mbps = delivered_bytes as f64 * 8.0 / secs / 1e6;
    let stats = link.stats();
    let loss = stats.lost as f64 / (stats.lost + stats.delivered) as f64;
    // RTT: one-way delays of both directions plus two serializations
    // of a tiny probe.
    let rtt =
        up.prop_delay + down.prop_delay + up.serialization_delay(60) + down.serialization_delay(60);
    (mbps, rtt.as_millis_f64(), loss)
}

/// Table 3: participation and the conformance-filter funnel.
pub fn print_table3(e: &Experiment, out: &mut String) -> fmt::Result {
    writeln!(out, "== Table 3: participation after each filter rule ==")?;
    writeln!(
        out,
        "{:<9} {:<7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "Group", "Study", "-", "R1", "R2", "R3", "R4", "R5", "R6", "R7"
    )?;
    for ((group, funnel_ab), funnel_rating) in Group::ALL
        .into_iter()
        .zip(e.data.funnel_ab)
        .zip(e.data.funnel_rating)
    {
        for (study, kind, funnel) in [
            ("A/B", StudyKind::AB, funnel_ab),
            ("Rating", StudyKind::Rating, funnel_rating),
        ] {
            write!(
                out,
                "{:<9} {:<7} {:>6}",
                group.name(),
                study,
                funnel.recruited
            )?;
            for a in funnel.after {
                write!(out, " {a:>6}")?;
            }
            writeln!(out)?;
            write!(out, "{:<9} {:<7}", "  paper:", "")?;
            for p in group.calib().study(kind).table3 {
                write!(out, " {p:>6}")?;
            }
            writeln!(out)?;
        }
    }
    writeln!(out)?;
    Ok(())
}

/// Figure 3: rating-study agreement between groups per condition.
pub fn print_fig3(e: &Experiment, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "== Figure 3: rating agreement across subject groups =="
    )?;
    let rows = fig3_agreement(&e.data.ratings, 0.99);
    if rows.is_empty() {
        writeln!(out, "(no shared conditions — increase the scale)")?;
        return Ok(());
    }
    let agree = rows.iter().filter(|r| r.micro_agrees()).count();
    writeln!(
        out,
        "conditions: {}   µWorker means inside lab 99% CI: {}/{} ({:.0}%)",
        rows.len(),
        agree,
        rows.len(),
        100.0 * agree as f64 / rows.len() as f64
    )?;
    let dev: Vec<f64> = rows.iter().filter_map(|r| r.internet_deviation()).collect();
    let micro_dev: Vec<f64> = rows
        .iter()
        .map(|r| (r.micro.mean - r.lab.mean).abs())
        .collect();
    if !dev.is_empty() {
        writeln!(
            out,
            "mean |deviation from lab mean|: µWorker {:.1}, Internet(median) {:.1}  → the Internet group deviates most and is excluded (as in §4.2)",
            pq_stats::mean(&micro_dev),
            pq_stats::mean(&dev),
        )?;
    }
    writeln!(
        out,
        "{:<26} {:>9} {:>16} {:>9} {:>9}",
        "condition (site/net/proto)", "lab mean", "lab 99% CI", "µWorker", "Internet"
    )?;
    let step = (rows.len() / 12).max(1);
    for r in rows.iter().step_by(step) {
        writeln!(
            out,
            "{:<26} {:>9.1} [{:>6.1},{:>6.1}] {:>9.1} {:>9}",
            format!(
                "{}/{}/{}",
                e.stimuli.site_names[r.site as usize]
                    .trim_end_matches(".com")
                    .trim_end_matches(".org"),
                r.network.name(),
                r.protocol.label()
            ),
            r.lab.mean,
            r.lab.lo(),
            r.lab.hi(),
            r.micro.mean,
            r.internet_median
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "-".into()),
        )?;
    }
    writeln!(out)?;
    Ok(())
}

/// Figure 4: A/B vote shares per protocol pair and network.
pub fn print_fig4(e: &Experiment, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "== Figure 4: A/B study vote shares (valid lab+µWorker votes) =="
    )?;
    let groups = [Group::Lab, Group::MicroWorker];
    for network in NetworkKind::ALL {
        writeln!(out, "--- {} ---", network.name())?;
        for pair in Protocol::pairs_for(&e.spec.stacks) {
            if let Some(s) = ab_shares(&e.data.ab, network, pair, &groups) {
                writeln!(
                    out,
                    "{:>9} vs {:<9} {}|{}|{}  {:>4.0}% / {:>4.0}% / {:>4.0}%  (n={}, avg replays {:.2})",
                    pair.0.label(),
                    pair.1.label(),
                    share_bar(s.first, 10),
                    share_bar(s.no_diff, 10),
                    share_bar(s.second, 10),
                    s.first * 100.0,
                    s.no_diff * 100.0,
                    s.second * 100.0,
                    s.n,
                    s.avg_replays,
                )?;
            }
        }
    }
    writeln!(out, "(bars: prefer-first | no difference | prefer-second)")?;
    writeln!(out)?;
    Ok(())
}

/// Figure 5: rating means + 99 % CI per protocol × setting, plus the
/// §4.4 ANOVA significance screening.
pub fn print_fig5(e: &Experiment, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "== Figure 5: rating study mean votes (µWorker, 99% CI) =="
    )?;
    // Each environment over the networks whose videos it shows.
    let cells: Vec<(Environment, NetworkKind)> = Environment::ALL
        .into_iter()
        .flat_map(|env| env.networks().iter().map(move |&net| (env, net)))
        .collect();
    write!(out, "{:<22}", "setting")?;
    for p in &e.spec.stacks {
        write!(out, " {:>16}", p.label())?;
    }
    writeln!(out)?;
    for &(env, net) in &cells {
        write!(out, "{:<22}", format!("{} / {}", env.name(), net.name()))?;
        for &p in &e.spec.stacks {
            let votes = &e.data.ratings;
            match pq_study::rating_interval(votes, env, Some(net), p, Group::MicroWorker, 0.99) {
                Some(ci) => write!(out, " {:>8.1} ±{:>5.1} ", ci.mean, ci.half_width)?,
                None => write!(out, " {:>16}", "-")?,
            }
        }
        writeln!(out)?;
    }

    writeln!(out, "\nANOVA across the protocol grid per setting:")?;
    for (env, net) in cells {
        let votes = &e.data.ratings;
        if let Some(r) =
            anova_across_protocols(votes, env, Some(net), &e.spec.stacks, Group::MicroWorker)
        {
            writeln!(
                out,
                "  {:<22} F={:<6.2} p={:<8.4} significant: 99% {} / 90% {}",
                format!("{} / {}", env.name(), net.name()),
                r.f,
                r.p,
                if r.significant_at(0.99) { "YES" } else { "no" },
                if r.significant_at(0.90) { "YES" } else { "no" },
            )?;
        }
    }

    writeln!(
        out,
        "\n§4.4 'Where it makes a difference' (per-site pairwise, 90% level):"
    )?;
    let mut pairs: Vec<(Protocol, Protocol)> = vec![
        (Protocol::Quic, Protocol::Tcp),
        (Protocol::Quic, Protocol::TcpPlus),
        (Protocol::QuicBbr, Protocol::TcpPlusBbr),
        (Protocol::TcpPlus, Protocol::Tcp),
    ];
    pairs.extend(
        Protocol::EDGE_AB_PAIRS
            .into_iter()
            .filter(|(a, b)| e.spec.stacks.contains(a) && e.spec.stacks.contains(b)),
    );
    for network in NetworkKind::ALL {
        let diffs = per_site_differences(
            &e.data.ratings,
            network,
            &pairs,
            Group::MicroWorker,
            0.90,
            e.stimuli.site_count(),
        );
        writeln!(
            out,
            "  {}: {} significant site×pair differences",
            network.name(),
            diffs.len()
        )?;
        for d in diffs.iter().take(6) {
            writeln!(
                out,
                "     {:<18} {} > {} by {:.1} points (p={:.3})",
                e.stimuli.site_names[d.site as usize],
                d.better.label(),
                d.worse.label(),
                d.diff,
                d.p
            )?;
        }
    }
    writeln!(out)?;
    Ok(())
}

/// Figure 6: Pearson correlation heatmap (metric ↔ mean votes).
pub fn print_fig6(e: &Experiment, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "== Figure 6: Pearson r, technical metric vs mean vote (µWorker) =="
    )?;
    writeln!(out, "(DSL/LTE use free-time votes, as in the paper)")?;
    for &protocol in &e.spec.stacks {
        writeln!(out, "--- {} ---", protocol.label())?;
        write!(out, "{:<6}", "")?;
        for n in NetworkKind::ALL {
            write!(out, " {:>7}", n.name())?;
        }
        writeln!(out)?;
        for metric in Metric::ALL {
            write!(out, "{:<6}", metric.name())?;
            for network in NetworkKind::ALL {
                let envs: &[Environment] = if network.is_inflight() {
                    &[Environment::Plane]
                } else {
                    &[Environment::FreeTime]
                };
                let r = metric_correlation(
                    &e.data.ratings,
                    &e.stimuli,
                    network,
                    protocol,
                    metric,
                    Group::MicroWorker,
                    envs,
                );
                match r {
                    Some(r) => write!(out, " {r:>7.2}")?,
                    None => write!(out, " {:>7}", "-")?,
                }
            }
            writeln!(out)?;
        }
    }
    writeln!(
        out,
        "(−1.0 = metric explains votes perfectly; SI should win, PLT should trail)"
    )?;
    writeln!(out)?;
    Ok(())
}

/// What §4.2's normality claim is about: one pool's rating-study
/// residuals — each valid speed vote minus the mean of its site ×
/// network × protocol × environment condition, over conditions with at
/// least 8 votes. Raw votes pooled across conditions would test the
/// mixture of condition means, not the noise around them.
pub(crate) fn rating_residuals(votes: &[RatingVote], group: Group) -> Vec<f64> {
    let mut conditions = BTreeMap::<_, Vec<f64>>::new();
    for v in votes.iter().filter(|v| v.valid && v.group == group) {
        let key = (v.site, v.network, v.protocol, v.environment);
        conditions.entry(key).or_default().push(v.speed);
    }
    conditions
        .values()
        .filter(|speeds| speeds.len() >= 8)
        .flat_map(|speeds| {
            let mean = pq_stats::mean(speeds);
            speeds.iter().map(move |s| s - mean)
        })
        .collect()
}

/// §4.2: answer-time, replay and demographic statistics per group.
pub fn print_agreement(e: &Experiment, out: &mut String) -> fmt::Result {
    writeln!(out, "== §4.2: study agreement statistics ==")?;
    writeln!(
        out,
        "{:<9} {:>18} {:>18}",
        "Group", "A/B s/video", "Rating s/video"
    )?;
    let studies = [
        (StudyKind::AB, &e.data.sessions_ab),
        (StudyKind::Rating, &e.data.sessions_rating),
    ];
    for group in Group::ALL {
        write!(out, "{:<9}", group.name())?;
        for (kind, sessions) in studies {
            let secs: Vec<f64> = sessions
                .iter()
                .filter(|s| s.participant.group == group && s.valid())
                .map(|s| s.secs_per_video)
                .collect();
            let paper = group.calib().study(kind).secs_per_video;
            write!(out, " {:>8.2} (p:{paper:>6.2})", pq_stats::mean(&secs))?;
        }
        writeln!(out)?;
    }

    writeln!(
        out,
        "\nnormality of rating residuals (Jarque–Bera, α = 0.01; the paper takes the"
    )?;
    writeln!(
        out,
        "median for Internet votes because they are not normal, mean + CI otherwise):"
    )?;
    for group in Group::ALL {
        let residuals = rating_residuals(&e.data.ratings, group);
        if let Some(jb) = jarque_bera(&residuals) {
            writeln!(
                out,
                "  {:<9} JB {:>7.1}  p {:<8.4} n {:>6}  {}",
                group.name(),
                jb.statistic,
                jb.p,
                residuals.len(),
                if jb.is_normal_at(0.01) {
                    "not rejected"
                } else {
                    "rejected"
                },
            )?;
        }
    }

    writeln!(out, "\nreplays per A/B video (valid votes):")?;
    for group in Group::ALL {
        let by_net = NetworkKind::ALL.map(|network| {
            let votes: Vec<f64> = e
                .data
                .ab
                .iter()
                .filter(|v| v.valid && v.group == group && v.network == network)
                .map(|v| f64::from(v.replays))
                .collect();
            format!("{} {:.2}", network.name(), pq_stats::mean(&votes))
        });
        writeln!(out, "  {:<9} {}", group.name(), by_net.join("  "))?;
    }

    writeln!(out, "\nA/B confidence (decided vs no-difference votes):")?;
    for network in NetworkKind::ALL {
        if let Some(cs) = pq_study::confidence_stats(&e.data.ab, network) {
            writeln!(
                out,
                "  {:<7} decided {:.2}  no-diff {:.2}  (n={})",
                network.name(),
                cs.decided,
                cs.undecided,
                cs.n
            )?;
        }
    }

    writeln!(out, "\ndemographics (A/B study, all recruited):")?;
    for group in Group::ALL {
        let ps: Vec<_> = e
            .data
            .sessions_ab
            .iter()
            .filter(|s| s.participant.group == group)
            .collect();
        let pct = |is: fn(&Participant) -> bool| {
            100.0 * ps.iter().filter(|s| is(&s.participant)).count() as f64 / ps.len() as f64
        };
        writeln!(
            out,
            "  {:<9} male {:.0}%  <24 {:.0}%  25-44 {:.0}%",
            group.name(),
            pct(|p| p.male),
            pct(|p| p.age == AgeBracket::Under24),
            pct(|p| p.age == AgeBracket::From25To44),
        )?;
    }
    writeln!(out)?;
    Ok(())
}

/// Ablation 1's cell, MSS QUIC vs TCP over µWorker votes: the
/// QUIC-preferred share and the vote count after R1–R7, then the same
/// over every vote, unfiltered. `None` when no valid vote falls in the
/// cell.
pub fn filtering_ablation(e: &Experiment) -> Option<[(f64, usize); 2]> {
    let pair = (Protocol::Quic, Protocol::Tcp);
    let filtered = ab_shares(&e.data.ab, NetworkKind::Mss, pair, &[Group::MicroWorker])?;
    let all: Vec<_> = e
        .data
        .ab
        .iter()
        .filter(|v| {
            v.network == NetworkKind::Mss && v.pair == pair && v.group == Group::MicroWorker
        })
        .collect();
    let first = all
        .iter()
        .filter(|v| v.choice == pq_study::AbChoice::First)
        .count();
    Some([
        (filtered.first, filtered.n),
        (first as f64 / all.len() as f64, all.len()),
    ])
}

/// The ablations EXPERIMENTS.md quotes, each re-derived by the test its
/// bullet names: what the conformance filter buys, 0-RTT repeat visits
/// and the client-side processing scale.
pub fn print_ablation(e: &Experiment, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "== Ablation 1: conformance filtering (Fig. 4 cell, MSS, QUIC vs TCP) =="
    )?;
    if let Some([(filtered, filtered_n), (all, all_n)]) = filtering_ablation(e) {
        writeln!(
            out,
            "  QUIC-preferred share: filtered {:.0}% (n={filtered_n}) vs unfiltered {:.0}% (n={all_n})",
            filtered * 100.0,
            all * 100.0,
        )?;
        writeln!(
            out,
            "  → cheating µWorkers dilute the signal; R1-R7 recover it."
        )?;
    }

    // Ablations 2-3 read nothing of `e`: one process renders them once.
    static FIXED_SEEDS: OnceLock<String> = OnceLock::new();
    out.push_str(FIXED_SEEDS.get_or_init(|| {
        let mut text = String::new();
        fixed_seed_ablations(&mut text).expect("writing to a String cannot fail");
        text
    }));
    Ok(())
}

/// Ablations 2 and 3: 40 + 20 page loads at fixed seeds, whatever the
/// experiment. [`print_ablation`] runs them on its first call in a
/// process only: a later render (a test binary's second `contract()`)
/// reuses the text instead of loading and tracing them again.
fn fixed_seed_ablations(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "\n== Ablation 2: 0-RTT repeat visits (median FVC, wikipedia, ms) =="
    )?;
    let site = pq_web::site("wikipedia.org").expect("corpus");
    let med = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    writeln!(
        out,
        "  {:<8} {:>11} {:>11} {:>11} {:>11}",
        "network", "TCP+ fresh", "TCP+ 0RTT", "QUIC fresh", "QUIC 0RTT"
    )?;
    for kind in [NetworkKind::Dsl, NetworkKind::Lte] {
        let net = kind.config();
        let fvc = |proto: Protocol, zr: bool| {
            let cfg = if zr {
                proto.config_zero_rtt(&net)
            } else {
                proto.config(&net)
            };
            med((0..5)
                .map(|s| {
                    pq_web::load_page_with_config(&site, &net, &cfg, 600 + s, &Default::default())
                        .metrics
                        .fvc_ms
                })
                .collect())
        };
        writeln!(
            out,
            "  {:<8} {:>11.0} {:>11.0} {:>11.0} {:>11.0}",
            kind.name(),
            fvc(Protocol::TcpPlus, false),
            fvc(Protocol::TcpPlus, true),
            fvc(Protocol::Quic, false),
            fvc(Protocol::Quic, true),
        )?;
    }
    writeln!(
        out,
        "  (the repeat-visit scenario §3 discusses: both stacks gain ≈1 RTT)"
    )?;

    writeln!(
        out,
        "\n== Ablation 3: client-side processing scale (QUIC DSL SI, ms) =="
    )?;
    let net = NetworkKind::Dsl.config();
    write!(out, " ")?;
    for scale in [0.0, 0.5, 1.0, 2.0] {
        let opts = pq_web::LoadOptions {
            processing_scale: scale,
            ..Default::default()
        };
        let si = med((0..5)
            .map(|s| {
                pq_web::load_page(&site, &net, Protocol::Quic, 700 + s, &opts)
                    .metrics
                    .si_ms
            })
            .collect());
        write!(out, " scale {scale}: {si:>6.0}")?;
    }
    writeln!(
        out,
        "\n  (0 = network-only loads; 1 = calibrated browser costs)"
    )?;
    writeln!(out)?;
    Ok(())
}
