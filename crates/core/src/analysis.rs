//! The paper's analysis layer: every aggregation behind Figures 3–6
//! and the §4.2/§4.4 discussions.

use crate::ab::{AbChoice, AbVote, AbVotes};
use crate::participant::Group;
use crate::rating::{Environment, RatingVotes};
use crate::stimulus::StimulusSet;
use pq_metrics::Metric;
use pq_sim::NetworkKind;
use pq_stats::{median, one_way_anova, pearson, t_interval, AnovaResult, ConfidenceInterval};
use pq_transport::Protocol;
use std::slice;

/// Vote shares of one A/B cell (one bar of Figure 4).
#[derive(Clone, Copy, Debug)]
pub struct AbShares {
    /// Share preferring the pair's first protocol.
    pub first: f64,
    /// Share answering "no difference".
    pub no_diff: f64,
    /// Share preferring the pair's second protocol.
    pub second: f64,
    /// Mean replay count.
    pub avg_replays: f64,
    /// Number of votes behind the cell.
    pub n: usize,
}

/// Figure 4: vote shares for one protocol pair on one network,
/// over *valid* votes of the given groups.
pub fn ab_shares(
    votes: &AbVotes,
    network: NetworkKind,
    pair: (Protocol, Protocol),
    groups: &[Group],
) -> Option<AbShares> {
    let t = votes.tally(groups, network, pair);
    let n = t.n();
    if n == 0 {
        return None;
    }
    let share = |k: usize| k as f64 / n as f64;
    Some(AbShares {
        first: share(t.first),
        no_diff: share(t.no_diff),
        second: share(t.second),
        // An in-order `f64` sum of the replays holds an integer below
        // 2⁵³ after every step, so it is exact: the integer total is
        // the same double.
        avg_replays: t.replays as f64 / n as f64,
        n,
    })
}

/// Speed votes of one Figure 5 cell (valid votes only), in vote
/// order; `network: None` spans every network.
pub fn rating_sample(
    votes: &RatingVotes,
    env: Environment,
    network: Option<NetworkKind>,
    protocol: Protocol,
    group: Group,
) -> Vec<f64> {
    let networks = network
        .as_ref()
        .map_or(&NetworkKind::ALL[..], slice::from_ref);
    votes.speeds(group, &[env], networks, protocol, None)
}

/// Figure 5: mean vote + 99 % CI for one cell.
pub fn rating_interval(
    votes: &RatingVotes,
    env: Environment,
    network: Option<NetworkKind>,
    protocol: Protocol,
    group: Group,
    confidence: f64,
) -> Option<ConfidenceInterval> {
    let xs = rating_sample(votes, env, network, protocol, group);
    if xs.len() < 2 {
        return None;
    }
    Some(t_interval(&xs, confidence))
}

/// §4.4 significance: one-way ANOVA across the five protocols within
/// an environment × network cell.
pub fn anova_across_protocols(
    votes: &RatingVotes,
    env: Environment,
    network: Option<NetworkKind>,
    protocols: &[Protocol],
    group: Group,
) -> Option<AnovaResult> {
    let samples: Vec<Vec<f64>> = protocols
        .iter()
        .map(|&p| rating_sample(votes, env, network, p, group))
        .collect();
    let refs: Vec<&[f64]> = samples.iter().map(Vec::as_slice).collect();
    one_way_anova(&refs)
}

/// A per-website significant protocol difference (§4.4, "Where it
/// Makes a Difference").
#[derive(Clone, Debug)]
pub struct SiteDifference {
    /// Site index.
    pub site: u16,
    /// Network setting.
    pub network: NetworkKind,
    /// The better-rated protocol.
    pub better: Protocol,
    /// The worse-rated protocol.
    pub worse: Protocol,
    /// Mean rating difference (points on the 10–70 scale).
    pub diff: f64,
    /// ANOVA p-value.
    pub p: f64,
}

/// Find per-site pairwise protocol differences significant at
/// `confidence` (paper: 90 %), within one network.
pub fn per_site_differences(
    votes: &RatingVotes,
    network: NetworkKind,
    pairs: &[(Protocol, Protocol)],
    group: Group,
    confidence: f64,
    n_sites: u16,
) -> Vec<SiteDifference> {
    let mut out = Vec::new();
    for site in 0..n_sites {
        for &(a, b) in pairs {
            let sample =
                |p: Protocol| votes.speeds(group, &Environment::ALL, &[network], p, Some(site));
            let (xs, ys) = (sample(a), sample(b));
            if xs.len() < 4 || ys.len() < 4 {
                continue;
            }
            if let Some(r) = one_way_anova(&[&xs, &ys]) {
                if r.significant_at(confidence) {
                    let ma = pq_stats::mean(&xs);
                    let mb = pq_stats::mean(&ys);
                    let (better, worse, diff) = if ma >= mb {
                        (a, b, ma - mb)
                    } else {
                        (b, a, mb - ma)
                    };
                    out.push(SiteDifference {
                        site,
                        network,
                        better,
                        worse,
                        diff,
                        p: r.p,
                    });
                }
            }
        }
    }
    out
}

/// Figure 6: Pearson correlation between a technical metric and the
/// per-website mean vote, for one protocol × network (µWorker votes).
///
/// As in the paper: "first calculating the mean vote for each website
/// and combining it with the technical metric".
pub fn metric_correlation(
    votes: &RatingVotes,
    stimuli: &StimulusSet,
    network: NetworkKind,
    protocol: Protocol,
    metric: Metric,
    group: Group,
    envs: &[Environment],
) -> Option<f64> {
    // An environment listed twice still counts its votes once.
    let envs: Vec<Environment> = Environment::ALL
        .into_iter()
        .filter(|e| envs.contains(e))
        .collect();
    let mut xs = Vec::new(); // metric value per site
    let mut ys = Vec::new(); // mean vote per site
    for site in 0..stimuli.site_count() {
        let sample = votes.speeds(group, &envs, &[network], protocol, Some(site));
        if sample.is_empty() {
            continue;
        }
        let Some(stim) = stimuli.get(site, network, protocol) else {
            // Cell quarantined under fault injection — no stimulus, no point.
            continue;
        };
        xs.push(stim.metrics.get(metric));
        ys.push(pq_stats::mean(&sample));
    }
    pearson(&xs, &ys)
}

/// Mean A/B confidence per choice type on one network — §4 collects a
/// confidence slider with every A/B vote; decided votes should carry
/// more confidence than "no difference" ones, and slow networks more
/// than fast ones.
#[derive(Clone, Copy, Debug)]
pub struct ConfidenceStats {
    /// Mean confidence of decided (left/right) votes.
    pub decided: f64,
    /// Mean confidence of "no difference" votes.
    pub undecided: f64,
    /// Vote count behind the stats.
    pub n: usize,
}

/// Confidence statistics over valid votes on one network.
pub fn confidence_stats(votes: &[AbVote], network: NetworkKind) -> Option<ConfidenceStats> {
    let sel: Vec<&AbVote> = votes
        .iter()
        .filter(|v| v.valid && v.network == network)
        .collect();
    if sel.is_empty() {
        return None;
    }
    let mean_of = |want_decided: bool| {
        let xs: Vec<f64> = sel
            .iter()
            .filter(|v| (v.choice != AbChoice::NoDifference) == want_decided)
            .map(|v| v.confidence)
            .collect();
        pq_stats::mean(&xs)
    };
    Some(ConfidenceStats {
        decided: mean_of(true),
        undecided: mean_of(false),
        n: sel.len(),
    })
}

/// One condition row of the Figure 3 agreement plot.
#[derive(Clone, Debug)]
pub struct AgreementRow {
    /// Site index.
    pub site: u16,
    /// Network.
    pub network: NetworkKind,
    /// Protocol.
    pub protocol: Protocol,
    /// Environment.
    pub environment: Environment,
    /// Lab mean + 99 % CI.
    pub lab: ConfidenceInterval,
    /// µWorker mean + 99 % CI.
    pub micro: ConfidenceInterval,
    /// Internet median (that group is not normally distributed).
    pub internet_median: Option<f64>,
}

impl AgreementRow {
    /// Does the µWorker mean fall inside the lab's 99 % interval —
    /// the paper's "we find that the µWorkers seem to fall mostly
    /// within the confidence intervals of the lab study"?
    pub fn micro_agrees(&self) -> bool {
        self.lab.contains(self.micro.mean)
    }

    /// Distance of the Internet median from the lab mean.
    pub fn internet_deviation(&self) -> Option<f64> {
        self.internet_median.map(|m| (m - self.lab.mean).abs())
    }
}

/// Figure 3: per-condition group agreement, ordered by lab mean vote.
///
/// The Internet column is a median because that pool's rating
/// residuals fail Jarque–Bera at α = 0.01 while the lab's pass, as
/// §4.2 reports; `pq agreement` prints the test and pq-bench pins the
/// two verdicts. µWorker residuals fail it too at n ≈ 17 000 and keep
/// the paper's mean + CI (EXPERIMENTS.md, Deviations).
pub fn fig3_agreement(votes: &RatingVotes, confidence: f64) -> Vec<AgreementRow> {
    let mut rows = Vec::new();
    // Conditions in (site, network, protocol, environment) order, so
    // the stable sort below breaks lab-mean ties by that key.
    for &site in votes.sites() {
        for network in NetworkKind::ALL {
            for protocol in Protocol::ALL_WITH_EDGE {
                for environment in Environment::ALL {
                    let [lab, micro, internet] = Group::ALL
                        .map(|g| votes.speeds(g, &[environment], &[network], protocol, Some(site)));
                    if lab.len() < 2 || micro.len() < 2 {
                        continue;
                    }
                    rows.push(AgreementRow {
                        site,
                        network,
                        protocol,
                        environment,
                        lab: t_interval(&lab, confidence),
                        micro: t_interval(&micro, confidence),
                        internet_median: (!internet.is_empty()).then(|| median(&internet)),
                    });
                }
            }
        }
    }
    rows.sort_by(|a, b| a.lab.mean.total_cmp(&b.lab.mean));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rating::RatingVote;

    fn vote(
        group: Group,
        site: u16,
        network: NetworkKind,
        protocol: Protocol,
        env: Environment,
        speed: f64,
    ) -> RatingVote {
        RatingVote {
            group,
            participant: 0,
            site,
            network,
            protocol,
            environment: env,
            speed,
            quality: speed,
            valid: true,
        }
    }

    fn ab(
        network: NetworkKind,
        pair: (Protocol, Protocol),
        choice: AbChoice,
        replays: u32,
    ) -> AbVote {
        AbVote {
            group: Group::MicroWorker,
            participant: 0,
            site: 0,
            network,
            pair,
            choice,
            confidence: 0.5,
            replays,
            valid: true,
        }
    }

    #[test]
    fn ab_shares_sum_to_one() {
        let pair = (Protocol::Quic, Protocol::Tcp);
        let votes = AbVotes::from(vec![
            ab(NetworkKind::Lte, pair, AbChoice::First, 1),
            ab(NetworkKind::Lte, pair, AbChoice::First, 0),
            ab(NetworkKind::Lte, pair, AbChoice::NoDifference, 2),
            ab(NetworkKind::Lte, pair, AbChoice::Second, 0),
        ]);
        let s = ab_shares(&votes, NetworkKind::Lte, pair, &[Group::MicroWorker]).unwrap();
        assert!((s.first + s.no_diff + s.second - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 4);
        assert!((s.first - 0.5).abs() < 1e-12);
        assert!((s.avg_replays - 0.75).abs() < 1e-12);
        assert!(ab_shares(&votes, NetworkKind::Dsl, pair, &[Group::MicroWorker]).is_none());
    }

    #[test]
    fn invalid_votes_excluded() {
        let pair = (Protocol::Quic, Protocol::Tcp);
        let mut v = ab(NetworkKind::Lte, pair, AbChoice::First, 0);
        v.valid = false;
        let votes = AbVotes::from(vec![v]);
        assert!(ab_shares(&votes, NetworkKind::Lte, pair, &[Group::MicroWorker]).is_none());
    }

    #[test]
    fn anova_detects_separated_protocols() {
        let mut votes = Vec::new();
        for i in 0..40 {
            votes.push(vote(
                Group::MicroWorker,
                0,
                NetworkKind::Lte,
                Protocol::Quic,
                Environment::Work,
                55.0 + (i % 5) as f64,
            ));
            votes.push(vote(
                Group::MicroWorker,
                0,
                NetworkKind::Lte,
                Protocol::Tcp,
                Environment::Work,
                35.0 + (i % 5) as f64,
            ));
        }
        let r = anova_across_protocols(
            &votes.into(),
            Environment::Work,
            Some(NetworkKind::Lte),
            &[Protocol::Quic, Protocol::Tcp],
            Group::MicroWorker,
        )
        .unwrap();
        assert!(r.significant_at(0.99));
    }

    #[test]
    fn per_site_differences_found_and_ordered() {
        let mut votes = Vec::new();
        for i in 0..12 {
            votes.push(vote(
                Group::MicroWorker,
                3,
                NetworkKind::Dsl,
                Protocol::Quic,
                Environment::Work,
                60.0 + (i % 3) as f64,
            ));
            votes.push(vote(
                Group::MicroWorker,
                3,
                NetworkKind::Dsl,
                Protocol::Tcp,
                Environment::Work,
                45.0 + (i % 3) as f64,
            ));
        }
        let diffs = per_site_differences(
            &votes.into(),
            NetworkKind::Dsl,
            &[(Protocol::Quic, Protocol::Tcp)],
            Group::MicroWorker,
            0.90,
            5,
        );
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].better, Protocol::Quic);
        assert_eq!(diffs[0].site, 3);
        assert!(diffs[0].diff > 10.0);
    }

    #[test]
    fn confidence_stats_split_by_choice() {
        let pair = (Protocol::Quic, Protocol::Tcp);
        let mut v1 = ab(NetworkKind::Mss, pair, AbChoice::First, 0);
        v1.confidence = 0.9;
        let mut v2 = ab(NetworkKind::Mss, pair, AbChoice::NoDifference, 0);
        v2.confidence = 0.2;
        let cs = confidence_stats(&[v1, v2], NetworkKind::Mss).unwrap();
        assert!((cs.decided - 0.9).abs() < 1e-12);
        assert!((cs.undecided - 0.2).abs() < 1e-12);
        assert_eq!(cs.n, 2);
        assert!(confidence_stats(&[], NetworkKind::Dsl).is_none());
    }

    #[test]
    fn agreement_rows_sorted_by_lab_mean() {
        let mut votes = Vec::new();
        for (site, base) in [(0u16, 30.0), (1u16, 50.0)] {
            for i in 0..5 {
                let x = base + i as f64;
                votes.push(vote(
                    Group::Lab,
                    site,
                    NetworkKind::Dsl,
                    Protocol::Quic,
                    Environment::Work,
                    x,
                ));
                votes.push(vote(
                    Group::MicroWorker,
                    site,
                    NetworkKind::Dsl,
                    Protocol::Quic,
                    Environment::Work,
                    x + 1.0,
                ));
            }
        }
        let rows = fig3_agreement(&votes.into(), 0.99);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].lab.mean < rows[1].lab.mean);
        assert!(rows[0].micro_agrees(), "µW mean within lab CI");
        assert!(rows[0].internet_median.is_none());
    }

    #[test]
    fn agreement_rows_with_equal_lab_mean_keep_key_order() {
        // Two conditions tie on the lab mean. The sort is stable over
        // the (site, network, protocol, environment) key order, so the
        // tie resolves by key whatever order the votes arrive in.
        let mut votes = Vec::new();
        let conditions = [
            (2u16, Protocol::Tcp, 40.0),
            (1u16, Protocol::Quic, 40.0),
            (1u16, Protocol::Tcp, 40.0),
            (3u16, Protocol::Tcp, 20.0),
        ];
        for (site, protocol, base) in conditions {
            for i in 0..4 {
                for group in [Group::Lab, Group::MicroWorker] {
                    votes.push(vote(
                        group,
                        site,
                        NetworkKind::Lte,
                        protocol,
                        Environment::FreeTime,
                        base + i as f64,
                    ));
                }
            }
        }
        let rows = fig3_agreement(&votes.into(), 0.99);
        let order: Vec<(u16, Protocol)> = rows.iter().map(|r| (r.site, r.protocol)).collect();
        assert_eq!(
            order,
            [
                (3, Protocol::Tcp),
                (1, Protocol::Tcp),
                (1, Protocol::Quic),
                (2, Protocol::Tcp)
            ]
        );
    }
}
