//! Differential tests for the indexed figure analysis: the per-cell
//! `filter → collect` scans the analysis used before it read cells of
//! `RatingVotes`' index and `AbVotes`' tallies are kept here as the
//! reference, and every number the two forms return must agree bit for
//! bit — a sample read from the index holds the same doubles in the
//! same order as the scan collected, so every mean, ANOVA, median and
//! Pearson sums identically, and a tally's integer replay total is the
//! double the scan's in-order sum reaches.

use pq_fault::FaultPlan;
use pq_metrics::Metric;
use pq_sim::NetworkKind;
use pq_stats::{median, one_way_anova, pearson, t_interval, AnovaResult, ConfidenceInterval};
use pq_study::analysis::{
    ab_shares, anova_across_protocols, fig3_agreement, metric_correlation, per_site_differences,
    rating_interval, rating_sample, AbShares, AgreementRow, SiteDifference,
};
use pq_study::{
    AbChoice, AbVote, AbVotes, Environment, Group, RatingVote, RatingVotes, StimulusSet,
};
use pq_transport::Protocol;
use pq_web::catalogue;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The analysis as it was: one full scan of the votes per cell.
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    pub fn ab_shares(
        votes: &[AbVote],
        network: NetworkKind,
        pair: (Protocol, Protocol),
        groups: &[Group],
    ) -> Option<AbShares> {
        let sel: Vec<&AbVote> = votes
            .iter()
            .filter(|v| {
                v.valid && v.network == network && v.pair == pair && groups.contains(&v.group)
            })
            .collect();
        if sel.is_empty() {
            return None;
        }
        let n = sel.len() as f64;
        let count = |c: AbChoice| sel.iter().filter(|v| v.choice == c).count() as f64 / n;
        Some(AbShares {
            first: count(AbChoice::First),
            no_diff: count(AbChoice::NoDifference),
            second: count(AbChoice::Second),
            avg_replays: sel.iter().map(|v| f64::from(v.replays)).sum::<f64>() / n,
            n: sel.len(),
        })
    }

    pub fn rating_sample(
        votes: &[RatingVote],
        env: Environment,
        network: Option<NetworkKind>,
        protocol: Protocol,
        group: Group,
    ) -> Vec<f64> {
        votes
            .iter()
            .filter(|v| {
                v.valid
                    && v.environment == env
                    && v.protocol == protocol
                    && v.group == group
                    && network.is_none_or(|n| v.network == n)
            })
            .map(|v| v.speed)
            .collect()
    }

    pub fn rating_interval(
        votes: &[RatingVote],
        env: Environment,
        network: Option<NetworkKind>,
        protocol: Protocol,
        group: Group,
        confidence: f64,
    ) -> Option<ConfidenceInterval> {
        let xs = rating_sample(votes, env, network, protocol, group);
        (xs.len() >= 2).then(|| t_interval(&xs, confidence))
    }

    pub fn anova_across_protocols(
        votes: &[RatingVote],
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

    pub fn per_site_differences(
        votes: &[RatingVote],
        network: NetworkKind,
        pairs: &[(Protocol, Protocol)],
        group: Group,
        confidence: f64,
        n_sites: u16,
    ) -> Vec<SiteDifference> {
        let mut out = Vec::new();
        for site in 0..n_sites {
            for &(a, b) in pairs {
                let sample = |p: Protocol| -> Vec<f64> {
                    votes
                        .iter()
                        .filter(|v| {
                            v.valid
                                && v.group == group
                                && v.site == site
                                && v.network == network
                                && v.protocol == p
                        })
                        .map(|v| v.speed)
                        .collect()
                };
                let xs = sample(a);
                let ys = sample(b);
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

    pub fn metric_correlation(
        votes: &[RatingVote],
        stimuli: &StimulusSet,
        network: NetworkKind,
        protocol: Protocol,
        metric: Metric,
        group: Group,
        envs: &[Environment],
    ) -> Option<f64> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for site in 0..stimuli.site_count() {
            let sample: Vec<f64> = votes
                .iter()
                .filter(|v| {
                    v.valid
                        && v.group == group
                        && v.site == site
                        && v.network == network
                        && v.protocol == protocol
                        && envs.contains(&v.environment)
                })
                .map(|v| v.speed)
                .collect();
            if sample.is_empty() {
                continue;
            }
            let Some(stim) = stimuli.get(site, network, protocol) else {
                continue;
            };
            xs.push(stim.metrics.get(metric));
            ys.push(pq_stats::mean(&sample));
        }
        pearson(&xs, &ys)
    }

    /// Fig. 3 as one grouping scan into a map keyed in condition order.
    pub fn fig3_agreement(votes: &[RatingVote], confidence: f64) -> Vec<AgreementRow> {
        type Key = (u16, NetworkKind, Protocol, Environment);
        let mut per_cond: BTreeMap<Key, [Vec<f64>; 3]> = BTreeMap::new();
        for v in votes.iter().filter(|v| v.valid) {
            let key = (v.site, v.network, v.protocol, v.environment);
            per_cond.entry(key).or_default()[v.group.idx()].push(v.speed);
        }
        let mut rows: Vec<AgreementRow> = per_cond
            .into_iter()
            .filter(|(_, [lab, micro, _])| lab.len() >= 2 && micro.len() >= 2)
            .map(
                |((site, network, protocol, environment), [lab, micro, internet])| AgreementRow {
                    site,
                    network,
                    protocol,
                    environment,
                    lab: t_interval(&lab, confidence),
                    micro: t_interval(&micro, confidence),
                    internet_median: (!internet.is_empty()).then(|| median(&internet)),
                },
            )
            .collect();
        rows.sort_by(|a, b| a.lab.mean.total_cmp(&b.lab.mean));
        rows
    }
}

/// Networks and protocols the random votes are drawn from.
const NETWORKS: [NetworkKind; 2] = [NetworkKind::Dsl, NetworkKind::Mss];
const VOTED: [Protocol; 3] = [Protocol::Tcp, Protocol::Quic, Protocol::QuicBbr];
/// Sites the votes name besides `u16::MAX`; the stimulus set has
/// [`SITES`] of them, so the last index is always out of range for it.
const VOTE_SITES: u16 = 5;
/// Environment lists Fig. 6 is asked about, with repeats.
const ENV_LISTS: [&[Environment]; 6] = [
    &[],
    &[Environment::FreeTime],
    &[Environment::Plane, Environment::Work],
    &[Environment::Work, Environment::Work],
    &[
        Environment::Plane,
        Environment::FreeTime,
        Environment::Plane,
    ],
    &Environment::ALL,
];
const SITES: [&str; 4] = ["apache.org", "gov.uk", "wikipedia.org", "w3.org"];

/// Four sites × [`NETWORKS`] × {TCP, QUIC}, built under a plan that
/// truncates enough bodies to quarantine some cells, so the set has
/// holes next to surviving cells. `VOTED`'s QUIC+BBR has votes and no
/// stimulus at all.
fn stimuli() -> &'static StimulusSet {
    static SET: OnceLock<StimulusSet> = OnceLock::new();
    SET.get_or_init(|| {
        let sites: Vec<_> = SITES
            .iter()
            .map(|n| catalogue::site(n).expect("site in catalogue"))
            .collect();
        let plan = FaultPlan::parse("seed=3;trunc:p=0.1").expect("plan parses");
        let set = StimulusSet::build_with_faults(
            &sites,
            &NETWORKS,
            &[Protocol::Tcp, Protocol::Quic],
            1,
            1910,
            Some(Arc::new(plan)),
        );
        assert!(!set.quarantined().is_empty(), "no quarantined cell");
        assert!(
            NETWORKS.iter().any(|&n| {
                let present = (0..set.site_count())
                    .filter(|&s| set.get(s, n, Protocol::Quic).is_some())
                    .count();
                (2..SITES.len()).contains(&present)
            }),
            "no network keeps a QUIC correlation with a hole in it: {:?}",
            set.quarantined()
        );
        set
    })
}

/// Votes over a small domain, so cells collide: about one in seven is
/// invalid, a third name a site the stimulus set does not have (one in
/// six names site `u16::MAX`), and the speed leans on the protocol so
/// that some pairs separate.
fn arb_votes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RatingVote>> {
    let vote = (
        (
            0usize..3,
            0..VOTE_SITES + 1,
            0usize..2,
            0usize..3,
            0usize..3,
        ),
        0.0f64..40.0,
        prop::bool::weighted(0.85),
    )
        .prop_map(|((group, site, network, protocol, env), spread, valid)| {
            let speed = 10.0 + spread + 8.0 * protocol as f64;
            RatingVote {
                group: Group::ALL[group],
                participant: 0,
                site: if site == VOTE_SITES { u16::MAX } else { site },
                network: NETWORKS[network],
                protocol: VOTED[protocol],
                environment: Environment::ALL[env],
                speed,
                quality: speed,
                valid,
            }
        });
    prop::collection::vec(vote, len)
}

/// Pairs the random A/B votes are cast on: Table 1's, edge stacks on
/// either side, and a stack against itself.
const AB_VOTED: [(Protocol, Protocol); 4] = [
    (Protocol::Quic, Protocol::Tcp),
    (Protocol::QuicEdge, Protocol::Quic),
    (Protocol::H2Edge, Protocol::TcpPlus),
    (Protocol::QuicMbx, Protocol::QuicMbx),
];
/// Group lists Fig. 4 is asked about: empty, with repeats, and all.
const GROUP_LISTS: [&[Group]; 6] = [
    &[],
    &[Group::Lab],
    &[Group::Lab, Group::MicroWorker],
    &[Group::MicroWorker, Group::MicroWorker],
    &[Group::Internet, Group::Lab, Group::Internet],
    &Group::ALL,
];

/// A/B votes over a small domain, so cells collide: about one in seven
/// is invalid, and replays run past the UI's cap of 3.
fn arb_ab_votes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<AbVote>> {
    let vote = (
        (
            0usize..3,
            0u16..3,
            0usize..2,
            0usize..AB_VOTED.len(),
            0usize..3,
        ),
        0u32..6,
        0.0f64..1.0,
        prop::bool::weighted(0.85),
    )
        .prop_map(
            |((group, site, network, pair, choice), replays, confidence, valid)| AbVote {
                group: Group::ALL[group],
                participant: 0,
                site,
                network: NETWORKS[network],
                pair: AB_VOTED[pair],
                choice: [AbChoice::First, AbChoice::NoDifference, AbChoice::Second][choice],
                confidence,
                replays,
                valid,
            },
        );
    prop::collection::vec(vote, len)
}

/// Everything [`AbShares`] holds, floats as bit patterns.
fn shares_bits(s: Option<AbShares>) -> Option<([u64; 4], usize)> {
    s.map(|s| {
        (
            [s.first, s.no_diff, s.second, s.avg_replays].map(f64::to_bits),
            s.n,
        )
    })
}

fn assert_same_anova(new: Option<AnovaResult>, old: Option<AnovaResult>) {
    let bits =
        |r: Option<AnovaResult>| r.map(|r| [r.f, r.p, r.df_between, r.df_within].map(f64::to_bits));
    assert_eq!(bits(new), bits(old));
}

proptest! {
    /// Fig. 5's cells: every environment, group and voted protocol, a
    /// protocol nobody voted on, and `network` both named (with and
    /// without votes) and `None`.
    #[test]
    fn rating_sample_and_interval_match_scans(votes in arb_votes(0..400)) {
        let indexed = RatingVotes::from(votes.clone());
        let networks = [Some(NetworkKind::Dsl), Some(NetworkKind::Mss), Some(NetworkKind::Lte), None];
        for env in Environment::ALL {
            for group in Group::ALL {
                for protocol in [Protocol::Tcp, Protocol::Quic, Protocol::QuicBbr, Protocol::H2Edge] {
                    for network in networks {
                        let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                        prop_assert_eq!(
                            bits(rating_sample(&indexed, env, network, protocol, group)),
                            bits(reference::rating_sample(&votes, env, network, protocol, group))
                        );
                        let ci = |c: Option<ConfidenceInterval>| c.map(|c| [c.mean, c.half_width].map(f64::to_bits));
                        prop_assert_eq!(
                            ci(rating_interval(&indexed, env, network, protocol, group, 0.99)),
                            ci(reference::rating_interval(&votes, env, network, protocol, group, 0.99))
                        );
                    }
                }
            }
        }
    }

    /// Fig. 4's shares: every network (two never voted on), the voted
    /// pairs, their mirror images and a pair nobody voted on, under
    /// group lists that are empty or name a group twice.
    #[test]
    fn ab_shares_match_vote_scans(votes in arb_ab_votes(0..600)) {
        let tallied = AbVotes::from(votes.clone());
        let pairs = AB_VOTED
            .into_iter()
            .flat_map(|(a, b)| [(a, b), (b, a)])
            .chain([(Protocol::TcpPlusBbr, Protocol::H2Edge)]);
        for network in NetworkKind::ALL {
            for pair in pairs.clone() {
                for groups in GROUP_LISTS {
                    prop_assert_eq!(
                        shares_bits(ab_shares(&tallied, network, pair, groups)),
                        shares_bits(reference::ab_shares(&votes, network, pair, groups)),
                        "{:?} {:?} {:?}", network, pair, groups
                    );
                }
            }
        }
    }

    /// Fig. 5's ANOVA: a protocol listed twice, one nobody voted on,
    /// and both the per-network and the all-networks form.
    #[test]
    fn anova_across_protocols_matches_per_protocol_scans(
        votes in arb_votes(0..400),
        env in 0usize..3,
        network in 0usize..3,
        group in 0usize..3,
    ) {
        let indexed = RatingVotes::from(votes.clone());
        let protocols = [Protocol::Tcp, Protocol::Quic, Protocol::Tcp, Protocol::H2Edge, Protocol::QuicBbr];
        let (env, group) = (Environment::ALL[env], Group::ALL[group]);
        let network = NETWORKS.get(network).copied();
        for protocols in [&protocols[..], &protocols[..2], &[]] {
            assert_same_anova(
                anova_across_protocols(&indexed, env, network, protocols, group),
                reference::anova_across_protocols(&votes, env, network, protocols, group),
            );
        }
    }

    /// §4.4's per-site differences: a pair naming one protocol twice,
    /// a protocol shared between pairs, a protocol without votes, and
    /// `n_sites` below, at and above the sites the votes name.
    #[test]
    fn per_site_differences_match_per_cell_scans(
        votes in arb_votes(0..1500),
        network in 0usize..2,
        group in 0usize..3,
        n_sites in 0u16..6,
    ) {
        let indexed = RatingVotes::from(votes.clone());
        let pairs = [
            (Protocol::Quic, Protocol::Tcp),
            (Protocol::Quic, Protocol::Quic),
            (Protocol::QuicBbr, Protocol::Quic),
            (Protocol::Tcp, Protocol::H2Edge),
            (Protocol::Tcp, Protocol::QuicBbr),
        ];
        let (network, group) = (NETWORKS[network], Group::ALL[group]);
        let new = per_site_differences(&indexed, network, &pairs, group, 0.90, n_sites);
        let old = reference::per_site_differences(&votes, network, &pairs, group, 0.90, n_sites);
        let row = |d: &SiteDifference| {
            (d.site, d.network, d.better, d.worse, d.diff.to_bits(), d.p.to_bits())
        };
        prop_assert_eq!(
            new.iter().map(row).collect::<Vec<_>>(),
            old.iter().map(row).collect::<Vec<_>>()
        );
    }

    /// Fig. 6's correlation over a stimulus set with quarantined
    /// cells, votes on sites the set does not have, a protocol the set
    /// never loaded, and environment lists that name one twice.
    #[test]
    fn metric_correlation_matches_per_site_scans(
        votes in arb_votes(0..300),
        group in 0usize..3,
        envs in 0usize..ENV_LISTS.len(),
    ) {
        let indexed = RatingVotes::from(votes.clone());
        let set = stimuli();
        let (group, envs) = (Group::ALL[group], ENV_LISTS[envs]);
        for network in NETWORKS {
            for protocol in VOTED {
                for metric in Metric::ALL {
                    let new = metric_correlation(&indexed, set, network, protocol, metric, group, envs);
                    let old = reference::metric_correlation(
                        &votes, set, network, protocol, metric, group, envs,
                    );
                    prop_assert_eq!(new.map(f64::to_bits), old.map(f64::to_bits));
                }
            }
        }
    }

    /// Fig. 3's rows: which conditions qualify, their order, and every
    /// interval and median, with site `u16::MAX` among them. Each
    /// condition is cast again, vote for vote, at twins that differ from
    /// it in one key coordinate each, so every row ties on the lab mean
    /// with its twins and the order must break each tie by that key.
    #[test]
    fn fig3_agreement_matches_grouping_scan(votes in arb_votes(0..1500)) {
        // Keep On-a-plane free for the environment twin.
        let votes: Vec<RatingVote> = votes
            .into_iter()
            .map(|v| match v.environment {
                Environment::Plane => RatingVote { environment: Environment::FreeTime, ..v },
                _ => v,
            })
            .collect();
        let mut cast = votes.clone();
        for v in &votes {
            let mut twin = |edit: fn(&mut RatingVote)| {
                let mut t = v.clone();
                edit(&mut t);
                cast.push(t);
            };
            twin(|t| t.site ^= 0x100);
            twin(|t| t.network = if t.network == NetworkKind::Dsl { NetworkKind::Lte } else { NetworkKind::Da2gc });
            twin(|t| {
                t.protocol = match t.protocol {
                    Protocol::Tcp => Protocol::TcpPlus,
                    Protocol::Quic => Protocol::QuicEdge,
                    _ => Protocol::H2Edge,
                }
            });
            if v.environment == Environment::Work {
                twin(|t| t.environment = Environment::Plane);
            }
        }
        let votes = cast;
        let new = fig3_agreement(&RatingVotes::from(votes.clone()), 0.99);
        let old = reference::fig3_agreement(&votes, 0.99);
        prop_assert_eq!(agreement_bits(&new), agreement_bits(&old));
    }
}

/// Everything an [`AgreementRow`] holds, floats as bit patterns.
fn agreement_bits(rows: &[AgreementRow]) -> Vec<impl PartialEq + std::fmt::Debug> {
    let ci = |c: &ConfidenceInterval| [c.mean, c.half_width].map(f64::to_bits);
    rows.iter()
        .map(|r| {
            (
                (r.site, r.network, r.protocol, r.environment),
                ci(&r.lab),
                ci(&r.micro),
                r.internet_median.map(f64::to_bits),
            )
        })
        .collect()
}

/// The differential properties are vacuous if the random votes never
/// reach a verdict: at the upper end of their sizes each figure
/// function must return something.
#[test]
fn random_votes_reach_every_figure_function() {
    let mut rng = proptest::TestRng::for_case("random_votes_reach_every_figure_function", 0);
    let dense = RatingVotes::from(arb_votes(1500..1501).generate(&mut rng));
    let pairs = [(Protocol::Quic, Protocol::Tcp)];
    let found = NETWORKS.iter().any(|&n| {
        !per_site_differences(&dense, n, &pairs, Group::MicroWorker, 0.90, VOTE_SITES).is_empty()
    });
    assert!(found, "no per-site difference on 1 500 votes");
    assert!(
        anova_across_protocols(&dense, Environment::Work, None, &VOTED, Group::MicroWorker)
            .is_some()
    );
    let set = stimuli();
    let correlated = NETWORKS.iter().any(|&n| {
        metric_correlation(
            &dense,
            set,
            n,
            Protocol::Quic,
            Metric::Si,
            Group::MicroWorker,
            &Environment::ALL,
        )
        .is_some()
    });
    assert!(correlated, "no correlation over the holed stimulus set");
    let ab = arb_ab_votes(600..601).generate(&mut rng);
    let shares = ab_shares(
        &AbVotes::from(ab),
        NETWORKS[0],
        AB_VOTED[1],
        &[Group::MicroWorker],
    );
    assert!(
        shares.is_some_and(|s| s.n > 1 && s.avg_replays > 0.0 && s.no_diff > 0.0),
        "no A/B cell with replays and every answer: {shares:?}"
    );
    let rows = fig3_agreement(&dense, 0.99);
    assert!(
        rows.iter().any(|r| r.site == u16::MAX),
        "no Fig. 3 row at site u16::MAX"
    );
    assert!(
        rows.iter().any(|r| r.internet_median.is_some()),
        "no Internet median"
    );
}
