//! Differential tests for the single-pass figure analysis: the
//! per-cell `filter → collect` form the analysis had before it grouped
//! its votes in one scan is kept here as the reference, and every
//! number the two forms return must agree bit for bit — the buckets
//! hold the same doubles in the same order, so every mean, ANOVA and
//! Pearson sums identically.

use pq_fault::FaultPlan;
use pq_metrics::Metric;
use pq_sim::NetworkKind;
use pq_stats::{one_way_anova, pearson, AnovaResult};
use pq_study::analysis::{
    anova_across_protocols, metric_correlation, per_site_differences, rating_sample, SiteDifference,
};
use pq_study::{Environment, Group, RatingVote, StimulusSet};
use pq_transport::Protocol;
use pq_web::catalogue;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The analysis as it was: one full scan of the votes per cell
/// (`rating_sample` is that scan for Fig. 5 and has not changed).
mod reference {
    use super::*;

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
}

/// Networks and protocols the random votes are drawn from.
const NETWORKS: [NetworkKind; 2] = [NetworkKind::Dsl, NetworkKind::Mss];
const VOTED: [Protocol; 3] = [Protocol::Tcp, Protocol::Quic, Protocol::QuicBbr];
/// Sites the votes name; the stimulus set has [`SITES`] of them, so
/// the last index is always out of range for it.
const VOTE_SITES: u16 = 5;
const SITES: [&str; 4] = ["apache.org", "gov.uk", "wikipedia.org", "w3.org"];

/// Four sites × [`NETWORKS`] × {TCP, QUIC}, built under a plan that
/// makes some cells panic on every pass, so the set has quarantined
/// holes next to surviving cells. `VOTED`'s QUIC+BBR has votes and no
/// stimulus at all.
fn stimuli() -> &'static StimulusSet {
    static SET: OnceLock<StimulusSet> = OnceLock::new();
    SET.get_or_init(|| {
        let sites: Vec<_> = SITES
            .iter()
            .map(|n| catalogue::site(n).expect("site in catalogue"))
            .collect();
        let plan = FaultPlan::parse("seed=3;panic:p=0.6").expect("plan parses");
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
/// invalid, a fifth name a site the stimulus set does not have, and
/// the speed leans on the protocol so that some pairs separate.
fn arb_votes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RatingVote>> {
    let vote = (
        (0usize..3, 0..VOTE_SITES, 0usize..2, 0usize..3, 0usize..3),
        0.0f64..40.0,
        prop::bool::weighted(0.85),
    )
        .prop_map(|((group, site, network, protocol, env), spread, valid)| {
            let speed = 10.0 + spread + 8.0 * protocol as f64;
            RatingVote {
                group: Group::ALL[group],
                participant: 0,
                site,
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

fn assert_same_anova(new: Option<AnovaResult>, old: Option<AnovaResult>) {
    let bits =
        |r: Option<AnovaResult>| r.map(|r| [r.f, r.p, r.df_between, r.df_within].map(f64::to_bits));
    assert_eq!(bits(new), bits(old));
}

proptest! {
    /// Fig. 5's ANOVA: a protocol listed twice, one nobody voted on,
    /// and both the per-network and the all-networks form.
    #[test]
    fn anova_across_protocols_matches_per_protocol_scans(
        votes in arb_votes(0..400),
        env in 0usize..3,
        network in 0usize..3,
        group in 0usize..3,
    ) {
        let protocols = [Protocol::Tcp, Protocol::Quic, Protocol::Tcp, Protocol::H2Edge, Protocol::QuicBbr];
        let (env, group) = (Environment::ALL[env], Group::ALL[group]);
        let network = NETWORKS.get(network).copied();
        for protocols in [&protocols[..], &protocols[..2], &[]] {
            assert_same_anova(
                anova_across_protocols(&votes, env, network, protocols, group),
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
        let pairs = [
            (Protocol::Quic, Protocol::Tcp),
            (Protocol::Quic, Protocol::Quic),
            (Protocol::QuicBbr, Protocol::Quic),
            (Protocol::Tcp, Protocol::H2Edge),
            (Protocol::Tcp, Protocol::QuicBbr),
        ];
        let (network, group) = (NETWORKS[network], Group::ALL[group]);
        let new = per_site_differences(&votes, network, &pairs, group, 0.90, n_sites);
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
    /// cells, votes on sites the set does not have, and a protocol the
    /// set never loaded.
    #[test]
    fn metric_correlation_matches_per_site_scans(
        votes in arb_votes(0..300),
        group in 0usize..3,
        envs in 0usize..4,
    ) {
        let set = stimuli();
        let (group, envs) = (Group::ALL[group], &Environment::ALL[..envs]);
        for network in NETWORKS {
            for protocol in VOTED {
                for metric in Metric::ALL {
                    let new = metric_correlation(&votes, set, network, protocol, metric, group, envs);
                    let old = reference::metric_correlation(
                        &votes, set, network, protocol, metric, group, envs,
                    );
                    prop_assert_eq!(new.map(f64::to_bits), old.map(f64::to_bits));
                }
            }
        }
    }
}

/// The differential properties are vacuous if the random votes never
/// reach a verdict: at the upper end of their sizes each figure
/// function must return something.
#[test]
fn random_votes_reach_every_figure_function() {
    let mut rng = proptest::TestRng::for_case("random_votes_reach_every_figure_function", 0);
    let dense = arb_votes(1500..1501).generate(&mut rng);
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
}
