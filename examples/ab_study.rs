//! Run a miniature A/B (just-noticeable-difference) study end to end:
//! build stimuli for a few sites, recruit the three subject groups,
//! apply the R1–R7 conformance filters and print the vote shares —
//! Study 1 of the paper in one binary.
//!
//! ```sh
//! cargo run --release --example ab_study
//! ```

use perceiving_quic::prelude::*;
use perceiving_quic::study::{ab_shares, population, run_ab_study, AbVotes, Funnel, StudyKind};

fn main() {
    let sites: Vec<Website> = ["wikipedia.org", "gov.uk", "apache.org", "spotify.com"]
        .iter()
        .map(|n| web::site(n).expect("corpus site"))
        .collect();
    let networks = [NetworkKind::Dsl, NetworkKind::Mss];
    let pair = (Protocol::Quic, Protocol::Tcp);

    println!("building stimuli (4 sites × 2 networks × 2 stacks × 7 runs)…");
    let stimuli = StimulusSet::build(&sites, &networks, &[Protocol::Quic, Protocol::Tcp], 7, 2024);

    for group in Group::ALL {
        let sessions = population(StudyKind::AB, group, 2024);
        let records: Vec<_> = sessions.iter().map(|s| s.conformance).collect();
        let funnel = Funnel::apply(&records);
        println!(
            "\n{group}: {} recruited → {} survive R1–R7",
            funnel.recruited,
            funnel.survivors()
        );
        let mut votes = Vec::new();
        run_ab_study(
            &stimuli,
            &sessions,
            &[pair],
            &[0, 1, 2, 3],
            &networks,
            2024,
            &mut votes,
        );
        let votes = AbVotes::from(votes);
        for network in networks {
            if let Some(s) = ab_shares(&votes, network, pair, &[group]) {
                println!(
                    "  {:<5} QUIC {:>4.0}% | no diff {:>4.0}% | TCP {:>4.0}%   (n={}, replays {:.2})",
                    network.name(),
                    s.first * 100.0,
                    s.no_diff * 100.0,
                    s.second * 100.0,
                    s.n,
                    s.avg_replays
                );
            }
        }
    }
    println!("\nExpected shape (paper §4.3): differences are hard to see on DSL");
    println!("and obvious on MSS, where QUIC is clearly preferred.");
}
