//! What `tests/contract_digests.rs` and `tests/determinism.rs` share:
//! the committed contract file and the QUIC-MBX contract run.

use pq_bench::{Experiment, RunSpec};
use pq_sim::NetworkKind;
use pq_study::{run_study_with, StimulusSet};
use pq_transport::Protocol;

/// `results/contract.txt`: one `<run> <key> <value>` line per node of
/// each contract run's [`pq_bench::contract()`] tree.
pub const CONTRACT: &str = include_str!("../../results/contract.txt");

/// The committed tree of `run`, in file order.
pub fn committed(run: &str) -> Vec<(String, String)> {
    CONTRACT
        .lines()
        .filter_map(|line| {
            let (r, node) = line.split_once(' ')?;
            let (key, value) = node.split_once(' ')?;
            (r == run).then(|| (key.to_string(), value.to_string()))
        })
        .collect()
}

/// apache.org and wikipedia.org × `networks` × `stacks` × `runs` page
/// loads at stimulus seed `seed`, through both studies at `study_seed`.
pub fn experiment(
    networks: &[NetworkKind],
    stacks: &[Protocol],
    runs: u32,
    seed: u64,
    study_seed: u64,
) -> Experiment {
    let sites = ["apache.org", "wikipedia.org"].map(|n| pq_web::site(n).expect("corpus site"));
    let stimuli = StimulusSet::build(&sites, networks, stacks, runs, seed);
    let data = run_study_with(&stimuli, &Protocol::pairs_for(stacks), stacks, study_seed);
    Experiment {
        spec: RunSpec {
            seed: study_seed,
            stacks: stacks.to_vec(),
            ..RunSpec::default()
        },
        stimuli,
        data,
    }
}

/// The `quic_mbx` run: DSL and DA2GC × QUIC and QUIC-MBX × 2 runs,
/// stimulus seed 77, study seed 9. The transparent middlebox's early
/// retransmits are pure functions of derived seeds, so its tree holds
/// at every worker count.
pub fn quic_mbx() -> Experiment {
    let stacks = [Protocol::Quic, Protocol::QuicMbx];
    experiment(&[NetworkKind::Dsl, NetworkKind::Da2gc], &stacks, 2, 77, 9)
}
