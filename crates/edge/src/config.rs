//! Edge knobs and the `PQ_STACKS` stack selection.

use pq_sim::SimDuration;
use pq_transport::Protocol;

/// Tunables of the edge topology and its two network functions.
///
/// Every field has a conservative default, which is what the study
/// grids run with; a caller that wants another cell (pq-perf's PEMI
/// probe, the pool and middlebox tests) fills fields directly and
/// passes the config in `LoadOptions.edge`. The config is bound per
/// page load (never read inside the event loop), so a load's behaviour
/// is a pure function of `(config, derived seed)`.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeConfig {
    /// Pooled H2/TCP connections the proxy keeps per replica origin.
    pub pool_size: u32,
    /// Idle timeout after which an unused pooled connection is
    /// evicted.
    pub idle: SimDuration,
    /// Replica origins per logical origin the proxy load-balances
    /// across.
    pub replicas: u32,
    /// Share of the end-to-end minimum RTT on the client-side path
    /// segment; the rest is backbone.
    pub client_rtt_share: f64,
    /// Backbone bandwidth in bits per second, both directions.
    pub backbone_bps: u64,
    /// Middlebox packet-buffer budget in bytes.
    pub mbx_buffer_bytes: u64,
    /// Packet-number reordering margin before the middlebox declares
    /// a buffered packet lost (the gQUIC kReorderingThreshold shape);
    /// guards against spurious retransmits on pure reordering.
    pub mbx_reorder_threshold: u64,
    /// Downstream inter-arrival gap that closes a flowlet; only
    /// packets of closed flowlets are early-retransmit candidates.
    pub mbx_flowlet_gap: SimDuration,
}

impl Default for EdgeConfig {
    fn default() -> EdgeConfig {
        EdgeConfig {
            pool_size: 2,
            idle: SimDuration::from_millis(10_000),
            replicas: 2,
            client_rtt_share: 0.2,
            backbone_bps: 1_000_000_000,
            mbx_buffer_bytes: 256 * 1024,
            mbx_reorder_threshold: 3,
            mbx_flowlet_gap: SimDuration::from_millis(8),
        }
    }
}

/// The protocol-stack selection from `PQ_STACKS`.
///
/// * unset or `table1` — the paper's five stacks (the default; the
///   committed baseline digest is defined over this selection);
/// * `all` — Table 1 plus the three edge stacks;
/// * `edge` — the three edge stacks plus their A/B partners
///   (QUIC and TCP+), the smallest grid where every edge pair runs;
/// * otherwise — a comma-separated list of stack labels
///   (e.g. `QUIC,QUIC-EDGE`); unknown labels warn via the tracer and
///   are skipped, and an empty result falls back to Table 1.
///
/// The returned list is sorted in canonical (declaration) order and
/// deduplicated, so grid and study iteration order never depends on
/// how the variable was spelled.
pub fn stacks_from_env() -> Vec<Protocol> {
    let Some(raw) = pq_obs::env::var("PQ_STACKS") else {
        return Protocol::ALL.to_vec();
    };
    let mut stacks: Vec<Protocol> = match raw.trim() {
        "" | "table1" => Protocol::ALL.to_vec(),
        "all" => Protocol::ALL_WITH_EDGE.to_vec(),
        "edge" => {
            let mut v = vec![Protocol::Quic, Protocol::TcpPlus];
            v.extend(Protocol::EDGE);
            v
        }
        list => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .filter_map(|label| {
                let p = Protocol::from_label(label);
                if p.is_none() {
                    pq_obs::tracer().warn(
                        "edge",
                        format!("unknown stack {label:?} in PQ_STACKS; skipping it"),
                    );
                }
                p
            })
            .collect(),
    };
    if stacks.is_empty() {
        pq_obs::tracer().warn(
            "edge",
            format!("PQ_STACKS={raw:?} selected no stacks; defaulting to table1"),
        );
        return Protocol::ALL.to_vec();
    }
    stacks.sort_unstable();
    stacks.dedup();
    stacks
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Env-mutating tests share one process; serialize them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn defaults_are_sane() {
        let d = EdgeConfig::default();
        assert!(d.pool_size > 0 && d.replicas > 0);
        assert!(d.client_rtt_share > 0.0 && d.client_rtt_share < 1.0);
        assert!(d.mbx_reorder_threshold >= 1);
    }

    #[test]
    fn stacks_selection() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var("PQ_STACKS");
        assert_eq!(stacks_from_env(), Protocol::ALL.to_vec());

        std::env::set_var("PQ_STACKS", "all");
        assert_eq!(stacks_from_env(), Protocol::ALL_WITH_EDGE.to_vec());

        std::env::set_var("PQ_STACKS", "edge");
        assert_eq!(
            stacks_from_env(),
            vec![
                Protocol::TcpPlus,
                Protocol::Quic,
                Protocol::QuicEdge,
                Protocol::QuicMbx,
                Protocol::H2Edge
            ]
        );

        // Explicit lists are canonicalized: sorted, deduplicated.
        std::env::set_var("PQ_STACKS", "QUIC-EDGE,QUIC,QUIC-EDGE,bogus");
        assert_eq!(stacks_from_env(), vec![Protocol::Quic, Protocol::QuicEdge]);

        // All-unknown lists fall back to Table 1.
        std::env::set_var("PQ_STACKS", "bogus");
        assert_eq!(stacks_from_env(), Protocol::ALL.to_vec());
        std::env::remove_var("PQ_STACKS");
    }
}
