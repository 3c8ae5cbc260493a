//! Edge knobs.

use pq_sim::SimDuration;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let d = EdgeConfig::default();
        assert!(d.pool_size > 0 && d.replicas > 0);
        assert!(d.client_rtt_share > 0.0 && d.client_rtt_share < 1.0);
        assert!(d.mbx_reorder_threshold >= 1);
    }
}
