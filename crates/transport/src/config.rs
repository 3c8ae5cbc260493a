//! The five protocol stack configurations of the paper's Table 1,
//! plus the three edge-deployment rows the `pq-edge` subsystem adds.
//!
//! | Protocol   | Description |
//! |------------|-------------|
//! | TCP        | Stock TCP (Linux): IW10, Cubic |
//! | TCP+       | IW32, pacing, Cubic, tuned buffers, no slow start after idle |
//! | TCP+BBR    | TCP+, but with BBRv1 as congestion control |
//! | QUIC       | Stock Google QUIC: IW32, pacing, Cubic |
//! | QUIC+BBR   | QUIC, but with BBRv1 as congestion control |
//! | QUIC-EDGE  | QUIC client leg terminated at an edge proxy; pooled H2/TCP to origins |
//! | QUIC-MBX   | End-to-end QUIC through a transparent loss-recovery middlebox |
//! | H2-EDGE    | H2-over-TCP+ client leg terminated at the edge proxy |
//!
//! The edge rows are *appended* after the Table-1 five: `Protocol`
//! derives `Ord`, and the canonical grid / study iteration order is
//! the sorted declaration order, so the baseline study digest of the
//! five-stack grid is bit-for-bit unchanged by their existence.

use crate::cc::CcAlgorithm;
use crate::wire::{QUIC_MSS, TCP_MSS};
use pq_sim::NetworkConfig;

/// Which stack a connection runs: the five Table-1 rows, plus the
/// three edge-deployment stacks (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Stock Linux TCP: IW10, Cubic, no pacing, default buffers,
    /// slow-start after idle.
    Tcp,
    /// Tuned TCP: IW32, pacing (quanta 10/2), Cubic, buffers ≥ 2×BDP,
    /// no slow-start after idle.
    TcpPlus,
    /// TCP+ with BBRv1.
    TcpPlusBbr,
    /// Stock gQUIC: IW32, pacing, Cubic.
    Quic,
    /// gQUIC with BBRv1.
    QuicBbr,
    // --- edge stacks (appended: keep the Ord of the Table-1 five) ---
    /// gQUIC from the browser, terminated at an in-sim edge proxy that
    /// speaks pooled H2/TCP+ to replica origins over the backbone.
    QuicEdge,
    /// End-to-end gQUIC with a transparent middlebox on the access
    /// link doing PEMI-style early retransmit from a packet buffer.
    QuicMbx,
    /// H2-over-TCP+ from the browser, terminated at the same edge
    /// proxy (the all-TCP edge deployment).
    H2Edge,
}

impl Protocol {
    /// All five, in Table 1 order.
    pub const ALL: [Protocol; 5] = [
        Protocol::Tcp,
        Protocol::TcpPlus,
        Protocol::TcpPlusBbr,
        Protocol::Quic,
        Protocol::QuicBbr,
    ];

    /// The three edge stacks, in declaration order.
    pub const EDGE: [Protocol; 3] = [Protocol::QuicEdge, Protocol::QuicMbx, Protocol::H2Edge];

    /// All eight stacks: Table 1 followed by the edge rows.
    pub const ALL_WITH_EDGE: [Protocol; 8] = [
        Protocol::Tcp,
        Protocol::TcpPlus,
        Protocol::TcpPlusBbr,
        Protocol::Quic,
        Protocol::QuicBbr,
        Protocol::QuicEdge,
        Protocol::QuicMbx,
        Protocol::H2Edge,
    ];

    /// The A/B study's four protocol pairings (Figure 4's colour
    /// groups): TCP+ vs TCP, QUIC vs TCP, QUIC vs TCP+,
    /// QUIC+BBR vs TCP+BBR.
    pub const AB_PAIRS: [(Protocol, Protocol); 4] = [
        (Protocol::TcpPlus, Protocol::Tcp),
        (Protocol::Quic, Protocol::Tcp),
        (Protocol::Quic, Protocol::TcpPlus),
        (Protocol::QuicBbr, Protocol::TcpPlusBbr),
    ];

    /// The edge extension of Figure 4: each edge stack against the
    /// closest Table-1 stack it wraps, answering "do users notice the
    /// edge?" in isolation from the transport choice.
    pub const EDGE_AB_PAIRS: [(Protocol, Protocol); 3] = [
        (Protocol::QuicEdge, Protocol::Quic),
        (Protocol::QuicMbx, Protocol::Quic),
        (Protocol::H2Edge, Protocol::TcpPlus),
    ];

    /// The A/B pairings (Table-1 plus edge) whose both members are in
    /// `stacks`. With the default five-stack selection this is exactly
    /// [`Protocol::AB_PAIRS`], preserving the baseline study digest.
    pub fn pairs_for(stacks: &[Protocol]) -> Vec<(Protocol, Protocol)> {
        Protocol::AB_PAIRS
            .into_iter()
            .chain(Protocol::EDGE_AB_PAIRS)
            .filter(|(a, b)| stacks.contains(a) && stacks.contains(b))
            .collect()
    }

    /// Paper label (edge stacks follow the same uppercase convention).
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Tcp => "TCP",
            Protocol::TcpPlus => "TCP+",
            Protocol::TcpPlusBbr => "TCP+BBR",
            Protocol::Quic => "QUIC",
            Protocol::QuicBbr => "QUIC+BBR",
            Protocol::QuicEdge => "QUIC-EDGE",
            Protocol::QuicMbx => "QUIC-MBX",
            Protocol::H2Edge => "H2-EDGE",
        }
    }

    /// Inverse of [`Protocol::label`] (used by the `PQ_STACKS` knob).
    pub fn from_label(label: &str) -> Option<Protocol> {
        Protocol::ALL_WITH_EDGE
            .into_iter()
            .find(|p| p.label() == label)
    }

    /// True when the client leg speaks QUIC (H3 object mapping, QUIC
    /// wire format).
    pub fn is_quic(self) -> bool {
        matches!(
            self,
            Protocol::Quic | Protocol::QuicBbr | Protocol::QuicEdge | Protocol::QuicMbx
        )
    }

    /// True for any of the three edge stacks (loads split the path at
    /// a junction, see `pq-web`'s `junction` module).
    pub fn is_edge(self) -> bool {
        matches!(
            self,
            Protocol::QuicEdge | Protocol::QuicMbx | Protocol::H2Edge
        )
    }

    /// True when the stack terminates the client connection at the
    /// edge proxy (second connection leg with independent cc state).
    pub fn is_proxied(self) -> bool {
        matches!(self, Protocol::QuicEdge | Protocol::H2Edge)
    }

    /// True when a transparent middlebox interposes on the access link
    /// without terminating the connection.
    pub fn has_middlebox(self) -> bool {
        matches!(self, Protocol::QuicMbx)
    }

    /// Congestion control algorithm (Table 1).
    pub fn cc(self) -> CcAlgorithm {
        match self {
            Protocol::TcpPlusBbr | Protocol::QuicBbr => CcAlgorithm::Bbr,
            _ => CcAlgorithm::Cubic,
        }
    }

    /// Build the full stack configuration for a given network (tuned
    /// buffers depend on the network's BDP).
    pub fn config(self, net: &NetworkConfig) -> StackConfig {
        // Table 1 has two rows of knobs: stock Linux TCP, and the tuning
        // TCP+ applies to match what gQUIC ships with. Edge client legs
        // mirror the stack they wrap.
        let tuned = self != Protocol::Tcp;
        // Stock buffer model: 128 KiB (a conservative mid-autotuning
        // value); tuned: at least 2×BDP ("we enlarge the send and
        // receive buffers according to the BDP", §3).
        let stock_buffer = 128 * 1024;
        StackConfig {
            protocol: self,
            cc: self.cc(),
            mss: if self.is_quic() { QUIC_MSS } else { TCP_MSS },
            initial_window_segments: if tuned { 32 } else { 10 },
            pacing: tuned,
            slow_start_after_idle: !tuned,
            recv_buffer_bytes: if tuned {
                stock_buffer.max(2 * net.bdp_bytes())
            } else {
                stock_buffer
            },
            // Linux TCP with timestamps fits 3 SACK blocks per ACK; a
            // gQUIC ACK frame advertises its 32 most recent ranges
            // (older holes are permanent: lost packet numbers are
            // never resent) — still an order of magnitude more range
            // feedback than TCP's.
            max_sack_blocks: if self.is_quic() { 32 } else { 3 },
            // Chromium gQUIC ships Cubic in 2-connection emulation
            // (β = 0.85, doubled Reno increase).
            cubic_connections: if self.is_quic() { 2 } else { 1 },
            // The paper evaluates fresh-cache visits: no 0-RTT.
            zero_rtt: false,
        }
    }

    /// The repeat-visit variant of this stack: 0-RTT for QUIC, TFO +
    /// TLS 1.3 early data for the TCP stacks.
    pub fn config_zero_rtt(self, net: &NetworkConfig) -> StackConfig {
        StackConfig {
            zero_rtt: true,
            ..self.config(net)
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Concrete knob settings for one connection.
#[derive(Clone, Copy, Debug)]
pub struct StackConfig {
    /// Which stack this is.
    pub protocol: Protocol,
    /// Congestion control algorithm.
    pub cc: CcAlgorithm,
    /// Maximum segment/stream-frame payload size in bytes.
    pub mss: u64,
    /// Initial congestion window in segments (IW10 vs IW32).
    pub initial_window_segments: u64,
    /// Whether FQ-style pacing is active.
    pub pacing: bool,
    /// Whether the window collapses to IW after an idle period
    /// (`net.ipv4.tcp_slow_start_after_idle`).
    pub slow_start_after_idle: bool,
    /// Receive buffer = the peer-advertised flow-control window.
    pub recv_buffer_bytes: u64,
    /// Max selective-ACK ranges advertised per ACK.
    pub max_sack_blocks: usize,
    /// gQUIC's N-connection Cubic emulation (1 = standard TCP Cubic).
    pub cubic_connections: u32,
    /// Repeat-visit mode: QUIC 0-RTT / TCP TFO + TLS 1.3 early data.
    /// The paper discusses this at length (§3) but tests fresh-cache
    /// visits only; this flag enables the scenario it leaves open.
    /// Request data may leave with the first flight; replay-safety
    /// caveats (§3) are out of scope of the transport model.
    pub zero_rtt: bool,
}

impl StackConfig {
    /// Initial congestion window in bytes.
    pub fn initial_window_bytes(&self) -> u64 {
        self.initial_window_segments * self.mss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_sim::NetworkKind;

    #[test]
    fn table1_rows() {
        let net = NetworkKind::Dsl.config();

        let tcp = Protocol::Tcp.config(&net);
        assert_eq!(tcp.initial_window_segments, 10);
        assert!(!tcp.pacing);
        assert!(tcp.slow_start_after_idle);
        assert_eq!(tcp.cc, CcAlgorithm::Cubic);
        assert_eq!(tcp.max_sack_blocks, 3);

        let tcp_plus = Protocol::TcpPlus.config(&net);
        assert_eq!(tcp_plus.initial_window_segments, 32);
        assert!(tcp_plus.pacing);
        assert!(!tcp_plus.slow_start_after_idle);
        assert_eq!(tcp_plus.cc, CcAlgorithm::Cubic);

        let quic = Protocol::Quic.config(&net);
        assert_eq!(quic.initial_window_segments, 32);
        assert!(quic.pacing);
        assert_eq!(quic.cc, CcAlgorithm::Cubic);
        assert_eq!(quic.max_sack_blocks, 32);

        assert_eq!(Protocol::TcpPlusBbr.config(&net).cc, CcAlgorithm::Bbr);
        assert_eq!(Protocol::QuicBbr.config(&net).cc, CcAlgorithm::Bbr);
    }

    #[test]
    fn labels() {
        let labels: Vec<_> = Protocol::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["TCP", "TCP+", "TCP+BBR", "QUIC", "QUIC+BBR"]);
    }

    #[test]
    fn tuned_buffers_scale_with_bdp() {
        // MSS network: BDP ≈ 180 kB, so tuned > stock 128 KiB.
        let mss_net = NetworkKind::Mss.config();
        let stock = Protocol::Tcp.config(&mss_net);
        let tuned = Protocol::TcpPlus.config(&mss_net);
        assert!(tuned.recv_buffer_bytes > stock.recv_buffer_bytes);
        assert_eq!(tuned.recv_buffer_bytes, 2 * mss_net.bdp_bytes());

        // DSL: 2×BDP = 150 kB > 128 KiB → still BDP-scaled.
        let dsl = NetworkKind::Dsl.config();
        assert_eq!(
            Protocol::TcpPlus.config(&dsl).recv_buffer_bytes,
            2 * dsl.bdp_bytes()
        );
    }

    #[test]
    fn ab_pairs_match_figure4() {
        let labels: Vec<_> = Protocol::AB_PAIRS
            .iter()
            .map(|(a, b)| format!("{} vs. {}", a.label(), b.label()))
            .collect();
        assert_eq!(
            labels,
            vec![
                "TCP+ vs. TCP",
                "QUIC vs. TCP",
                "QUIC vs. TCP+",
                "QUIC+BBR vs. TCP+BBR"
            ]
        );
    }

    #[test]
    fn edge_stacks_append_after_table1() {
        // The Table-1 five keep their labels and declaration order …
        let labels: Vec<_> = Protocol::ALL_WITH_EDGE.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec![
                "TCP",
                "TCP+",
                "TCP+BBR",
                "QUIC",
                "QUIC+BBR",
                "QUIC-EDGE",
                "QUIC-MBX",
                "H2-EDGE"
            ]
        );
        // … and every edge variant sorts after every Table-1 variant,
        // so sorted protocol lists of five-stack grids are unchanged.
        for table1 in Protocol::ALL {
            for edge in Protocol::EDGE {
                assert!(table1 < edge, "{table1} must sort before {edge}");
            }
        }
    }

    #[test]
    fn edge_predicates() {
        assert!(Protocol::QuicEdge.is_quic() && Protocol::QuicMbx.is_quic());
        assert!(!Protocol::H2Edge.is_quic());
        for p in Protocol::ALL {
            assert!(!p.is_edge() && !p.is_proxied() && !p.has_middlebox(), "{p}");
        }
        assert!(Protocol::QuicEdge.is_proxied() && Protocol::H2Edge.is_proxied());
        assert!(!Protocol::QuicMbx.is_proxied());
        assert!(Protocol::QuicMbx.has_middlebox());
    }

    #[test]
    fn from_label_round_trips() {
        for p in Protocol::ALL_WITH_EDGE {
            assert_eq!(Protocol::from_label(p.label()), Some(p));
        }
        assert_eq!(Protocol::from_label("SPDY"), None);
    }

    #[test]
    fn pairs_for_default_matches_figure4() {
        assert_eq!(Protocol::pairs_for(&Protocol::ALL), Protocol::AB_PAIRS);
        let with_edge = Protocol::pairs_for(&Protocol::ALL_WITH_EDGE);
        assert_eq!(with_edge.len(), 7);
        assert_eq!(&with_edge[..4], &Protocol::AB_PAIRS);
        assert_eq!(&with_edge[4..], &Protocol::EDGE_AB_PAIRS);
        // A selection missing the partner drops the pair.
        let only_edge = Protocol::pairs_for(&[Protocol::QuicEdge, Protocol::Quic]);
        assert_eq!(only_edge, vec![(Protocol::QuicEdge, Protocol::Quic)]);
    }

    #[test]
    fn edge_configs_mirror_their_base_stacks() {
        let net = NetworkKind::Dsl.config();
        for p in [Protocol::QuicEdge, Protocol::QuicMbx] {
            let c = p.config(&net);
            let base = Protocol::Quic.config(&net);
            assert_eq!(c.initial_window_segments, base.initial_window_segments);
            assert_eq!(c.mss, base.mss);
            assert_eq!(c.max_sack_blocks, base.max_sack_blocks);
            assert_eq!(c.cc, base.cc);
        }
        let h2e = Protocol::H2Edge.config(&net);
        let base = Protocol::TcpPlus.config(&net);
        assert_eq!(h2e.initial_window_segments, base.initial_window_segments);
        assert_eq!(h2e.mss, base.mss);
        assert_eq!(h2e.max_sack_blocks, base.max_sack_blocks);
    }

    #[test]
    fn iw_bytes() {
        let net = NetworkKind::Lte.config();
        assert_eq!(
            Protocol::Tcp.config(&net).initial_window_bytes(),
            10 * TCP_MSS
        );
        assert_eq!(
            Protocol::Quic.config(&net).initial_window_bytes(),
            32 * QUIC_MSS
        );
    }
}
