//! The transparent loss-recovery middlebox (the PEMI shape).
//!
//! Sits at the junction between the lossy access segment and the
//! clean backbone, observing QUIC packets in both directions without
//! terminating the connection:
//!
//! * **downstream** (origin → client): buffers a bounded window of
//!   ack-eliciting packets and groups them into *flowlets* by
//!   inter-arrival gap — page loads, like the RTC flows PEMI targets,
//!   send in bursts, and that locality is what makes passive loss
//!   inference sound;
//! * **upstream** (client → origin): reads the packet-number ranges
//!   out of returning ACK frames (cleartext in the gQUIC era this
//!   repo models — see DESIGN.md on the sim's wire altitude), infers
//!   which buffered packets the client never received, and
//!   early-retransmits them from the buffer onto the access link,
//!   cutting the recovery RTT from end-to-end to client-side-only.
//!
//! A buffered packet is declared lost only when (a) packets at least
//! [`reorder threshold`](crate::EdgeConfig::mbx_reorder_threshold)
//! numbers above it are already acknowledged *and* (b) its flowlet
//! has closed — both conditions together keep pure reordering from
//! triggering spurious retransmits.

use pq_sim::{Packet, SimDuration, SimTime};
use pq_transport::{QuicFrame, Wire};
use std::collections::{BTreeMap, BTreeSet};

/// Per-connection observation state.
#[derive(Debug, Default)]
struct Flow {
    /// Buffered downstream packets by packet number.
    buf: BTreeMap<u64, Packet<Wire>>,
    buf_bytes: u64,
    /// Last downstream arrival (flowlet clock).
    last_down: Option<SimTime>,
    /// First packet number of the *current* (still open) flowlet;
    /// only packets numbered below it are retransmit candidates.
    flowlet_open_pn: u64,
    /// Highest packet number seen acknowledged so far.
    highest_acked: Option<u64>,
    /// Packet numbers already early-retransmitted (at most once each).
    retxed: BTreeSet<u64>,
}

/// The transparent middlebox: one instance per page load, shared by
/// every connection of the load (state is per-connection inside).
#[derive(Debug)]
pub struct Middlebox {
    buffer_cap: u64,
    reorder_threshold: u64,
    flowlet_gap: SimDuration,
    flows: BTreeMap<u32, Flow>,
    early_retx: u64,
}

impl Middlebox {
    /// Fresh middlebox with the config's buffer and detection knobs.
    pub fn new(cfg: &crate::EdgeConfig) -> Middlebox {
        Middlebox {
            buffer_cap: cfg.mbx_buffer_bytes.max(2048),
            reorder_threshold: cfg.mbx_reorder_threshold.max(1),
            flowlet_gap: cfg.mbx_flowlet_gap,
            flows: BTreeMap::new(),
            early_retx: 0,
        }
    }

    /// Observe a downstream (origin → client) packet crossing the
    /// junction; ack-eliciting QUIC packets are buffered for possible
    /// early retransmit. The packet itself always continues to the
    /// client untouched.
    pub fn on_downlink(&mut self, now: SimTime, pkt: &Packet<Wire>) {
        let Wire::Quic(q) = &pkt.payload else { return };
        if q.from_client {
            return;
        }
        let flow = self.flows.entry(pkt.conn.0).or_default();

        // Flowlet accounting: a long enough inter-arrival gap closes
        // the previous flowlet and opens a new one at this pn.
        let gap = flow.last_down.map(|t| now - t).unwrap_or(SimDuration::MAX);
        if gap > self.flowlet_gap {
            flow.flowlet_open_pn = q.pn;
        }
        flow.last_down = Some(now);

        if !q.ack_eliciting() {
            return;
        }
        let size = u64::from(pkt.size);
        flow.buf.insert(q.pn, pkt.clone());
        flow.buf_bytes += size;
        // Bounded buffer: evict oldest packet numbers first.
        while flow.buf_bytes > self.buffer_cap {
            let Some((pn, dropped)) = flow.buf.pop_first() else {
                break;
            };
            flow.buf_bytes = flow.buf_bytes.saturating_sub(u64::from(dropped.size));
            flow.retxed.remove(&pn);
        }
    }

    /// Observe an upstream (client → origin) packet; ACK frames drive
    /// loss inference. Appends to `retx` the buffered packets to
    /// re-inject onto the client-side downlink (early retransmits), in
    /// packet-number order. The observed packet always continues to
    /// the origin.
    pub fn on_uplink(&mut self, pkt: &Packet<Wire>, retx: &mut Vec<Packet<Wire>>) {
        let Wire::Quic(q) = &pkt.payload else {
            return;
        };
        if !q.from_client {
            return;
        }
        let flow = self.flows.entry(pkt.conn.0).or_default();

        let acked_ranges = || {
            q.frames().flat_map(|f| match f {
                QuicFrame::Ack { ranges } => ranges.as_slice(),
                _ => &[],
            })
        };
        let Some(highest) = acked_ranges().map(|r| r.end.saturating_sub(1)).max() else {
            return;
        };
        flow.highest_acked = Some(flow.highest_acked.map_or(highest, |h| h.max(highest)));
        let highest_acked = flow.highest_acked.unwrap_or(0);

        // Free everything acknowledged — each range's slice of the
        // buffer, so the long tail of ranges retired long ago costs a
        // lookup apiece.
        for r in acked_ranges() {
            let mut from = r.start;
            while from < r.end {
                let Some((&pn, bp)) = flow.buf.range(from..r.end).next() else {
                    break;
                };
                flow.buf_bytes = flow.buf_bytes.saturating_sub(u64::from(bp.size));
                flow.buf.remove(&pn);
                flow.retxed.remove(&pn);
                from = pn + 1;
            }
        }

        // Early retransmit: buffered, unacked, flowlet closed
        // (`pn < flowlet_open_pn`), and enough acknowledged packets
        // above it to rule out reordering (`pn + threshold <=
        // highest_acked`). Each packet retransmits at most once.
        let Some(top) = highest_acked.checked_sub(self.reorder_threshold) else {
            return;
        };
        let below = flow.flowlet_open_pn.min(top.saturating_add(1));
        for (&pn, bp) in flow.buf.range(..below) {
            if flow.retxed.insert(pn) {
                retx.push(bp.clone());
                self.early_retx += 1;
            }
        }
    }

    /// Packets early-retransmitted so far.
    pub fn early_retransmits(&self) -> u64 {
        self.early_retx
    }

    /// Bytes currently buffered for `conn` (test/inspection hook).
    pub fn buffered_bytes(&self, conn: u32) -> u64 {
        self.flows.get(&conn).map_or(0, |f| f.buf_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeConfig;
    use pq_sim::{ConnId, SimDuration};
    use pq_transport::{QuicPacket, Range};
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn data(pn: u64) -> Packet<Wire> {
        Packet {
            conn: ConnId(0),
            size: 1364,
            payload: Wire::Quic(QuicPacket {
                from_client: false,
                pn,
                frames: [
                    Some(QuicFrame::Stream {
                        id: 5,
                        offset: pn * 1300,
                        len: 1300,
                        fin: false,
                    }),
                    None,
                ],
            }),
        }
    }

    fn ack(ranges: Vec<Range>) -> Packet<Wire> {
        Packet {
            conn: ConnId(0),
            size: 80,
            payload: Wire::Quic(QuicPacket {
                from_client: true,
                pn: 1000,
                frames: [Some(QuicFrame::Ack { ranges }), None],
            }),
        }
    }

    fn mbx() -> Middlebox {
        Middlebox::new(&EdgeConfig::default())
    }

    /// `on_uplink` with a fresh buffer: the early retransmits.
    fn uplink(m: &mut Middlebox, pkt: &Packet<Wire>) -> Vec<Packet<Wire>> {
        let mut retx = Vec::new();
        m.on_uplink(pkt, &mut retx);
        retx
    }

    /// Feed pns as one flowlet (1 µs apart), close it with a time
    /// gap, then ack exactly `acked`.
    fn run_case(m: &mut Middlebox, pns: &[u64], acked: Vec<Range>) -> Vec<u64> {
        for (i, &pn) in pns.iter().enumerate() {
            m.on_downlink(t(i as u64), &data(pn));
        }
        // Gap well past the flowlet threshold closes the flowlet.
        let late = t(1_000_000);
        m.on_downlink(late, &data(pns.iter().max().copied().unwrap_or(0) + 50));
        uplink(m, &ack(acked))
            .iter()
            .filter_map(|p| match &p.payload {
                Wire::Quic(q) => Some(q.pn),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn loss_triggers_early_retransmit() {
        let mut m = mbx();
        // pn 2 was lost downstream of the junction: the client acks
        // everything else, with ≥3 packets above pn 2.
        let retx = run_case(
            &mut m,
            &[0, 1, 2, 3, 4, 5, 6],
            vec![Range::new(0, 2), Range::new(3, 7)],
        );
        assert_eq!(retx, vec![2]);
        assert_eq!(m.early_retransmits(), 1);
        // The same ACK pattern again must not retransmit twice.
        let again = uplink(&mut m, &ack(vec![Range::new(0, 2), Range::new(3, 7)]));
        assert!(again.is_empty());
    }

    #[test]
    fn pure_reordering_is_not_loss() {
        let mut m = mbx();
        // Packets arrive reordered but all delivered: the ACK covers
        // every pn, so nothing is a candidate.
        let retx = run_case(&mut m, &[1, 0, 3, 2, 5, 4], vec![Range::new(0, 6)]);
        assert!(retx.is_empty());
        assert_eq!(m.early_retransmits(), 0);
    }

    #[test]
    fn reorder_threshold_guards_small_gaps() {
        let mut m = mbx();
        // pn 4 unacked but only 2 acked packets above it (< threshold
        // 3): still plausibly reordering, no retransmit.
        let retx = run_case(
            &mut m,
            &[0, 1, 2, 3, 4, 5, 6],
            vec![Range::new(0, 4), Range::new(5, 7)],
        );
        assert!(retx.is_empty());
    }

    #[test]
    fn open_flowlet_is_never_retransmitted() {
        let mut m = mbx();
        // All packets 1 µs apart (one open flowlet), ACK arrives with
        // a gap: without flowlet closure there is no retransmit even
        // though the reorder margin is met.
        for (i, pn) in [0u64, 1, 3, 4, 5, 6, 7].iter().enumerate() {
            m.on_downlink(t(i as u64), &data(*pn));
        }
        let retx = uplink(&mut m, &ack(vec![Range::new(0, 2), Range::new(3, 8)]));
        assert!(retx.is_empty(), "open flowlet must not retransmit");
    }

    #[test]
    fn buffer_stays_bounded() {
        let cfg = EdgeConfig {
            mbx_buffer_bytes: 8 * 1024,
            ..EdgeConfig::default()
        };
        let mut m = Middlebox::new(&cfg);
        for pn in 0..100 {
            m.on_downlink(t(pn), &data(pn));
        }
        assert!(m.buffered_bytes(0) <= 8 * 1024);
    }

    #[test]
    fn acked_packets_leave_the_buffer() {
        let mut m = mbx();
        m.on_downlink(t(0), &data(0));
        assert!(m.buffered_bytes(0) > 0);
        uplink(&mut m, &ack(vec![Range::new(0, 1)]));
        assert_eq!(m.buffered_bytes(0), 0);
    }

    proptest! {
        /// Over arbitrary permutations of a delivered packet-number
        /// window, a full-coverage ACK never triggers a retransmit —
        /// reordering alone is not loss.
        #[test]
        fn permutations_without_loss_never_retransmit(
            perm in proptest::collection::vec(0u64..12, 12..13)
        ) {
            let mut m = mbx();
            let retx = run_case(&mut m, &perm, vec![Range::new(0, 13)]);
            prop_assert!(retx.is_empty());
        }

        /// Dropping one packet from a permuted window and acking the
        /// rest retransmits exactly that packet (and nothing else)
        /// once enough higher numbers are acknowledged.
        #[test]
        fn single_loss_is_recovered_exactly_once(
            seed in 0u64..64, lost in 0u64..8
        ) {
            // A deterministic permutation of 0..12 derived from seed.
            let mut pns: Vec<u64> = (0..12).collect();
            let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for i in (1..pns.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                pns.swap(i, (s >> 33) as usize % (i + 1));
            }
            // The middlebox sees every packet — the loss happens on
            // the client-side segment below it — so it buffers all of
            // 0..12 but the client only acks everything except `lost`.
            let mut m = mbx();
            let acked = vec![Range::new(0, lost), Range::new(lost + 1, 13)];
            let retx = run_case(&mut m, &pns, acked.clone());
            prop_assert_eq!(retx, vec![lost]);
            // Replaying the ACK must not duplicate the retransmit.
            let again = uplink(&mut m, &ack(acked));
            prop_assert!(again.is_empty());
        }
    }
}
