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
use pq_transport::{QuicFrame, Range, RangeSet, Wire};
use std::collections::VecDeque;

/// A buffered downstream packet.
#[derive(Debug)]
struct Buffered {
    pkt: Packet<Wire>,
    /// Already early-retransmitted (at most once per packet).
    retxed: bool,
}

/// Per-connection observation state.
#[derive(Debug, Default)]
struct Flow {
    /// Packet number of `buf[0]`.
    base: u64,
    /// Buffered downstream packets by packet number, `None` where
    /// nothing is buffered; the front and back slots are occupied.
    buf: VecDeque<Option<Buffered>>,
    buf_bytes: u64,
    /// Last downstream arrival (flowlet clock).
    last_down: Option<SimTime>,
    /// First packet number of the *current* (still open) flowlet;
    /// only packets numbered below it are retransmit candidates.
    flowlet_open_pn: u64,
    /// Highest packet number seen acknowledged so far.
    highest_acked: Option<u64>,
    /// Every buffered packet numbered below it has been early-
    /// retransmitted, so an ACK only looks at the numbers that became
    /// candidates since the last one. A packet buffered below it
    /// lowers it.
    retx_frontier: u64,
    /// Packet numbers acknowledged with nothing buffered at them since
    /// (kept from `base` up): an ACK range re-advertised on every ACK,
    /// long freed, costs one lookup here instead of a walk over its
    /// empty slots.
    acked: RangeSet,
}

impl Flow {
    /// One past the highest slot.
    fn end(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Buffer `pkt` as packet number `pn`, replacing what is there.
    fn insert(&mut self, pn: u64, pkt: Packet<Wire>) {
        if self.buf.is_empty() {
            self.base = pn;
        }
        while pn < self.base {
            self.buf.push_front(None);
            self.base -= 1;
        }
        while self.end() <= pn {
            self.buf.push_back(None);
        }
        let Some(slot) = slot(&mut self.buf, self.base, pn) else {
            return;
        };
        match slot {
            Some(b) => b.pkt = pkt,
            None => {
                *slot = Some(Buffered { pkt, retxed: false });
                self.retx_frontier = self.retx_frontier.min(pn);
                if pn < self.acked.max_end() {
                    self.acked.remove(pn, pn + 1);
                }
            }
        }
    }

    /// Drop the empty slots off both ends.
    fn trim(&mut self) {
        while let Some(None) = self.buf.front() {
            self.buf.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.buf.back() {
            self.buf.pop_back();
        }
    }

    /// Evict the oldest packet numbers while over `cap` bytes.
    fn evict_to(&mut self, cap: u64) {
        while self.buf_bytes > cap {
            let Some(Some(dropped)) = self.buf.pop_front() else {
                break;
            };
            self.base += 1;
            self.buf_bytes = self.buf_bytes.saturating_sub(u64::from(dropped.pkt.size));
            self.trim();
        }
    }

    /// Call `visit` on each buffered packet numbered in `[lo, hi)`
    /// outside `acked`, ascending; one it answers `true` for leaves the
    /// buffer.
    fn for_each_unacked(&mut self, lo: u64, hi: u64, mut visit: impl FnMut(&mut Buffered) -> bool) {
        let (lo, hi) = (lo.max(self.base), hi.min(self.end()));
        if lo >= hi {
            return;
        }
        // The gaps between the `acked` ranges, then the tail up to `hi`.
        let mut from = lo;
        let tail = std::iter::once(Range::new(hi, hi));
        for r in self.acked.overlapping(lo, hi).chain(tail) {
            for pn in from..r.start.min(hi) {
                if let Some(slot) = slot(&mut self.buf, self.base, pn) {
                    if slot.as_mut().is_some_and(&mut visit) {
                        *slot = None;
                    }
                }
            }
            from = from.max(r.end);
        }
    }
}

/// The slot of packet number `pn` in a deque whose front is `base`.
fn slot(buf: &mut VecDeque<Option<Buffered>>, base: u64, pn: u64) -> Option<&mut Option<Buffered>> {
    buf.get_mut(usize::try_from(pn.checked_sub(base)?).ok()?)
}

/// The transparent middlebox: one instance per page load, shared by
/// every connection of the load (state is per-connection inside).
#[derive(Debug)]
pub struct Middlebox {
    buffer_cap: u64,
    reorder_threshold: u64,
    flowlet_gap: SimDuration,
    /// By connection id.
    flows: Vec<Flow>,
    early_retx: u64,
}

impl Middlebox {
    /// Fresh middlebox with the config's buffer and detection knobs.
    pub fn new(cfg: &crate::EdgeConfig) -> Middlebox {
        Middlebox {
            buffer_cap: cfg.mbx_buffer_bytes.max(2048),
            reorder_threshold: cfg.mbx_reorder_threshold.max(1),
            flowlet_gap: cfg.mbx_flowlet_gap,
            flows: Vec::new(),
            early_retx: 0,
        }
    }

    /// The state of connection `conn`, created on first sight.
    fn flow(flows: &mut Vec<Flow>, conn: u32) -> Option<&mut Flow> {
        let i = conn as usize;
        if flows.len() <= i {
            flows.resize_with(i + 1, Flow::default);
        }
        flows.get_mut(i)
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
        let Some(flow) = Self::flow(&mut self.flows, pkt.conn.0) else {
            return;
        };

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
        flow.buf_bytes += u64::from(pkt.size);
        flow.insert(q.pn, pkt.clone());
        // Bounded buffer: evict oldest packet numbers first.
        flow.evict_to(self.buffer_cap);
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
        let Some(flow) = Self::flow(&mut self.flows, pkt.conn.0) else {
            return;
        };

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

        // Free everything acknowledged: only the numbers no earlier ACK
        // cleared, so the ranges re-advertised on every ACK cost a
        // lookup apiece.
        for r in acked_ranges() {
            let from = r.start.max(flow.base);
            if r.end <= from || flow.acked.contains_range(from, r.end) {
                continue;
            }
            let mut freed = 0u64;
            flow.for_each_unacked(from, r.end, |b| {
                freed += u64::from(b.pkt.size);
                true
            });
            flow.buf_bytes = flow.buf_bytes.saturating_sub(freed);
            flow.acked.insert(from, r.end);
        }
        flow.trim();
        flow.acked.remove_below(flow.base);

        // Early retransmit: buffered, unacked, flowlet closed
        // (`pn < flowlet_open_pn`), and enough acknowledged packets
        // above it to rule out reordering (`pn + threshold <=
        // highest_acked`). Each packet retransmits at most once.
        let Some(top) = highest_acked.checked_sub(self.reorder_threshold) else {
            return;
        };
        let below = flow.flowlet_open_pn.min(top.saturating_add(1));
        if below <= flow.retx_frontier {
            return;
        }
        let mut sent = 0u64;
        flow.for_each_unacked(flow.retx_frontier, below, |b| {
            if !b.retxed {
                b.retxed = true;
                retx.push(b.pkt.clone());
                sent += 1;
            }
            false
        });
        flow.retx_frontier = below;
        self.early_retx += sent;
    }

    /// Packets early-retransmitted so far.
    pub fn early_retransmits(&self) -> u64 {
        self.early_retx
    }

    /// Bytes currently buffered for `conn` (test/inspection hook).
    pub fn buffered_bytes(&self, conn: u32) -> u64 {
        self.flows.get(conn as usize).map_or(0, |f| f.buf_bytes)
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

    /// The middlebox as it was written over B-trees: a map from packet
    /// number to buffered packet, a set of retransmitted numbers, and a
    /// full pass over the buffer below the threshold on every ACK. The
    /// flat [`Middlebox`] must do exactly what this does.
    mod btree {
        use pq_sim::{Packet, SimDuration, SimTime};
        use pq_transport::{QuicFrame, Wire};
        use std::collections::{BTreeMap, BTreeSet};

        #[derive(Default)]
        struct Flow {
            buf: BTreeMap<u64, Packet<Wire>>,
            buf_bytes: u64,
            last_down: Option<SimTime>,
            flowlet_open_pn: u64,
            highest_acked: Option<u64>,
            retxed: BTreeSet<u64>,
        }

        pub(super) struct Middlebox {
            buffer_cap: u64,
            reorder_threshold: u64,
            flowlet_gap: SimDuration,
            flows: BTreeMap<u32, Flow>,
            pub(super) early_retx: u64,
        }

        impl Middlebox {
            pub(super) fn new(cfg: &crate::EdgeConfig) -> Middlebox {
                Middlebox {
                    buffer_cap: cfg.mbx_buffer_bytes.max(2048),
                    reorder_threshold: cfg.mbx_reorder_threshold.max(1),
                    flowlet_gap: cfg.mbx_flowlet_gap,
                    flows: BTreeMap::new(),
                    early_retx: 0,
                }
            }

            pub(super) fn on_downlink(&mut self, now: SimTime, pkt: &Packet<Wire>) {
                let Wire::Quic(q) = &pkt.payload else { return };
                if q.from_client {
                    return;
                }
                let flow = self.flows.entry(pkt.conn.0).or_default();
                let gap = flow.last_down.map(|t| now - t).unwrap_or(SimDuration::MAX);
                if gap > self.flowlet_gap {
                    flow.flowlet_open_pn = q.pn;
                }
                flow.last_down = Some(now);
                if !q.ack_eliciting() {
                    return;
                }
                flow.buf.insert(q.pn, pkt.clone());
                flow.buf_bytes += u64::from(pkt.size);
                while flow.buf_bytes > self.buffer_cap {
                    let Some((pn, dropped)) = flow.buf.pop_first() else {
                        break;
                    };
                    flow.buf_bytes = flow.buf_bytes.saturating_sub(u64::from(dropped.size));
                    flow.retxed.remove(&pn);
                }
            }

            pub(super) fn on_uplink(&mut self, pkt: &Packet<Wire>, retx: &mut Vec<Packet<Wire>>) {
                let Wire::Quic(q) = &pkt.payload else { return };
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

            pub(super) fn buffered_bytes(&self, conn: u32) -> u64 {
                self.flows.get(&conn).map_or(0, |f| f.buf_bytes)
            }
        }
    }

    /// A downstream packet of connection `conn`: data, or (`pure`) a
    /// server packet carrying only an ACK, which is never buffered.
    fn down(conn: u32, pn: u64, pure: bool) -> Packet<Wire> {
        let frames = if pure {
            [
                Some(QuicFrame::Ack {
                    ranges: vec![Range::new(0, 1)],
                }),
                None,
            ]
        } else {
            [
                Some(QuicFrame::Stream {
                    id: 5,
                    offset: pn * 1300,
                    len: 1300,
                    fin: false,
                }),
                Some(QuicFrame::Ack {
                    ranges: vec![Range::new(0, 1)],
                }),
            ]
        };
        Packet {
            conn: ConnId(conn),
            size: if pure {
                80
            } else {
                1300 + (pn % 7) as u32 * 10
            },
            payload: Wire::Quic(QuicPacket {
                from_client: false,
                pn,
                frames,
            }),
        }
    }

    /// What an early retransmit is, for comparing the two.
    fn ids(retx: &[Packet<Wire>]) -> Vec<(u32, u32, u64)> {
        retx.iter()
            .map(|p| match &p.payload {
                Wire::Quic(q) => (p.conn.0, p.size, q.pn),
                Wire::Tcp(_) => (p.conn.0, p.size, u64::MAX),
            })
            .collect()
    }

    proptest! {
        /// The flat middlebox against the B-tree one over random
        /// downstream arrival orders (packets reordered, lost and
        /// duplicated on the origin segment, pure ACKs among them,
        /// flowlet gaps or not),
        /// ACK frames of random ranges (re-advertised, out of order,
        /// ahead of the packets they cover, empty), a small buffer that
        /// evicts and two connections: the same early retransmits in
        /// the same order and the same buffered bytes after every step.
        #[test]
        fn flat_state_matches_the_btree_middlebox(
            cap in 0u64..4,
            threshold in 1u64..5,
            ops in prop::collection::vec((0u8..12, 0u64..64, 0u64..16), 1..250),
        ) {
            let cfg = EdgeConfig {
                mbx_buffer_bytes: [4 * 1024, 12 * 1024, 40 * 1024, 256 * 1024][cap as usize],
                mbx_reorder_threshold: threshold,
                ..EdgeConfig::default()
            };
            let mut flat = Middlebox::new(&cfg);
            let mut model = btree::Middlebox::new(&cfg);
            let mut now = SimTime::ZERO;
            // Per connection: the next packet number the origin sends,
            // the packets on the origin segment not yet arrived, and
            // those that did.
            let mut next_pn = [0u64; 2];
            let mut in_flight: [Vec<(u64, bool)>; 2] = [Vec::new(), Vec::new()];
            let mut arrived: [Vec<(u64, bool)>; 2] = [Vec::new(), Vec::new()];
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (op, a, b) in ops {
                let conn = (a % 2) as usize;
                match op {
                    // The origin sends a packet onto its segment.
                    0..=3 => {
                        in_flight[conn].push((next_pn[conn], b.is_multiple_of(5)));
                        next_pn[conn] += 1;
                    }
                    // One of the packets in flight arrives at the
                    // middlebox: usually the oldest, sometimes a later
                    // one (reordering); a long pause closes a flowlet.
                    4..=6 => {
                        if in_flight[conn].is_empty() {
                            continue;
                        }
                        let i = if b < 10 { 0 } else { (a as usize / 2) % in_flight[conn].len() };
                        let (pn, pure) = in_flight[conn].remove(i);
                        arrived[conn].push((pn, pure));
                        now += SimDuration::from_micros(if b == 0 { 20_000 } else { 1 + b * 50 });
                        let pkt = down(conn as u32, pn, pure);
                        flat.on_downlink(now, &pkt);
                        model.on_downlink(now, &pkt);
                    }
                    // Lost on the origin segment: never seen; or a copy
                    // of one already seen is on its way again.
                    7 => {
                        if b.is_multiple_of(2) && !in_flight[conn].is_empty() {
                            let i = (a as usize / 2) % in_flight[conn].len();
                            in_flight[conn].remove(i);
                        } else if b % 2 == 1 && !arrived[conn].is_empty() {
                            let i = (a as usize / 2) % arrived[conn].len();
                            let back = arrived[conn].len() - 1 - i.min(3);
                            in_flight[conn].push(arrived[conn][back]);
                        }
                    }
                    // An ACK frame: up to four ranges around the recent
                    // packet numbers, in whatever order, possibly empty.
                    _ => {
                        let hi = next_pn[conn] + 2;
                        let mut ranges = Vec::new();
                        let mut seed = a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b;
                        for _ in 0..(b % 5) {
                            seed = seed
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let start = (seed >> 33) % hi;
                            let len = 1 + (seed >> 20) % 12;
                            ranges.push(Range::new(start, start + len));
                        }
                        let pkt = Packet {
                            conn: ConnId(conn as u32),
                            size: 80,
                            payload: Wire::Quic(QuicPacket {
                                from_client: true,
                                pn: 1000,
                                frames: [Some(QuicFrame::Ack { ranges }), None],
                            }),
                        };
                        got.clear();
                        want.clear();
                        flat.on_uplink(&pkt, &mut got);
                        model.on_uplink(&pkt, &mut want);
                        prop_assert_eq!(ids(&got), ids(&want));
                    }
                }
                for c in 0..2 {
                    prop_assert_eq!(flat.buffered_bytes(c), model.buffered_bytes(c), "conn {}", c);
                }
                prop_assert_eq!(flat.early_retransmits(), model.early_retx);
            }
        }
    }
}
