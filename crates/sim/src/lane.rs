//! What is already in order skips the heap.
//!
//! A [`Link`] serializes one packet at a time and delays every packet
//! by the same amount, so it never has more than one tx-done callback
//! pending and its packets arrive in the order they left. A [`Lane`]
//! keeps exactly that — one stamp and a FIFO of packets in propagation —
//! next to the link, and the run loop merges the lanes' heads with the
//! [`EventQueue`]'s top by [`Stamp`] ([`earliest`]). The stamps are the
//! `(time, seq)` keys `schedule` would have given the same events at the
//! same program points, so the merged order *is* the single-heap order,
//! tie-breaks included, while packets never enter the heap's slab.

use crate::event::{EventQueue, Stamp};
use crate::link::{Link, PushOutcome};
use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::VecDeque;

/// What a lane fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneEvent {
    /// The link finished serializing a packet.
    TxDone,
    /// A packet reached the far end.
    Arrival,
}

/// Where the next event of a run comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The event queue's heap: [`EventQueue::pop`] it.
    Heap,
    /// Lane `.0` of the slice given to [`earliest`]:
    /// [`EventQueue::advance`] to the stamp, then fire the lane.
    Lane(usize, LaneEvent),
}

/// One link direction and the events it has pending.
#[derive(Debug)]
pub struct Lane<P> {
    link: Link<P>,
    /// The link's one pending tx-done callback.
    tx_done: Option<Stamp>,
    /// Packets in propagation, in stamp order.
    flying: VecDeque<(Stamp, Packet<P>)>,
}

impl<P> Lane<P> {
    /// A lane around an idle `link`.
    pub fn new(link: Link<P>) -> Self {
        debug_assert!(!link.is_busy(), "lane around a transmitting link");
        Lane {
            link,
            tx_done: None,
            flying: VecDeque::new(),
        }
    }

    /// The least pending stamp and what fires under it.
    fn head(&self) -> Option<(Stamp, LaneEvent)> {
        let tx = self.tx_done.map(|s| (s, LaneEvent::TxDone));
        let arrival = self.flying.front().map(|(s, _)| (*s, LaneEvent::Arrival));
        match (tx, arrival) {
            (Some(t), Some(a)) => Some(if t.0 < a.0 { t } else { a }),
            (t, a) => t.or(a),
        }
    }

    /// Note the pending tx-done callback. A link has at most one.
    fn arm(&mut self, stamp: Stamp) {
        debug_assert!(self.tx_done.is_none(), "second tx-done pending on a lane");
        self.tx_done = Some(stamp);
    }

    /// Put `pkt` into propagation, due at `stamp`. Walks from the back
    /// to keep stamp order: zero steps on a constant-delay link, and a
    /// link that reorders or jitters needs no second path.
    pub fn insert(&mut self, stamp: Stamp, pkt: Packet<P>) {
        let later = self.flying.iter().rev().take_while(|(s, _)| *s > stamp);
        match later.count() {
            0 => self.flying.push_back((stamp, pkt)),
            n => self.flying.insert(self.flying.len() - n, (stamp, pkt)),
        }
    }

    /// Offer `pkt` to the link at `now`; a transmission that starts
    /// takes its tx-done stamp from `q`, where the owner of a bare
    /// [`Link`] would `schedule` the callback.
    pub fn push<E>(&mut self, q: &mut EventQueue<E>, now: SimTime, pkt: Packet<P>) -> PushOutcome {
        let outcome = self.link.push(now, pkt);
        if let PushOutcome::StartedTx(done) = outcome {
            self.arm(q.stamp(done));
        }
        outcome
    }

    /// Fire the pending tx-done at `now`: a surviving packet goes into
    /// propagation, the next queued one starts serializing — stamped in
    /// that order. `false` when loss destroyed the packet.
    pub fn on_tx_done<E>(&mut self, q: &mut EventQueue<E>, now: SimTime) -> bool {
        let fired = self.tx_done.take();
        debug_assert!(fired.is_some(), "tx-done fired on an idle lane");
        let txd = self.link.on_tx_done(now);
        let delivered = txd.delivery.is_some();
        if let Some((at, pkt)) = txd.delivery {
            self.insert(q.stamp(at), pkt);
        }
        if let Some(next) = txd.next_tx_done {
            self.arm(q.stamp(next));
        }
        delivered
    }

    /// Take the packet at the head of propagation.
    pub fn pop_arrival(&mut self) -> Option<Packet<P>> {
        self.flying.pop_front().map(|(_, pkt)| pkt)
    }
}

/// The least stamp among the heap top and every lane head, and where it
/// sits. Stamps are unique, so there is exactly one answer.
pub fn earliest<E, P>(q: &EventQueue<E>, lanes: &[Lane<P>]) -> Option<(Stamp, Source)> {
    let mut best = q.peek().map(|s| (s, Source::Heap));
    for (i, lane) in lanes.iter().enumerate() {
        if let Some((stamp, what)) = lane.head() {
            if best.is_none_or(|(b, _)| stamp < b) {
                best = Some((stamp, Source::Lane(i, what)));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::packet::ConnId;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    /// 12 Mbps (a 1500-byte packet per millisecond), 10 ms one way.
    fn lane() -> Lane<u32> {
        let cfg = LinkConfig::with_queue_ms(12_000_000, SimDuration::from_millis(10), 0.0, 200);
        Lane::new(Link::new(cfg, SimRng::new(1)))
    }

    fn pkt(id: u32) -> Packet<u32> {
        Packet::new(ConnId(0), 1500, id)
    }

    /// Fire whatever `earliest` names; `(ms, what, packet id)`.
    fn fire(q: &mut EventQueue<()>, lanes: &mut [Lane<u32>]) -> Option<(u64, LaneEvent, u32)> {
        let (stamp, Source::Lane(i, what)) = earliest(q, lanes)? else {
            panic!("no timers in this test");
        };
        q.advance(stamp);
        let lane = lanes.get_mut(i)?;
        let id = match what {
            LaneEvent::TxDone => u32::from(lane.on_tx_done(q, stamp.time())),
            LaneEvent::Arrival => lane.pop_arrival()?.payload,
        };
        Some((stamp.time().as_nanos() / 1_000_000, what, id))
    }

    #[test]
    fn a_lane_fires_what_a_scheduled_link_would() {
        let mut q = EventQueue::new();
        let mut lanes = [lane()];
        let [l] = &mut lanes;
        assert!(matches!(
            l.push(&mut q, SimTime::ZERO, pkt(7)),
            PushOutcome::StartedTx(_)
        ));
        assert_eq!(l.push(&mut q, SimTime::ZERO, pkt(8)), PushOutcome::Queued);
        let fired: Vec<_> = std::iter::from_fn(|| fire(&mut q, &mut lanes)).collect();
        use LaneEvent::{Arrival, TxDone};
        assert_eq!(
            fired,
            [
                (1, TxDone, 1),
                (2, TxDone, 1),
                (11, Arrival, 7),
                (12, Arrival, 8)
            ]
        );
        assert_eq!((q.processed(), q.now()), (4, SimTime::from_millis(12)));
    }

    #[test]
    fn insert_keeps_stamp_order_whatever_order_packets_come_in() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut lanes = [lane()];
        let [l] = &mut lanes;
        for (id, ms) in [(0, 30), (1, 10), (2, 20), (3, 10), (4, 40)] {
            l.insert(q.stamp(SimTime::from_millis(ms)), pkt(id));
        }
        let fired: Vec<_> = std::iter::from_fn(|| fire(&mut q, &mut lanes)).collect();
        let order: Vec<_> = fired.iter().map(|f| (f.0, f.2)).collect();
        assert_eq!(order, [(10, 1), (10, 3), (20, 2), (30, 0), (40, 4)]);
    }
}
