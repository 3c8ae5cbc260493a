//! The in-flight log both stacks keep: what was sent, by key.
//!
//! TCP keys a segment by its starting sequence number, QUIC a packet
//! by its packet number. Fresh entries always key above everything
//! already sent, and ACKs retire the oldest ones first, so an ordered
//! map is more than the job needs: a key-ordered deque appends at the
//! back and trims at the front in O(1). An entry ACKed or declared
//! lost in the middle leaves a hole that keeps its key. A TCP
//! retransmission of the same bytes refills it in place, and one that
//! starts elsewhere is inserted at its binary-searched position (rare:
//! only partial SACK coverage splits a segment's bytes); QUIC never
//! reuses a packet number, so all its inserts append.
//!
//! The log knows no loss rule: each stack passes its own to
//! [`SegLog::take_where`] as `pick` (TCP: the SACK cutoff and the RACK
//! watermark; QUIC: the packet and time thresholds).

use std::collections::VecDeque;

/// Entries keyed by a number that fresh entries only grow, ascending.
#[derive(Debug)]
pub(crate) struct SegLog<T> {
    /// Strictly ascending keys; `None` = a hole. The front and back
    /// slots are always occupied, so an empty deque is an empty log.
    slots: VecDeque<(u64, Option<T>)>,
}

impl<T> SegLog<T> {
    pub(crate) fn new() -> Self {
        SegLog {
            slots: VecDeque::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The oldest entry's key.
    pub(crate) fn first(&self) -> Option<u64> {
        self.slots.front().map(|s| s.0)
    }

    /// Index of the first slot keyed at or above `key`.
    fn position(&self, key: u64) -> usize {
        match (self.slots.front(), self.slots.back()) {
            (Some(front), _) if key <= front.0 => 0,
            (_, Some(back)) if key > back.0 => self.slots.len(),
            _ => self.slots.partition_point(|s| s.0 < key),
        }
    }

    /// Log `value` at `key`, replacing whatever is keyed there.
    pub(crate) fn insert(&mut self, key: u64, value: T) {
        if self.slots.back().is_none_or(|back| back.0 < key) {
            self.slots.push_back((key, Some(value)));
            return;
        }
        let i = self.position(key);
        match self.slots.get_mut(i) {
            Some(slot) if slot.0 == key => slot.1 = Some(value),
            _ => self.slots.insert(i, (key, Some(value))),
        }
    }

    /// Take the oldest entry if it is keyed below `below`.
    pub(crate) fn pop_front_below(&mut self, below: u64) -> Option<(u64, T)> {
        if self.slots.front()?.0 >= below {
            return None;
        }
        self.pop_front()
    }

    /// Take the oldest entry.
    pub(crate) fn pop_front(&mut self) -> Option<(u64, T)> {
        let (key, value) = self.slots.pop_front()?;
        self.trim();
        Some((key, value?))
    }

    /// Take every entry keyed in `[from, to)` that `pick` selects,
    /// handing each to `take` in ascending order; holes stay behind.
    pub(crate) fn take_where(
        &mut self,
        from: u64,
        to: u64,
        mut pick: impl FnMut(u64, &T) -> bool,
        mut take: impl FnMut(u64, T),
    ) {
        let first = self.position(from);
        for (key, slot) in self.slots.range_mut(first..) {
            if *key >= to {
                break;
            }
            if slot.as_ref().is_some_and(|v| pick(*key, v)) {
                if let Some(v) = slot.take() {
                    take(*key, v);
                }
            }
        }
        self.trim();
    }

    /// Drop holes off both ends.
    fn trim(&mut self) {
        while self.slots.front().is_some_and(|s| s.1.is_none()) {
            self.slots.pop_front();
        }
        while self.slots.back().is_some_and(|s| s.1.is_none()) {
            self.slots.pop_back();
        }
    }
}

#[cfg(test)]
impl<T> SegLog<T> {
    /// The entry keyed at `key`, if any.
    pub(crate) fn get(&self, key: u64) -> Option<&T> {
        let slot = self.slots.get(self.position(key))?;
        slot.1.as_ref().filter(|_| slot.0 == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// What the log holds, ascending.
    fn entries<T: Copy>(log: &SegLog<T>) -> Vec<(u64, T)> {
        log.slots
            .iter()
            .filter_map(|(s, v)| Some((*s, (*v)?)))
            .collect()
    }

    /// Take what `pick` selects in `[from, to)`, in the order `take` saw it.
    fn taken<T>(
        log: &mut SegLog<T>,
        from: u64,
        to: u64,
        pick: impl FnMut(u64, &T) -> bool,
    ) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        log.take_where(from, to, pick, |k, v| out.push((k, v)));
        out
    }

    #[test]
    fn holes_refill_in_place_and_ends_trim() {
        let mut log = SegLog::new();
        for seq in [0u64, 10, 20, 30] {
            log.insert(seq, seq + 10);
        }
        log.insert(30, 35);
        assert_eq!(log.slots.len(), 4, "a key at the back is replaced");
        assert_eq!(taken(&mut log, 10, 30, |s, _| s == 10), vec![(10, 20)]);
        assert_eq!(log.slots.len(), 4, "a hole in the middle stays");
        assert_eq!(log.get(10), None);
        log.insert(10, 15);
        assert_eq!(log.slots.len(), 4, "the retransmission refills it");
        log.insert(15, 20);
        assert_eq!(
            entries(&log),
            vec![(0, 10), (10, 15), (15, 20), (20, 30), (30, 35)]
        );
        assert_eq!(
            taken(&mut log, 0, 100, |s, _| s != 15),
            vec![(0, 10), (10, 15), (20, 30), (30, 35)],
            "`take` sees entries in ascending order"
        );
        assert_eq!(log.slots.len(), 1, "holes at both ends are trimmed");
        assert_eq!(log.first(), Some(15));
        assert_eq!(log.pop_front_below(15), None);
        assert_eq!(log.pop_front_below(16), Some((15, 20)));
        assert!(log.is_empty());
        assert_eq!(log.first(), None);
        log.insert(50, 1);
        assert_eq!((log.first(), log.get(50)), (Some(50), Some(&1)));
    }

    /// A sent entry: `[key, end)` and a tag.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Seg {
        end: u64,
        tag: u64,
    }

    proptest! {
        /// The log agrees with a `BTreeMap<u64, _>` under the moves
        /// both senders make. TCP's: fresh appends, retransmissions
        /// refilling a hole or landing between entries, the cumulative
        /// ACK's front trim with a partially covered segment
        /// re-inserted at the ACK point, and SACK / loss removals over a
        /// window. QUIC's: consecutive packet numbers, one ACKed
        /// number taken (present or not, anywhere), the oldest taken,
        /// and every entry of an ACK range taken. Both: the RTO's
        /// drain, oldest first.
        #[test]
        fn matches_a_btreemap_scoreboard(
            ops in prop::collection::vec((0u8..14, 0u64..64, 1u64..16), 1..200)
        ) {
            let mut log: SegLog<Seg> = SegLog::new();
            let mut model: BTreeMap<u64, Seg> = BTreeMap::new();
            let mut snd_una = 0u64;
            let mut snd_nxt = 0u64;
            // Bytes out of flight (SACKed or lost) a retransmission may resend.
            let mut gone: Vec<(u64, u64)> = Vec::new();
            let mut want = Vec::new();
            for (op, a, len) in ops {
                match op {
                    // A fresh segment.
                    0..=2 => {
                        let seg = Seg { end: snd_nxt + len, tag: a };
                        log.insert(snd_nxt, seg);
                        model.insert(snd_nxt, seg);
                        snd_nxt += len;
                    }
                    // Retransmit part of bytes that left flight: from
                    // their start (refilling the hole) or from inside.
                    3..=4 => {
                        if let Some(&(start, end)) = gone.get(a as usize % gone.len().max(1)) {
                            let from = if op == 3 { start } else { start + (end - start) / 2 };
                            let to = end.min(from + len);
                            if from < to && from >= snd_una {
                                gone.retain(|&(s, _)| s != start);
                                if to < end {
                                    gone.push((to, end));
                                }
                                if from > start {
                                    gone.push((start, from));
                                }
                                let seg = Seg { end: to, tag: a };
                                log.insert(from, seg);
                                model.insert(from, seg);
                            }
                        }
                    }
                    // The cumulative ACK, as `TcpSender::on_ack` walks it.
                    5..=6 => {
                        let cum = (snd_una + a).min(snd_nxt);
                        loop {
                            let got = log.pop_front_below(cum);
                            let expect = model.first_entry().filter(|e| *e.key() < cum).map(|e| {
                                let start = *e.key();
                                (start, e.remove())
                            });
                            prop_assert_eq!(got, expect);
                            let Some((_, seg)) = got else { break };
                            if seg.end > cum {
                                log.insert(cum, seg);
                                model.insert(cum, seg);
                            }
                        }
                        snd_una = snd_una.max(cum);
                        gone.retain(|&(_, e)| e > snd_una);
                        for g in &mut gone {
                            g.0 = g.0.max(snd_una);
                        }
                    }
                    // Consecutive packet numbers, one key each.
                    9 => {
                        for _ in 0..len {
                            let seg = Seg { end: snd_nxt + 1, tag: a };
                            log.insert(snd_nxt, seg);
                            model.insert(snd_nxt, seg);
                            snd_nxt += 1;
                        }
                    }
                    // Removals: SACK retirement or loss marking over a
                    // window (7, 8), one key in the recent window
                    // (10), the oldest entry (11), a whole ACK range
                    // (12).
                    7 | 8 | 10..=12 => {
                        let (from, to) = match op {
                            10 => (snd_nxt.saturating_sub(a), snd_nxt.saturating_sub(a) + 1),
                            11 => {
                                let first = model.keys().next().copied().unwrap_or(snd_nxt);
                                (first, first + 1)
                            }
                            _ => (snd_una + a.saturating_sub(8), snd_una + a.saturating_sub(8) + 4 * len),
                        };
                        let all = op >= 10;
                        let pick = |s: u64, seg: &Seg| all || !(s ^ seg.tag ^ len).is_multiple_of(3);
                        let out = taken(&mut log, from, to, pick);
                        want.clear();
                        let picked = model.range(from..to).filter(|(s, g)| pick(**s, g));
                        want.extend(picked.map(|(s, g)| (*s, *g)));
                        for (s, _) in &want {
                            model.remove(s);
                        }
                        prop_assert_eq!(&out, &want);
                        gone.extend(out.iter().map(|(s, g)| (*s, g.end)));
                    }
                    // The RTO: everything in flight, oldest first.
                    _ => {
                        while let Some((s, g)) = log.pop_front() {
                            prop_assert_eq!(model.pop_first(), Some((s, g)));
                            gone.push((s, g.end));
                        }
                        prop_assert!(model.is_empty());
                    }
                }
                let want: Vec<(u64, Seg)> = model.iter().map(|(s, g)| (*s, *g)).collect();
                prop_assert_eq!(entries(&log), want);
                prop_assert_eq!(log.is_empty(), model.is_empty());
                prop_assert_eq!(log.first(), model.keys().next().copied());
                for key in snd_nxt.saturating_sub(5)..snd_nxt + 2 {
                    prop_assert_eq!(log.get(key), model.get(&key));
                }
                let starts: Vec<u64> = log.slots.iter().map(|s| s.0).collect();
                prop_assert!(starts.windows(2).all(|w| w[0] < w[1]), "keys ascend: {:?}", starts);
            }
        }
    }
}
