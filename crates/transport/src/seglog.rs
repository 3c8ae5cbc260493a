//! The TCP scoreboard: segments in flight by starting sequence number.
//!
//! Fresh segments always start above everything already sent, and the
//! cumulative ACK retires the oldest ones, so an ordered map is more
//! than the job needs: a start-ordered deque appends at the back and
//! trims at the front in O(1). A segment SACKed or declared lost in
//! the middle leaves a hole that keeps its start; a retransmission of
//! the same bytes refills it in place, and one that starts elsewhere
//! is inserted at its binary-searched position (rare: only partial
//! SACK coverage splits a segment's bytes).

use std::collections::VecDeque;

/// Entries keyed by a start that fresh entries only grow, ascending.
#[derive(Debug)]
pub(crate) struct SegLog<T> {
    /// Strictly ascending starts; `None` = a hole. The front and back
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

    /// Index of the first slot starting at or above `start`.
    fn position(&self, start: u64) -> usize {
        match (self.slots.front(), self.slots.back()) {
            (Some(front), _) if start <= front.0 => 0,
            (_, Some(back)) if start > back.0 => self.slots.len(),
            _ => self.slots.partition_point(|s| s.0 < start),
        }
    }

    /// Log `value` at `start`, replacing whatever starts there.
    pub(crate) fn insert(&mut self, start: u64, value: T) {
        let i = self.position(start);
        match self.slots.get_mut(i) {
            Some(slot) if slot.0 == start => slot.1 = Some(value),
            _ => self.slots.insert(i, (start, Some(value))),
        }
    }

    /// Take the oldest entry if it starts below `below`.
    pub(crate) fn pop_front_below(&mut self, below: u64) -> Option<(u64, T)> {
        if self.slots.front()?.0 >= below {
            return None;
        }
        self.pop_front()
    }

    /// Take the oldest entry.
    pub(crate) fn pop_front(&mut self) -> Option<(u64, T)> {
        let (start, value) = self.slots.pop_front()?;
        self.trim();
        Some((start, value?))
    }

    /// Take every entry starting in `[from, to)` that `pick` selects,
    /// appending them to `out` in ascending order; holes stay behind.
    pub(crate) fn take_where(
        &mut self,
        from: u64,
        to: u64,
        mut pick: impl FnMut(u64, &T) -> bool,
        out: &mut Vec<(u64, T)>,
    ) {
        let first = self.position(from);
        for (start, slot) in self.slots.range_mut(first..) {
            if *start >= to {
                break;
            }
            if slot.as_ref().is_some_and(|v| pick(*start, v)) {
                out.extend(slot.take().map(|v| (*start, v)));
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

    #[test]
    fn holes_refill_in_place_and_ends_trim() {
        let mut log = SegLog::new();
        for seq in [0u64, 10, 20, 30] {
            log.insert(seq, seq + 10);
        }
        let mut out = Vec::new();
        log.take_where(10, 30, |s, _| s == 10, &mut out);
        assert_eq!(out, vec![(10, 20)]);
        assert_eq!(log.slots.len(), 4, "a hole in the middle stays");
        log.insert(10, 15);
        assert_eq!(log.slots.len(), 4, "the retransmission refills it");
        log.insert(15, 20);
        assert_eq!(
            entries(&log),
            vec![(0, 10), (10, 15), (15, 20), (20, 30), (30, 40)]
        );
        out.clear();
        log.take_where(0, 100, |s, _| s != 15, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(log.slots.len(), 1, "holes at both ends are trimmed");
        assert_eq!(log.pop_front_below(15), None);
        assert_eq!(log.pop_front_below(16), Some((15, 20)));
        assert!(log.is_empty());
    }

    /// A TCP sender's segment: `[start, end)` and a tag.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Seg {
        end: u64,
        tag: u64,
    }

    proptest! {
        /// The log agrees with a `BTreeMap<u64, _>` under the moves the
        /// TCP sender makes: fresh appends, retransmissions refilling a
        /// hole or landing between entries, the cumulative ACK's front
        /// trim with a partially covered segment re-inserted at the ACK
        /// point, SACK / loss removals over a window, and the RTO drain.
        #[test]
        fn matches_a_btreemap_scoreboard(
            ops in prop::collection::vec((0u8..10, 0u64..64, 1u64..16), 1..200)
        ) {
            let mut log: SegLog<Seg> = SegLog::new();
            let mut model: BTreeMap<u64, Seg> = BTreeMap::new();
            let mut snd_una = 0u64;
            let mut snd_nxt = 0u64;
            // Bytes out of flight (SACKed or lost) a retransmission may resend.
            let mut gone: Vec<(u64, u64)> = Vec::new();
            let (mut out, mut want) = (Vec::new(), Vec::new());
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
                    // SACK retirement or loss marking over a window.
                    7..=8 => {
                        let from = snd_una + a.saturating_sub(8);
                        let to = from + 4 * len;
                        let pick = |s: u64, seg: &Seg| !(s ^ seg.tag ^ len).is_multiple_of(3);
                        out.clear();
                        log.take_where(from, to, pick, &mut out);
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
                let starts: Vec<u64> = log.slots.iter().map(|s| s.0).collect();
                prop_assert!(starts.windows(2).all(|w| w[0] < w[1]), "starts ascend: {:?}", starts);
            }
        }
    }
}
