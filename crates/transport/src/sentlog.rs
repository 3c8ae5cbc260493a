//! The QUIC sent-packet log: outstanding packets by packet number.
//!
//! Packet numbers are handed out consecutively and never reused, and
//! packets leave the log roughly in the order they entered it (ACKed
//! or declared lost), so an ordered map is more than the job needs: a
//! deque of slots offset by the oldest outstanding number finds,
//! removes and appends in O(1) and allocates only when it grows.

use std::collections::VecDeque;

/// Outstanding packets keyed by packet number, oldest first.
#[derive(Debug)]
pub(crate) struct SentLog<T> {
    /// Packet number of `slots[0]`.
    base: u64,
    /// `None` = already removed. The front slot is always occupied, so
    /// `base` is the oldest outstanding packet number.
    slots: VecDeque<Option<T>>,
}

impl<T> SentLog<T> {
    pub(crate) fn new() -> Self {
        SentLog {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// The oldest outstanding packet number ([`SentLog::end`] when
    /// nothing is outstanding).
    pub(crate) fn first_pn(&self) -> u64 {
        self.base
    }

    /// One past the newest packet number ever logged; removals never
    /// move it.
    pub(crate) fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Log `pn`, which must be at or above [`SentLog::end`] (packet
    /// numbers only grow); a lower one is ignored.
    pub(crate) fn push(&mut self, pn: u64, packet: T) {
        if pn < self.end() {
            debug_assert!(false, "packet number reused");
            return;
        }
        if self.slots.is_empty() {
            self.base = pn;
        }
        // Skipped numbers (none in practice) become removed slots.
        for _ in self.end()..pn {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(packet));
    }

    fn index(&self, pn: u64) -> Option<usize> {
        usize::try_from(pn.checked_sub(self.base)?).ok()
    }

    pub(crate) fn get(&self, pn: u64) -> Option<&T> {
        self.slots.get(self.index(pn)?)?.as_ref()
    }

    /// Take `pn` out of the log, if it is outstanding.
    pub(crate) fn remove(&mut self, pn: u64) -> Option<T> {
        let i = self.index(pn)?;
        let packet = self.slots.get_mut(i)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// What is outstanding, oldest first, the way the endpoint walks
    /// the log: every packet number from the first to the end.
    fn outstanding(log: &SentLog<u64>) -> Vec<(u64, u64)> {
        (log.first_pn()..log.end())
            .filter_map(|pn| Some((pn, *log.get(pn)?)))
            .collect()
    }

    #[test]
    fn front_trims_to_the_oldest_outstanding() {
        let mut log = SentLog::new();
        for pn in 1..=5u64 {
            log.push(pn, pn * 10);
        }
        assert_eq!((log.first_pn(), log.end()), (1, 6));
        assert_eq!(log.remove(3), Some(30), "hole in the middle");
        assert_eq!(log.first_pn(), 1);
        assert_eq!(log.remove(1), Some(10));
        assert_eq!(log.first_pn(), 2);
        assert_eq!(log.remove(2), Some(20));
        assert_eq!(log.first_pn(), 4, "trimming skips the hole at 3");
        assert_eq!(log.remove(3), None, "already gone");
        assert_eq!(log.remove(0), None, "below the base");
        assert_eq!(log.remove(9), None, "never sent");
        assert_eq!(outstanding(&log), vec![(4, 40), (5, 50)]);
        assert_eq!(log.remove(5), Some(50));
        assert_eq!(log.remove(4), Some(40));
        assert_eq!((log.first_pn(), log.end()), (6, 6), "end survives");
        log.push(6, 60);
        assert_eq!(log.get(6), Some(&60));
    }

    proptest! {
        /// The log agrees with a `BTreeMap<u64, _>` under any mix of
        /// consecutive inserts, removals anywhere (middle, front,
        /// absent), and remove-everything (the RTO path): same
        /// answers, same first key, same iteration order.
        #[test]
        fn matches_a_btreemap_model(ops in prop::collection::vec((0u8..8, 0u64..40), 1..300)) {
            let mut log: SentLog<u64> = SentLog::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next_pn = 1u64;
            for (op, arg) in ops {
                match op {
                    // Insert the next packet number (weighted: logs grow).
                    0..=3 => {
                        log.push(next_pn, next_pn ^ arg);
                        model.insert(next_pn, next_pn ^ arg);
                        next_pn += 1;
                    }
                    // Remove somewhere in the recent window, present or not.
                    4..=5 => {
                        let pn = next_pn.saturating_sub(arg);
                        prop_assert_eq!(log.remove(pn), model.remove(&pn));
                    }
                    // Remove the oldest outstanding (front trimming).
                    6 => {
                        if let Some(pn) = model.keys().next().copied() {
                            prop_assert_eq!(log.first_pn(), pn);
                            prop_assert_eq!(log.remove(pn), model.remove(&pn));
                        }
                    }
                    // Declare everything lost, oldest first, as an RTO does.
                    _ => {
                        let drained: Vec<(u64, u64)> = (log.first_pn()..log.end())
                            .filter_map(|pn| Some((pn, log.remove(pn)?)))
                            .collect();
                        let expect: Vec<(u64, u64)> =
                            std::mem::take(&mut model).into_iter().collect();
                        prop_assert_eq!(drained, expect);
                    }
                }
                if next_pn > 1 {
                    prop_assert_eq!(log.end(), next_pn);
                }
                prop_assert_eq!(
                    log.first_pn(),
                    model.keys().next().copied().unwrap_or(log.end())
                );
                let want: Vec<(u64, u64)> = model.iter().map(|(pn, v)| (*pn, *v)).collect();
                prop_assert_eq!(outstanding(&log), want);
                for pn in next_pn.saturating_sub(5)..next_pn + 2 {
                    prop_assert_eq!(log.get(pn), model.get(&pn));
                }
            }
        }
    }
}
