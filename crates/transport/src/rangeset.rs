//! An ordered set of non-overlapping, non-adjacent `u64` ranges.
//!
//! This is the workhorse behind three different mechanisms the paper's
//! analysis leans on (§4.3: "we suspect that QUIC's large SACK ranges
//! enable it to progress further"):
//!
//! * the TCP receiver's out-of-order store (whence SACK blocks),
//! * QUIC's ACK-frame ranges (the 32 most recent, against TCP's 3 SACK blocks),
//! * stream reassembly buffers on both transports.

use std::fmt;

/// A half-open interval `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Range {
    /// Inclusive start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
}

impl Range {
    /// Construct; empty/inverted inputs yield an empty range.
    pub fn new(start: u64, end: u64) -> Range {
        Range {
            start,
            end: end.max(start),
        }
    }

    /// Number of values covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True when `v` lies inside.
    pub fn contains(&self, v: u64) -> bool {
        (self.start..self.end).contains(&v)
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Ordered, coalesced set of ranges.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    // Invariant: sorted by start; no two ranges overlap or touch.
    ranges: Vec<Range>,
}

impl RangeSet {
    /// The empty set.
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// Insert `[start, end)`, merging with any overlapping or adjacent
    /// ranges. Returns the number of *newly covered* values (0 when the
    /// interval was already fully present).
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        if end <= start {
            return 0;
        }
        // Tail paths: received packet numbers, ACKed stream bytes and
        // in-order data almost always land at or beyond the last range.
        match self.ranges.last_mut() {
            None => {
                self.ranges.push(Range { start, end });
                return end - start;
            }
            Some(last) if start > last.end => {
                self.ranges.push(Range { start, end });
                return end - start;
            }
            // Only the last range can interact: every earlier one ends
            // below `last.start`.
            Some(last) if start >= last.start => {
                let newly = end.saturating_sub(last.end.max(start));
                last.end = last.end.max(end);
                return newly;
            }
            Some(_) => {}
        }
        // General path: ranges `i..j` overlap or touch `[start, end)`.
        let i = self.ranges.partition_point(|r| r.end < start);
        let mut merged = Range { start, end };
        let mut covered_before = 0u64;
        let mut j = i;
        for r in self.ranges.iter().skip(i).take_while(|r| r.start <= end) {
            covered_before += r.end.min(end).saturating_sub(r.start.max(start));
            merged.start = merged.start.min(r.start);
            merged.end = merged.end.max(r.end);
            j += 1;
        }
        match self.ranges.get_mut(i) {
            Some(first) if i < j => {
                *first = merged;
                self.ranges.drain(i + 1..j);
            }
            _ => self.ranges.insert(i, merged),
        }
        (end - start) - covered_before
    }

    /// Remove every value below `below` (e.g. advance past a cumulative
    /// ACK point).
    pub fn remove_below(&mut self, below: u64) {
        let gone = self.ranges.partition_point(|r| r.end <= below);
        self.ranges.drain(..gone);
        if let Some(first) = self.ranges.first_mut() {
            first.start = first.start.max(below);
        }
    }

    /// Remove the interval `[start, end)` wherever covered.
    pub fn remove(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        // Ranges `i..j` overlap `[start, end)`.
        let i = self.ranges.partition_point(|r| r.end <= start);
        let j = i + self
            .ranges
            .iter()
            .skip(i)
            .take_while(|r| r.start < end)
            .count();
        if i == j {
            return;
        }
        let (Some(&first), Some(&last)) = (self.ranges.get(i), self.ranges.get(j - 1)) else {
            return;
        };
        // What survives: the first range's part below `start` and the
        // last range's part from `end` up.
        let left = (first.start < start).then_some(Range {
            start: first.start,
            end: start,
        });
        let right = (last.end > end).then_some(Range {
            start: end,
            end: last.end,
        });
        match (left, right) {
            (Some(l), Some(r)) if j - i == 1 => {
                // One range split in two: the only growing case.
                if let Some(slot) = self.ranges.get_mut(i) {
                    *slot = l;
                }
                self.ranges.insert(i + 1, r);
            }
            _ => {
                let mut keep = i;
                for part in [left, right].into_iter().flatten() {
                    if let Some(slot) = self.ranges.get_mut(keep) {
                        *slot = part;
                    }
                    keep += 1;
                }
                self.ranges.drain(keep..j);
            }
        }
    }

    /// True when `v` is covered.
    pub fn contains(&self, v: u64) -> bool {
        // At or past the top — an in-order arrival — there is nothing
        // to search.
        if v >= self.max_end() {
            return false;
        }
        let i = self.ranges.partition_point(|r| r.end <= v);
        self.ranges.get(i).is_some_and(|r| r.contains(v))
    }

    /// True when the whole interval `[start, end)` is covered by a
    /// single range.
    pub fn contains_range(&self, start: u64, end: u64) -> bool {
        if end <= start {
            return true;
        }
        let i = self.ranges.partition_point(|r| r.end <= start);
        self.ranges
            .get(i)
            .is_some_and(|r| r.start <= start && r.end >= end)
    }

    /// Total number of values covered.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(Range::len).sum::<u64>()
    }

    /// Number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterate over ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Range> + '_ {
        self.ranges.iter().copied()
    }

    /// The ranges that overlap `[start, end)`, ascending, untrimmed.
    pub fn overlapping(&self, start: u64, end: u64) -> impl Iterator<Item = Range> + '_ {
        let first = self.ranges.partition_point(|r| r.end <= start);
        self.ranges
            .iter()
            .skip(first)
            .take_while(move |r| r.start < end)
            .copied()
    }

    /// Where the top of the set begins, if the top is the fewest
    /// highest ranges that together cover at least `count` values:
    /// the start of the lowest of them. The ranges starting at or
    /// above a value `v` cover at least `count` exactly when `v` is at
    /// or below this start. `None` when the whole set covers less.
    pub fn start_of_top(&self, count: u64) -> Option<u64> {
        if count == 0 {
            return Some(u64::MAX); // nothing to cover: true for every `v`
        }
        let mut covered = 0u64;
        let lowest = self.ranges.iter().rev().find(|r| {
            covered += r.len();
            covered >= count
        })?;
        Some(lowest.start)
    }

    /// The highest covered value + 1, or 0 when empty.
    pub fn max_end(&self) -> u64 {
        self.ranges.last().map_or(0, |r| r.end)
    }

    /// Given a cumulative position `cum`, return how far it can advance
    /// through contiguously covered values starting at `cum`.
    pub fn advance_from(&self, cum: u64) -> u64 {
        let i = self.ranges.partition_point(|r| r.end < cum);
        match self.ranges.get(i) {
            Some(r) if r.start <= cum => r.end.max(cum),
            _ => cum,
        }
    }

    /// Fill `out` (cleared first) with the `n` ranges with the highest
    /// starts (most recently useful for SACK blocks / ACK ranges),
    /// descending by start. A buffer that already held an ACK's
    /// ranges has the capacity for the next one's.
    pub fn highest_into(&self, n: usize, out: &mut Vec<Range>) {
        let top = self.ranges.len().saturating_sub(n);
        let top = self.ranges.get(top..).unwrap_or_default();
        out.clear();
        out.extend(top.iter().rev().copied());
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for w in self.ranges.windows(2) {
            assert!(
                w[0].end < w[1].start,
                "ranges must be disjoint and non-adjacent: {self:?}"
            );
        }
        for r in &self.ranges {
            assert!(r.start < r.end, "empty range stored: {self:?}");
        }
    }
}

impl fmt::Debug for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_disjoint() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(10, 20), 10);
        assert_eq!(s.insert(30, 40), 10);
        assert_eq!(s.len(), 2);
        assert_eq!(s.covered(), 20);
        s.check_invariants();
    }

    #[test]
    fn insert_overlapping_merges() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        assert_eq!(s.insert(15, 25), 5, "only 20..25 is new");
        assert_eq!(s.len(), 1);
        assert_eq!(s.covered(), 15);
        s.check_invariants();
    }

    #[test]
    fn insert_adjacent_coalesces() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(20, 30);
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(s.contains_range(10, 30));
        s.check_invariants();
    }

    #[test]
    fn insert_bridging_gap() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        s.insert(40, 50);
        assert_eq!(s.insert(5, 45), 20, "fills two 10-wide gaps");
        assert_eq!(s.len(), 1);
        assert_eq!(s.covered(), 50);
        s.check_invariants();
    }

    #[test]
    fn duplicate_insert_adds_nothing() {
        let mut s = RangeSet::new();
        s.insert(5, 15);
        assert_eq!(s.insert(5, 15), 0);
        assert_eq!(s.insert(7, 9), 0);
        assert_eq!(s.covered(), 10);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(5, 5), 0);
        assert_eq!(s.insert(9, 3), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn contains_and_membership() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(9));
        assert!(s.contains_range(12, 18));
        assert!(!s.contains_range(12, 25));
        assert!(s.contains_range(3, 3), "empty interval trivially covered");
    }

    #[test]
    fn remove_below_trims() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        s.remove_below(25);
        assert_eq!(s.len(), 1);
        assert!(s.contains_range(25, 30));
        assert!(!s.contains(24));
        s.check_invariants();
    }

    #[test]
    fn remove_splits() {
        let mut s = RangeSet::new();
        s.insert(0, 100);
        s.remove(40, 60);
        assert_eq!(s.len(), 2);
        assert!(s.contains_range(0, 40));
        assert!(s.contains_range(60, 100));
        assert!(!s.contains(50));
        s.check_invariants();
    }

    #[test]
    fn advance_from_walks_contiguous() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(25, 30);
        assert_eq!(s.advance_from(0), 0, "gap before first range");
        assert_eq!(s.advance_from(10), 20);
        assert_eq!(s.advance_from(15), 20);
        assert_eq!(s.advance_from(20), 20, "20 itself not covered");
        assert_eq!(s.advance_from(25), 30);
    }

    #[test]
    fn highest_returns_descending() {
        let mut s = RangeSet::new();
        s.insert(0, 5);
        s.insert(10, 15);
        s.insert(20, 25);
        let mut top = vec![Range::new(90, 99); 5];
        s.highest_into(2, &mut top);
        assert_eq!(top, vec![Range::new(20, 25), Range::new(10, 15)]);
        s.highest_into(10, &mut top);
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn max_end_tracks_the_top_range() {
        let mut s = RangeSet::new();
        assert_eq!(s.max_end(), 0);
        s.insert(7, 12);
        s.insert(40, 44);
        assert_eq!(s.max_end(), 44);
    }

    #[test]
    fn torture_merge_left_touch() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(15, 20);
        // Touches the end of the first range exactly.
        s.insert(10, 12);
        assert!(s.contains_range(0, 12));
        assert_eq!(s.len(), 2);
        s.check_invariants();
    }
}
