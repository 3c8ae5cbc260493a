//! Property-based tests: range-set algebra (the foundation of SACK,
//! QUIC ACK ranges and stream reassembly) and pacing invariants.

use pq_sim::SimTime;
use pq_transport::pacing::Pacer;
use pq_transport::RangeSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Reference model: a plain set of u64 values.
fn model_insert(model: &mut BTreeSet<u64>, start: u64, end: u64) {
    for v in start..end {
        model.insert(v);
    }
}

/// Reference model for the in-place `RangeSet` paths: a bitmap, and the
/// canonical range list read back off it.
const BITMAP: usize = 260;

fn bitmap_ranges(bits: &[bool]) -> Vec<(u64, u64)> {
    let mut ranges = Vec::new();
    let mut start = None;
    for (v, &set) in bits.iter().chain([&false]).enumerate() {
        match (set, start) {
            (true, None) => start = Some(v as u64),
            (false, Some(s)) => {
                ranges.push((s, v as u64));
                start = None;
            }
            _ => {}
        }
    }
    ranges
}

fn rangeset_ranges(rs: &RangeSet) -> Vec<(u64, u64)> {
    rs.iter().map(|r| (r.start, r.end)).collect()
}

/// The returned newly-covered count on each shape of insert the tail
/// paths and the merge path distinguish.
#[test]
fn insert_counts_by_shape() {
    let mut rs = RangeSet::new();
    assert_eq!(rs.insert(10, 20), 10, "into the empty set");
    assert_eq!(rs.insert(30, 40), 10, "tail-append past a gap");
    assert_eq!(rs.insert(40, 45), 5, "tail-extend, touching");
    assert_eq!(rs.insert(42, 50), 5, "tail-extend, overlapping");
    assert_eq!(rs.insert(31, 49), 0, "fully covered by the last range");
    assert_eq!(rs.insert(30, 50), 0, "exactly the last range");
    assert_eq!(rangeset_ranges(&rs), vec![(10, 20), (30, 50)]);
    assert_eq!(rs.insert(15, 35), 10, "bridge two ranges");
    assert_eq!(rangeset_ranges(&rs), vec![(10, 50)]);
    assert_eq!(rs.insert(60, 70), 10);
    assert_eq!(rs.insert(0, 5), 5, "head insert, no merge");
    assert_eq!(rs.insert(5, 10), 5, "fills a touching gap on both sides");
    assert_eq!(rs.insert(12, 18), 0, "fully covered in the middle");
    assert_eq!(rs.insert(0, 100), 40, "swallows everything");
    assert_eq!(rangeset_ranges(&rs), vec![(0, 100)]);
}

proptest! {
    /// Insert (with its returned count), remove and remove_below,
    /// interleaved, against the bitmap: the exact range list after
    /// every operation, plus `overlapping` and `start_of_top` (the
    /// SACK loss-marking cutoff) against their definitions.
    #[test]
    fn rangeset_matches_bitmap_under_interleaved_ops(
        ops in prop::collection::vec((0u8..8, 0u64..220, 0u64..36), 1..80),
        probe in (0u64..240, 0u64..40, 0u64..90),
    ) {
        let mut rs = RangeSet::new();
        let mut bits = vec![false; BITMAP];
        for &(op, start, len) in &ops {
            let end = start + len;
            let window = start as usize..end as usize;
            match op {
                0..=4 => {
                    let fresh = bits[window.clone()].iter().filter(|b| !**b).count() as u64;
                    prop_assert_eq!(rs.insert(start, end), fresh, "insert [{}, {})", start, end);
                    bits[window].fill(true);
                }
                5..=6 => {
                    rs.remove(start, end);
                    bits[window].fill(false);
                }
                _ => {
                    rs.remove_below(start);
                    bits[..start as usize].fill(false);
                }
            }
            prop_assert_eq!(rangeset_ranges(&rs), bitmap_ranges(&bits), "after op {} [{}, {})", op, start, end);
        }
        let (at, span, count) = probe;
        let naive: Vec<(u64, u64)> = rs
            .iter()
            .filter(|r| r.start < at + span && r.end > at)
            .map(|r| (r.start, r.end))
            .collect();
        let got: Vec<(u64, u64)> = rs.overlapping(at, at + span).map(|r| (r.start, r.end)).collect();
        prop_assert_eq!(got, if span == 0 { Vec::new() } else { naive });
        // TCP loss marking: "at least `count` values SACKed in ranges
        // starting at or above v", summed per v as the sender used to,
        // against the one cutoff it computes per ACK now.
        let cutoff = rs.start_of_top(count);
        for v in 0..BITMAP as u64 {
            let above: u64 = rs.iter().filter(|r| r.start >= v).map(|r| r.len()).sum();
            prop_assert_eq!(above >= count, cutoff.is_some_and(|c| v <= c), "v {} count {}", v, count);
        }
    }

    /// RangeSet agrees with a naive set model under arbitrary inserts.
    #[test]
    fn rangeset_matches_model(ops in prop::collection::vec((0u64..200, 0u64..32), 1..60)) {
        let mut rs = RangeSet::new();
        let mut model = BTreeSet::new();
        for &(start, len) in &ops {
            let end = start + len;
            let before = model.len() as u64;
            model_insert(&mut model, start, end);
            let newly = rs.insert(start, end);
            prop_assert_eq!(newly, model.len() as u64 - before, "newly-covered accounting");
            prop_assert_eq!(rs.covered(), model.len() as u64);
        }
        // Membership agrees everywhere, at the top range's end and just
        // past it too.
        let top = rs.max_end();
        for v in (0..240).chain([top.saturating_sub(1), top, top + 1]) {
            prop_assert_eq!(rs.contains(v), model.contains(&v), "value {}", v);
        }
        // Ranges are sorted, disjoint, non-adjacent.
        let ranges: Vec<_> = rs.iter().collect();
        for w in ranges.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
    }

    /// remove_below is equivalent to filtering the model.
    #[test]
    fn rangeset_remove_below_matches_model(
        ops in prop::collection::vec((0u64..200, 1u64..32), 1..40),
        cut in 0u64..240,
    ) {
        let mut rs = RangeSet::new();
        let mut model = BTreeSet::new();
        for &(start, len) in &ops {
            model_insert(&mut model, start, start + len);
            rs.insert(start, start + len);
        }
        rs.remove_below(cut);
        model.retain(|&v| v >= cut);
        prop_assert_eq!(rs.covered(), model.len() as u64);
        let top = rs.max_end();
        for v in (0..240).chain([top.saturating_sub(1), top, top + 1]) {
            prop_assert_eq!(rs.contains(v), model.contains(&v));
        }
    }

    /// remove() matches the model too.
    #[test]
    fn rangeset_remove_matches_model(
        ops in prop::collection::vec((0u64..150, 1u64..24), 1..30),
        cut_start in 0u64..150,
        cut_len in 0u64..50,
    ) {
        let mut rs = RangeSet::new();
        let mut model = BTreeSet::new();
        for &(start, len) in &ops {
            model_insert(&mut model, start, start + len);
            rs.insert(start, start + len);
        }
        rs.remove(cut_start, cut_start + cut_len);
        model.retain(|&v| !(cut_start..cut_start + cut_len).contains(&v));
        prop_assert_eq!(rs.covered(), model.len() as u64);
        for v in 0..220 {
            prop_assert_eq!(rs.contains(v), model.contains(&v));
        }
    }

    /// advance_from never goes backwards and lands on an uncovered
    /// value (or stays put).
    #[test]
    fn advance_from_properties(
        ops in prop::collection::vec((0u64..100, 1u64..16), 1..20),
        cum in 0u64..120,
    ) {
        let mut rs = RangeSet::new();
        for &(start, len) in &ops {
            rs.insert(start, start + len);
        }
        let adv = rs.advance_from(cum);
        prop_assert!(adv >= cum);
        prop_assert!(!rs.contains(adv) || adv == cum && !rs.contains(cum) || !rs.contains(adv));
        // Everything in [cum, adv) is covered.
        for v in cum..adv {
            prop_assert!(rs.contains(v));
        }
    }

    /// highest_into(n) leaves exactly the top n ranges, descending by
    /// start, whatever the buffer held before.
    #[test]
    fn highest_is_sorted_suffix(
        ops in prop::collection::vec((0u64..500, 1u64..9), 0..30),
        n in 0usize..10,
        stale in 0usize..40,
    ) {
        let mut rs = RangeSet::new();
        for &(s, l) in &ops {
            rs.insert(s, s + l);
        }
        let mut top = vec![pq_transport::Range::new(7, 9); stale];
        rs.highest_into(n, &mut top);
        let mut want: Vec<_> = rs.iter().collect();
        want.reverse();
        want.truncate(n);
        prop_assert_eq!(top, want);
    }

    /// A paced sender never exceeds its configured rate over any run
    /// (beyond the initial burst allowance).
    #[test]
    fn pacer_never_exceeds_rate(rate_kbps in 100u64..50_000, n in 2usize..60) {
        let mss = 1460u64;
        let rate = (rate_kbps * 1000 / 8) as f64; // bytes/sec
        let mut p = Pacer::new(mss, 10, 2);
        p.set_rate(Some(rate));
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        for _ in 0..n {
            now = p.release_time(now, mss);
            p.on_send(now, mss);
            sent += mss;
        }
        let elapsed = now.as_secs_f64();
        let allowance = (10 + 2) * mss; // initial + one refill quantum
        prop_assert!(
            sent as f64 <= rate * elapsed + allowance as f64 + 1.0,
            "sent {} bytes in {:.4}s at rate {}",
            sent, elapsed, rate
        );
    }

    /// Release times are monotone.
    #[test]
    fn pacer_release_monotone(sizes in prop::collection::vec(100u64..3000, 1..50)) {
        let mut p = Pacer::new(1460, 10, 2);
        p.set_rate(Some(125_000.0));
        let mut now = SimTime::ZERO;
        for &s in &sizes {
            let r = p.release_time(now, s);
            prop_assert!(r >= now);
            now = r;
            p.on_send(now, s);
        }
    }
}
