//! Property-based tests for the simulation substrate.

use pq_sim::{
    ConnId, DropTailQueue, EventQueue, Lane, LaneEvent, Link, LinkConfig, Packet, PushOutcome,
    SimDuration, SimRng, SimTime, Source,
};
use proptest::prelude::*;

/// What the one-heap reference of the lane merge holds: everything.
#[derive(Debug, PartialEq)]
enum Held {
    Timer(u64),
    TxDone(usize),
    Arrival(usize, u64),
}

/// Four links that collide constantly: one byte serializes in one
/// nanosecond, delays are 0–3 ns (lane 0 delivers at its tx-done
/// instant), the queue holds two small packets, lane 3 loses a third.
fn colliding_links() -> Vec<Link<u64>> {
    (0..4u64)
        .map(|i| {
            let cfg = LinkConfig {
                rate_bps: 8_000_000_000,
                prop_delay: SimDuration::from_nanos(i),
                loss: if i == 3 { 0.3 } else { 0.0 },
                queue_bytes: 6,
            };
            Link::new(cfg, SimRng::new(7 + i))
        })
        .collect()
}

proptest! {
    /// The event queue always pops in non-decreasing time order, with
    /// FIFO tie-breaking.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO tie-break violated");
                }
            }
            last = Some((t, i));
        }
    }

    /// The key-heap-over-slab queue against the obvious reference, a
    /// `Vec` kept sorted by `(time, seq)`: any interleaving of
    /// schedule / pop / clear yields the same `(time, event)` pops,
    /// the same `len` and `peek_time`, and `processed()` counts pops
    /// across clears. Times are drawn from a small set so equal-time
    /// FIFO order is exercised constantly.
    #[test]
    fn event_queue_matches_sorted_vec_reference(
        ops in prop::collection::vec((0u8..10, 0u64..12), 1..400)
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut reference: Vec<(SimTime, u64, u64)> = Vec::new(); // (time, seq, event)
        let mut seq = 0u64;
        let mut popped = 0u64;
        for (op, arg) in ops {
            match op {
                // Schedule at now + a small offset (often colliding).
                0..=5 => {
                    let at = q.now() + SimDuration::from_nanos(arg / 2);
                    q.schedule(at, seq);
                    let slot = reference.partition_point(|e| (e.0, e.1) <= (at, seq));
                    reference.insert(slot, (at, seq, seq));
                    seq += 1;
                }
                6..=8 => {
                    let want = if reference.is_empty() {
                        None
                    } else {
                        let (t, _, ev) = reference.remove(0);
                        Some((t, ev))
                    };
                    let got = q.pop();
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        popped += 1;
                        prop_assert_eq!(q.now(), t);
                    }
                }
                _ => {
                    q.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.is_empty(), reference.is_empty());
            prop_assert_eq!(q.peek_time(), reference.first().map(|e| e.0));
            prop_assert_eq!(q.processed(), popped, "clear() must keep processed()");
        }
        // Drain: the tail must come out in reference order too.
        for (t, _, ev) in reference {
            prop_assert_eq!(q.pop(), Some((t, ev)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Release builds clamp a past-time schedule to `now` instead of
    /// asserting: the clamped event sorts as "now, after everything
    /// already scheduled for now", exactly as the reference does.
    #[test]
    #[cfg(not(debug_assertions))]
    fn event_queue_clamps_past_times_like_the_reference(
        times in prop::collection::vec(0u64..50, 2..120)
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut reference: Vec<(SimTime, usize)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            // Pop every third step so `now` moves past some later times.
            if i % 3 == 2 {
                let want = (!reference.is_empty()).then(|| reference.remove(0));
                prop_assert_eq!(q.pop(), want);
            }
            let at = SimTime::from_nanos(t);
            q.schedule(at, i);
            let clamped = at.max(q.now());
            let slot = reference.partition_point(|e| e.0 <= clamped);
            reference.insert(slot, (clamped, i));
        }
        for want in reference {
            prop_assert_eq!(q.pop(), Some(want));
        }
    }

    /// The merge is the heap. One world keeps timers in an
    /// `EventQueue` and link events in four `Lane`s, fired in
    /// `earliest` order; the other drives four identical bare links
    /// and schedules every tx-done and arrival into one `EventQueue`,
    /// as the page loader did before lanes. Any interleaving of timer
    /// schedules, sends, stray arrivals (a jittering link: due times
    /// out of lane order), pops and `clear()` fires the same events at
    /// the same times in the same order, with `now()` and
    /// `processed()` equal after every pop. Times come from a small
    /// set so ties across sources are the common case; release builds
    /// also schedule into the past (debug builds assert on it).
    #[test]
    fn lane_merge_pops_like_one_heap(
        ops in prop::collection::vec((0u8..12, 0usize..4, 0u64..8), 1..400)
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut lanes: Vec<Lane<u64>> = colliding_links().into_iter().map(Lane::new).collect();
        let mut r: EventQueue<Held> = EventQueue::new();
        let mut links = colliding_links();
        let mut id = 0u64;
        // The ops, then pops (`DRAIN`) until the tail is out too.
        const DRAIN: u8 = u8::MAX;
        let drain = std::iter::repeat((DRAIN, 0usize, 0u64));
        for (op, l, arg) in ops.into_iter().chain(drain) {
            id += 1;
            let now = q.now();
            let at = if op % 2 == 1 && !cfg!(debug_assertions) {
                SimTime::from_nanos(now.as_nanos().saturating_sub(arg))
            } else {
                now + SimDuration::from_nanos(arg / 2)
            };
            match op {
                0 | 1 => {
                    q.schedule(at, id);
                    r.schedule(at, Held::Timer(id));
                }
                2..=5 => {
                    let pkt = || Packet::new(ConnId(0), 1 + arg as u32 % 4, id);
                    let Some((lane, link)) = lanes.get_mut(l).zip(links.get_mut(l)) else {
                        continue;
                    };
                    let want = link.push(now, pkt());
                    if let PushOutcome::StartedTx(done) = want {
                        r.schedule(done, Held::TxDone(l));
                    }
                    prop_assert_eq!(lane.push(&mut q, now, pkt()), want);
                }
                6 | 7 => {
                    if let Some(lane) = lanes.get_mut(l) {
                        lane.insert(q.stamp(at), Packet::new(ConnId(0), 1, id));
                    }
                    r.schedule(at, Held::Arrival(l, id));
                }
                8 => {
                    q.clear();
                    r.clear();
                    // The links' packets in flight lost their
                    // callbacks: start both worlds over.
                    lanes = colliding_links().into_iter().map(Lane::new).collect();
                    links = colliding_links();
                }
                _ => {
                    let Some((t, held)) = r.pop() else {
                        prop_assert_eq!(pq_sim::lane::earliest(&q, &lanes), None);
                        if op == DRAIN {
                            break;
                        }
                        continue;
                    };
                    if let Held::TxDone(l) = held {
                        let txd = links.get_mut(l).expect("lane index").on_tx_done(t);
                        if let Some((due, pkt)) = txd.delivery {
                            r.schedule(due, Held::Arrival(l, pkt.payload));
                        }
                        if let Some(next) = txd.next_tx_done {
                            r.schedule(next, Held::TxDone(l));
                        }
                    }
                    let Some((stamp, source)) = pq_sim::lane::earliest(&q, &lanes) else {
                        prop_assert!(false, "merge ran dry before the heap: {held:?} at {t:?}");
                        continue;
                    };
                    let fired = match source {
                        Source::Heap => q.pop().map(|(_, id)| Held::Timer(id)),
                        Source::Lane(l, what) => {
                            q.advance(stamp);
                            let lane = lanes.get_mut(l).expect("lane index");
                            match what {
                                LaneEvent::TxDone => {
                                    lane.on_tx_done(&mut q, stamp.time());
                                    Some(Held::TxDone(l))
                                }
                                LaneEvent::Arrival => {
                                    lane.pop_arrival().map(|p| Held::Arrival(l, p.payload))
                                }
                            }
                        }
                    };
                    prop_assert_eq!((stamp.time(), fired), (t, Some(held)));
                }
            }
            prop_assert_eq!(q.now(), r.now());
            prop_assert_eq!(q.processed(), r.processed());
        }
        prop_assert_eq!(r.pop(), None);
    }

    /// The 64-bit fast path of the serialization delay is the 128-bit
    /// formula it stands in for — for packets on links, around the
    /// byte count where bit-nanoseconds stop fitting in 64 bits, on a
    /// stalled link and at either integer's limit.
    #[test]
    fn serialization_delay_matches_the_u128_form(
        shape in 0u8..6, a in any::<u64>(), b in any::<u64>()
    ) {
        const LAST_U64_BYTES: u64 = u64::MAX / 8_000_000_000;
        let (bytes, rate) = match shape {
            0 => (a, b),
            1 => (a % 100_000, b % 10_000_000_000),
            2 => (LAST_U64_BYTES - 8 + a % 17, 1 + b % 1_000),
            3 => (a, 0),
            4 => (a, u64::MAX),
            _ => (u64::MAX, b),
        };
        let reference = match u128::from(bytes) * 8 * 1_000_000_000 {
            _ if rate == 0 => SimDuration::MAX,
            bit_ns => match u64::try_from(bit_ns / u128::from(rate)) {
                Ok(ns) => SimDuration::from_nanos(ns),
                Err(_) => SimDuration::MAX,
            },
        };
        prop_assert_eq!(SimDuration::for_bytes_at_rate(bytes, rate), reference);
    }

    /// Drop-tail queues conserve bytes: popped ≤ pushed, and the
    /// internal byte counter never exceeds capacity.
    #[test]
    fn queue_conserves_bytes(sizes in prop::collection::vec(1u32..5000, 1..300), cap in 1500u64..200_000) {
        let mut q = DropTailQueue::new(cap);
        let mut accepted = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            prop_assert!(q.bytes() <= q.capacity_bytes());
            if q.push(Packet::new(ConnId(0), s, i)) {
                accepted += u64::from(s);
            }
        }
        let mut popped = 0u64;
        while let Some(p) = q.pop() {
            popped += u64::from(p.size);
        }
        prop_assert_eq!(accepted, popped);
        prop_assert_eq!(q.bytes(), 0);
    }

    /// Every packet offered to a lossless, capacious link is delivered
    /// exactly once and in order.
    #[test]
    fn link_delivers_everything_without_loss(sizes in prop::collection::vec(40u32..1500, 1..150)) {
        let cfg = LinkConfig::with_queue_ms(10_000_000, SimDuration::from_millis(5), 0.0, 10_000);
        let mut link: Link<usize> = Link::new(cfg, SimRng::new(1));
        let mut delivered = Vec::new();
        let mut pending = None;
        let t0 = SimTime::ZERO;
        for (i, &s) in sizes.iter().enumerate() {
            match link.push(t0, Packet::new(ConnId(0), s, i)) {
                PushOutcome::StartedTx(t) => { pending = Some(t); }
                PushOutcome::Queued => {}
                PushOutcome::TailDropped => prop_assert!(false, "queue sized generously"),
            }
        }
        while let Some(t) = pending {
            let txd = link.on_tx_done(t);
            if let Some((_, p)) = txd.delivery {
                delivered.push(p.payload);
            }
            pending = txd.next_tx_done;
        }
        prop_assert_eq!(delivered, (0..sizes.len()).collect::<Vec<_>>());
    }

    /// Deterministic RNG: identical seeds yield identical streams and
    /// uniform draws stay in range.
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            let x = a.range_u64(lo, lo + span);
            prop_assert_eq!(x, b.range_u64(lo, lo + span));
            prop_assert!((lo..=lo + span).contains(&x));
        }
    }

    /// Forked streams never panic and differ from their parent.
    #[test]
    fn rng_forks_are_valid(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let parent = SimRng::new(seed);
        let mut child = parent.fork(&label);
        let mut parent = parent;
        let same = (0..32).filter(|_| child.next_u64() == parent.next_u64()).count();
        prop_assert!(same < 4, "child stream tracks parent");
    }

    /// Serialization delay is monotone in bytes and antitone in rate.
    #[test]
    fn serialization_delay_monotone(b1 in 1u64..100_000, b2 in 1u64..100_000, r in 1000u64..1_000_000_000) {
        let (small, large) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(
            SimDuration::for_bytes_at_rate(small, r) <= SimDuration::for_bytes_at_rate(large, r)
        );
        prop_assert!(
            SimDuration::for_bytes_at_rate(small, r * 2) <= SimDuration::for_bytes_at_rate(small, r)
        );
    }
}
