//! pq-sim reports to its caller and to nobody else: lanes and an event
//! queue driven through random loss, injected loss and tail drops, and
//! then dropped, leave the metrics registry, the tracer and the span
//! profiler as they found them — with the tracer at Debug and the
//! profiler on. What a load's owner needs comes back through the API
//! instead: each tx-done names its loss, and that cause is the move of
//! the link's [`LinkStats`].
//!
//! One `#[test]` in its own binary: the registry, the tracer and the
//! profiler are process-global, so nothing else may run beside it.

use pq_sim::lane::earliest;
use pq_sim::{
    ConnId, EventQueue, Lane, LaneEvent, Link, LinkConfig, LinkStats, Loss, Packet, PushOutcome,
    SimDuration, SimRng, SimTime, Source,
};
use std::sync::Arc;

/// Every registry series the page load folds a load's queue and links
/// into.
const SERIES: [&str; 7] = [
    "sim.events_processed",
    "sim.link.offered",
    "sim.link.delivered",
    "sim.link.tail_dropped",
    "sim.link.random_lost",
    "sim.link.fault_lost",
    "fault.injected",
];

/// `(random, injected, delivered)` packets of a link so far.
fn losses(s: &LinkStats) -> [u64; 3] {
    [s.lost, s.fault_lost, s.delivered]
}

#[test]
fn links_and_queues_write_no_global() {
    let registry = || SERIES.map(|name| pq_obs::registry().counter_value(name));
    let recorded = || pq_obs::tracer().stats().1;
    pq_obs::tracer().set_level(pq_obs::Level::Debug);
    pq_prof::set_spans_enabled(true);
    pq_prof::reset_spans();
    let (series_before, recorded_before) = (registry(), recorded());

    // 12 Mbit/s with a 2 ms queue: two full-size packets wait, the
    // rest of a burst is tail-dropped; 5 % random loss, and a
    // Gilbert–Elliott chain that loses half its bad-state packets.
    let plan = pq_fault::FaultPlan::parse("seed=3;gel:pgb=0.05,pbg=0.2,bad=0.5").expect("plan");
    let faults = pq_fault::LoadFaults::new(Arc::new(plan), 11);
    let mut lanes: Vec<Lane<u32>> = ["uplink", "downlink"]
        .into_iter()
        .zip(1..)
        .map(|(name, seed)| {
            let cfg = LinkConfig::with_queue_ms(12_000_000, SimDuration::from_millis(5), 0.05, 2);
            let mut link = Link::new(cfg, SimRng::new(seed));
            link.set_fault(faults.link_fault(name));
            Lane::new(link)
        })
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    // Each timer bursts four packets onto every lane, one millisecond
    // apart: more than a link serializes or queues in that time.
    for ms in 0..400 {
        q.schedule(SimTime::from_millis(ms), ms as u32);
    }

    let (mut tail_dropped, mut causes) = (0, [0u64; 3]);
    while let Some((stamp, source)) = earliest(&q, &lanes) {
        let (l, what) = match source {
            Source::Heap => {
                let (now, id) = q.pop().expect("heap top");
                for lane in &mut lanes {
                    for _ in 0..4 {
                        let pkt = Packet::new(ConnId(0), 1500, id);
                        let dropped = lane.push(&mut q, now, pkt) == PushOutcome::TailDropped;
                        tail_dropped += u64::from(dropped);
                    }
                }
                continue;
            }
            Source::Lane(l, what) => (l, what),
        };
        q.advance(stamp);
        let lane = lanes.get_mut(l).expect("lane index");
        if what == LaneEvent::Arrival {
            assert!(lane.pop_arrival().is_some(), "an arrival without a packet");
            continue;
        }
        let before = losses(lane.link().stats());
        let lost = lane.on_tx_done(&mut q, stamp.time());
        let after = losses(lane.link().stats());
        let cause = match lost {
            Some((Loss::Random, 1500)) => 0,
            Some((Loss::Fault, 1500)) => 1,
            None => 2,
            Some(other) => panic!("a 1500-byte packet lost as {other:?}"),
        };
        let mut want = before;
        want[cause] += 1;
        assert_eq!(
            after, want,
            "tx-done said {lost:?}; (random, injected, delivered) moved"
        );
        causes[cause] += 1;
    }

    let total = |count: fn(&LinkStats) -> u64| -> u64 {
        lanes.iter().map(|l| count(l.link().stats())).sum()
    };
    assert_eq!(total(|s| s.tail_dropped), tail_dropped);
    assert_eq!(
        [
            total(|s| s.lost),
            total(|s| s.fault_lost),
            total(|s| s.delivered)
        ],
        causes
    );
    assert!(
        causes.iter().all(|&n| n > 0) && tail_dropped > 0,
        "every outcome occurs: {causes:?} and {tail_dropped} tail drops"
    );
    assert_eq!(total(|s| s.offered), 2 * 4 * 400);
    assert!(q.processed() > 400);
    drop(lanes);
    drop(q);

    assert_eq!(registry(), series_before, "pq-sim wrote the registry");
    assert_eq!(recorded(), recorded_before, "pq-sim wrote the tracer");
    assert_eq!(pq_prof::folded(), Vec::new(), "pq-sim opened a span");
    pq_prof::set_spans_enabled(false);
    pq_obs::tracer().set_level(pq_obs::Level::Off);
}
