//! Losing a packet is not a reason to allocate: the link hands the
//! loss back to its caller as a cause and a size, whatever the tracer's
//! level — DA2GC and MSS lose packets by the thousand, and every `gel` /
//! `flap` fault plan more.
//!
//! One `#[test]` in its own binary: pq-prof's allocation counters and
//! the tracer's level are process-global, so nothing else may run
//! beside it.

use pq_sim::{ConnId, Link, LinkConfig, Packet, PushOutcome, SimDuration, SimRng, SimTime};

/// `(allocations, packets lost)` of 10 000 packets through one link.
fn through_a_link(loss: f64) -> (u64, u64) {
    let cfg = LinkConfig::with_queue_ms(1_000_000_000, SimDuration::from_millis(1), loss, 100);
    let mut link: Link<u32> = Link::new(cfg, SimRng::new(99));
    pq_prof::reset_alloc();
    let mut now = SimTime::ZERO;
    let mut lost = 0;
    for i in 0..10_000 {
        let PushOutcome::StartedTx(done) = link.push(now, Packet::new(ConnId(0), 1200, i)) else {
            panic!("idle link did not start transmitting");
        };
        lost += u64::from(link.on_tx_done(done).lost.is_some());
        now = done;
    }
    (pq_prof::alloc_snapshot().total_allocs, lost)
}

#[test]
fn a_lost_packet_allocates_nothing() {
    pq_prof::set_alloc_enabled(true);
    for level in [pq_obs::Level::Off, pq_obs::Level::Debug] {
        pq_obs::tracer().set_level(level);
        let (clean, none_lost) = through_a_link(0.0);
        let (lossy, lost) = through_a_link(0.06);
        assert_eq!(none_lost, 0);
        assert!((400..800).contains(&lost), "6 % of 10 000, got {lost}");
        assert!(
            lossy <= clean,
            "at {level:?}, {lost} lost packets cost {lossy} allocations, a lossless link {clean}"
        );
    }
    pq_obs::tracer().set_level(pq_obs::Level::Off);
    pq_prof::set_alloc_enabled(false);
    pq_prof::reset_alloc();
}
