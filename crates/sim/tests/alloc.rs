//! Losing a packet is not a reason to allocate: with tracing off, the
//! loss instant's name must not be formatted — DA2GC and MSS lose
//! packets by the thousand, and every `gel` / `flap` fault plan more.
//!
//! One `#[test]` in its own binary: pq-prof's allocation counters are
//! process-global, so nothing else may run beside it.

use pq_sim::{ConnId, Link, LinkConfig, Packet, PushOutcome, SimDuration, SimRng, SimTime};

/// `(allocations, packets lost)` of 10 000 packets through one link.
fn through_a_link(loss: f64) -> (u64, u64) {
    let cfg = LinkConfig::with_queue_ms(1_000_000_000, SimDuration::from_millis(1), loss, 100);
    let mut link: Link<u32> = Link::new(cfg, SimRng::new(99));
    link.set_obs_track(1, 0, "downlink");
    pq_prof::reset_alloc();
    let mut now = SimTime::ZERO;
    let mut lost = 0;
    for i in 0..10_000 {
        let PushOutcome::StartedTx(done) = link.push(now, Packet::new(ConnId(0), 1200, i)) else {
            panic!("idle link did not start transmitting");
        };
        lost += u64::from(link.on_tx_done(done).delivery.is_none());
        now = done;
    }
    (pq_prof::alloc_snapshot().total_allocs, lost)
}

#[test]
fn a_lost_packet_allocates_nothing_with_tracing_off() {
    assert!(!pq_obs::enabled(pq_obs::Level::Debug));
    pq_prof::set_alloc_enabled(true);
    let (clean, none_lost) = through_a_link(0.0);
    let (lossy, lost) = through_a_link(0.06);
    pq_prof::set_alloc_enabled(false);
    pq_prof::reset_alloc();
    assert_eq!(none_lost, 0);
    assert!((400..800).contains(&lost), "6 % of 10 000, got {lost}");
    assert!(
        lossy <= clean,
        "{lost} lost packets cost {lossy} allocations, a lossless link {clean}"
    );
}
