//! The simulated event sequence is part of the contract.
//!
//! Performance work on the per-event path (queue, sent logs, range
//! sets, pump loops) must execute exactly the events it executed
//! before: same count, same times, same FIFO tie-breaks. The benchmark
//! pins the totals of whole grids; this test pins one fixed load per
//! stack, so a change that adds, drops or reorders an event fails
//! `cargo test` with the stack named.
//!
//! One `#[test]` in its own binary: `sim.events_processed` lives in
//! the process-global obs registry and the span profiler is
//! process-global too, so nothing else may run beside it.

use perceiving_quic::prelude::*;

const SEED: u64 = 1910;

/// `(stack, events popped, PLT in ns, retransmits, connections)` of
/// `corpus()[0]` over DA2GC at seed 1910.
const PINS: [(Protocol, u64, u64, u64, u32); 8] = [
    (Protocol::Tcp, 1103, 7_241_476_178, 54, 3),
    (Protocol::TcpPlus, 1169, 8_508_982_084, 82, 3),
    (Protocol::TcpPlusBbr, 1170, 9_697_153_032, 48, 3),
    (Protocol::Quic, 1126, 7_471_238_185, 69, 3),
    (Protocol::QuicBbr, 1179, 4_547_830_255, 45, 3),
    (Protocol::QuicEdge, 2462, 4_731_629_218, 54, 12),
    (Protocol::QuicMbx, 2545, 5_360_158_814, 173, 3),
    (Protocol::H2Edge, 2711, 7_263_496_965, 191, 11),
];

/// One load and the number of events its queue popped.
fn load(site: &Website, protocol: Protocol) -> (PageLoadResult, u64) {
    let events = || pq_obs::registry().counter_value("sim.events_processed");
    let before = events();
    let net = NetworkKind::Da2gc.config();
    let result = load_page(site, &net, protocol, SEED, &LoadOptions::default());
    (result, events() - before)
}

#[test]
fn every_stack_executes_its_pinned_event_sequence() {
    let site = web::corpus().into_iter().next().expect("corpus site 0");
    for (protocol, events, plt_ns, retransmits, connections) in PINS {
        let (r, popped) = load(&site, protocol);
        assert_eq!(
            (popped, r.plt.as_nanos(), r.retransmits, r.connections),
            (events, plt_ns, retransmits, connections),
            "{}: (events, plt ns, retransmits, connections) moved — an event \
             was added, dropped or reordered",
            protocol.label()
        );
    }

    // With the span profiler on, the loop opens one `event:*` span per
    // pop — the lazily named spans must still account for every event
    // and leave the sequence alone.
    pq_prof::set_spans_enabled(true);
    for (protocol, events, plt_ns, ..) in PINS {
        pq_prof::reset_spans();
        let (r, popped) = load(&site, protocol);
        assert_eq!(
            (popped, r.plt.as_nanos()),
            (events, plt_ns),
            "{}: profiling moved the event sequence",
            protocol.label()
        );
        // Exactly `load:<stack>;event:<kind>`: deeper paths are spans
        // opened inside an event.
        let root = format!("load:{};event:", protocol.label());
        let spans: u64 = pq_prof::folded()
            .iter()
            .filter(|(path, ..)| path.starts_with(&root) && path.matches(';').count() == 1)
            .map(|(_, count, _)| count)
            .sum();
        assert_eq!(
            spans,
            events,
            "{}: event:* buckets do not add up to the events popped",
            protocol.label()
        );
    }
    pq_prof::set_spans_enabled(false);
    pq_prof::reset_spans();
}
