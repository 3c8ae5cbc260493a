//! The simulated event sequence is part of the contract.
//!
//! Performance work on the per-event path (queue, sent logs, range
//! sets, pump loops) must execute exactly the events it executed
//! before: same count, same times, same FIFO tie-breaks. The benchmark
//! pins the totals of whole grids; this test pins one fixed load per
//! stack, so a change that adds, drops or reorders an event fails
//! `cargo test` with the stack named.
//!
//! So is which events they are: with the span profiler on, every pop
//! lands in an `event:*` bucket named after what fired — a timer out of
//! the queue's heap, or a tx-done / arrival out of a link's lane — and
//! the per-stack vector of bucket counts is pinned, so a lane firing
//! under the wrong name, or two sources trading events at an unchanged
//! total, fails with the stack named too.
//!
//! So is what an event costs the heap: the same loads run once more
//! under pq-prof's counting allocator against a per-stack ceiling on
//! allocations per popped event — a measurement of the hot path, where
//! a static rule could only guess at it.
//!
//! So is where a traced load puts its rows: with the tracer at Debug, a
//! `QUIC-EDGE` and a `TCP+` load name exactly their page, connection
//! and proxy-leg tracks (tid 0, `1 + ci`, `60 + li`) and put every
//! object at `100 + id` — what a Chrome-trace reader of
//! `PQ_TRACE_OUT` sees as the waterfall's rows — and draw, from their
//! connections' records, a pinned number of each `transport` event
//! (handshake spans, cwnd / ssthresh / sRTT counters, retransmit, RTO
//! and pacing-hold instants) — and, from what its links hand back, of
//! each link event (queue-bytes counters, tail-drop and loss instants).
//!
//! So is what the links did: every load's `sim.link.*` deltas — packets
//! offered, delivered, tail-dropped and randomly lost — are pinned with
//! its event count, which the page load folds into the registry once,
//! as it ends.
//!
//! One `#[test]` in its own binary: `sim.events_processed` lives in
//! the process-global obs registry and the span profiler, the
//! allocation counters and the tracer are process-global too, so
//! nothing else may run beside it.

use perceiving_quic::prelude::*;

const SEED: u64 = 1910;

/// `(stack, events popped, PLT in ns, retransmits, connections,
/// allocation ceiling per event)` of `corpus()[0]` over DA2GC at seed
/// 1910. The ceiling is the measured allocations / events of the whole
/// load (setup included) plus 10 % headroom for toolchain drift, rounded
/// up (measured once delivered ACKs hand their range buffers back for
/// the next ACK: 0.123, 0.122, 0.121, 0.280, 0.264, 0.191, 0.161, 0.130;
/// before that, with a fresh range list per ACK: 0.218, 0.198, 0.156,
/// 0.333, 0.328, 0.227, 0.218, 0.182; before QUIC packets carried their
/// frames inline: 0.266, 0.243, 0.198, 0.706, 0.668, 0.391, 0.652,
/// 0.202). One more allocation per event adds 1.0 and fails every row,
/// and an ACK path that stops reusing its buffers fails the TCP rows.
/// Lower it when the hot path gets leaner.
/// The `event:*` buckets, in the order [`MIX`] counts them.
const KINDS: [&str; 13] = [
    "tx-up",
    "tx-down",
    "arrival",
    "timer",
    "respond",
    "process",
    "defer",
    "gate",
    "edge-tx-up",
    "edge-tx-down",
    "edge-arrival",
    "edge-timer",
    "edge-respond",
];

/// Events popped per bucket, one row per [`PINS`] row; each row sums to
/// its stack's event count. Measured at PR 17, when all thirteen kinds
/// still went through the one heap.
const MIX: [[u64; 13]; 8] = [
    [164, 181, 327, 367, 22, 22, 19, 1, 0, 0, 0, 0, 0],
    [161, 179, 322, 443, 22, 22, 19, 1, 0, 0, 0, 0, 0],
    [144, 171, 301, 490, 22, 22, 19, 1, 0, 0, 0, 0, 0],
    [128, 178, 291, 465, 22, 22, 19, 1, 0, 0, 0, 0, 0],
    [138, 178, 300, 499, 22, 22, 19, 1, 0, 0, 0, 0, 0],
    [120, 185, 291, 579, 0, 22, 19, 1, 184, 201, 385, 453, 22],
    [186, 228, 395, 626, 22, 22, 19, 1, 178, 347, 521, 0, 0],
    [174, 191, 349, 745, 0, 22, 19, 1, 175, 197, 372, 444, 22],
];

const PINS: [(Protocol, u64, u64, u64, u32, f64); 8] = [
    (Protocol::Tcp, 1103, 7_241_476_178, 54, 3, 0.14),
    (Protocol::TcpPlus, 1169, 8_508_982_084, 82, 3, 0.14),
    (Protocol::TcpPlusBbr, 1170, 9_697_153_032, 48, 3, 0.14),
    (Protocol::Quic, 1126, 7_471_238_185, 69, 3, 0.31),
    (Protocol::QuicBbr, 1179, 4_547_830_255, 45, 3, 0.30),
    (Protocol::QuicEdge, 2462, 4_731_629_218, 54, 12, 0.21),
    (Protocol::QuicMbx, 2545, 5_360_158_814, 173, 3, 0.18),
    (Protocol::H2Edge, 2711, 7_263_496_965, 191, 11, 0.15),
];

/// Track rows below the object rows of the traced `QUIC-EDGE` load:
/// the page, the one client connection, and the proxy's legs in the
/// order the pools opened them.
const QUIC_EDGE_ROWS: [(u64, &str); 13] = [
    (0, "page"),
    (1, "conn 0 (QUIC-EDGE)"),
    (60, "leg 0 (H2 → origin 0)"),
    (61, "leg 1 (H2 → origin 1)"),
    (62, "leg 2 (H2 → origin 0)"),
    (63, "leg 3 (H2 → origin 0)"),
    (64, "leg 4 (H2 → origin 0)"),
    (65, "leg 5 (H2 → origin 2)"),
    (66, "leg 6 (H2 → origin 2)"),
    (67, "leg 7 (H2 → origin 2)"),
    (68, "leg 8 (H2 → origin 2)"),
    (69, "leg 9 (H2 → origin 1)"),
    (70, "leg 10 (H2 → origin 1)"),
];

/// The same for `TCP+`: one connection per origin.
const TCP_PLUS_ROWS: [(u64, &str); 4] = [
    (0, "page"),
    (1, "conn 0 (TCP+)"),
    (2, "conn 1 (TCP+)"),
    (3, "conn 2 (TCP+)"),
];

/// `transport`-category events per name of the traced `QUIC-EDGE`
/// load, sorted by name.
const QUIC_EDGE_TRANSPORT: [(&str, u64); 9] = [
    ("RTO down", 1),
    ("cwnd down", 225),
    ("cwnd up", 39),
    ("handshake", 12),
    ("pacing hold down", 263),
    ("retransmit down", 54),
    ("srtt_ms down", 225),
    ("srtt_ms up", 39),
    ("ssthresh down", 93),
];

/// The same for `TCP+`.
const TCP_PLUS_TRANSPORT: [(&str, u64); 9] = [
    ("RTO down", 3),
    ("cwnd down", 115),
    ("cwnd up", 17),
    ("handshake", 3),
    ("pacing hold down", 146),
    ("retransmit down", 82),
    ("srtt_ms down", 115),
    ("srtt_ms up", 17),
    ("ssthresh down", 85),
];

/// `sim`- and `fault`-category events per name of the traced
/// `QUIC-EDGE` load, sorted by name: each link's queue-occupancy
/// samples and its tail drops, random losses and injected losses. (The
/// event queue's depth sample never fires on a load this short.)
const QUIC_EDGE_LINK: [(&str, u64); 7] = [
    ("downlink queue bytes", 171),
    ("downlink random loss", 9),
    ("downlink tail drop", 46),
    ("origin-downlink queue bytes", 105),
    ("origin-uplink queue bytes", 11),
    ("uplink queue bytes", 5),
    ("uplink random loss", 5),
];

/// The same for `TCP+`.
const TCP_PLUS_LINK: [(&str, u64); 5] = [
    ("downlink queue bytes", 144),
    ("downlink random loss", 9),
    ("downlink tail drop", 68),
    ("uplink queue bytes", 14),
    ("uplink random loss", 7),
];

/// The registry counters a load moves: events popped, then the links'
/// offered, delivered, tail-dropped and randomly lost packets.
const COUNTERS: [&str; 5] = [
    "sim.events_processed",
    "sim.link.offered",
    "sim.link.delivered",
    "sim.link.tail_dropped",
    "sim.link.random_lost",
];

/// The last four [`COUNTERS`] of each [`PINS`] row's load.
const LINKS: [[u64; 4]; 8] = [
    [386, 329, 41, 16],
    [408, 324, 68, 16],
    [355, 301, 40, 14],
    [370, 292, 64, 14],
    [351, 302, 35, 14],
    [737, 676, 46, 14],
    [1231, 922, 291, 17],
    [895, 721, 158, 16],
];

/// One load and the number of events its queue popped.
fn load(site: &Website, protocol: Protocol) -> (PageLoadResult, u64) {
    let (result, [events, ..]) = load_counted(site, protocol);
    (result, events)
}

/// One load and how far it moved each of [`COUNTERS`].
fn load_counted(site: &Website, protocol: Protocol) -> (PageLoadResult, [u64; 5]) {
    let read = || COUNTERS.map(|name| pq_obs::registry().counter_value(name));
    let before = read();
    let net = NetworkKind::Da2gc.config();
    let result = load_page(site, &net, protocol, SEED, &LoadOptions::default());
    let after = read();
    (result, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn every_stack_executes_its_pinned_event_sequence() {
    let site = web::corpus().into_iter().next().expect("corpus site 0");
    for ((protocol, events, plt_ns, retransmits, connections, _), links) in
        PINS.into_iter().zip(LINKS)
    {
        let (r, [popped, moved @ ..]) = load_counted(&site, protocol);
        assert_eq!(
            (popped, r.plt.as_nanos(), r.retransmits, r.connections),
            (events, plt_ns, retransmits, connections),
            "{}: (events, plt ns, retransmits, connections) moved — an event \
             was added, dropped or reordered",
            protocol.label()
        );
        assert_eq!(
            moved,
            links,
            "{}: the links' (offered, delivered, tail-dropped, randomly lost) \
             packets moved",
            protocol.label()
        );
    }

    // With the span profiler on, the loop opens one `event:*` span per
    // pop — the lazily named spans must leave the sequence alone and
    // sort every event into its pinned bucket.
    pq_prof::set_spans_enabled(true);
    for ((protocol, events, plt_ns, ..), mix) in PINS.into_iter().zip(MIX) {
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
        let folded = pq_prof::folded();
        let buckets: Vec<(&str, u64)> = folded
            .iter()
            .filter_map(|(path, count, _)| Some((path.strip_prefix(&root)?, *count)))
            .filter(|(kind, _)| !kind.contains(';'))
            .collect();
        let count_of = |kind| buckets.iter().find(|b| b.0 == kind).map_or(0, |b| b.1);
        assert_eq!(
            KINDS.map(count_of),
            mix,
            "{}: the event mix moved (buckets {KINDS:?})",
            protocol.label()
        );
        assert_eq!(
            (buckets.len(), mix.iter().sum::<u64>()),
            (mix.iter().filter(|&&n| n > 0).count(), events),
            "{}: an event:* bucket outside the pinned ones, or a row that \
             does not add up to the events popped",
            protocol.label()
        );
    }
    pq_prof::set_spans_enabled(false);
    pq_prof::reset_spans();

    // With the counting allocator on, the sequence holds and each
    // load stays under its allocation ceiling.
    pq_prof::set_alloc_enabled(true);
    for (protocol, events, plt_ns, .., ceiling) in PINS {
        pq_prof::reset_alloc();
        let (r, popped) = load(&site, protocol);
        let allocs = pq_prof::alloc_snapshot().total_allocs;
        assert_eq!(
            (popped, r.plt.as_nanos()),
            (events, plt_ns),
            "{}: allocation counting moved the event sequence",
            protocol.label()
        );
        assert!(
            allocs as f64 <= ceiling * popped as f64,
            "{}: {allocs} allocations over {popped} events = {:.3}/event, ceiling {ceiling} — \
             something on the per-event path started allocating",
            protocol.label(),
            allocs as f64 / popped as f64
        );
    }
    pq_prof::set_alloc_enabled(false);
    pq_prof::reset_alloc();

    // With the tracer at Debug, the sequence holds and each load names
    // exactly its page, connection and leg rows, with every object's
    // row at `100 + id`, and draws its pinned transport events.
    pq_obs::tracer().set_level(pq_obs::Level::Debug);
    for (protocol, want, transport, link) in [
        (
            Protocol::QuicEdge,
            &QUIC_EDGE_ROWS[..],
            &QUIC_EDGE_TRANSPORT[..],
            &QUIC_EDGE_LINK[..],
        ),
        (
            Protocol::TcpPlus,
            &TCP_PLUS_ROWS[..],
            &TCP_PLUS_TRANSPORT[..],
            &TCP_PLUS_LINK[..],
        ),
    ] {
        let (r, popped) = load(&site, protocol);
        let pin = PINS.iter().find(|p| p.0 == protocol).expect("pinned stack");
        assert_eq!(
            (popped, r.plt.as_nanos()),
            (pin.1, pin.2),
            "{}: tracing moved the event sequence",
            protocol.label()
        );
        let (pid, rows) = track_rows(&format!(
            "{} · {} · seed {SEED}",
            site.name,
            protocol.label()
        ));
        let (objects, tracks): (Vec<_>, Vec<_>) =
            rows.into_iter().partition(|(tid, _)| *tid >= 100);
        let want: Vec<(u64, String)> = want.iter().map(|(t, n)| (*t, n.to_string())).collect();
        assert_eq!(tracks, want, "{}: page / conn / leg rows", protocol.label());
        assert_eq!(objects.len(), site.objects.len(), "one row per object");
        for (tid, name) in objects {
            let id = tid - 100;
            assert!(
                name.starts_with(&format!("obj {id} (")),
                "{}: row {tid} is {name:?}, not object {id}'s",
                protocol.label()
            );
        }
        let pinned = |events: &[(&str, u64)]| -> Vec<(String, u64)> {
            events.iter().map(|(n, c)| (n.to_string(), *c)).collect()
        };
        assert_eq!(
            events_per_name(pid, &["transport"]),
            pinned(transport),
            "{}: transport events per name",
            protocol.label()
        );
        assert_eq!(
            events_per_name(pid, &["sim", "fault"]),
            pinned(link),
            "{}: link events per name",
            protocol.label()
        );
    }
    pq_obs::tracer().set_level(pq_obs::Level::Off);
}

/// How many events of the categories `cats` the tracer holds for load
/// `pid`, per name, sorted by name.
fn events_per_name(pid: u32, cats: &[&str]) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = Vec::new();
    let snapshot = pq_obs::tracer().snapshot();
    for ev in snapshot
        .iter()
        .filter(|e| e.pid == pid && cats.contains(&e.cat))
    {
        match counts.iter_mut().find(|(name, _)| *name == ev.name) {
            Some((_, n)) => *n += 1,
            None => counts.push((ev.name.clone(), 1)),
        }
    }
    counts.sort();
    counts
}

/// The tracer process of the page load the tracer knows as `process`,
/// and the `(tid, name)` rows [`pq_obs::export::to_chrome_trace`]
/// writes for it, sorted.
fn track_rows(process: &str) -> (u32, Vec<(u64, String)>) {
    let json = pq_obs::export::to_chrome_trace(&[]);
    let trace = pq_obs::json::Value::parse(&json).expect("chrome trace parses");
    let meta = trace
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents");
    let field = |row: &pq_obs::json::Value, key: &str| row.get(key).and_then(|v| v.as_u64());
    let label = |row: &pq_obs::json::Value| {
        let name = row.get("args")?.get("name")?.as_str()?;
        Some(name.to_string())
    };
    let named = |row: &&pq_obs::json::Value, what: &str| {
        row.get("name").and_then(|n| n.as_str()) == Some(what)
    };
    let pid = meta
        .iter()
        .filter(|r| named(r, "process_name"))
        .find(|r| label(r).as_deref() == Some(process))
        .and_then(|r| field(r, "pid"))
        .expect("the load registered its process row");
    let mut rows: Vec<(u64, String)> = meta
        .iter()
        .filter(|r| named(r, "thread_name") && field(r, "pid") == Some(pid))
        .filter_map(|r| Some((field(r, "tid")?, label(r)?)))
        .collect();
    rows.sort();
    (pid as u32, rows)
}
