//! The simulated event sequence is part of the contract.
//!
//! Performance work on the per-event path (queue, sent logs, range
//! sets, pump loops) must execute exactly the events it executed
//! before: same count, same times, same FIFO tie-breaks. The benchmark
//! pins the totals of whole grids; this test pins one fixed load per
//! stack, so a change that adds, drops or reorders an event fails
//! `cargo test` with the stack named.
//!
//! So is which events they are: a load returns its events counted by
//! kind (`PageLoadResult::counts.events`, over `web::EVENT_KINDS`) — a
//! timer out of the queue's heap, or a tx-done / arrival out of a
//! link's lane — and the per-stack vector is pinned, so a lane firing
//! under the wrong kind, or two sources trading events at an unchanged
//! total, fails with the stack named too.
//!
//! So is what the span profiler makes of a load: exactly one
//! `load:<stack>` frame, and under a terminating proxy one
//! `edge:dispatch` frame per proxied request — no frame per event,
//! whose cost would swamp the events it timed.
//!
//! So is what an event costs the heap: the same loads run once more
//! under pq-prof's counting allocator against a per-stack ceiling on
//! allocations per popped event — a measurement of the hot path, where
//! a static rule could only guess at it.
//!
//! So is what a recorded load traces: with `LoadOptions::record` on,
//! every stack executes its pinned sequence and writes nothing to the
//! tracer, even at Debug; rendered at Debug from its record, a
//! `QUIC-EDGE` and a `TCP+` load name exactly their page, connection
//! and proxy-leg tracks (tid 0, `1 + ci`, `60 + li`) and put every
//! object at `100 + id` — what a Chrome-trace reader of
//! `PQ_TRACE_OUT` sees as the waterfall's rows — and draw, from their
//! connections' records, a pinned number of each `transport` event
//! (handshake spans, cwnd / ssthresh / sRTT counters, retransmit, RTO
//! and pacing-hold instants) — and, from what its links hand back, of
//! each link event (queue-bytes counters, tail-drop and loss instants),
//! and, from its objects, its `web` rows (each object's waterfall span
//! and the FVC / LVC / PLT markers, with their instants). Rendered at
//! Info, the same loads draw no link rows and no pacing holds.
//!
//! So is what the links did: every load's packets offered, delivered,
//! tail-dropped and randomly lost, out of its `LoadCounts`, are pinned
//! with its event count.
//!
//! So is what `benches/perf` reads: a load publishes its `LoadCounts`
//! to the process-global registry once, as it ends, and every series it
//! publishes must move by exactly that load's count.
//!
//! One `#[test]` in its own binary: the registry, the span profiler,
//! the allocation counters and the tracer are process-global, so
//! nothing else may run beside it.

use perceiving_quic::prelude::*;

const SEED: u64 = 1910;

/// Events popped per kind of `web::EVENT_KINDS`, one row per [`PINS`]
/// row; each row sums to its stack's event count. Measured when all
/// thirteen kinds still went through the one heap.
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

/// `edge:dispatch` frames of the stacks whose proxy dispatches requests
/// (one per object of the page); every other stack folds to its
/// `load:<stack>` frame alone.
const DISPATCHES: [(Protocol, u64); 2] = [(Protocol::QuicEdge, 22), (Protocol::H2Edge, 22)];

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

/// `web`-category events per name of the traced `QUIC-EDGE` load,
/// sorted by name: each object's request→processed span, named by its
/// kind and size, and the FVC / LVC / PLT markers; with how many there
/// are, their summed start instants and their summed durations, in ns.
const QUIC_EDGE_WEB: [(&str, u64, u64, u64); 25] = [
    ("Beacon 15155", 1, 2113156041, 2348250960),
    ("Beacon 1567", 1, 2426165372, 2305463846),
    ("Beacon 19405", 1, 2392510290, 2306452262),
    ("Css 14691", 1, 1255330297, 2021971702),
    ("Css 1596", 1, 936329401, 892051016),
    ("Css 7071", 1, 827606662, 915014303),
    ("Css 825", 1, 1215512127, 392641359),
    ("FVC", 1, 1636905005, 0),
    ("Font 17316", 1, 1386905005, 2778348156),
    ("Font 2526", 1, 1386905005, 2199886629),
    ("Html 9305", 1, 0, 1071035733),
    ("Image 12929", 1, 951304088, 1123919400),
    ("Image 315", 1, 1895703864, 2053510178),
    ("Image 5915", 1, 1331450888, 1629905260),
    ("Image 737", 1, 1651837317, 2287393177),
    ("Image 7838", 1, 1333451785, 2436904337),
    ("LVC", 1, 4165253161, 0),
    ("PLT", 1, 4731629218, 0),
    ("Script 1041", 1, 1336764141, 577552815),
    ("Script 1356", 1, 1274251513, 617841499),
    ("Script 14698", 1, 1256532630, 2170838210),
    ("Script 27185", 1, 1333417427, 2415566101),
    ("Script 4939", 1, 813079832, 573825173),
    ("Script 5550", 1, 1120898527, 589446531),
    ("Xhr 8028", 1, 972863550, 1907423825),
];

/// The same for `TCP+`.
const TCP_PLUS_WEB: [(&str, u64, u64, u64); 25] = [
    ("Beacon 15155", 1, 2874460055, 5634522029),
    ("Beacon 1567", 1, 3187469386, 3129479097),
    ("Beacon 19405", 1, 3153814304, 3118347855),
    ("Css 14691", 1, 2014001832, 1925557084),
    ("Css 1596", 1, 1741007772, 416482564),
    ("Css 7071", 1, 1687488450, 6230389590),
    ("Css 825", 1, 1997636653, 860925888),
    ("FVC", 1, 2495181115, 0),
    ("Font 17316", 1, 2245181115, 5620929175),
    ("Font 2526", 1, 2245181115, 2399867442),
    ("Html 9305", 1, 0, 1840903850),
    ("Image 12929", 1, 1755982459, 927472321),
    ("Image 315", 1, 2657007878, 448830655),
    ("Image 5915", 1, 2092754902, 2365405165),
    ("Image 737", 1, 2410508852, 411363229),
    ("Image 7838", 1, 2094755799, 3570201622),
    ("LVC", 1, 7866110290, 0),
    ("PLT", 1, 8508982084, 0),
    ("Script 1041", 1, 2098068155, 881016836),
    ("Script 1356", 1, 2059008518, 920296973),
    ("Script 14698", 1, 2015204165, 2784047522),
    ("Script 27185", 1, 2094721441, 2869783966),
    ("Script 4939", 1, 1672961620, 572219495),
    ("Script 5550", 1, 1930841856, 1051399435),
    ("Xhr 8028", 1, 1777541921, 1015814370),
];

/// One count of a load's `LoadCounts`.
type Count = fn(&web::LoadCounts) -> u64;

/// Every registry series a load publishes, with the count it must move
/// by.
const SERIES: [(&str, Count); 12] = [
    ("web.pageloads", |c| c.loads),
    ("web.pageloads_incomplete", |c| c.incomplete),
    ("sim.events_processed", |c| c.events.iter().sum()),
    ("sim.link.offered", |c| c.offered),
    ("sim.link.delivered", |c| c.delivered),
    ("sim.link.tail_dropped", |c| c.tail_dropped),
    ("sim.link.random_lost", |c| c.random_lost),
    ("sim.link.fault_lost", |c| c.fault_lost),
    ("fault.injected", |c| c.faults_injected),
    ("edge.conns_opened", |c| c.conns_opened),
    ("edge.conns_reused", |c| c.conns_reused),
    ("edge.mbx_early_retx", |c| c.mbx_early_retx),
];

/// Packets each [`PINS`] row's load offered its links, and of those
/// the links delivered, tail-dropped and lost at random.
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
    let result = load_with(site, protocol, &LoadOptions::default());
    let events = result.counts.events_total();
    (result, events)
}

fn load_with(site: &Website, protocol: Protocol, opts: &LoadOptions) -> PageLoadResult {
    load_page(site, &NetworkKind::Da2gc.config(), protocol, SEED, opts)
}

/// One load, holding every [`SERIES`] to the load's own counts.
fn load_published(site: &Website, protocol: Protocol, opts: &LoadOptions) -> PageLoadResult {
    let read = || SERIES.map(|(name, _)| pq_obs::registry().counter_value(name));
    let before = read();
    let r = load_with(site, protocol, opts);
    let after = read();
    let moved: [u64; SERIES.len()] = std::array::from_fn(|i| after[i] - before[i]);
    assert_eq!(
        moved,
        SERIES.map(|(_, count)| count(&r.counts)),
        "{}: the registry moved by other than the load's counts (series {:?})",
        protocol.label(),
        SERIES.map(|(name, _)| name)
    );
    r
}

#[test]
fn every_stack_executes_its_pinned_event_sequence() {
    let site = web::corpus().into_iter().next().expect("corpus site 0");
    for ((protocol, events, plt_ns, retransmits, connections, _), (links, mix)) in
        PINS.into_iter().zip(LINKS.into_iter().zip(MIX))
    {
        let r = load_published(&site, protocol, &LoadOptions::default());
        let popped = r.counts.events_total();
        assert_eq!(
            (popped, r.plt.as_nanos(), r.retransmits, r.connections),
            (events, plt_ns, retransmits, connections),
            "{}: (events, plt ns, retransmits, connections) moved — an event \
             was added, dropped or reordered",
            protocol.label()
        );
        let c = &r.counts;
        assert_eq!(
            [c.offered, c.delivered, c.tail_dropped, c.random_lost],
            links,
            "{}: the links' (offered, delivered, tail-dropped, randomly lost) \
             packets moved",
            protocol.label()
        );
        assert_eq!(
            c.events,
            mix,
            "{}: the event mix moved (kinds {:?})",
            protocol.label(),
            web::EVENT_KINDS
        );
    }

    // Under faults, a load publishes both halves of `fault.injected`:
    // the faults it injected itself and the packets its links' fault
    // clauses destroyed.
    let faults = pq_fault::FaultPlan::parse(pq_bench::CHAOS_SPEC).expect("chaos spec parses");
    let faulted = LoadOptions {
        faults: Some(std::sync::Arc::new(faults)),
        ..LoadOptions::default()
    };
    for protocol in [Protocol::Quic, Protocol::H2Edge] {
        let c = load_published(&site, protocol, &faulted).counts;
        assert!(
            c.faults_injected > c.fault_lost && c.fault_lost > 0,
            "{}: {c:?}",
            protocol.label()
        );
    }

    // With the span profiler on, the sequence holds and the load folds
    // to its one `load:<stack>` frame plus its proxy's dispatches.
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
        let root = format!("load:{}", protocol.label());
        let mut want = vec![(root.clone(), 1)];
        if let Some(&(_, n)) = DISPATCHES.iter().find(|d| d.0 == protocol) {
            want.push((format!("{root};edge:dispatch"), n));
        }
        let rows: Vec<(String, u64)> = pq_prof::folded()
            .into_iter()
            .map(|(path, count, _)| (path, count))
            .collect();
        assert_eq!(rows, want, "{}: the profile's frames", protocol.label());
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

    // With the record on, the sequence holds, and not one tracer event
    // is recorded with the tracer at Debug.
    let recording = LoadOptions {
        record: true,
        ..LoadOptions::default()
    };
    let recorded = || pq_obs::tracer().stats().1;
    pq_obs::tracer().set_level(pq_obs::Level::Debug);
    for (protocol, events, plt_ns, retransmits, connections, _) in PINS {
        let before = recorded();
        let r = load_with(&site, protocol, &recording);
        assert_eq!(
            (r.counts.events_total(), r.plt.as_nanos()),
            (events, plt_ns),
            "{}: recording moved the event sequence",
            protocol.label()
        );
        assert_eq!((r.retransmits, r.connections), (retransmits, connections));
        assert!(r.record.is_some(), "{}: no record", protocol.label());
        assert_eq!(recorded(), before, "{}: wrote the tracer", protocol.label());
    }
    pq_obs::tracer().set_level(pq_obs::Level::Off);

    // Rendered at Debug, each load names exactly its page, connection
    // and leg rows, with every object's row at `100 + id`, and draws its
    // pinned transport, link and web rows; at Info, the link rows and
    // the pacing holds stay out.
    for (protocol, want, transport, link, web) in [
        (
            Protocol::QuicEdge,
            &QUIC_EDGE_ROWS[..],
            &QUIC_EDGE_TRANSPORT[..],
            &QUIC_EDGE_LINK[..],
            &QUIC_EDGE_WEB[..],
        ),
        (
            Protocol::TcpPlus,
            &TCP_PLUS_ROWS[..],
            &TCP_PLUS_TRANSPORT[..],
            &TCP_PLUS_LINK[..],
            &TCP_PLUS_WEB[..],
        ),
    ] {
        let r = load_with(&site, protocol, &recording);
        let p = r.render(&site, pq_obs::Level::Debug).expect("a record");
        let label = protocol.label();
        assert_eq!(p.name, format!("{} · {label} · seed {SEED}", site.name));
        let mut rows: Vec<(u64, String)> = p
            .tracks
            .iter()
            .map(|(tid, name)| (u64::from(*tid), name.clone()))
            .collect();
        rows.sort();
        let (objects, tracks): (Vec<_>, Vec<_>) =
            rows.into_iter().partition(|(tid, _)| *tid >= 100);
        let want: Vec<(u64, String)> = want.iter().map(|(t, n)| (*t, n.to_string())).collect();
        assert_eq!(tracks, want, "{label}: page / conn / leg rows");
        assert_eq!(objects.len(), site.objects.len(), "one row per object");
        for (tid, name) in objects {
            let id = tid - 100;
            assert!(
                name.starts_with(&format!("obj {id} (")),
                "{label}: row {tid} is {name:?}, not object {id}'s"
            );
        }
        let pinned = |events: &[(&str, u64)]| -> Vec<(String, u64)> {
            events.iter().map(|(n, c)| (n.to_string(), *c)).collect()
        };
        assert_eq!(
            events_per_name(&p, &["transport"]),
            pinned(transport),
            "{label}: transport events per name"
        );
        assert_eq!(
            events_per_name(&p, &["sim", "fault"]),
            pinned(link),
            "{label}: link events per name"
        );
        assert_eq!(
            web_rows(&p),
            web.iter()
                .map(|&(n, c, ts, dur)| (n.to_string(), c, ts, dur))
                .collect::<Vec<_>>(),
            "{label}: web events per name"
        );
        let info = r.render(&site, pq_obs::Level::Info).expect("a record");
        let held = transport
            .iter()
            .filter(|(n, _)| !n.starts_with("pacing hold"));
        assert_eq!(
            events_per_name(&info, &["transport"]),
            pinned(&held.copied().collect::<Vec<_>>()),
            "{label}: transport events per name at Info"
        );
        assert_eq!(events_per_name(&info, &["sim", "fault"]), []);
    }
}

/// How many events of the categories `cats` `p` holds, per name,
/// sorted by name.
fn events_per_name(p: &pq_obs::Process, cats: &[&str]) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = Vec::new();
    for ev in p.events.iter().filter(|e| cats.contains(&e.cat)) {
        match counts.iter_mut().find(|(name, _)| *name == ev.name) {
            Some((_, n)) => *n += 1,
            None => counts.push((ev.name.clone(), 1)),
        }
    }
    counts.sort();
    counts
}

/// The `web`-category events `p` holds, per name, sorted by name:
/// `(name, count, Σ ts ns, Σ duration ns)`.
fn web_rows(p: &pq_obs::Process) -> Vec<(String, u64, u64, u64)> {
    let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
    for ev in p.events.iter().filter(|e| e.cat == "web") {
        let i = match rows.iter().position(|r| r.0 == ev.name) {
            Some(i) => i,
            None => {
                rows.push((ev.name.clone(), 0, 0, 0));
                rows.len() - 1
            }
        };
        let row = &mut rows[i];
        (row.1, row.2, row.3) = (row.1 + 1, row.2 + ev.ts_ns, row.3 + ev.dur_ns);
    }
    rows.sort();
    rows
}
