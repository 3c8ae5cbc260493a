//! The browser model: a fresh-profile page load through the emulated
//! access link (the Chromium + Browsertime role of the paper's §3).
//!
//! One `load_page` call = one website visit with an empty cache: every
//! origin needs a fresh connection (so QUIC's 1-RTT handshake pays off
//! once per origin), resources are discovered progressively while the
//! document streams in, and paint events build the visual-completeness
//! timeline that the metrics and the user-study stimuli are derived
//! from.
//!
//! This file is the loader core: one table of objects, one table of
//! connections addressed by key, and one event loop that pumps a
//! connection's outputs onto the links' lanes and its progress into
//! objects (`browser/page.rs` is the half that knows what the browser
//! does with the bytes). Which HTTP mapping a connection carries is
//! `mux.rs`'s business, and a function of the transport alone; what
//! stands between browser and origins — nothing, a middlebox, a
//! terminating proxy with legs of its own — is `junction.rs`'s, and the
//! paper's five stacks take the `Direct` arm of every match on it.

use crate::http2::H2Mux;
use crate::junction::Junction;
use crate::mux::{ConnState, Mux};
use crate::object::{Got, ObjectId, Progress};
use crate::website::Website;
use pq_edge::EdgeConfig;
use pq_metrics::{MetricSet, VisualTimeline};
use pq_sim::{
    ConnId, Direction, EventQueue, Lane, LaneEvent, Link, LinkConfig, LinkStats, NetworkConfig,
    Packet, SimDuration, SimRng, SimTime, Source,
};
use pq_transport::{Connection, Output, Protocol, StackConfig, Wire};

mod page;
mod record;
use page::ObjState;
pub use record::{ConnRecord, LaneNote, LoadRecord};

/// Tunables of one page load.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Scale factor on client-side processing costs (parse, script
    /// execution, image decode, style+layout). 1.0 = calibrated
    /// defaults; 0.0 disables processing entirely (network-only loads,
    /// useful for ablations).
    pub processing_scale: f64,
    /// Fault-injection plan for this load (`None` = no injection; the
    /// default). `StimulusSet::build_with_faults` copies the run's plan
    /// in for every load of the grid.
    pub faults: Option<std::sync::Arc<pq_fault::FaultPlan>>,
    /// Edge-topology knobs for the edge stacks (`QUIC-EDGE`,
    /// `QUIC-MBX`, `H2-EDGE`). `None` — the default — means
    /// `EdgeConfig::default()`. Ignored entirely by the Table-1
    /// stacks, which keep their single-link topology bit-for-bit.
    pub edge: Option<EdgeConfig>,
    /// Keep a [`LoadRecord`] of what the load did, for its trace
    /// ([`PageLoadResult::render`]); off by default. The load is the
    /// same load either way.
    pub record: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            processing_scale: 1.0,
            faults: None,
            edge: None,
            record: false,
        }
    }
}

/// Server think time: fixed base…
const THINK_BASE_MS: f64 = 4.0;
/// …plus an exponential jitter with this mean (run-to-run variation,
/// as in any real testbed).
const THINK_JITTER_MS: f64 = 3.0;
/// Outcome of one page load.
#[derive(Clone, Debug)]
pub struct PageLoadResult {
    /// The five technical metrics.
    pub metrics: MetricSet,
    /// The visual-completeness curve; `Recording::render(&timeline,
    /// plt, fps)` turns it into a video.
    pub timeline: VisualTimeline,
    /// Whether every object finished before the horizon.
    pub complete: bool,
    /// Page load time (onload) or the horizon when incomplete.
    pub plt: SimTime,
    /// Transport retransmissions summed over all connections.
    pub retransmits: u64,
    /// Connections opened (= origins contacted).
    pub connections: u32,
    /// What the load counted: its events by kind, its links' packets,
    /// its faults and its junction's work.
    pub counts: LoadCounts,
    /// What it recorded, with [`LoadOptions::record`] on.
    pub record: Option<Box<LoadRecord>>,
}

/// What one page load counted, as a value. `+=` sums two field by
/// field, so a grid cell or a whole grid totals its loads the same
/// way; a load publishes its own to the process-global registry once,
/// as it ends, and nothing in the workspace reads them back from
/// there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadCounts {
    /// Page loads: 1 for one load.
    pub loads: u64,
    /// Loads that did not finish before the horizon.
    pub incomplete: u64,
    /// Events popped, by kind ([`EVENT_KINDS`]).
    pub events: [u64; EVENT_KINDS.len()],
    /// Packets offered to the links…
    pub offered: u64,
    /// …delivered out of their far ends…
    pub delivered: u64,
    /// …turned away by a full queue…
    pub tail_dropped: u64,
    /// …lost at random (the network's loss rate)…
    pub random_lost: u64,
    /// …and destroyed by an injected link fault.
    pub fault_lost: u64,
    /// Faults injected: each handshake-flight drop, server stall and
    /// truncated response, plus every packet in `fault_lost`.
    pub faults_injected: u64,
    /// Proxy legs the terminating proxy opened…
    pub conns_opened: u64,
    /// …requests it sent over an open leg…
    pub conns_reused: u64,
    /// …and legs its pools evicted.
    pub conns_evicted: u64,
    /// Buffered packets the middlebox retransmitted early.
    pub mbx_early_retx: u64,
}

impl LoadCounts {
    /// Events popped, all kinds together.
    pub fn events_total(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Add what `link` did with the packets offered to it.
    fn add_link(&mut self, link: &LinkStats) {
        self.offered += link.offered;
        self.delivered += link.delivered;
        self.tail_dropped += link.tail_dropped;
        self.random_lost += link.lost;
        self.fault_lost += link.fault_lost;
    }

    /// The registry's one writer in this crate: add each series this
    /// load moved. The registry serves `benches/perf` only, so a count
    /// it does not read (`conns_evicted`) is not published.
    fn publish(&self) {
        let reg = pq_obs::registry();
        let series = [
            ("web.pageloads", self.loads),
            ("web.pageloads_incomplete", self.incomplete),
            ("sim.events_processed", self.events_total()),
            ("sim.link.offered", self.offered),
            ("sim.link.delivered", self.delivered),
            ("sim.link.tail_dropped", self.tail_dropped),
            ("sim.link.random_lost", self.random_lost),
            ("sim.link.fault_lost", self.fault_lost),
            ("fault.injected", self.faults_injected),
            ("edge.conns_opened", self.conns_opened),
            ("edge.conns_reused", self.conns_reused),
            ("edge.mbx_early_retx", self.mbx_early_retx),
        ];
        for (name, n) in series {
            if n > 0 {
                reg.counter_add(name, n);
            }
        }
    }
}

impl std::ops::AddAssign for LoadCounts {
    fn add_assign(&mut self, other: LoadCounts) {
        self.loads += other.loads;
        self.incomplete += other.incomplete;
        for (n, m) in self.events.iter_mut().zip(other.events) {
            *n += m;
        }
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.tail_dropped += other.tail_dropped;
        self.random_lost += other.random_lost;
        self.fault_lost += other.fault_lost;
        self.faults_injected += other.faults_injected;
        self.conns_opened += other.conns_opened;
        self.conns_reused += other.conns_reused;
        self.conns_evicted += other.conns_evicted;
        self.mbx_early_retx += other.mbx_early_retx;
    }
}

/// What the event queue holds: timers. Link tx-dones and packets in
/// propagation wait in the [`Loader::lanes`] instead.
#[derive(Clone, Copy)]
enum Ev {
    /// Connection `.0`'s transport timer expired; `.1` tells the
    /// latest scheduled wake-up from the stale ones.
    Wake(u32, u64),
    /// The server at the far end of connection `.0` finished thinking
    /// about an object.
    Respond(u32, ObjectId),
    /// Client-side processing of a fully delivered object finished.
    Processed(ObjectId),
    /// A deferred (lazy) request's timer expired: issue it now.
    DeferredRequest(ObjectId),
    /// Style + first layout done: painting may start.
    GateOpen,
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// Lanes of the client segment, uplink and downlink…
const UP: usize = 0;
const DOWN: usize = 1;
/// …and of the origin segment, junction to origin (edge stacks only).
const O_UP: usize = 2;
const O_DOWN: usize = 3;

/// A lane's name: the fault key of its link and its trace label.
fn lane_name(lane: usize) -> &'static str {
    match lane {
        UP => "uplink",
        DOWN => "downlink",
        O_UP => "origin-uplink",
        _ => "origin-downlink",
    }
}

/// The lane carrying `dir` on the client or the origin segment.
fn lane_of(dir: Direction, origin: bool) -> usize {
    match (origin, dir) {
        (false, Direction::Up) => UP,
        (false, Direction::Down) => DOWN,
        (true, Direction::Up) => O_UP,
        (true, Direction::Down) => O_DOWN,
    }
}

/// Connections go by key: the browser's by index, a proxy's legs by
/// `LEG_KEY_BASE` + theirs — as event targets, as handshake-fault keys
/// and in the load's record alike.
const LEG_KEY_BASE: u32 = 1000;

/// The proxy leg `key` names, if it names one.
fn leg_of(key: u32) -> Option<u32> {
    key.checked_sub(LEG_KEY_BASE)
}

struct Loader<'a> {
    opts: &'a LoadOptions,
    q: EventQueue<Ev>,
    /// One per link direction, indexed [`UP`]‥[`O_DOWN`] (two on the
    /// Table-1 stacks, four on the edge stacks).
    lanes: Vec<Lane<Wire>>,
    /// The browser's connections, by key, one per origin (a proxy's
    /// legs live in the junction, see [`Loader::table_mut`]).
    conns: Vec<ConnState>,
    junction: Junction,
    cfg: StackConfig,
    think_rng: SimRng,
    /// Indexed by [`ObjectId`].
    objs: Vec<ObjState<'a>>,
    n_done: usize,
    timeline: VisualTimeline,
    vc: f64,
    gate_open: bool,
    /// Gate conditions met; style+layout in progress.
    gate_scheduled: bool,
    /// Onload instant (set when the last object finishes processing).
    plt_at: Option<SimTime>,
    /// What the load records (`None` unless [`LoadOptions::record`]).
    record: Option<Box<LoadRecord>>,
    /// Per-load fault view (`None` = injection off).
    faults: Option<pq_fault::LoadFaults>,
    /// Scratch buffers of the pump loop: routing an output needs
    /// `&mut self`, so a pump takes one, fills and drains it, and puts
    /// it back for its capacity (a nested pump finds an empty one and
    /// starts cold) instead of a fresh per-event `Vec`.
    out_buf: Vec<Output>,
    /// Objects whose requests just arrived at a server.
    ready_buf: Vec<ObjectId>,
    /// Per-object progress of one delivery.
    progress_buf: Vec<Progress>,
    /// The middlebox's early retransmits for one uplink packet.
    retx_buf: Vec<Packet<Wire>>,
    /// What the load has counted so far.
    counts: LoadCounts,
}

/// Load `site` over `net` with `protocol`; `seed` drives every source
/// of run-to-run variation (random loss, server think jitter).
pub fn load_page(
    site: &Website,
    net: &NetworkConfig,
    protocol: Protocol,
    seed: u64,
    opts: &LoadOptions,
) -> PageLoadResult {
    // Degenerate (`custom_net`-style) configs are clamped with one
    // tracer warning rather than simulated as garbage; valid configs
    // pass through untouched, so baselines are unaffected.
    let net = net.clone().checked().unwrap_or_else(|e| {
        pq_obs::tracer().warn("sim", format!("{e}; clamped to usable values"));
        net.clone().sanitized()
    });
    load_page_with_config(site, &net, &protocol.config(&net), seed, opts)
}

/// Load with an explicit stack configuration — the knob-by-knob API
/// behind tuning ablations (e.g. "stock TCP + IW32 only").
pub fn load_page_with_config(
    site: &Website,
    net: &NetworkConfig,
    cfg: &StackConfig,
    seed: u64,
    opts: &LoadOptions,
) -> PageLoadResult {
    let protocol = cfg.protocol;
    #[expect(
        clippy::disallowed_methods,
        reason = "load-entry derivation point: `seed` is the per-cell run_seed; every sub-stream forks from it"
    )]
    let rng = SimRng::new(seed);
    let client_mux = Mux::for_client(protocol);

    // Bind the fault plan (if any) to this load, keyed by its seed —
    // every injection decision below is a pure function of
    // `(fault seed, load seed, entity id)`.
    let faults = opts
        .faults
        .as_ref()
        .filter(|p| !p.is_empty())
        .map(|p| pq_fault::LoadFaults::new(p.clone(), seed));

    let q = EventQueue::new();
    // Edge stacks split the path at the junction; Table-1 stacks keep
    // the single end-to-end link untouched. Fault clauses bind to each
    // path segment independently: every link has its own fault key.
    let (junction, client_net, origin_net) =
        Junction::build(protocol, opts.edge.as_ref(), net, &rng);
    let lane = |link: LinkConfig, lane: usize, loss: &str| {
        let mut link = Link::new(link, rng.fork(loss));
        if let Some(f) = &faults {
            link.set_fault(f.link_fault(lane_name(lane)));
        }
        Lane::new(link)
    };
    let mut lanes = vec![
        lane(client_net.uplink(), UP, "uplink-loss"),
        lane(client_net.downlink(), DOWN, "downlink-loss"),
    ];
    if let Some(net) = origin_net {
        let up = lane(net.uplink(), O_UP, "origin-uplink-loss");
        let down = lane(net.downlink(), O_DOWN, "origin-downlink-loss");
        lanes.extend([up, down]);
    }

    let mut loader = Loader {
        opts,
        q,
        lanes,
        conns: Vec::new(),
        junction,
        cfg: *cfg,
        think_rng: rng.fork("server-think"),
        objs: page::table(site, &client_mux),
        n_done: 0,
        timeline: VisualTimeline::new(),
        vc: 0.0,
        gate_open: false,
        gate_scheduled: false,
        plt_at: None,
        record: opts
            .record
            .then(|| Box::new(LoadRecord::new(seed, protocol, site.objects.len()))),
        faults,
        out_buf: Vec::new(),
        ready_buf: Vec::new(),
        progress_buf: Vec::new(),
        retx_buf: Vec::new(),
        counts: LoadCounts::default(),
    };

    let _load_span = pq_prof::span_dyn(|| format!("load:{}", protocol.label()));
    loader.discover(SimTime::ZERO, ObjectId(0));
    loader.run()
}

/// What a page load's event loop fires, by kind: slot `i` of
/// [`LoadCounts::events`] counts `EVENT_KINDS[i]`. Timers come out
/// of the event queue's heap (a stale wake-up counts as a `timer`);
/// tx-dones and arrivals out of the links' lanes. The `edge-` kinds are
/// a proxy leg's timers and responses, and the origin segment's lanes.
pub const EVENT_KINDS: [&str; 13] = [
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

/// The [`EVENT_KINDS`] index of a timer…
fn timer_kind(ev: Ev) -> usize {
    match ev {
        Ev::Wake(key, _) if leg_of(key).is_some() => 11, // edge-timer
        Ev::Wake(..) => 3,                               // timer
        Ev::Respond(key, _) if leg_of(key).is_some() => 12, // edge-respond
        Ev::Respond(..) => 4,                            // respond
        Ev::Processed(..) => 5,                          // process
        Ev::DeferredRequest(..) => 6,                    // defer
        Ev::GateOpen => 7,                               // gate
    }
}

/// …and of what a lane fires.
fn lane_kind(lane: usize, what: LaneEvent) -> usize {
    match (what, lane) {
        (LaneEvent::TxDone, UP) => 0,         // tx-up
        (LaneEvent::TxDone, DOWN) => 1,       // tx-down
        (LaneEvent::TxDone, O_UP) => 8,       // edge-tx-up
        (LaneEvent::TxDone, _) => 9,          // edge-tx-down
        (LaneEvent::Arrival, UP | DOWN) => 2, // arrival
        (LaneEvent::Arrival, _) => 10,        // edge-arrival
    }
}

impl Loader<'_> {
    /// The table connection `key` lives in and its index there: the
    /// browser's connections by key, a proxy's legs from
    /// [`LEG_KEY_BASE`] up.
    fn table_mut(&mut self, key: u32) -> Option<(&mut Vec<ConnState>, u32)> {
        match (leg_of(key), &mut self.junction) {
            (None, _) => Some((&mut self.conns, key)),
            (Some(li), Junction::Proxy(proxy)) => Some((&mut proxy.legs, li)),
            (Some(_), _) => None,
        }
    }

    fn conn_mut(&mut self, key: u32) -> Option<&mut ConnState> {
        let (table, index) = self.table_mut(key)?;
        table.get_mut(index as usize)
    }

    /// Note something in the load's record, if it keeps one.
    fn note(&mut self, f: impl FnOnce(&mut LoadRecord)) {
        if let Some(r) = self.record.as_deref_mut() {
            f(r);
        }
    }

    /// Issue the request on the connection to the object's origin, or
    /// open that connection first.
    fn request_object(&mut self, now: SimTime, id: ObjectId) {
        let Some(o) = self.objs.get(id.0 as usize) else {
            return;
        };
        // The terminating proxy fronts every origin behind one
        // client-facing connection (CDN-style coalescing): the origin
        // fan-out happens on its pooled legs instead.
        let origin = match self.junction {
            Junction::Proxy(_) => 0,
            Junction::Direct | Junction::Middlebox(_) => o.spec.origin.0,
        };
        let key = match self.conns.iter().position(|c| c.origin == origin) {
            Some(i) => i as u32,
            None => {
                let key = self.conns.len() as u32;
                let mux = Mux::for_client(self.cfg.protocol);
                self.open(now, key, self.cfg, mux, origin);
                key
            }
        };
        self.note(|r| r.requested(id, now));
        self.send_request(now, key, id);
    }

    /// Put `id`'s request on connection `key`.
    fn send_request(&mut self, now: SimTime, key: u32, id: ObjectId) {
        if let Some(c) = self.conn_mut(key) {
            c.request(now, id);
        }
        self.pump(now, key);
    }

    /// Count one injected fault, and note it in the record.
    fn note_fault(&mut self, now: SimTime, what: &'static str, detail: u64) {
        self.counts.faults_injected += 1;
        self.note(|r| r.faults.push((now, what, detail)));
    }

    /// Open connection `key` — the next of its table — to `origin`,
    /// carrying `mux` over a `cfg` stack. This is the one place a
    /// transport flavour and an HTTP mapping are paired.
    fn open(&mut self, now: SimTime, key: u32, cfg: StackConfig, mux: Mux, origin: u16) {
        let leg = leg_of(key);
        let mut conn = Connection::open(ConnId(leg.unwrap_or(key)), cfg, now);
        // Handshake fault: the first client flight never reaches the
        // wire; the transport's own handshake timeout / RTO machinery
        // must recover (that recovery is exactly what we're testing).
        // Keyed by `key`, so legs draw apart from the browser's
        // connections — "hs-drop through the proxy" exercises both
        // sides independently.
        let hs_lost = self
            .faults
            .as_ref()
            .is_some_and(|f| f.handshake_flight_lost(key));
        if hs_lost && conn.discard_pending_sends() > 0 {
            self.note_fault(now, "handshake flight lost", u64::from(key));
        }
        if let Some(r) = self.record.as_deref_mut() {
            conn.observe();
            r.conns.push(ConnRecord {
                key,
                origin,
                protocol: cfg.protocol,
                opened: now,
                handshake: None,
            });
        }
        if let Some((table, _)) = self.table_mut(key) {
            table.push(ConnState {
                conn,
                mux,
                origin,
                wake_version: 0,
            });
        }
    }

    /// Drain a connection's outputs, route packets, apply progress, and
    /// reschedule its wakeup.
    fn pump(&mut self, now: SimTime, key: u32) {
        let mut outputs = std::mem::take(&mut self.out_buf);
        while let Some(c) = self.conn_mut(key) {
            c.conn.drain_outputs(&mut outputs);
            if outputs.is_empty() {
                // Let the H2 writer top up the transport.
                if !c.top_up(now) {
                    break;
                }
                continue;
            }
            for out in outputs.drain(..) {
                self.route_output(now, key, out);
            }
        }
        self.out_buf = outputs;
        let Some(c) = self.conn_mut(key) else { return };
        let at = c.conn.poll_at();
        if at != SimTime::MAX {
            c.wake_version += 1;
            let version = c.wake_version;
            self.q.schedule(at.max(now), Ev::Wake(key, version));
        }
    }

    /// `obj`'s request reached the origin behind connection `key`:
    /// answer once the server has thought about it.
    fn think(&mut self, now: SimTime, key: u32, obj: ObjectId) {
        // The baseline think-time draw always happens, so the jitter
        // stream is identical with faults off.
        let mut think = THINK_BASE_MS + self.think_rng.exponential(THINK_JITTER_MS);
        let stall = self.faults.as_ref().and_then(|f| f.server_stall_ms(obj.0));
        if let Some(extra) = stall {
            think += extra;
            self.note_fault(now, "server stall", u64::from(obj.0));
        }
        let at = now + SimDuration::from_secs_f64(think / 1e3);
        self.q.schedule(at, Ev::Respond(key, obj));
    }

    /// The body bytes a server sends for `obj`.
    fn response_body(&mut self, now: SimTime, obj: ObjectId) -> u64 {
        let body = self.objs.get(obj.0 as usize).map_or(0, |o| o.spec.size);
        // Truncated-response fault: the server closes the stream
        // early, so the client can never reach the expected byte count
        // and the object stays open — the page load ends incomplete at
        // the horizon.
        let Some(frac) = self.faults.as_ref().and_then(|f| f.truncate(obj.0)) else {
            return body;
        };
        self.note_fault(now, "truncated response", u64::from(obj.0));
        ((body as f64 * frac) as u64).min(body.saturating_sub(1))
    }

    /// Offer `pkt` to `lane`'s link.
    fn send(&mut self, now: SimTime, lane: usize, pkt: Packet<Wire>) {
        let Some(l) = self.lanes.get_mut(lane) else {
            return;
        };
        let outcome = l.push(&mut self.q, now, pkt);
        if let Some(r) = self.record.as_deref_mut() {
            r.pushed(now, lane, &outcome, l.link().queued_bytes());
        }
    }

    fn route_output(&mut self, now: SimTime, key: u32, out: Output) {
        match out {
            Output::Send(dir, pkt) => {
                let at_origin = match self.junction {
                    Junction::Direct => false,
                    // The server endpoint sits at the origin, so its
                    // downstream packets enter on the backbone segment
                    // (and reach the client via the junction).
                    // Client-side sends are unchanged.
                    Junction::Middlebox(_) => dir == Direction::Down,
                    // The origin segment is the legs'.
                    Junction::Proxy(_) => leg_of(key).is_some(),
                };
                self.send(now, lane_of(dir, at_origin), pkt);
            }
            Output::HandshakeDone => self.note(|r| r.handshake(key, now)),
            Output::Trace(ev) => self.note(|r| r.conn_events.push((key, ev))),
            Output::ServerStreamProgress {
                stream,
                delivered,
                fin,
            } => {
                let mut ready = std::mem::take(&mut self.ready_buf);
                if let Some(c) = self.conn_mut(key) {
                    c.on_server_progress(stream, delivered, fin, &mut ready);
                }
                for obj in ready.drain(..) {
                    self.on_request(now, key, obj);
                }
                self.ready_buf = ready;
            }
            Output::ClientStreamProgress {
                stream, delivered, ..
            } => {
                let mut progress = std::mem::take(&mut self.progress_buf);
                if let Some(c) = self.conn_mut(key) {
                    c.on_client_progress(stream, delivered, &mut progress);
                }
                for p in progress.drain(..) {
                    self.on_progress(now, key, p);
                }
                self.progress_buf = progress;
            }
        }
    }

    /// `obj`'s request reached the server end of connection `key`.
    fn on_request(&mut self, now: SimTime, key: u32, obj: ObjectId) {
        let origin = self.objs.get(obj.0 as usize).map(|o| o.spec.origin.0);
        match (&mut self.junction, origin) {
            // The "server" of the browser's connection is the proxy: no
            // think time here; the request continues on a pooled leg,
            // and think happens at the real origin, that leg's far end.
            (Junction::Proxy(proxy), Some(origin)) if leg_of(key).is_none() => {
                let _sp = pq_prof::span("edge:dispatch");
                let (li, fresh) = proxy.dispatch(origin, now);
                if fresh {
                    let (cfg, h2) = (proxy.leg_cfg, Mux::H2(H2Mux::new()));
                    self.open(now, LEG_KEY_BASE + li, cfg, h2, origin);
                }
                self.send_request(now, LEG_KEY_BASE + li, obj);
            }
            _ => self.think(now, key, obj),
        }
    }

    /// The client end of connection `key` learned `p`.
    fn on_progress(&mut self, now: SimTime, key: u32, p: Progress) {
        if let (Junction::Proxy(proxy), Some(_)) = (&mut self.junction, leg_of(key)) {
            // Origin bytes arrived back at the proxy (legs speak H2,
            // which reports them as `More`): relay their share onto the
            // client-facing stream — connection 0, which fronts every
            // origin.
            let Got::More(new) = p.got else { return };
            let Some((bytes, fin)) = proxy.advance(now, p.object, new) else {
                return;
            };
            if let Some(c) = self.conns.first_mut() {
                c.relay(now, p.object, bytes, fin);
            }
            return self.pump(now, 0);
        }
        let Some(o) = self.objs.get(p.object.0 as usize) else {
            return;
        };
        let got = match p.got {
            Got::Total(total) => total.min(o.expect).max(o.got),
            Got::More(new) => o.got + new,
        };
        self.object_progress(now, p.object, got);
    }

    /// End-of-load bookkeeping: the load's counts, finished and
    /// published once.
    fn finish_counts(&mut self, complete: bool) -> LoadCounts {
        debug_assert_eq!(self.counts.events_total(), self.q.processed());
        self.counts.loads = 1;
        self.counts.incomplete = u64::from(!complete);
        for l in &self.lanes {
            self.counts.add_link(l.link().stats());
        }
        self.counts.faults_injected += self.counts.fault_lost;
        self.junction.count(&mut self.counts);
        self.counts.publish();
        self.counts
    }

    /// A lane fired: its link finished a packet, or a packet came out
    /// of its far end.
    fn on_lane(&mut self, now: SimTime, lane: usize, what: LaneEvent) {
        let Some(l) = self.lanes.get_mut(lane) else {
            return;
        };
        if what == LaneEvent::TxDone {
            let lost = l.on_tx_done(&mut self.q, now);
            if let (Some(r), Some((loss, size))) = (self.record.as_deref_mut(), lost) {
                r.lanes.push((now, lane, LaneNote::Lost(loss, size)));
            }
            return;
        }
        let Some(pkt) = l.pop_arrival() else { return };
        let key = match (&mut self.junction, lane) {
            // The client segment's uplink ends at the middlebox: let it
            // read the ACK ranges — re-injecting any inferred-lost
            // buffered packets onto the access downlink — then forward
            // the packet onto the backbone toward the origin.
            (Junction::Middlebox(mbx), UP) => {
                let mut retx = std::mem::take(&mut self.retx_buf);
                mbx.on_uplink(&pkt, &mut retx);
                for r in retx.drain(..) {
                    self.send(now, DOWN, r);
                }
                self.retx_buf = retx;
                return self.send(now, O_UP, pkt);
            }
            // So does the origin segment's downlink: buffer the packet
            // for possible early retransmit, then forward it down the
            // access link to the client.
            (Junction::Middlebox(mbx), O_DOWN) => {
                mbx.on_downlink(now, &pkt);
                return self.send(now, DOWN, pkt);
            }
            // The origin segment carries the proxy's leg traffic in
            // both directions.
            (Junction::Proxy(_), O_UP | O_DOWN) => LEG_KEY_BASE + pkt.conn.0,
            // End to end, whichever segment finishes the trip.
            _ => pkt.conn.0,
        };
        let dir = match lane {
            UP | O_UP => Direction::Up,
            _ => Direction::Down,
        };
        if let Some(c) = self.conn_mut(key) {
            c.conn.on_packet(now, &pkt.payload, dir);
            c.conn.recycle(pkt.payload);
            self.pump(now, key);
        }
    }

    /// Count one event of kind `kind` ([`EVENT_KINDS`]).
    fn count(&mut self, kind: usize) {
        if let Some(n) = self.counts.events.get_mut(kind) {
            *n += 1;
        }
    }

    /// A timer popped off the event queue.
    fn on_timer(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Wake(key, version) => {
                let c = self.conn_mut(key);
                if let Some(c) = c.filter(|c| c.wake_version == version) {
                    c.conn.on_wake(now);
                    self.pump(now, key);
                }
            }
            Ev::Processed(id) => self.object_processed(now, id),
            Ev::DeferredRequest(id) => self.request_object(now, id),
            Ev::GateOpen => {
                self.gate_open = true;
                if self.vc > 0.0 {
                    self.timeline.push(now, self.vc);
                }
            }
            Ev::Respond(key, obj) => {
                let body = self.response_body(now, obj);
                if let (Junction::Proxy(proxy), Some(li)) = (&mut self.junction, leg_of(key)) {
                    // The origin answers through the proxy: what arrives
                    // on the leg is bridged onto the client-facing
                    // stream, framed for the mux the browser speaks.
                    let client = self.conns.first();
                    let client_total = client.map_or(0, |c| c.mux.response_bytes(body));
                    proxy.bridge(obj, li, body, client_total);
                }
                let Some(c) = self.conn_mut(key) else { return };
                c.respond(now, obj, body);
                self.pump(now, key);
            }
        }
    }

    fn run(mut self) -> PageLoadResult {
        /// A load gives up after this much virtual time…
        const HORIZON: SimDuration = SimDuration::from_secs(300);
        /// …or after this many events.
        const MAX_EVENTS: u64 = 200_000_000;
        let horizon = SimTime::ZERO + HORIZON;

        // Run until onload fired AND the first-paint gate opened (the
        // gate's layout event can be scheduled past the last object on
        // small fast pages).
        while self.plt_at.is_none() || !self.gate_open {
            let Some((stamp, source)) = pq_sim::lane::earliest(&self.q, &self.lanes) else {
                break;
            };
            if stamp.time() > horizon || self.q.processed() > MAX_EVENTS {
                break;
            }
            match source {
                Source::Heap => {
                    let Some((now, ev)) = self.q.pop() else { break };
                    self.count(timer_kind(ev));
                    self.on_timer(now, ev);
                }
                Source::Lane(lane, what) => {
                    self.q.advance(stamp);
                    self.count(lane_kind(lane, what));
                    self.on_lane(stamp.time(), lane, what);
                }
            }
        }

        let complete = self.plt_at.is_some();
        // Onload in practice does not fire before the final paint
        // flush; clamp PLT to the last visual change.
        let last_paint = self.timeline.last_change().unwrap_or(SimTime::ZERO);
        let plt = self
            .plt_at
            .unwrap_or_else(|| self.q.now().min(horizon))
            .max(last_paint);
        let metrics = MetricSet::from_timeline(&self.timeline, plt);
        let counts = self.finish_counts(complete);
        let legs = match &self.junction {
            Junction::Proxy(proxy) => proxy.legs.as_slice(),
            Junction::Direct | Junction::Middlebox(_) => &[],
        };
        let conns = || self.conns.iter().chain(legs);
        PageLoadResult {
            metrics,
            complete,
            plt,
            retransmits: conns().map(|c| c.conn.retransmits()).sum::<u64>(),
            connections: conns().count() as u32,
            counts,
            timeline: self.timeline,
            record: self.record,
        }
    }
}
