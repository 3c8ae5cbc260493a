//! The browser model: a fresh-profile page load through the emulated
//! access link (the Chromium + Browsertime role of the paper's §3).
//!
//! One `load_page` call = one website visit with an empty cache: every
//! origin needs a fresh connection (so QUIC's 1-RTT handshake pays off
//! once per origin), resources are discovered progressively while the
//! document streams in, and paint events build the visual-completeness
//! timeline that the metrics and the user-study stimuli are derived
//! from.

use crate::http1::{H1Conn, H1Pool};
use crate::http2::{H2Mux, ResponseProgress};
use crate::http3::H3Map;
use crate::object::{ObjectId, WebObject};
use crate::website::Website;
use pq_edge::{Dispatch, EdgeConfig, EdgePools, Middlebox};
use pq_metrics::{MetricSet, Recording, VisualTimeline};
use pq_obs::{ArgValue, Level};
use pq_sim::{
    ConnId, Direction, EventQueue, Lane, LaneEvent, Link, NetworkConfig, Packet, PushOutcome,
    SimDuration, SimRng, SimTime, Source, Trace, TraceKind,
};
use pq_transport::{Connection, Output, Protocol, Wire};
use std::collections::BTreeMap;

/// Trace-track layout of one page load (one tracer `pid` per load):
/// `tid 0` carries the page-level markers (FVC/LVC/PLT, queue depth,
/// link queues), `tid 1 + ci` one row per connection, `tid 100 + obj`
/// one row per web object.
const TID_PAGE: u32 = 0;
/// First connection row.
const TID_CONN_BASE: u32 = 1;
/// First web-object row.
const TID_OBJ_BASE: u32 = 100;
/// First proxy-leg (origin-side connection) row.
const TID_LEG_BASE: u32 = 60;
/// Offset distinguishing proxy-leg handshake fault keys and trace
/// details from client-side connection indices.
const LEG_KEY_BASE: u32 = 1000;

/// HTTP version used over the TCP stacks (QUIC always uses its own
/// stream mapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HttpVersion {
    /// HTTP/1.1: one request per connection, a pool of up to 6
    /// connections per origin — the legacy baseline.
    Http1,
    /// HTTP/2: one multiplexed connection per origin (the paper's
    /// TCP-side configuration).
    #[default]
    Http2,
}

/// Tunables of one page load.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Recording frame rate; 0 disables video rendering.
    pub fps: u32,
    /// Give up after this much virtual time.
    pub horizon: SimDuration,
    /// Server think time: fixed base in milliseconds…
    pub think_base_ms: f64,
    /// …plus an exponential jitter with this mean (run-to-run
    /// variation, as in any real testbed).
    pub think_jitter_ms: f64,
    /// Detailed trace-event capacity (0 = counters only).
    pub trace_capacity: usize,
    /// Scale factor on client-side processing costs (parse, script
    /// execution, image decode, style+layout). 1.0 = calibrated
    /// defaults; 0.0 disables processing entirely (network-only loads,
    /// useful for ablations).
    pub processing_scale: f64,
    /// HTTP version for the TCP stacks (ignored by QUIC).
    pub http_version: HttpVersion,
    /// Fault-injection plan for this load (`None` = no injection; the
    /// default). Tests should thread a plan here explicitly; the
    /// `PQ_FAULTS`-driven harness installs the process-global plan and
    /// copies it in at the runner layer.
    pub faults: Option<std::sync::Arc<pq_fault::FaultPlan>>,
    /// Edge-topology knobs for the edge stacks (`QUIC-EDGE`,
    /// `QUIC-MBX`, `H2-EDGE`). `None` — the default — means
    /// `EdgeConfig::default()`. Ignored entirely by the Table-1
    /// stacks, which keep their single-link topology bit-for-bit.
    pub edge: Option<EdgeConfig>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            fps: 0,
            horizon: SimDuration::from_secs(300),
            think_base_ms: 4.0,
            think_jitter_ms: 3.0,
            trace_capacity: 0,
            processing_scale: 1.0,
            http_version: HttpVersion::Http2,
            faults: None,
            edge: None,
        }
    }
}

/// Style-recalc + first-layout cost paid once before first paint.
const STYLE_LAYOUT_MS: f64 = 250.0;
/// Progressive resources paint up to this share from raw bytes; the
/// rest appears when decoding/layout finishes.
const PROGRESSIVE_CAP: f64 = 0.9;
/// The HTML parser works through the document over roughly this long
/// (main-thread parsing + preload-scanner yield), so subresources are
/// discovered staggered rather than in one instant — which also
/// staggers the per-origin initial-window bursts.
const PARSE_SPREAD_MS: f64 = 350.0;

/// Outcome of one page load.
#[derive(Clone, Debug)]
pub struct PageLoadResult {
    /// The five technical metrics.
    pub metrics: MetricSet,
    /// The visual-completeness curve.
    pub timeline: VisualTimeline,
    /// Rendered video (when `fps > 0`).
    pub recording: Option<Recording>,
    /// Whether every object finished before the horizon.
    pub complete: bool,
    /// Page load time (onload) or the horizon when incomplete.
    pub plt: SimTime,
    /// Transport retransmissions summed over all connections.
    pub retransmits: u64,
    /// Connections opened (= origins contacted).
    pub connections: u32,
    /// Per-object completion times.
    pub object_done: Vec<Option<SimTime>>,
    /// Trace counters (requests, responses, RTOs, …).
    pub trace: Trace,
}

/// What the event queue holds: timers. Link tx-dones and packets in
/// propagation wait in the [`Loader::lanes`] instead.
#[derive(Clone, Copy)]
enum Ev {
    Wake(u32, u64),
    Respond(u32, ObjectId),
    /// Client-side processing of a fully delivered object finished.
    Processed(ObjectId),
    /// A deferred (lazy) request's timer expired: issue it now.
    DeferredRequest(ObjectId),
    /// Style + first layout done: painting may start.
    GateOpen,
    /// A proxy leg's transport timer expired.
    EdgeWake(u32, u64),
    /// The origin finished thinking about an object requested through
    /// proxy leg `.0`.
    EdgeRespond(u32, ObjectId),
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// Lanes of the client segment, uplink and downlink…
const UP: usize = 0;
const DOWN: usize = 1;
/// …and of the origin segment, junction to origin (edge stacks only).
const O_UP: usize = 2;
const O_DOWN: usize = 3;

/// The lane carrying `dir` on the client or the origin segment.
fn lane_of(dir: Direction, origin: bool) -> usize {
    match (origin, dir) {
        (false, Direction::Up) => UP,
        (false, Direction::Down) => DOWN,
        (true, Direction::Up) => O_UP,
        (true, Direction::Down) => O_DOWN,
    }
}

enum Mux {
    H1(H1Conn),
    H2(H2Mux),
    H3(H3Map),
}

struct ConnState {
    conn: Connection,
    mux: Mux,
    wake_version: u64,
}

/// One origin-side proxy connection (always TCP+ carrying HTTP/2).
/// The pool remembers which origin each leg serves; relay bridges
/// carry the `(origin, leg)` pair they complete on.
struct LegState {
    conn: Connection,
    mux: H2Mux,
    wake_version: u64,
}

/// Relay state of one object flowing origin-leg → client-connection
/// through the terminating proxy. Progress maps proportionally: the
/// proxy has relayed `client_total · origin_got / origin_total` bytes
/// onto the client-facing stream at any instant (cut-through, not
/// store-and-forward).
struct Bridge {
    /// H2 stream bytes the origin response occupies on the leg.
    origin_total: u64,
    origin_got: u64,
    /// Stream bytes the response occupies client-side (H3 or H2
    /// framing, matching the client connection's mux).
    client_total: u64,
    client_written: u64,
    leg: u32,
    origin: u16,
    fin_sent: bool,
}

/// Everything the edge stacks add to a page load besides the origin
/// segment's two lanes: the proxy's pooled legs and relay bridges, and
/// the transparent middlebox. `None` on the Table-1 stacks — their event
/// sequence is untouched.
struct EdgeState {
    leg_cfg: pq_transport::StackConfig,
    legs: Vec<LegState>,
    pools: EdgePools,
    mbx: Option<Middlebox>,
    bridges: BTreeMap<ObjectId, Bridge>,
}

struct Loader<'a> {
    site: &'a Website,
    protocol: Protocol,
    opts: &'a LoadOptions,
    q: EventQueue<Ev>,
    /// One per link direction, indexed [`UP`]‥[`O_DOWN`] (two on the
    /// Table-1 stacks, four on the edge stacks).
    lanes: Vec<Lane<Wire>>,
    conns: Vec<ConnState>,
    origin_conn: BTreeMap<u16, u32>,
    /// HTTP/1.1 connection pools per origin (empty under H2/H3).
    h1_pools: BTreeMap<u16, H1Pool>,
    cfg: pq_transport::StackConfig,
    think_rng: SimRng,
    /// Children of each object, sorted by discovery fraction.
    children: Vec<Vec<(f64, ObjectId)>>,
    discovered: Vec<bool>,
    /// Response-stream progress fraction per object.
    frac: Vec<f64>,
    /// Delivery finished; processing scheduled.
    processing: Vec<bool>,
    done_at: Vec<Option<SimTime>>,
    n_done: usize,
    /// Stream bytes expected per object (protocol-specific overheads).
    expect: Vec<u64>,
    got: Vec<u64>,
    /// Current paint contribution per object.
    contrib: Vec<f64>,
    timeline: VisualTimeline,
    vc: f64,
    gate_open: bool,
    /// Gate conditions met; style+layout in progress.
    gate_scheduled: bool,
    /// Onload instant (set when the last object finishes processing).
    plt_at: Option<SimTime>,
    trace: Trace,
    /// Tracer process id of this page load (`None` with tracing off).
    obs_pid: Option<u32>,
    /// Request-issue instant per object (waterfall span start).
    req_at: Vec<Option<SimTime>>,
    /// Per-load fault view (`None` = injection off).
    faults: Option<pq_fault::LoadFaults>,
    /// Edge topology state (`None` on the Table-1 stacks).
    edge: Option<EdgeState>,
    /// Reused scratch for newly-released children: `discover` needs
    /// `&mut self`, so the candidate list is staged here instead of a
    /// fresh per-event `Vec`.
    kid_buf: Vec<ObjectId>,
    /// Scratch buffers of the pump loops, staged the same way: a pump
    /// takes one, fills and drains it, and puts it back for its
    /// capacity (a nested pump finds an empty one and starts cold).
    out_buf: Vec<Output>,
    /// Objects whose requests just arrived at a server.
    ready_buf: Vec<ObjectId>,
    /// Per-object progress of one H2 delivery.
    progress_buf: Vec<ResponseProgress>,
    /// The middlebox's early retransmits for one uplink packet.
    retx_buf: Vec<Packet<Wire>>,
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
    // Degenerate (`custom_net`-style) configs are clamped with a
    // tracer warning rather than simulated as garbage; valid configs
    // pass through untouched, so baselines are unaffected. Use
    // [`try_load_page`] to surface the error instead.
    let net = net.clone().sanitized();
    load_page_with_config(site, &net, &protocol.config(&net), seed, opts)
}

/// Validating variant of [`load_page`]: rejects degenerate network
/// configurations (zero bandwidth, loss outside `[0,1]`, NaN) instead
/// of simulating garbage. Prefer this at boundaries that accept
/// user-supplied (`custom_net`-style) parameters.
pub fn try_load_page(
    site: &Website,
    net: &NetworkConfig,
    protocol: Protocol,
    seed: u64,
    opts: &LoadOptions,
) -> Result<PageLoadResult, pq_fault::PqError> {
    let net = net.clone().checked()?;
    Ok(load_page_with_config(
        site,
        &net,
        &protocol.config(&net),
        seed,
        opts,
    ))
}

/// Load with an explicit stack configuration — the knob-by-knob API
/// behind tuning ablations (e.g. "stock TCP + IW32 only").
pub fn load_page_with_config(
    site: &Website,
    net: &NetworkConfig,
    cfg: &pq_transport::StackConfig,
    seed: u64,
    opts: &LoadOptions,
) -> PageLoadResult {
    let protocol = cfg.protocol;
    // pq-lint: allow(rng) -- load-entry derivation point: `seed` is the per-cell run_seed; every sub-stream forks from it
    let rng = SimRng::new(seed);
    let n = site.objects.len();

    let mut children: Vec<Vec<(f64, ObjectId)>> = vec![Vec::new(); n];
    for o in &site.objects {
        if let Some(parent) = o.discovered_by {
            if let Some(row) = children.get_mut(parent.0 as usize) {
                row.push((o.discovery_at, o.id));
            }
        }
    }
    for c in &mut children {
        // total_cmp: discovery fractions are finite by construction,
        // but the sort must never be the thing that panics.
        c.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    // Bind the fault plan (if any) to this load, keyed by its seed —
    // every injection decision below is a pure function of
    // `(fault seed, load seed, entity id)`.
    let faults = opts
        .faults
        .as_ref()
        .filter(|p| !p.is_empty())
        .map(|p| pq_fault::LoadFaults::new(p.clone(), seed));

    let expect: Vec<u64> = site
        .objects
        .iter()
        .map(|o| {
            if protocol.is_quic() {
                crate::http3::RESPONSE_HEADER + o.size
            } else if opts.http_version == HttpVersion::Http1 {
                crate::http1::RESPONSE_HEADER + o.size
            } else {
                H2Mux::response_stream_bytes(o.size)
            }
        })
        .collect();

    // One tracer process per page load; every connection, object and
    // queue-depth sample of this load lands on its tracks.
    let obs_pid = if pq_obs::enabled(Level::Info) {
        let t = pq_obs::tracer();
        let pid = t.new_pid(&format!(
            "{} · {} · seed {seed}",
            site.name,
            protocol.label()
        ));
        t.name_track(pid, TID_PAGE, "page");
        Some(pid)
    } else {
        None
    };

    // Edge stacks split the path at the junction: the client-side
    // segment keeps the access link's character (bandwidth, loss,
    // queue) over a fraction of the RTT, and a clean fat backbone
    // segment covers the rest to the origin. Table-1 stacks keep the
    // single end-to-end link untouched.
    let edge_cfg = protocol
        .is_edge()
        .then(|| opts.edge.clone().unwrap_or_default());
    let link_net = match &edge_cfg {
        Some(ec) => net.client_segment(ec.client_rtt_share),
        None => net.clone(),
    };

    let mut q = EventQueue::new();
    let mut up = Link::new(link_net.uplink(), rng.fork("uplink-loss"));
    let mut down = Link::new(link_net.downlink(), rng.fork("downlink-loss"));
    if let Some(pid) = obs_pid {
        q.set_obs_track(pid, TID_PAGE);
        up.set_obs_track(pid, TID_PAGE, "uplink");
        down.set_obs_track(pid, TID_PAGE, "downlink");
    }
    if let Some(f) = &faults {
        up.set_fault(f.link_fault("uplink"));
        down.set_fault(f.link_fault("downlink"));
    }

    let mut lanes = vec![Lane::new(up), Lane::new(down)];
    let edge = edge_cfg.map(|ec| {
        let origin_net = net.origin_segment(ec.client_rtt_share, ec.backbone_bps);
        let mut o_up = Link::new(origin_net.uplink(), rng.fork("origin-uplink-loss"));
        let mut o_down = Link::new(origin_net.downlink(), rng.fork("origin-downlink-loss"));
        if let Some(pid) = obs_pid {
            o_up.set_obs_track(pid, TID_PAGE, "origin-uplink");
            o_down.set_obs_track(pid, TID_PAGE, "origin-downlink");
        }
        // Fault clauses bind to each path segment independently: the
        // origin segment has its own link-fault keys.
        if let Some(f) = &faults {
            o_up.set_fault(f.link_fault("origin-uplink"));
            o_down.set_fault(f.link_fault("origin-downlink"));
        }
        lanes.extend([Lane::new(o_up), Lane::new(o_down)]);
        EdgeState {
            leg_cfg: Protocol::TcpPlus.config(&origin_net),
            legs: Vec::new(),
            pools: EdgePools::new(&ec, rng.fork("edge-pool")),
            mbx: protocol.has_middlebox().then(|| Middlebox::new(&ec)),
            bridges: BTreeMap::new(),
        }
    });

    let mut loader = Loader {
        site,
        protocol,
        opts,
        q,
        lanes,
        conns: Vec::new(),
        origin_conn: BTreeMap::new(),
        h1_pools: BTreeMap::new(),
        cfg: *cfg,
        think_rng: rng.fork("server-think"),
        children,
        discovered: vec![false; n],
        frac: vec![0.0; n],
        processing: vec![false; n],
        done_at: vec![None; n],
        n_done: 0,
        expect,
        got: vec![0; n],
        contrib: vec![0.0; n],
        timeline: VisualTimeline::new(),
        vc: 0.0,
        gate_open: false,
        gate_scheduled: false,
        plt_at: None,
        trace: Trace::with_capacity(opts.trace_capacity),
        obs_pid,
        req_at: vec![None; n],
        faults,
        edge,
        kid_buf: Vec::new(),
        out_buf: Vec::new(),
        ready_buf: Vec::new(),
        progress_buf: Vec::new(),
        retx_buf: Vec::new(),
    };

    let _load_span = pq_prof::span_dyn(|| format!("load:{}", protocol.label()));
    loader.discover(SimTime::ZERO, ObjectId(0));
    loader.run()
}

/// Profiler bucket name for an event — the per-event-type subdivision
/// of the `experiment` phase in the folded profile.
fn ev_name(ev: Ev) -> &'static str {
    match ev {
        Ev::Wake(..) => "event:timer",
        Ev::Respond(..) => "event:respond",
        Ev::Processed(..) => "event:process",
        Ev::DeferredRequest(..) => "event:defer",
        Ev::GateOpen => "event:gate",
        Ev::EdgeWake(..) => "event:edge-timer",
        Ev::EdgeRespond(..) => "event:edge-respond",
    }
}

/// The same for what a lane fires.
fn lane_ev_name(lane: usize, what: LaneEvent) -> &'static str {
    match (what, lane) {
        (LaneEvent::TxDone, UP) => "event:tx-up",
        (LaneEvent::TxDone, DOWN) => "event:tx-down",
        (LaneEvent::TxDone, O_UP) => "event:edge-tx-up",
        (LaneEvent::TxDone, _) => "event:edge-tx-down",
        (LaneEvent::Arrival, UP | DOWN) => "event:arrival",
        (LaneEvent::Arrival, _) => "event:edge-arrival",
    }
}

impl<'a> Loader<'a> {
    fn obj(&self, id: ObjectId) -> &'a WebObject {
        &self.site.objects[id.0 as usize]
    }

    /// An object became discovered: request it (immediately, or after
    /// its lazy-load deferral).
    fn discover(&mut self, now: SimTime, id: ObjectId) {
        let idx = id.0 as usize;
        match self.discovered.get_mut(idx) {
            Some(seen @ false) => *seen = true,
            _ => return, // already discovered
        }
        let o = self.obj(id);
        // Parser stagger: children of the root document become visible
        // to the fetcher as the parser reaches them.
        let stagger = if o.discovered_by == Some(ObjectId(0)) {
            o.discovery_at * PARSE_SPREAD_MS
        } else {
            0.0
        };
        let defer = (o.defer_ms + stagger) * self.opts.processing_scale;
        if defer > 0.0 {
            self.q.schedule(
                now + SimDuration::from_secs_f64(defer / 1e3),
                Ev::DeferredRequest(id),
            );
            return;
        }
        self.request_object(now, id);
    }

    /// Issue the request on the origin's connection (opening the
    /// connection on first use). HTTP/1.1 uses a connection pool.
    fn request_object(&mut self, now: SimTime, id: ObjectId) {
        if !self.protocol.is_quic() && self.opts.http_version == HttpVersion::Http1 {
            self.request_object_h1(now, id);
            return;
        }
        // The terminating proxy fronts every origin behind one
        // client-facing connection (CDN-style coalescing): the origin
        // fan-out happens on the proxy's pooled legs instead.
        let origin = if self.protocol.is_proxied() {
            0
        } else {
            self.obj(id).origin.0
        };
        let ci = match self.origin_conn.get(&origin) {
            Some(&ci) => ci,
            None => {
                let mux = if self.protocol.is_quic() {
                    Mux::H3(H3Map::new())
                } else {
                    Mux::H2(H2Mux::new())
                };
                self.open_conn(now, mux)
            }
        };
        self.origin_conn.insert(origin, ci);
        self.trace.record(now, TraceKind::Request, u64::from(id.0));
        self.obs_request(now, id);
        let state = &mut self.conns[ci as usize];
        match &mut state.mux {
            // pq-lint: allow(panic) -- H1 requests take the pool path above; mux/transport pairing is fixed at open_conn
            Mux::H1(_) => unreachable!("pool handled above"),
            Mux::H2(m) => {
                let Connection::Tcp(c) = &mut state.conn else {
                    // pq-lint: allow(panic) -- open_conn pairs Mux::H2 with Connection::Tcp, always
                    unreachable!("H2 over TCP")
                };
                m.request(c, now, id);
            }
            Mux::H3(m) => {
                let Connection::Quic(c) = &mut state.conn else {
                    // pq-lint: allow(panic) -- open_conn pairs Mux::H3 with Connection::Quic, always
                    unreachable!("H3 over QUIC")
                };
                m.request(c, now, id);
            }
        }
        self.pump(now, ci);
    }

    /// Record one injected fault: bump the global counter and drop an
    /// instant on the page track's `fault` category.
    fn note_fault(&mut self, now: SimTime, what: &str, detail: u64) {
        pq_obs::registry().counter_add("fault.injected", 1);
        if let Some(pid) = self.obs_pid {
            if pq_obs::enabled(Level::Info) {
                pq_obs::tracer().instant(
                    Level::Info,
                    "fault",
                    what.to_string(),
                    pid,
                    TID_PAGE,
                    now.as_nanos(),
                    vec![("id", ArgValue::U64(detail))],
                );
            }
        }
    }

    fn open_conn(&mut self, now: SimTime, mux: Mux) -> u32 {
        let ci = self.conns.len() as u32;
        let mut conn = Connection::open(ConnId(ci), self.cfg, now);
        // Handshake fault: the first client flight never reaches the
        // wire; the transport's own handshake timeout / RTO machinery
        // must recover (that recovery is exactly what we're testing).
        let hs_lost = self
            .faults
            .as_ref()
            .is_some_and(|f| f.handshake_flight_lost(ci));
        if hs_lost && conn.discard_pending_sends() > 0 {
            self.note_fault(now, "handshake flight lost", u64::from(ci));
        }
        if let Some(pid) = self.obs_pid {
            let tid = TID_CONN_BASE + ci;
            conn.set_obs_track(pid, tid);
            pq_obs::tracer().name_track(
                pid,
                tid,
                &format!("conn {ci} ({})", self.protocol.label()),
            );
        }
        self.conns.push(ConnState {
            conn,
            mux,
            wake_version: 0,
        });
        ci
    }

    /// HTTP/1.1 request dispatch: reuse an idle pooled connection, grow
    /// the pool up to the browser limit, or queue.
    fn request_object_h1(&mut self, now: SimTime, id: ObjectId) {
        let origin = self.obj(id).origin.0;
        let pool = self.h1_pools.entry(origin).or_default();
        let idle = pool
            .conns
            .iter()
            .copied()
            .find(|&ci| matches!(&self.conns[ci as usize].mux, Mux::H1(h) if h.is_idle()));
        let ci = match idle {
            Some(ci) => ci,
            None if pool.can_grow() => {
                let ci = self.open_conn(now, Mux::H1(H1Conn::new()));
                if let Some(pool) = self.h1_pools.get_mut(&origin) {
                    pool.conns.push(ci);
                }
                ci
            }
            None => {
                pool.waiting.push_back(id);
                return;
            }
        };
        self.trace.record(now, TraceKind::Request, u64::from(id.0));
        self.obs_request(now, id);
        let state = &mut self.conns[ci as usize];
        let Mux::H1(h) = &mut state.mux else {
            // pq-lint: allow(panic) -- pool connections are opened as Mux::H1 in this very function
            unreachable!()
        };
        let Connection::Tcp(c) = &mut state.conn else {
            // pq-lint: allow(panic) -- open_conn pairs Mux::H1 with Connection::Tcp, always
            unreachable!("H1 over TCP")
        };
        h.request(c, now, id);
        self.pump(now, ci);
    }

    /// Drain a connection's outputs, route packets, apply progress, and
    /// reschedule its wakeup.
    fn pump(&mut self, now: SimTime, ci: u32) {
        let mut outputs = std::mem::take(&mut self.out_buf);
        loop {
            let state = &mut self.conns[ci as usize];
            state.conn.drain_outputs(&mut outputs);
            if outputs.is_empty() {
                // Let the H2 writer top up the transport.
                let more = match &mut state.mux {
                    Mux::H1(_) => false,
                    Mux::H2(m) => {
                        if let Connection::Tcp(c) = &mut state.conn {
                            let before = c.server_backlog();
                            m.pump(c, now);
                            c.server_backlog() != before
                        } else {
                            false
                        }
                    }
                    Mux::H3(_) => false,
                };
                if !more {
                    break;
                }
                continue;
            }
            for out in outputs.drain(..) {
                self.route_output(now, ci, out);
            }
        }
        self.out_buf = outputs;
        let state = &mut self.conns[ci as usize];
        let at = state.conn.poll_at();
        if at != SimTime::MAX {
            state.wake_version += 1;
            self.q
                .schedule(at.max(now), Ev::Wake(ci, state.wake_version));
        }
    }

    /// `obj`'s request reached its server: fire `respond` once the
    /// server has thought about it.
    fn think(&mut self, now: SimTime, obj: ObjectId, respond: Ev) {
        // The baseline think-time draw always happens, so the jitter
        // stream is identical with faults off.
        let mut think =
            self.opts.think_base_ms + self.think_rng.exponential(self.opts.think_jitter_ms);
        let stall = self.faults.as_ref().and_then(|f| f.server_stall_ms(obj.0));
        if let Some(extra) = stall {
            think += extra;
            self.note_fault(now, "server stall", u64::from(obj.0));
        }
        self.q
            .schedule(now + SimDuration::from_secs_f64(think / 1e3), respond);
    }

    /// The body bytes a server sends for `obj`.
    fn response_body(&mut self, now: SimTime, obj: ObjectId) -> u64 {
        let body = self.obj(obj).size;
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
        let Some(lane) = self.lanes.get_mut(lane) else {
            return;
        };
        if lane.push(&mut self.q, now, pkt) == PushOutcome::TailDropped {
            self.trace.record(now, TraceKind::TailDrop, 0);
        }
    }

    fn route_output(&mut self, now: SimTime, ci: u32, out: Output) {
        match out {
            Output::Send(dir, pkt) => {
                // Middlebox topology: the server endpoint sits at the
                // origin, so its downstream packets enter on the
                // backbone segment (and reach the client via the
                // junction). Client-side sends are unchanged.
                let at_origin = dir == Direction::Down && self.protocol.has_middlebox();
                self.send(now, lane_of(dir, at_origin), pkt);
            }
            Output::HandshakeDone => {
                self.trace
                    .record(now, TraceKind::HandshakeDone, u64::from(ci));
            }
            Output::ServerStreamProgress {
                stream,
                delivered,
                fin,
            } => {
                let state = &mut self.conns[ci as usize];
                let mut ready = std::mem::take(&mut self.ready_buf);
                match &mut state.mux {
                    Mux::H1(h) => ready.extend(h.on_server_delivered(delivered)),
                    Mux::H2(m) => m.on_server_delivered(delivered, &mut ready),
                    Mux::H3(m) if fin => ready.extend(m.on_server_stream_fin(stream)),
                    Mux::H3(_) => {}
                }
                for obj in ready.drain(..) {
                    // Proxied stacks: the "server" side of the client
                    // connection is the proxy — no think time here;
                    // the request continues on a pooled origin leg
                    // (think happens at the real origin).
                    if self.protocol.is_proxied() {
                        self.edge_dispatch(now, obj);
                        continue;
                    }
                    self.think(now, obj, Ev::Respond(ci, obj));
                }
                self.ready_buf = ready;
            }
            Output::ClientStreamProgress {
                stream,
                delivered,
                fin,
            } => {
                let state = &mut self.conns[ci as usize];
                match &mut state.mux {
                    Mux::H1(h) => {
                        if let Some(p) = h.on_client_delivered(delivered) {
                            let idx = p.object.0 as usize;
                            let got = (crate::http1::RESPONSE_HEADER + p.delivered_body)
                                .min(self.expect[idx]);
                            self.object_progress(now, p.object, got.max(self.got[idx]));
                            if p.done {
                                // Connection idle: serve the next
                                // queued request of this origin.
                                let origin = self.obj(p.object).origin.0;
                                if let Some(next) = self
                                    .h1_pools
                                    .get_mut(&origin)
                                    .and_then(|pool| pool.waiting.pop_front())
                                {
                                    self.request_object_h1(now, next);
                                }
                            }
                        }
                    }
                    Mux::H2(m) => {
                        let mut progress = std::mem::take(&mut self.progress_buf);
                        m.on_client_delivered(delivered, &mut progress);
                        for p in progress.drain(..) {
                            let idx = p.object.0 as usize;
                            let got = self.got[idx] + p.new_bytes;
                            self.object_progress(now, p.object, got);
                        }
                        self.progress_buf = progress;
                    }
                    Mux::H3(m) => {
                        if let Some(p) = m.on_client_delivered(stream, delivered, fin) {
                            let idx = p.object.0 as usize;
                            let got = (crate::http3::RESPONSE_HEADER + p.delivered_body)
                                .min(self.expect[idx]);
                            self.object_progress(now, p.object, got.max(self.got[idx]));
                        }
                    }
                }
            }
            Output::Trace(kind, detail) => {
                self.trace.record(now, kind, detail);
            }
        }
    }

    /// Route a request that reached the proxy onto a pooled origin
    /// leg: reuse an existing H2 connection, or open a new one to the
    /// replica the least-outstanding balancer picked.
    fn edge_dispatch(&mut self, now: SimTime, obj: ObjectId) {
        let _sp = pq_prof::span("edge:dispatch");
        let origin = self.obj(obj).origin.0;
        let Some(edge) = self.edge.as_mut() else {
            return;
        };
        // Evicted legs simply go quiescent: the pool stops routing to
        // them and their transport state has nothing left to send.
        let outcome = edge.pools.dispatch(origin, now);
        let li = match outcome.action {
            Dispatch::Reuse(leg) => leg,
            Dispatch::Open { replica } => {
                let li = self.open_leg(now, origin);
                if let Some(edge) = self.edge.as_mut() {
                    edge.pools.opened(origin, replica, li, now);
                }
                li
            }
        };
        let Some(edge) = self.edge.as_mut() else {
            return;
        };
        let Some(leg) = edge.legs.get_mut(li as usize) else {
            return;
        };
        if let Connection::Tcp(c) = &mut leg.conn {
            leg.mux.request(c, now, obj);
        }
        self.pump_leg(now, li);
    }

    /// Open a new origin-side proxy leg (TCP+ carrying HTTP/2).
    fn open_leg(&mut self, now: SimTime, origin: u16) -> u32 {
        let Some(edge) = self.edge.as_mut() else {
            return 0;
        };
        let li = edge.legs.len() as u32;
        let mut conn = Connection::open(ConnId(li), edge.leg_cfg, now);
        // Legs have their own handshake-fault key space, offset past
        // the client connections' — the satellite case "hs-drop
        // through the proxy" exercises both sides independently.
        let hs_lost = self
            .faults
            .as_ref()
            .is_some_and(|f| f.handshake_flight_lost(LEG_KEY_BASE + li));
        let dropped = if hs_lost {
            conn.discard_pending_sends()
        } else {
            0
        };
        if let Some(pid) = self.obs_pid {
            let tid = TID_LEG_BASE + li;
            conn.set_obs_track(pid, tid);
            pq_obs::tracer().name_track(pid, tid, &format!("leg {li} (H2 → origin {origin})"));
        }
        edge.legs.push(LegState {
            conn,
            mux: H2Mux::new(),
            wake_version: 0,
        });
        if dropped > 0 {
            self.note_fault(now, "handshake flight lost", u64::from(LEG_KEY_BASE + li));
        }
        li
    }

    /// Drain a proxy leg's outputs (mirror of [`Loader::pump`] for the
    /// origin segment) and reschedule its wakeup.
    fn pump_leg(&mut self, now: SimTime, li: u32) {
        let mut outputs = std::mem::take(&mut self.out_buf);
        while let Some(leg) = self.edge.as_mut().and_then(|e| e.legs.get_mut(li as usize)) {
            leg.conn.drain_outputs(&mut outputs);
            if outputs.is_empty() {
                let more = if let Connection::Tcp(c) = &mut leg.conn {
                    let before = c.server_backlog();
                    leg.mux.pump(c, now);
                    c.server_backlog() != before
                } else {
                    false
                };
                if !more {
                    break;
                }
                continue;
            }
            for out in outputs.drain(..) {
                self.route_leg_output(now, li, out);
            }
        }
        self.out_buf = outputs;
        let Some(leg) = self.edge.as_mut().and_then(|e| e.legs.get_mut(li as usize)) else {
            return;
        };
        let at = leg.conn.poll_at();
        if at != SimTime::MAX {
            leg.wake_version += 1;
            let version = leg.wake_version;
            self.q.schedule(at.max(now), Ev::EdgeWake(li, version));
        }
    }

    fn route_leg_output(&mut self, now: SimTime, li: u32, out: Output) {
        match out {
            Output::Send(dir, pkt) => self.send(now, lane_of(dir, true), pkt),
            Output::HandshakeDone => {
                self.trace
                    .record(now, TraceKind::HandshakeDone, u64::from(LEG_KEY_BASE + li));
            }
            Output::ServerStreamProgress { delivered, .. } => {
                // The request reached the real origin: think, then
                // respond on this leg.
                let mut ready = std::mem::take(&mut self.ready_buf);
                if let Some(leg) = self.edge.as_mut().and_then(|e| e.legs.get_mut(li as usize)) {
                    leg.mux.on_server_delivered(delivered, &mut ready);
                }
                for obj in ready.drain(..) {
                    self.think(now, obj, Ev::EdgeRespond(li, obj));
                }
                self.ready_buf = ready;
            }
            Output::ClientStreamProgress { delivered, .. } => {
                // Origin bytes arrived back at the proxy: relay them
                // proportionally onto the client-facing stream.
                let mut progress = std::mem::take(&mut self.progress_buf);
                if let Some(leg) = self.edge.as_mut().and_then(|e| e.legs.get_mut(li as usize)) {
                    leg.mux.on_client_delivered(delivered, &mut progress);
                }
                for p in progress.drain(..) {
                    self.bridge_advance(now, p.object, p.new_bytes);
                }
                self.progress_buf = progress;
            }
            Output::Trace(kind, detail) => {
                self.trace.record(now, kind, detail);
            }
        }
    }

    /// `new_bytes` of `obj`'s origin response reached the proxy:
    /// advance the relay and write the proportional share onto the
    /// client-facing connection (always connection 0 in proxied mode).
    fn bridge_advance(&mut self, now: SimTime, obj: ObjectId, new_bytes: u64) {
        let Some(edge) = self.edge.as_mut() else {
            return;
        };
        let Some(b) = edge.bridges.get_mut(&obj) else {
            return;
        };
        b.origin_got = (b.origin_got + new_bytes).min(b.origin_total);
        let target = ((u128::from(b.client_total) * u128::from(b.origin_got))
            / u128::from(b.origin_total.max(1))) as u64;
        let delta = target.saturating_sub(b.client_written);
        let fin = b.origin_got >= b.origin_total;
        let send_fin = fin && !b.fin_sent;
        if delta == 0 && !send_fin {
            return;
        }
        b.client_written += delta;
        if send_fin {
            b.fin_sent = true;
        }
        let (leg, origin) = (b.leg, b.origin);
        let Some(state) = self.conns.get_mut(0) else {
            return;
        };
        match &mut state.mux {
            Mux::H3(m) => {
                if let (Connection::Quic(c), Some(sid)) = (&mut state.conn, m.stream_for(obj)) {
                    c.server_write(now, sid, delta, send_fin);
                }
            }
            Mux::H2(m) => {
                if let Connection::Tcp(c) = &mut state.conn {
                    m.respond_raw(c, now, obj, delta);
                }
            }
            Mux::H1(_) => {}
        }
        if send_fin {
            if let Some(edge) = self.edge.as_mut() {
                edge.pools.complete(origin, leg, now);
            }
        }
        self.pump(now, 0);
    }

    /// A client packet reached the junction (middlebox mode): let the
    /// middlebox read its ACK ranges — re-injecting any inferred-lost
    /// buffered packets onto the access downlink — then forward it
    /// onto the backbone toward the origin.
    fn mbx_junction_up(&mut self, now: SimTime, pkt: Packet<Wire>) {
        let _sp = pq_prof::span("edge:mbx");
        let mut retx = std::mem::take(&mut self.retx_buf);
        if let Some(m) = self.edge.as_mut().and_then(|e| e.mbx.as_mut()) {
            m.on_uplink(now, &pkt, &mut retx);
        }
        for r in retx.drain(..) {
            self.trace.record(now, TraceKind::Retransmit, 0);
            self.send(now, DOWN, r);
        }
        self.retx_buf = retx;
        self.send(now, O_UP, pkt);
    }

    /// An origin packet reached the junction (middlebox mode): buffer
    /// it for possible early retransmit, then forward it down the
    /// access link to the client.
    fn mbx_junction_down(&mut self, now: SimTime, pkt: Packet<Wire>) {
        let _sp = pq_prof::span("edge:mbx");
        if let Some(m) = self.edge.as_mut().and_then(|e| e.mbx.as_mut()) {
            m.on_downlink(now, &pkt);
        }
        self.send(now, DOWN, pkt);
    }

    /// Note the request-issue instant of `id` — start of its waterfall
    /// span — and name the object's track row.
    fn obs_request(&mut self, now: SimTime, id: ObjectId) {
        let idx = id.0 as usize;
        if let Some(slot @ None) = self.req_at.get_mut(idx) {
            *slot = Some(now);
        }
        let Some(pid) = self.obs_pid else { return };
        if !pq_obs::enabled(Level::Info) {
            return;
        }
        let o = self.obj(id);
        pq_obs::tracer().name_track(
            pid,
            TID_OBJ_BASE + id.0,
            &format!("obj {} ({:?})", id.0, o.kind),
        );
    }

    /// Emit the request→processed waterfall span of a finished object.
    fn obs_object_span(&self, now: SimTime, id: ObjectId) {
        let Some(pid) = self.obs_pid else { return };
        if !pq_obs::enabled(Level::Info) {
            return;
        }
        let o = self.obj(id);
        let start = self
            .req_at
            .get(id.0 as usize)
            .copied()
            .flatten()
            .unwrap_or(now);
        pq_obs::tracer().span(
            Level::Info,
            "web",
            format!("{:?} {}", o.kind, o.size),
            pid,
            TID_OBJ_BASE + id.0,
            start.as_nanos(),
            now.as_nanos(),
            vec![
                ("origin", ArgValue::U64(u64::from(o.origin.0))),
                ("size", ArgValue::U64(o.size)),
                (
                    "render_blocking",
                    ArgValue::U64(u64::from(o.render_blocking)),
                ),
            ],
        );
    }

    /// Client-side processing cost of a fully delivered object: parse
    /// and execute for scripts/CSS, decode for images — time a real
    /// browser spends on the main thread, independent of the transport.
    fn processing_delay(&self, id: ObjectId) -> SimDuration {
        use crate::object::ObjectKind::*;
        let o = self.obj(id);
        let kb = o.size as f64 / 1000.0;
        let ms = match o.kind {
            Script => 200.0 + 0.7 * kb,
            Css => 80.0 + 0.25 * kb,
            Image => 25.0 + 0.12 * kb,
            Html => 40.0,
            Font => 30.0,
            Xhr => 15.0,
            Beacon => 2.0,
        };
        SimDuration::from_secs_f64(ms * self.opts.processing_scale / 1e3)
    }

    /// The client has `got` of the object's expected stream bytes.
    fn object_progress(&mut self, now: SimTime, id: ObjectId, got: u64) {
        let idx = id.0 as usize;
        if self.done_at[idx].is_some() {
            return;
        }
        self.got[idx] = got.min(self.expect[idx]);
        let frac = self.got[idx] as f64 / self.expect[idx].max(1) as f64;
        self.frac[idx] = frac;
        let delivered = self.got[idx] >= self.expect[idx];
        if delivered && !self.processing[idx] {
            self.processing[idx] = true;
            self.q
                .schedule(now + self.processing_delay(id), Ev::Processed(id));
        }

        self.update_render(now, id, frac, false);

        // Progressive discovery of children referenced part-way
        // through the parent (`discovery_at = 1.0` waits for the
        // parent's processing instead).
        let mut kids = std::mem::take(&mut self.kid_buf);
        kids.extend(
            self.children[idx]
                .iter()
                .take_while(|(at, _)| *at < 1.0 && frac + 1e-12 >= *at)
                .map(|&(_, c)| c)
                .filter(|c| !self.discovered[c.0 as usize]),
        );
        for &kid in &kids {
            self.discover(now, kid);
        }
        kids.clear();
        self.kid_buf = kids;
    }

    /// Parsing/decoding of a delivered object finished: the object is
    /// now *done* — it paints fully, releases `discovery_at = 1.0`
    /// children, and counts towards onload.
    fn object_processed(&mut self, now: SimTime, id: ObjectId) {
        let idx = id.0 as usize;
        match self.done_at.get_mut(idx) {
            Some(slot @ None) => *slot = Some(now),
            _ => return, // already processed
        }
        self.n_done += 1;
        if self.n_done == self.site.objects.len() {
            self.plt_at = Some(now);
        }
        self.trace.record(now, TraceKind::Response, u64::from(id.0));
        self.obs_object_span(now, id);
        self.update_render(now, id, 1.0, true);
        let mut kids = std::mem::take(&mut self.kid_buf);
        kids.extend(
            self.children[idx]
                .iter()
                .filter(|(at, _)| *at >= 1.0)
                .map(|&(_, c)| c)
                .filter(|c| !self.discovered[c.0 as usize]),
        );
        for &kid in &kids {
            self.discover(now, kid);
        }
        kids.clear();
        self.kid_buf = kids;
    }

    fn update_render(&mut self, now: SimTime, id: ObjectId, frac: f64, done: bool) {
        let o = self.obj(id);
        // Contribution of this object to visual completeness.
        // Progressive resources paint most of their area from raw
        // bytes, the rest once decoded; others appear when done.
        let contrib = if o.render_weight > 0.0 {
            if done {
                o.render_weight
            } else if o.progressive {
                o.render_weight * (frac * PROGRESSIVE_CAP)
            } else {
                0.0
            }
        } else {
            0.0
        };
        // Incremental VC update.
        let Some(slot) = self.contrib.get_mut(id.0 as usize) else {
            return;
        };
        let delta = contrib - *slot;
        *slot = contrib;
        self.vc += delta;

        // First-paint gate: head parsed + render-blocking resources
        // processed, then one style+layout pass.
        if !self.gate_open && !self.gate_scheduled {
            let head_parsed = self.frac.first().is_some_and(|&f| f >= 0.15);
            let blocking_done = self
                .site
                .objects
                .iter()
                .filter(|o| o.render_blocking)
                .all(|o| {
                    self.done_at
                        .get(o.id.0 as usize)
                        .is_some_and(|d| d.is_some())
                });
            if head_parsed && blocking_done {
                self.gate_scheduled = true;
                let layout =
                    SimDuration::from_secs_f64(STYLE_LAYOUT_MS * self.opts.processing_scale / 1e3);
                self.q.schedule(now + layout, Ev::GateOpen);
            }
        } else if self.gate_open && delta > 0.0 {
            self.timeline.push(now, self.vc);
        }
    }

    /// End-of-load bookkeeping: FVC/LVC/PLT markers on the page track
    /// and the per-protocol metric histograms in the global registry.
    fn obs_finish(&self, metrics: &MetricSet, plt: SimTime, complete: bool) {
        let label = self.protocol.label();
        let reg = pq_obs::registry();
        reg.counter_add("web.pageloads", 1);
        if !complete {
            reg.counter_add("web.pageloads_incomplete", 1);
        }
        reg.observe(&format!("web.plt_ms{{proto=\"{label}\"}}"), metrics.plt_ms);

        if let Some(edge) = &self.edge {
            let st = edge.pools.stats();
            reg.counter_add("edge.conns_opened", st.opened);
            reg.counter_add("edge.conns_reused", st.reused);
            reg.counter_add("edge.conns_evicted", st.evicted);
            if let Some(mbx) = &edge.mbx {
                reg.counter_add("edge.mbx_early_retx", mbx.early_retransmits());
            }
        }

        let Some(pid) = self.obs_pid else { return };
        if !pq_obs::enabled(Level::Info) {
            return;
        }
        let t = pq_obs::tracer();
        let mark = |name: &'static str, at: Option<SimTime>, ms: f64| {
            let Some(at) = at else { return };
            t.instant(
                Level::Info,
                "web",
                name,
                pid,
                TID_PAGE,
                at.as_nanos(),
                vec![("ms", ArgValue::F64(ms))],
            );
        };
        mark("FVC", self.timeline.first_change(), metrics.fvc_ms);
        mark("LVC", self.timeline.last_change(), metrics.lvc_ms);
        mark("PLT", Some(plt), metrics.plt_ms);
    }

    /// A lane fired: its link finished a packet, or a packet came out
    /// of its far end.
    fn on_lane(&mut self, now: SimTime, lane: usize, what: LaneEvent) {
        let _ev_span = pq_prof::span_with(|| lane_ev_name(lane, what));
        let Some(l) = self.lanes.get_mut(lane) else {
            return;
        };
        if what == LaneEvent::TxDone {
            if !l.on_tx_done(&mut self.q, now) {
                self.trace.record(now, TraceKind::RandomLoss, 0);
            }
            return;
        }
        let Some(pkt) = l.pop_arrival() else { return };
        let dir = match lane {
            UP | O_UP => Direction::Up,
            _ => Direction::Down,
        };
        let id = pkt.conn.0;
        match (self.protocol.has_middlebox(), lane) {
            // Middlebox mode: the client-segment uplink and the origin
            // segment's downlink end at the junction.
            (true, UP) => self.mbx_junction_up(now, pkt),
            (true, O_DOWN) => self.mbx_junction_down(now, pkt),
            // Proxied: the origin segment carries leg traffic in both
            // directions.
            (false, O_UP | O_DOWN) => {
                if let Some(leg) = self.edge.as_mut().and_then(|e| e.legs.get_mut(id as usize)) {
                    leg.conn.on_packet(now, &pkt.payload, dir);
                    self.pump_leg(now, id);
                }
            }
            // End to end, whichever segment finishes the trip.
            _ => {
                if let Some(state) = self.conns.get_mut(id as usize) {
                    state.conn.on_packet(now, &pkt.payload, dir);
                    self.pump(now, id);
                }
            }
        }
    }

    /// A timer popped off the event queue.
    fn on_timer(&mut self, now: SimTime, ev: Ev) {
        let _ev_span = pq_prof::span_with(|| ev_name(ev));
        match ev {
            Ev::Wake(ci, version) => {
                let state = self.conns.get_mut(ci as usize);
                if let Some(state) = state.filter(|s| s.wake_version == version) {
                    state.conn.on_wake(now);
                    self.pump(now, ci);
                }
            }
            Ev::Processed(id) => {
                self.object_processed(now, id);
            }
            Ev::DeferredRequest(id) => {
                self.request_object(now, id);
            }
            Ev::GateOpen => {
                self.gate_open = true;
                if self.vc > 0.0 {
                    self.timeline.push(now, self.vc);
                }
            }
            Ev::Respond(ci, obj) => {
                let body = self.response_body(now, obj);
                let Some(state) = self.conns.get_mut(ci as usize) else {
                    return;
                };
                match &mut state.mux {
                    Mux::H1(h) => {
                        let Connection::Tcp(c) = &mut state.conn else {
                            // pq-lint: allow(panic) -- open_conn pairs Mux::H1 with Connection::Tcp, always
                            unreachable!()
                        };
                        h.respond(c, now, body);
                    }
                    Mux::H2(m) => {
                        let Connection::Tcp(c) = &mut state.conn else {
                            // pq-lint: allow(panic) -- open_conn pairs Mux::H2 with Connection::Tcp, always
                            unreachable!()
                        };
                        m.respond(c, now, obj, body);
                    }
                    Mux::H3(m) => {
                        let Connection::Quic(c) = &mut state.conn else {
                            // pq-lint: allow(panic) -- open_conn pairs Mux::H3 with Connection::Quic, always
                            unreachable!()
                        };
                        m.respond(c, now, obj, body);
                    }
                }
                self.pump(now, ci);
            }
            Ev::EdgeWake(li, version) => {
                let woke = match self.edge.as_mut().and_then(|e| e.legs.get_mut(li as usize)) {
                    Some(leg) if leg.wake_version == version => {
                        leg.conn.on_wake(now);
                        true
                    }
                    _ => false,
                };
                if woke {
                    self.pump_leg(now, li);
                }
            }
            Ev::EdgeRespond(li, obj) => {
                let body = self.response_body(now, obj);
                let client_total = if self.protocol.is_quic() {
                    crate::http3::RESPONSE_HEADER + body
                } else {
                    H2Mux::response_stream_bytes(body)
                };
                let origin = self.obj(obj).origin.0;
                let Some(edge) = self.edge.as_mut() else {
                    return;
                };
                edge.bridges.insert(
                    obj,
                    Bridge {
                        origin_total: H2Mux::response_stream_bytes(body),
                        origin_got: 0,
                        client_total,
                        client_written: 0,
                        leg: li,
                        origin,
                        fin_sent: false,
                    },
                );
                if let Some(leg) = edge.legs.get_mut(li as usize) {
                    if let Connection::Tcp(c) = &mut leg.conn {
                        leg.mux.respond(c, now, obj, body);
                    }
                }
                self.pump_leg(now, li);
            }
        }
    }

    fn run(mut self) -> PageLoadResult {
        let horizon = SimTime::ZERO + self.opts.horizon;
        let max_events = 200_000_000u64;

        // Run until onload fired AND the first-paint gate opened (the
        // gate's layout event can be scheduled past the last object on
        // small fast pages).
        while self.plt_at.is_none() || !self.gate_open {
            let Some((stamp, source)) = pq_sim::lane::earliest(&self.q, &self.lanes) else {
                break;
            };
            if stamp.time() > horizon || self.q.processed() > max_events {
                break;
            }
            match source {
                Source::Heap => {
                    let Some((now, ev)) = self.q.pop() else { break };
                    self.on_timer(now, ev);
                }
                Source::Lane(lane, what) => {
                    self.q.advance(stamp);
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
        self.obs_finish(&metrics, plt, complete);
        let recording =
            (self.opts.fps > 0).then(|| Recording::render(&self.timeline, plt, self.opts.fps));
        PageLoadResult {
            metrics,
            recording,
            complete,
            plt,
            retransmits: self.conns.iter().map(|c| c.conn.retransmits()).sum::<u64>()
                + self.edge.as_ref().map_or(0, |e| {
                    e.legs.iter().map(|l| l.conn.retransmits()).sum::<u64>()
                }),
            connections: (self.conns.len() + self.edge.as_ref().map_or(0, |e| e.legs.len())) as u32,
            object_done: self.done_at,
            trace: self.trace,
            timeline: self.timeline,
        }
    }
}
