//! What a page load keeps for its trace, and the one function that
//! draws it. With [`LoadOptions::record`](super::LoadOptions::record)
//! on, the loader keeps a [`LoadRecord`] of typed values and writes
//! nothing anywhere; [`PageLoadResult::render`] draws it as the rows of
//! one Chrome-trace process.
//!
//! A load's tracks: `tid 0` carries the page-level markers (FVC/LVC/PLT,
//! injected faults and, at Debug, the links' queue samples, tail drops
//! and losses), `tid 1 + key` one row per browser connection,
//! `tid 60 + li` one per proxy leg, and `tid 100 + id` one per web
//! object (the waterfall).

use super::{lane_name, leg_of, PageLoadResult};
use crate::object::ObjectId;
use crate::website::Website;
use pq_obs::{ArgValue, Event, Level, Process};
use pq_sim::{Direction, Loss, PushOutcome, SimTime};
use pq_transport::{ConnEvent, ConnEventKind, Protocol};

/// The page row.
const TID_PAGE: u32 = 0;
/// First connection row.
const TID_CONN_BASE: u32 = 1;
/// First proxy-leg (origin-side connection) row.
const TID_LEG_BASE: u32 = 60;
/// First web-object row.
const TID_OBJ_BASE: u32 = 100;

/// What one page load recorded, in the order it happened.
#[derive(Clone, Debug)]
pub struct LoadRecord {
    /// The load's seed…
    pub seed: u64,
    /// …and stack.
    pub protocol: Protocol,
    /// Every connection the load opened, in order.
    pub conns: Vec<ConnRecord>,
    /// What the connections reported, each with its connection's key.
    pub conn_events: Vec<(u32, ConnEvent)>,
    /// What the lanes reported: `(when, lane, what)`, the lane indexed
    /// uplink, downlink, origin uplink, origin downlink.
    pub lanes: Vec<(SimTime, usize, LaneNote)>,
    /// Each injected fault: `(when, what, the entity it hit)`.
    pub faults: Vec<(SimTime, &'static str, u64)>,
    /// Each object's `(requested, processed)` instants, by [`ObjectId`].
    pub objects: Vec<(Option<SimTime>, Option<SimTime>)>,
}

/// One connection a load opened.
#[derive(Clone, Copy, Debug)]
pub struct ConnRecord {
    /// Its key: the browser's connections count from 0, a proxy's legs
    /// from 1000.
    pub key: u32,
    /// The origin it leads to.
    pub origin: u16,
    /// Its stack.
    pub protocol: Protocol,
    /// When it opened…
    pub opened: SimTime,
    /// …and finished its handshake (`None` before that, and for a
    /// 0-RTT resumption, which is established as it opens).
    pub handshake: Option<SimTime>,
}

/// What a lane reported about one packet.
#[derive(Clone, Copy, Debug)]
pub enum LaneNote {
    /// It joined the queue, which then held this many bytes.
    Queued(u64),
    /// The full queue, holding this many bytes, turned it away.
    TailDrop(u64),
    /// The link destroyed it: why, and its size in bytes.
    Lost(Loss, u32),
}

impl LoadRecord {
    pub(super) fn new(seed: u64, protocol: Protocol, objects: usize) -> LoadRecord {
        LoadRecord {
            seed,
            protocol,
            conns: Vec::new(),
            conn_events: Vec::new(),
            lanes: Vec::new(),
            faults: Vec::new(),
            objects: vec![(None, None); objects],
        }
    }

    /// Connection `key` finished its handshake at `at`.
    pub(super) fn handshake(&mut self, key: u32, at: SimTime) {
        if let Some(c) = self.conns.iter_mut().find(|c| c.key == key) {
            c.handshake = Some(at).filter(|_| c.opened < at);
        }
    }

    /// A packet offered to `lane` at `at` met `outcome`, leaving
    /// `queued` bytes in its queue.
    #[cold]
    pub(super) fn pushed(&mut self, at: SimTime, lane: usize, outcome: &PushOutcome, queued: u64) {
        let note = match outcome {
            PushOutcome::Queued => LaneNote::Queued(queued),
            PushOutcome::TailDropped => LaneNote::TailDrop(queued),
            PushOutcome::StartedTx(_) => return,
        };
        self.lanes.push((at, lane, note));
    }

    /// `id`'s request was issued at `at`.
    pub(super) fn requested(&mut self, id: ObjectId, at: SimTime) {
        if let Some(o) = self.objects.get_mut(id.0 as usize) {
            o.0.get_or_insert(at);
        }
    }

    /// `id` finished processing at `at`.
    pub(super) fn processed(&mut self, id: ObjectId, at: SimTime) {
        if let Some(o) = self.objects.get_mut(id.0 as usize) {
            o.1 = Some(at);
        }
    }
}

/// The row of connection `key`.
fn conn_tid(key: u32) -> u32 {
    match leg_of(key) {
        None => TID_CONN_BASE + key,
        Some(li) => TID_LEG_BASE + li,
    }
}

impl PageLoadResult {
    /// This load of `site` as one trace process named `<site> · <stack>
    /// · seed <seed>`, drawn from its record (`None` unless it was
    /// loaded with [`LoadOptions::record`](super::LoadOptions::record)):
    /// every row above, the links' rows and pacing holds only at
    /// `level` Debug.
    pub fn render(&self, site: &Website, level: Level) -> Option<Process> {
        let r = self.record.as_deref()?;
        let debug = level >= Level::Debug;
        let (mut tracks, mut events) = (vec![(TID_PAGE, "page".to_string())], Vec::new());
        for c in &r.conns {
            let (tid, label) = (conn_tid(c.key), c.protocol.label());
            tracks.push(match leg_of(c.key) {
                None => (tid, format!("conn {} ({label})", c.key)),
                Some(li) => (tid, format!("leg {li} (H2 → origin {})", c.origin)),
            });
            if let Some(done) = c.handshake {
                let (start, end) = (c.opened.as_nanos(), done.as_nanos());
                let args = vec![("protocol", ArgValue::Str(label.to_string()))];
                let span = Event::span("transport", "handshake", 0, tid, start, end, args);
                events.push(span);
            }
        }
        for &(key, ev) in &r.conn_events {
            conn_rows(&mut events, conn_tid(key), ev, debug);
        }
        let page = |cat, name, at: SimTime, args| {
            Event::instant(cat, name, 0, TID_PAGE, at.as_nanos(), args)
        };
        for &(at, what, id) in &r.faults {
            events.push(page("fault", what, at, vec![("id", ArgValue::U64(id))]));
        }
        let lanes = r.lanes.iter().filter(|_| debug);
        events.extend(lanes.map(|&(at, lane, note)| lane_row(at, lane, note)));
        for (&(requested, processed), o) in r.objects.iter().zip(&site.objects) {
            let (tid, size, blocking) = (TID_OBJ_BASE + o.id.0, o.size, o.render_blocking);
            if requested.is_some() {
                tracks.push((tid, format!("obj {} ({:?})", o.id.0, o.kind)));
            }
            let Some(done) = processed else { continue };
            let args = vec![
                ("origin", ArgValue::U64(u64::from(o.origin.0))),
                ("size", ArgValue::U64(size)),
                ("render_blocking", ArgValue::U64(u64::from(blocking))),
            ];
            let (start, end) = (requested.unwrap_or(done).as_nanos(), done.as_nanos());
            let name = format!("{:?} {size}", o.kind);
            events.push(Event::span("web", name, 0, tid, start, end, args));
        }
        let (m, timeline) = (&self.metrics, &self.timeline);
        let marks = [
            ("FVC", timeline.first_change(), m.fvc_ms),
            ("LVC", timeline.last_change(), m.lvc_ms),
            ("PLT", Some(self.plt), m.plt_ms),
        ];
        for (name, at, ms) in marks {
            if let Some(at) = at {
                events.push(page("web", name, at, vec![("ms", ArgValue::F64(ms))]));
            }
        }
        let name = format!("{} · {} · seed {}", site.name, r.protocol.label(), r.seed);
        Some(Process {
            name,
            tracks,
            events,
        })
    }
}

/// `ev`'s rows on connection row `tid`: cwnd / ssthresh / sRTT counters
/// and retransmit and RTO instants, and pacing holds if `debug`.
fn conn_rows(events: &mut Vec<Event>, tid: u32, ev: ConnEvent, debug: bool) {
    let dir = match ev.dir {
        Direction::Up => "up",
        Direction::Down => "down",
    };
    let ts = ev.at.as_nanos();
    let name = |what: &str| format!("{what} {dir}");
    let instant = |what, args| Event::instant("transport", name(what), 0, tid, ts, args);
    let counter = |what, value| Event::counter("transport", name(what), 0, tid, ts, value);
    match ev.kind {
        ConnEventKind::Ack {
            cwnd,
            ssthresh,
            srtt,
        } => {
            events.push(counter("cwnd", cwnd as f64));
            // Cubic's initial ssthresh is "infinite"; skip the sentinel
            // so the counter chart stays readable.
            if let Some(ss) = ssthresh.filter(|&ss| ss < u64::MAX / 2) {
                events.push(counter("ssthresh", ss as f64));
            }
            if let Some(rtt) = srtt {
                events.push(counter("srtt_ms", rtt.as_millis_f64()));
            }
        }
        ConnEventKind::Retransmit { what, detail } => {
            events.push(instant("retransmit", vec![(what, ArgValue::U64(detail))]));
        }
        ConnEventKind::Rto { .. } => events.push(instant("RTO", Vec::new())),
        ConnEventKind::PacingHold { wait } if debug => {
            let args = vec![("wait_ns", ArgValue::U64(wait.as_nanos()))];
            events.push(instant("pacing hold", args));
        }
        ConnEventKind::PacingHold { .. } | ConnEventKind::CongestionEvent => {}
    }
}

/// The page-row row of what `lane` reported at `at`: a queue-bytes
/// counter, or a tail-drop or loss instant — a random loss under `sim`,
/// an injected one under `fault`.
fn lane_row(at: SimTime, lane: usize, note: LaneNote) -> Event {
    let (lane, ts) = (lane_name(lane), at.as_nanos());
    let instant =
        |cat, what, args| Event::instant(cat, format!("{lane} {what}"), 0, TID_PAGE, ts, args);
    match note {
        LaneNote::Queued(bytes) => Event::counter(
            "sim",
            format!("{lane} queue bytes"),
            0,
            TID_PAGE,
            ts,
            bytes as f64,
        ),
        LaneNote::TailDrop(bytes) => instant(
            "sim",
            "tail drop",
            vec![("queued_bytes", ArgValue::U64(bytes))],
        ),
        LaneNote::Lost(loss, size) => {
            let (cat, what) = match loss {
                Loss::Random => ("sim", "random loss"),
                Loss::Fault => ("fault", "injected loss"),
            };
            instant(cat, what, vec![("size", ArgValue::U64(u64::from(size)))])
        }
    }
}
