//! A miniature single-connection world used by the transport tests:
//! one [`Connection`] over one emulated duplex link, with a scripted
//! server that answers each request stream.

use crate::api::{ConnEvent, Connection, Output, StreamId};
use crate::config::{Protocol, StackConfig};
use crate::wire::Wire;
use pq_sim::{
    ConnId, Direction, EventQueue, Link, NetworkConfig, Packet, PushOutcome, SimRng, SimTime,
};
use std::collections::HashMap;

#[derive(Debug)]
pub enum Ev {
    UpTxDone,
    DownTxDone,
    Deliver(Direction, Packet<Wire>),
    ConnWake(u64),
}

pub struct MiniWorld {
    pub queue: EventQueue<Ev>,
    pub up: Link<Wire>,
    pub down: Link<Wire>,
    pub conn: Connection,
    wake_version: u64,
    /// Per-stream response plan: bytes the server writes when a
    /// request stream completes (TCP: keyed by cumulative request
    /// bytes thresholds).
    pub responses: HashMap<u64, u64>,
    /// Observed client-side progress per stream.
    pub client_progress: HashMap<u64, (u64, bool, SimTime)>,
    pub handshake_done_at: Option<SimTime>,
    /// Every packet the connection sent: time, direction and contents.
    pub sent: Vec<String>,
    /// The connection's [`Output::Trace`] records, oldest first.
    pub traces: Vec<ConnEvent>,
    served: HashMap<u64, bool>,
    /// For TCP: request sizes in arrival order on the byte stream.
    tcp_requests: Vec<(u64, u64)>, // (cumulative end, stream key)
    tcp_served_upto: usize,
}

impl MiniWorld {
    pub fn new(protocol: Protocol, net: &NetworkConfig, seed: u64, now: SimTime) -> Self {
        Self::new_with_config(protocol.config(net), net, seed, now)
    }

    pub fn new_with_config(cfg: StackConfig, net: &NetworkConfig, seed: u64, now: SimTime) -> Self {
        let rng = SimRng::new(seed);
        let mut world = MiniWorld {
            queue: EventQueue::new(),
            up: Link::new(net.uplink(), rng.fork("up-loss")),
            down: Link::new(net.downlink(), rng.fork("down-loss")),
            conn: Connection::open(ConnId(1), cfg, now),
            wake_version: 0,
            responses: HashMap::new(),
            client_progress: HashMap::new(),
            handshake_done_at: None,
            sent: Vec::new(),
            traces: Vec::new(),
            served: HashMap::new(),
            tcp_requests: Vec::new(),
            tcp_served_upto: 0,
        };
        world.pump(now);
        world
    }

    /// Queue a request: on QUIC it opens a stream; on TCP it writes the
    /// request bytes to the byte stream. The server responds with
    /// `response` bytes on the same stream (TCP: appended to the byte
    /// stream) once the request fully arrives.
    pub fn request(&mut self, now: SimTime, stream: u64, req_bytes: u64, response: u64) {
        self.responses.insert(stream, response);
        if let Connection::Tcp(_) = self.conn {
            let prev_end = self.tcp_requests.last().map_or(0, |(e, _)| *e);
            self.tcp_requests.push((prev_end + req_bytes, stream));
        }
        self.conn.client_write(now, StreamId(stream), req_bytes);
        self.pump(now);
    }

    fn pump(&mut self, now: SimTime) {
        // Outputs can beget outputs (a served request triggers a
        // response write); drain until quiescent.
        loop {
            let outputs = self.conn.take_outputs();
            if outputs.is_empty() {
                break;
            }
            for o in outputs {
                match o {
                    Output::Send(dir, pkt) => {
                        self.sent.push(format!("{now:?} {dir:?} {pkt:?}"));
                        let link = match dir {
                            Direction::Up => &mut self.up,
                            Direction::Down => &mut self.down,
                        };
                        match link.push(now, pkt) {
                            PushOutcome::StartedTx(t) => {
                                let ev = match dir {
                                    Direction::Up => Ev::UpTxDone,
                                    Direction::Down => Ev::DownTxDone,
                                };
                                self.queue.schedule(t, ev);
                            }
                            PushOutcome::Queued | PushOutcome::TailDropped => {}
                        }
                    }
                    Output::HandshakeDone => {
                        self.handshake_done_at.get_or_insert(now);
                    }
                    Output::ClientStreamProgress {
                        stream,
                        delivered,
                        fin,
                    } => {
                        self.client_progress.insert(stream.0, (delivered, fin, now));
                    }
                    Output::ServerStreamProgress {
                        stream,
                        delivered,
                        fin,
                    } => {
                        self.on_server_progress(now, stream.0, delivered, fin);
                    }
                    Output::Trace(ev) => self.traces.push(ev),
                }
            }
        }
        // Reschedule the connection wakeup.
        let at = self.conn.poll_at();
        if at != SimTime::MAX {
            self.wake_version += 1;
            self.queue
                .schedule(at.max(now), Ev::ConnWake(self.wake_version));
        }
    }

    fn on_server_progress(&mut self, now: SimTime, stream: u64, delivered: u64, fin: bool) {
        match self.conn {
            Connection::Quic(_) => {
                if fin && !self.served.get(&stream).copied().unwrap_or(false) {
                    self.served.insert(stream, true);
                    let resp = self.responses.get(&stream).copied().unwrap_or(0);
                    self.conn.server_write(now, StreamId(stream), resp, true);
                }
            }
            Connection::Tcp(_) => {
                // Serve every request whose bytes fully arrived.
                while self.tcp_served_upto < self.tcp_requests.len() {
                    let (end, key) = self.tcp_requests[self.tcp_served_upto];
                    if delivered >= end {
                        let resp = self.responses.get(&key).copied().unwrap_or(0);
                        self.conn.server_write(now, StreamId(0), resp, false);
                        self.tcp_served_upto += 1;
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Run until the event queue drains or `horizon` passes; returns
    /// the finish time of the last processed event.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        let mut last = self.queue.now();
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (now, ev) = self.queue.pop().unwrap();
            last = now;
            match ev {
                Ev::UpTxDone => {
                    let txd = self.up.on_tx_done(now);
                    if let Some((at, pkt)) = txd.delivery {
                        self.queue.schedule(at, Ev::Deliver(Direction::Up, pkt));
                    }
                    if let Some(next) = txd.next_tx_done {
                        self.queue.schedule(next, Ev::UpTxDone);
                    }
                }
                Ev::DownTxDone => {
                    let txd = self.down.on_tx_done(now);
                    if let Some((at, pkt)) = txd.delivery {
                        self.queue.schedule(at, Ev::Deliver(Direction::Down, pkt));
                    }
                    if let Some(next) = txd.next_tx_done {
                        self.queue.schedule(next, Ev::DownTxDone);
                    }
                }
                Ev::Deliver(dir, pkt) => {
                    self.conn.on_packet(now, &pkt.payload, dir);
                    self.conn.recycle(pkt.payload);
                    self.pump(now);
                }
                Ev::ConnWake(v) => {
                    if v == self.wake_version {
                        self.conn.on_wake(now);
                        self.pump(now);
                    }
                }
            }
        }
        last
    }

    /// Time the client finished receiving `bytes` on `stream`.
    pub fn stream_done(&self, stream: u64, expected: u64) -> bool {
        self.client_progress
            .get(&stream)
            .is_some_and(|(d, _, _)| *d >= expected)
    }
}

/// Convenience: fetch one object of `response` bytes over a fresh
/// connection; returns (handshake time, completion time). Panics if the
/// transfer does not finish before `horizon`.
pub fn fetch_once(
    protocol: Protocol,
    net: &NetworkConfig,
    seed: u64,
    response: u64,
    horizon: SimTime,
) -> (SimTime, SimTime) {
    fetch_once_with(protocol.config(net), net, seed, response, horizon)
}

/// [`fetch_once`] over an explicit stack configuration.
pub fn fetch_once_with(
    cfg: StackConfig,
    net: &NetworkConfig,
    seed: u64,
    response: u64,
    horizon: SimTime,
) -> (SimTime, SimTime) {
    let protocol = cfg.protocol;
    let mut w = MiniWorld::new_with_config(cfg, net, seed, SimTime::ZERO);
    w.request(SimTime::ZERO, 1, 400, response);
    w.run_until(horizon);
    let hs = w
        .handshake_done_at
        .unwrap_or_else(|| panic!("{}: handshake incomplete", protocol.label()));
    assert!(
        w.stream_done(if protocol.is_quic() { 1 } else { 0 }, response),
        "{}: transfer incomplete: {:?}",
        protocol.label(),
        w.client_progress
    );
    let done = w
        .client_progress
        .get(&if protocol.is_quic() { 1 } else { 0 })
        .map(|(_, _, at)| *at)
        .unwrap();
    (hs, done)
}
