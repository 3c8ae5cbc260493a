//! A one-connection world on the transport crate's public API: one
//! [`Connection`] (it models both endpoints), an uplink and a downlink
//! [`Link`], and an [`EventQueue`]. The client sends one request, the
//! server answers with `bytes`, and the world runs until the client
//! has them. The public-API twin of `transport/src/testutil.rs`,
//! without a browser, HTTP or page structure in the way.

use pq_sim::{
    ConnId, Direction, EventQueue, Link, NetworkConfig, Packet, PushOutcome, SimDuration, SimRng,
    SimTime,
};
use pq_transport::{Connection, Output, Protocol, StreamId, Wire};

const REQUEST_BYTES: u64 = 400;
const HORIZON: SimDuration = SimDuration::from_secs(600);
/// QUIC carries the transfer on this stream; TCP's byte stream is 0.
const STREAM: StreamId = StreamId(1);

enum Ev {
    TxDone(Direction),
    Deliver(Direction, Packet<Wire>),
    /// Connection timer; stale when its version is not the latest.
    Wake(u64),
}

/// What one transfer did.
pub struct Transfer {
    pub complete: bool,
    /// Simulated seconds until the client held every byte.
    pub sim_s: f64,
    /// Packets the downlink delivered (data segments, mostly).
    pub segments: u64,
    pub retransmits: u64,
}

struct World {
    queue: EventQueue<Ev>,
    up: Link<Wire>,
    down: Link<Wire>,
    conn: Connection,
    wake_version: u64,
    bytes: u64,
    served: bool,
    received: u64,
}

impl World {
    /// Drain the connection's outputs (an output can beget outputs: a
    /// request arriving triggers the response write), then re-arm its
    /// timer.
    fn pump(&mut self, now: SimTime) {
        loop {
            let outputs = self.conn.take_outputs();
            if outputs.is_empty() {
                break;
            }
            for o in outputs {
                match o {
                    Output::Send(dir, pkt) => {
                        let link = match dir {
                            Direction::Up => &mut self.up,
                            Direction::Down => &mut self.down,
                        };
                        if let PushOutcome::StartedTx(at) = link.push(now, pkt) {
                            self.queue.schedule(at, Ev::TxDone(dir));
                        }
                    }
                    Output::ServerStreamProgress { delivered, fin, .. } => {
                        let arrived = match &self.conn {
                            Connection::Quic(_) => fin,
                            Connection::Tcp(_) => delivered >= REQUEST_BYTES,
                        };
                        if arrived && !self.served {
                            self.served = true;
                            match &mut self.conn {
                                Connection::Quic(q) => {
                                    q.server_write(now, STREAM, self.bytes, true)
                                }
                                Connection::Tcp(t) => t.server_write(now, self.bytes),
                            }
                        }
                    }
                    Output::ClientStreamProgress { delivered, .. } => self.received = delivered,
                    Output::HandshakeDone | Output::Trace(..) => {}
                }
            }
        }
        let at = self.conn.poll_at();
        if at != SimTime::MAX {
            self.wake_version += 1;
            self.queue
                .schedule(at.max(now), Ev::Wake(self.wake_version));
        }
    }

    fn tx_done(&mut self, now: SimTime, dir: Direction) {
        let link = match dir {
            Direction::Up => &mut self.up,
            Direction::Down => &mut self.down,
        };
        let txd = link.on_tx_done(now);
        if let Some((at, pkt)) = txd.delivery {
            self.queue.schedule(at, Ev::Deliver(dir, pkt));
        }
        if let Some(next) = txd.next_tx_done {
            self.queue.schedule(next, Ev::TxDone(dir));
        }
    }
}

/// Move `bytes` from server to client over `net` with `protocol`.
pub fn transfer(protocol: Protocol, net: &NetworkConfig, seed: u64, bytes: u64) -> Transfer {
    let rng = SimRng::new(seed);
    let now = SimTime::ZERO;
    let mut w = World {
        queue: EventQueue::new(),
        up: Link::new(net.uplink(), rng.fork("up-loss")),
        down: Link::new(net.downlink(), rng.fork("down-loss")),
        conn: Connection::open(ConnId(1), protocol.config(net), now),
        wake_version: 0,
        bytes,
        served: false,
        received: 0,
    };
    match &mut w.conn {
        Connection::Quic(q) => q.client_open_stream(now, STREAM, REQUEST_BYTES),
        Connection::Tcp(t) => t.client_write(now, REQUEST_BYTES),
    }
    w.pump(now);
    let mut done_at = None;
    while let Some((now, ev)) = w.queue.pop() {
        if now > SimTime::ZERO + HORIZON {
            break;
        }
        match ev {
            Ev::TxDone(dir) => w.tx_done(now, dir),
            Ev::Deliver(dir, pkt) => {
                w.conn.on_packet(now, &pkt.payload, dir);
                w.pump(now);
            }
            Ev::Wake(v) if v == w.wake_version => {
                w.conn.on_wake(now);
                w.pump(now);
            }
            Ev::Wake(_) => {}
        }
        if w.received >= bytes {
            done_at = Some(now);
            break;
        }
    }
    Transfer {
        complete: done_at.is_some(),
        sim_s: done_at.unwrap_or(SimTime::ZERO + HORIZON).as_secs_f64(),
        segments: w.down.stats().delivered,
        retransmits: w.conn.retransmits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_sim::NetworkKind;

    #[test]
    fn clean_transfer_completes_near_line_rate_and_repeats_exactly() {
        let _registry = crate::counters::REGISTRY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let net = NetworkKind::Lte.config();
        for p in [Protocol::TcpPlus, Protocol::Quic] {
            let a = transfer(p, &net, 3, 1_000_000);
            let b = transfer(p, &net, 3, 1_000_000);
            assert!(a.complete, "{}", p.label());
            assert_eq!((a.segments, a.sim_s), (b.segments, b.sim_s));
            // 1 MB over 10.5 Mbps is 0.76 s on the wire; handshake and
            // slow start add to it, nothing makes it faster.
            assert!(
                a.sim_s > 0.76 && a.sim_s < 3.0,
                "{}: {}",
                p.label(),
                a.sim_s
            );
            assert!(a.segments >= 1_000_000 / 1500);
        }
    }

    #[test]
    fn lossy_transfer_retransmits_and_still_completes() {
        let _registry = crate::counters::REGISTRY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let net = NetworkKind::Mss.config();
        for p in [Protocol::TcpPlus, Protocol::Quic] {
            let t = transfer(p, &net, 5, 500_000);
            assert!(t.complete, "{}", p.label());
            assert!(
                t.retransmits > 0,
                "{}: 6 % loss must cost retransmits",
                p.label()
            );
        }
    }
}
