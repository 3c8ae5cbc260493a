//! The uniform event-driven interface both transports expose to the
//! browser layer: feed packets and wakeups in, drain outputs.

use crate::config::StackConfig;
use crate::quic::QuicConnection;
use crate::tcp::TcpConnection;
use crate::wire::Wire;
use pq_sim::{ConnId, Direction, Packet, SimDuration, SimTime};

/// Identifier of a stream within a connection. TCP's single byte
/// stream per direction is `StreamId(0)`; QUIC uses real stream ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

/// Everything a connection can ask of / tell the outside world.
#[derive(Debug)]
pub enum Output {
    /// Transmit a packet in the given direction (`Up` = client →
    /// server).
    Send(Direction, Packet<Wire>),
    /// The client may now send application data (1 RTT after open for
    /// QUIC, 2 RTT for TCP+TLS 1.3).
    HandshakeDone,
    /// In-order delivery progress of server→client data at the client.
    /// For TCP this is the cumulative byte-stream position; for QUIC it
    /// is per-stream.
    ClientStreamProgress {
        /// Which stream progressed.
        stream: StreamId,
        /// Cumulative in-order bytes now available.
        delivered: u64,
        /// True when the stream is complete.
        fin: bool,
    },
    /// In-order delivery progress of client→server data at the server
    /// (requests arriving).
    ServerStreamProgress {
        /// Which stream progressed.
        stream: StreamId,
        /// Cumulative in-order bytes now available.
        delivered: u64,
        /// True when the stream is complete.
        fin: bool,
    },
    /// What a sender did, pushed only once the caller asked for it
    /// with [`Connection::observe`].
    Trace(ConnEvent),
}

// A record must not widen every output the pump loops move.
const _: () = assert!(std::mem::size_of::<Output>() == 96);

/// One record of a connection's behaviour: what one of its two
/// senders did, and when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which sender: `Up` is the client's, `Down` the server's.
    pub dir: Direction,
    /// What happened.
    pub kind: ConnEventKind,
}

/// What a [`ConnEvent`] reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConnEventKind {
    /// An ACK newly covered data; the window and smoothed RTT after
    /// congestion control took it in.
    Ack {
        /// Congestion window, bytes.
        cwnd: u64,
        /// Slow-start threshold, bytes (`None` if the controller has
        /// none; Cubic's initial one is `u64::MAX`).
        ssthresh: Option<u64>,
        /// Smoothed RTT (`None` before the first sample).
        srtt: Option<SimDuration>,
    },
    /// A loss was repaired: `what` names `detail`, the sequence number
    /// (`"seq"`) or stream (`"stream"`) resent.
    Retransmit {
        /// What `detail` is.
        what: &'static str,
        /// The sequence number or stream id.
        detail: u64,
    },
    /// The retransmission timeout fired.
    Rto {
        /// Where the send state stood: TCP's `snd_una`, QUIC's next
        /// packet number.
        detail: u64,
    },
    /// The pacer held a packet back.
    PacingHold {
        /// Until the pacer releases it.
        wait: SimDuration,
    },
    /// A loss started a new recovery episode: one window reduction.
    CongestionEvent,
}

/// A transport connection of either flavour; the browser layer treats
/// them uniformly, writing through [`Connection::client_write`] and
/// [`Connection::server_write`] and reading [`Output`]s back.
#[derive(Debug)]
pub enum Connection {
    /// TCP + TLS 1.3 carrying HTTP/2.
    Tcp(TcpConnection),
    /// gQUIC carrying its HTTP/2-like stream mapping.
    Quic(QuicConnection),
}

impl Connection {
    /// Open a connection; the client's first flight is emitted
    /// immediately (SYN or CHLO).
    #[inline]
    pub fn open(id: ConnId, cfg: StackConfig, now: SimTime) -> Connection {
        if cfg.protocol.is_quic() {
            Connection::Quic(QuicConnection::new(id, cfg, now))
        } else {
            Connection::Tcp(TcpConnection::new(id, cfg, now))
        }
    }

    /// The client writes a `bytes`-long request. QUIC opens `stream`
    /// for it and closes it with FIN; TCP appends to its one byte
    /// stream, [`StreamId`]`(0)`, whatever `stream` says.
    #[inline]
    pub fn client_write(&mut self, now: SimTime, stream: StreamId, bytes: u64) {
        match self {
            Connection::Tcp(c) => c.client_write(now, bytes),
            Connection::Quic(c) => c.client_open_stream(now, stream, bytes),
        }
    }

    /// The server writes `bytes` of response onto `stream`, `fin`
    /// closing it (QUIC), or onto the byte stream (TCP, which has no
    /// per-response end to mark).
    #[inline]
    pub fn server_write(&mut self, now: SimTime, stream: StreamId, bytes: u64, fin: bool) {
        match self {
            Connection::Tcp(c) => c.server_write(now, bytes),
            Connection::Quic(c) => c.server_write(now, stream, bytes, fin),
        }
    }

    /// Bytes the server application wrote that the transport has not
    /// yet sent for the first time.
    #[inline]
    pub fn server_backlog(&self) -> u64 {
        match self {
            Connection::Tcp(c) => c.server_backlog(),
            Connection::Quic(c) => c.server_backlog(),
        }
    }

    /// From now on, push an [`Output::Trace`] record for every ACK
    /// sample, retransmission, RTO, pacing hold and congestion event of
    /// either sender. Until then none is pushed.
    #[inline]
    pub fn observe(&mut self) {
        match self {
            Connection::Tcp(c) => c.observe(),
            Connection::Quic(c) => c.observe(),
        }
    }

    /// Deliver an arrived packet (`Direction::Up` = arrived at the
    /// server endpoint).
    #[inline]
    pub fn on_packet(&mut self, now: SimTime, wire: &Wire, arrived: Direction) {
        match self {
            Connection::Tcp(c) => c.on_packet(now, wire, arrived),
            Connection::Quic(c) => c.on_packet(now, wire, arrived),
        }
    }

    /// Hand back the payload of a packet [`Connection::on_packet`] has
    /// processed: an ACK's range buffer is reused for the connection's
    /// next ACK instead of freed, so steady-state ACKs allocate nothing.
    #[inline]
    pub fn recycle(&mut self, wire: Wire) {
        match self {
            Connection::Tcp(c) => c.recycle(wire),
            Connection::Quic(c) => c.recycle(wire),
        }
    }

    /// Service expired timers.
    #[inline]
    pub fn on_wake(&mut self, now: SimTime) {
        match self {
            Connection::Tcp(c) => c.on_wake(now),
            Connection::Quic(c) => c.on_wake(now),
        }
    }

    /// Earliest internal timer (`SimTime::MAX` when idle).
    #[inline]
    pub fn poll_at(&self) -> SimTime {
        match self {
            Connection::Tcp(c) => c.poll_at(),
            Connection::Quic(c) => c.poll_at(),
        }
    }

    /// Move pending outputs to the end of `into`, oldest first. The
    /// pump loops call this once or more per event with a buffer they
    /// keep, so neither side allocates in steady state.
    #[inline]
    pub fn drain_outputs(&mut self, into: &mut Vec<Output>) {
        match self {
            Connection::Tcp(c) => c.drain_outputs(into),
            Connection::Quic(c) => c.drain_outputs(into),
        }
    }

    /// Pending outputs as a fresh `Vec`: [`Connection::drain_outputs`]
    /// for callers without a buffer to reuse.
    #[inline]
    pub fn take_outputs(&mut self) -> Vec<Output> {
        let mut outputs = Vec::new();
        self.drain_outputs(&mut outputs);
        outputs
    }

    /// True once the client may send application data.
    #[inline]
    pub fn is_established(&self) -> bool {
        match self {
            Connection::Tcp(c) => c.is_established(),
            Connection::Quic(c) => c.is_established(),
        }
    }

    /// Total retransmissions (both directions / all packet numbers).
    #[inline]
    pub fn retransmits(&self) -> u64 {
        match self {
            Connection::Tcp(c) => c.retransmits(),
            Connection::Quic(c) => c.retransmits(),
        }
    }

    /// Drop every buffered outgoing packet (fault injection: "the
    /// first flight never reached the wire"). Every other output is
    /// kept; only `Output::Send` entries vanish.
    /// Returns the number of packets discarded. Recovery is the
    /// transport's own job: the TCP handshake timer re-emits the SYN
    /// with exponential backoff, and QUIC's RTO requeues the CHLO —
    /// exactly the machinery a real lost flight exercises.
    #[inline]
    pub fn discard_pending_sends(&mut self) -> usize {
        match self {
            Connection::Tcp(c) => c.discard_pending_sends(),
            Connection::Quic(c) => c.discard_pending_sends(),
        }
    }
}
