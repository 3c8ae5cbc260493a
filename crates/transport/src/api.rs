//! The uniform event-driven interface both transports expose to the
//! browser layer: feed packets and wakeups in, drain outputs.

use crate::config::StackConfig;
use crate::quic::QuicConnection;
use crate::tcp::TcpConnection;
use crate::wire::Wire;
use pq_sim::{ConnId, Direction, Packet, SimTime};

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
    /// A retransmission or an RTO happened; the `u64` is its detail
    /// (the sequence number, stream or packet number concerned).
    Trace(TraceKind, u64),
}

/// What an [`Output::Trace`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A transport detected a loss and retransmitted.
    Retransmit,
    /// A retransmission timeout fired.
    Rto,
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

    /// Attach the connection to a trace track (`pid` = the page load,
    /// `tid` = this connection's row). Sender-side congestion counters,
    /// retransmit/RTO instants and the handshake span land there.
    #[inline]
    pub fn set_obs_track(&mut self, pid: u32, tid: u32) {
        match self {
            Connection::Tcp(c) => c.set_obs_track(pid, tid),
            Connection::Quic(c) => c.set_obs_track(pid, tid),
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
    /// first flight never reached the wire"). Progress and trace
    /// outputs are preserved; only `Output::Send` entries vanish.
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
