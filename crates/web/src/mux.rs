//! A connection and the HTTP mapping it carries, paired once.
//!
//! [`Mux`] is the sum of the paper's two mappings ([`crate::http2`] over
//! TCP, [`crate::http3`] over gQUIC); each drives the transport through
//! [`Connection`]'s uniform stream writes, so the loader makes one call
//! per step whatever the stack.

use crate::http2::H2Mux;
use crate::http3::{self, H3Map};
use crate::object::{ObjectId, Progress};
use pq_sim::SimTime;
use pq_transport::{Connection, Protocol, StreamId};

pub(crate) enum Mux {
    H2(H2Mux),
    H3(H3Map),
}

impl Mux {
    /// The mapping a browser speaks over `protocol`: gQUIC's own over
    /// the QUIC stacks, HTTP/2 over the TCP ones.
    pub(crate) fn for_client(protocol: Protocol) -> Mux {
        if protocol.is_quic() {
            Mux::H3(H3Map::new())
        } else {
            Mux::H2(H2Mux::new())
        }
    }

    /// Stream bytes a response with `body` payload bytes occupies.
    pub(crate) fn response_bytes(&self, body: u64) -> u64 {
        match self {
            Mux::H2(_) => H2Mux::response_stream_bytes(body),
            Mux::H3(_) => http3::RESPONSE_HEADER + body,
        }
    }
}

/// One transport connection, the HTTP mapping it was opened with, the
/// origin it leads to, and the version stamp of its latest scheduled
/// wake-up (older ones are stale).
pub(crate) struct ConnState {
    pub(crate) conn: Connection,
    pub(crate) mux: Mux,
    pub(crate) origin: u16,
    pub(crate) wake_version: u64,
}

impl ConnState {
    /// The client requests `object`.
    pub(crate) fn request(&mut self, now: SimTime, object: ObjectId) {
        match &mut self.mux {
            Mux::H2(m) => m.request(&mut self.conn, now, object),
            Mux::H3(m) => m.request(&mut self.conn, now, object),
        }
    }

    /// The server answers `object`'s request with `body` payload bytes.
    pub(crate) fn respond(&mut self, now: SimTime, object: ObjectId, body: u64) {
        match &mut self.mux {
            Mux::H2(m) => m.respond(&mut self.conn, now, object, body),
            Mux::H3(m) => m.respond(&mut self.conn, now, object, body),
        }
    }

    /// The proxy relays `bytes` more pre-framed stream bytes of
    /// `object`'s response as they arrive from upstream, `fin` with the
    /// last; totals must sum to [`Mux::response_bytes`] of the body for
    /// the client to see the object complete.
    pub(crate) fn relay(&mut self, now: SimTime, object: ObjectId, bytes: u64, fin: bool) {
        match &mut self.mux {
            Mux::H2(m) => m.respond_raw(&mut self.conn, now, object, bytes),
            Mux::H3(m) => m.relay(&mut self.conn, now, object, bytes, fin),
        }
    }

    /// The transport drained: let HTTP/2's bounded-lookahead writer
    /// commit more. True when it did.
    pub(crate) fn top_up(&mut self, now: SimTime) -> bool {
        let Mux::H2(m) = &mut self.mux else {
            return false;
        };
        let before = self.conn.server_backlog();
        m.pump(&mut self.conn, now);
        self.conn.server_backlog() != before
    }

    /// Request bytes reached the server end: appends to `ready` the
    /// objects whose requests are now complete.
    pub(crate) fn on_server_progress(
        &mut self,
        stream: StreamId,
        delivered: u64,
        fin: bool,
        ready: &mut Vec<ObjectId>,
    ) {
        match &mut self.mux {
            Mux::H2(m) => m.on_server_delivered(delivered, ready),
            Mux::H3(m) if fin => ready.extend(m.on_server_stream_fin(stream)),
            Mux::H3(_) => {}
        }
    }

    /// Response bytes reached the client end: appends to `out` what
    /// that means per object.
    pub(crate) fn on_client_progress(
        &mut self,
        stream: StreamId,
        delivered: u64,
        out: &mut Vec<Progress>,
    ) {
        match &mut self.mux {
            Mux::H2(m) => m.on_client_delivered(delivered, out),
            Mux::H3(m) => out.extend(m.on_client_delivered(stream, delivered)),
        }
    }
}
