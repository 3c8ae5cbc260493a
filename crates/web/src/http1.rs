//! HTTP/1.1 over TCP — the legacy baseline the QUIC literature
//! compares against (the paper's related work: "most compare QUIC
//! against some combination of TCP+TLS+HTTP/1.1 or HTTP/2").
//!
//! One request at a time per connection, no multiplexing, up to
//! [`MAX_CONNS_PER_ORIGIN`] parallel connections per origin (the
//! browser default). Every extra connection pays the full TCP+TLS
//! handshake — which is exactly why H2/H3 replaced it.

use crate::object::{Got, ObjectId, Progress};
use pq_sim::SimTime;
use pq_transport::{Connection, StreamId};

/// Browser connection-pool limit per origin (Chromium/Firefox: 6).
pub const MAX_CONNS_PER_ORIGIN: usize = 6;
/// Request header bytes (no HPACK in H1: a little larger than H2).
pub const REQUEST_BYTES: u64 = 520;
/// Response header bytes.
pub const RESPONSE_HEADER: u64 = 280;

/// Per-connection H1 state: at most one outstanding request.
#[derive(Debug, Default)]
pub struct H1Conn {
    /// The in-flight request, if any.
    current: Option<ObjectId>,
    /// Client→server bytes after which the current request is fully
    /// received by the server.
    req_end: u64,
    /// Server→client bytes at which the current response completes.
    resp_end: u64,
    /// Client-side read cursor (response-stream position already
    /// attributed to finished objects).
    resp_start: u64,
    /// Total request bytes written so far (c2s stream length).
    req_written: u64,
    /// Total response bytes the server has committed (s2c length).
    resp_written: u64,
    /// The server saw the full request and is thinking/answering.
    serving: bool,
}

impl H1Conn {
    /// Fresh connection state.
    pub fn new() -> H1Conn {
        H1Conn::default()
    }

    /// Idle and ready for the next request?
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Issue a request on this (idle) connection.
    pub fn request(&mut self, conn: &mut Connection, now: SimTime, object: ObjectId) {
        debug_assert!(self.is_idle(), "H1 pipelining is not used by browsers");
        self.current = Some(object);
        self.req_written += REQUEST_BYTES;
        self.req_end = self.req_written;
        self.serving = false;
        conn.client_write(now, StreamId(0), REQUEST_BYTES);
    }

    /// The server's request stream advanced; returns the object whose
    /// request is now complete (the server should start thinking).
    pub fn on_server_delivered(&mut self, delivered: u64) -> Option<ObjectId> {
        if !self.serving && self.current.is_some() && delivered >= self.req_end {
            self.serving = true;
            return self.current;
        }
        None
    }

    /// The server writes the response (`body` payload bytes).
    pub fn respond(&mut self, conn: &mut Connection, now: SimTime, body: u64) {
        debug_assert!(self.serving, "response without a received request");
        let total = RESPONSE_HEADER + body;
        self.resp_written += total;
        self.resp_end = self.resp_written;
        conn.server_write(now, StreamId(0), total, false);
    }

    /// The client's response stream advanced to `delivered`: how far
    /// the current response got (its headers count as delivered once
    /// anything of it is), and whether that completes it.
    pub fn on_client_delivered(&mut self, delivered: u64) -> Option<Progress> {
        let object = self.current?;
        if self.resp_end == self.resp_start {
            return None; // response not yet started
        }
        let into_resp = delivered.min(self.resp_end).saturating_sub(self.resp_start);
        let body = into_resp.saturating_sub(RESPONSE_HEADER);
        let idle = delivered >= self.resp_end;
        if idle {
            // Response complete: the connection goes idle (keep-alive).
            self.resp_start = self.resp_end;
            self.current = None;
            self.serving = false;
        }
        let got = Got::Total(RESPONSE_HEADER + body);
        Some(Progress { object, got, idle })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_sim::{ConnId, NetworkKind};
    use pq_transport::Protocol;

    fn tcp() -> Connection {
        let net = NetworkKind::Dsl.config();
        Connection::open(ConnId(1), Protocol::Tcp.config(&net), SimTime::ZERO)
    }

    #[test]
    fn one_request_at_a_time() {
        let mut h1 = H1Conn::new();
        let mut c = tcp();
        assert!(h1.is_idle());
        h1.request(&mut c, SimTime::ZERO, ObjectId(4));
        assert!(!h1.is_idle());
        // Request completes at the server after REQUEST_BYTES.
        assert_eq!(h1.on_server_delivered(REQUEST_BYTES - 1), None);
        assert_eq!(h1.on_server_delivered(REQUEST_BYTES), Some(ObjectId(4)));
        assert_eq!(h1.on_server_delivered(REQUEST_BYTES), None, "only once");
    }

    #[test]
    fn response_progress_and_completion() {
        let mut h1 = H1Conn::new();
        let mut c = tcp();
        h1.request(&mut c, SimTime::ZERO, ObjectId(7));
        h1.on_server_delivered(REQUEST_BYTES);
        h1.respond(&mut c, SimTime::ZERO, 10_000);
        let total = RESPONSE_HEADER + 10_000;
        let p = h1.on_client_delivered(total / 2).unwrap();
        assert_eq!(p.object, ObjectId(7));
        assert!(!p.idle);
        assert_eq!(p.got, Got::Total(total / 2));
        let p = h1.on_client_delivered(total).unwrap();
        assert!(p.idle);
        assert_eq!(p.got, Got::Total(RESPONSE_HEADER + 10_000));
        assert!(h1.is_idle(), "keep-alive: ready for the next request");
    }

    #[test]
    fn keep_alive_sequencing() {
        let mut h1 = H1Conn::new();
        let mut c = tcp();
        for (i, body) in [(1u32, 5_000u64), (2, 8_000)] {
            h1.request(&mut c, SimTime::ZERO, ObjectId(i));
            assert_eq!(
                h1.on_server_delivered(u64::from(i) * REQUEST_BYTES),
                Some(ObjectId(i))
            );
            h1.respond(&mut c, SimTime::ZERO, body);
            let end = h1.resp_end;
            let p = h1.on_client_delivered(end).unwrap();
            assert!(p.idle);
            assert_eq!(p.got, Got::Total(RESPONSE_HEADER + body));
        }
        assert!(h1.is_idle());
    }

    #[test]
    fn no_progress_before_response_starts() {
        let mut h1 = H1Conn::new();
        let mut c = tcp();
        h1.request(&mut c, SimTime::ZERO, ObjectId(1));
        assert_eq!(h1.on_client_delivered(0), None);
    }
}
