//! HTTP/2 over one TCP+TLS connection per origin.
//!
//! Responses are multiplexed onto the single byte stream in
//! [`FRAME_CHUNK`]-sized DATA frames, round-robin across concurrently
//! ready responses, with bounded lookahead: the writer commits bytes to
//! the transport only while the send backlog is small, so a response
//! that becomes ready later can still interleave fairly.
//!
//! The crucial property this layer *preserves* (rather than hides): the
//! byte stream delivers strictly in order, so one lost segment stalls
//! every multiplexed response behind it — TCP's head-of-line blocking,
//! which QUIC's independent streams avoid (§4.3).

use crate::object::{Got, ObjectId, Progress};
use pq_sim::SimTime;
use pq_transport::{Connection, StreamId};
use std::collections::VecDeque;

/// Bytes of request headers per HTTP/2 request (HPACK-compressed).
pub const REQUEST_BYTES: u64 = 400;
/// Bytes of response headers per response.
pub const RESPONSE_HEADER: u64 = 200;
/// DATA frame payload per multiplexing quantum (16 kB, the h2 default
/// max frame size).
pub const FRAME_CHUNK: u64 = 16_384;
/// Per-frame header overhead.
pub const FRAME_OVERHEAD: u64 = 9;
/// Commit more response bytes only while fewer than this many bytes
/// wait unsent in the transport.
const BACKLOG_TARGET: u64 = 64 * 1024;

/// Per-response write state.
#[derive(Debug)]
struct PendingResponse {
    object: ObjectId,
    remaining: u64,
}

/// The HTTP/2 connection state for one origin.
#[derive(Debug, Default)]
pub struct H2Mux {
    /// Request boundaries on the client→server stream.
    req_ends: Vec<(u64, ObjectId)>,
    /// Requests fully received by the server so far.
    served: usize,
    /// Responses ready to write, round-robin.
    ready: VecDeque<PendingResponse>,
    /// `(cumulative end, object)` spans on the server→client stream.
    spans: Vec<(u64, ObjectId)>,
    committed: u64,
    /// Client-side read cursor over the spans.
    read_pos: u64,
    span_cursor: usize,
}

impl H2Mux {
    /// Fresh connection state.
    pub fn new() -> H2Mux {
        H2Mux::default()
    }

    /// Total bytes a response of `body` payload occupies on the stream.
    pub fn response_stream_bytes(body: u64) -> u64 {
        let frames = body.div_ceil(FRAME_CHUNK).max(1);
        RESPONSE_HEADER + body + frames * FRAME_OVERHEAD
    }

    /// Issue a request for `object`: writes request headers to the
    /// client→server stream.
    pub fn request(&mut self, conn: &mut Connection, now: SimTime, object: ObjectId) {
        let end = self.req_ends.last().map_or(0, |(e, _)| *e) + REQUEST_BYTES;
        self.req_ends.push((end, object));
        conn.client_write(now, StreamId(0), REQUEST_BYTES);
    }

    /// The server's request stream advanced; appends to `done` the
    /// objects whose requests are now fully received (the server can
    /// start thinking).
    pub fn on_server_delivered(&mut self, delivered: u64, done: &mut Vec<ObjectId>) {
        while let Some(&(end, obj)) = self.req_ends.get(self.served) {
            if delivered < end {
                break;
            }
            done.push(obj);
            self.served += 1;
        }
    }

    /// The server finished generating the response for `object`
    /// (`body` payload bytes); it joins the round-robin writer.
    pub fn respond(&mut self, conn: &mut Connection, now: SimTime, object: ObjectId, body: u64) {
        self.respond_raw(conn, now, object, Self::response_stream_bytes(body));
    }

    /// Streaming (proxy) entry: enqueue `stream_bytes` raw response
    /// bytes for `object` as they arrive from upstream. Unlike
    /// [`H2Mux::respond`] the bytes are pre-framed — the caller
    /// accounts for header and frame overhead — so totals must sum to
    /// [`H2Mux::response_stream_bytes`] of the body for the client to
    /// see the object complete.
    pub fn respond_raw(
        &mut self,
        conn: &mut Connection,
        now: SimTime,
        object: ObjectId,
        stream_bytes: u64,
    ) {
        if stream_bytes == 0 {
            return;
        }
        self.ready.push_back(PendingResponse {
            object,
            remaining: stream_bytes,
        });
        self.pump(conn, now);
    }

    /// Commit response bytes to the transport while it is hungry,
    /// interleaving ready responses in frame-sized chunks.
    pub fn pump(&mut self, conn: &mut Connection, now: SimTime) {
        while conn.server_backlog() < BACKLOG_TARGET {
            let Some(mut r) = self.ready.pop_front() else {
                break;
            };
            let chunk = r.remaining.min(FRAME_CHUNK + FRAME_OVERHEAD);
            r.remaining -= chunk;
            self.committed += chunk;
            // Extend or append the span.
            match self.spans.last_mut() {
                Some((end, obj)) if *obj == r.object => *end = self.committed,
                _ => self.spans.push((self.committed, r.object)),
            }
            conn.server_write(now, StreamId(0), chunk, false);
            if r.remaining > 0 {
                self.ready.push_back(r);
            }
        }
    }

    /// The client's response stream advanced to `delivered`; attribute
    /// the new stream bytes to objects, one [`Got::More`] entry per
    /// object appended to `out`.
    pub fn on_client_delivered(&mut self, delivered: u64, out: &mut Vec<Progress>) {
        let before = out.len();
        while self.read_pos < delivered {
            let Some(&(end, obj)) = self.spans.get(self.span_cursor) else {
                break;
            };
            let take = end.min(delivered) - self.read_pos;
            self.read_pos += take;
            if take > 0 {
                match out.iter_mut().skip(before).find(|p| p.object == obj) {
                    Some(Progress {
                        got: Got::More(n), ..
                    }) => *n += take,
                    _ => out.push(Progress {
                        object: obj,
                        got: Got::More(take),
                    }),
                }
            }
            if self.read_pos >= end {
                self.span_cursor += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_sim::{NetworkKind, SimTime};
    use pq_transport::Protocol;

    fn conn() -> Connection {
        let net = NetworkKind::Dsl.config();
        Connection::open(
            pq_sim::ConnId(1),
            Protocol::TcpPlus.config(&net),
            SimTime::ZERO,
        )
    }

    #[test]
    fn request_boundaries_accumulate() {
        let mut mux = H2Mux::new();
        let mut c = conn();
        mux.request(&mut c, SimTime::ZERO, ObjectId(1));
        mux.request(&mut c, SimTime::ZERO, ObjectId(2));
        let mut served = |delivered| {
            let mut done = Vec::new();
            mux.on_server_delivered(delivered, &mut done);
            done
        };
        assert_eq!(served(REQUEST_BYTES - 1), vec![]);
        assert_eq!(served(REQUEST_BYTES), vec![ObjectId(1)]);
        assert_eq!(served(2 * REQUEST_BYTES), vec![ObjectId(2)]);
        assert_eq!(served(10 * REQUEST_BYTES), vec![]);
    }

    #[test]
    fn late_response_joins_round_robin() {
        let mut mux = H2Mux::new();
        let mut c = conn();
        // A big response fills the backlog budget and stays queued.
        mux.respond(&mut c, SimTime::ZERO, ObjectId(1), 1_000_000);
        assert_eq!(mux.ready.len(), 1);
        let committed_before = mux.committed;
        // A second response arrives while the first still has bytes
        // queued: it must share the round-robin, not wait behind the
        // whole first response.
        mux.respond(&mut c, SimTime::ZERO, ObjectId(2), 1_000_000);
        assert_eq!(mux.ready.len(), 2);
        // Nothing more could be committed (the transport is not
        // draining), so the spans so far all belong to object 1 …
        assert!(mux.spans.iter().all(|(_, o)| *o == ObjectId(1)));
        assert_eq!(mux.committed, committed_before);
        // … and both responses wait with the *second* scheduled before
        // the first's next turn would repeat (round-robin order).
        let order: Vec<u32> = mux.ready.iter().map(|r| r.object.0).collect();
        assert!(order.contains(&1) && order.contains(&2), "{order:?}");
    }

    #[test]
    fn client_progress_attributed_per_object() {
        let mut mux = H2Mux::new();
        let mut c = conn();
        mux.respond(&mut c, SimTime::ZERO, ObjectId(7), 10_000);
        let total = H2Mux::response_stream_bytes(10_000);
        let mut p = Vec::new();
        mux.on_client_delivered(total / 2, &mut p);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].object, ObjectId(7));
        assert_eq!(p[0].got, Got::More(total / 2));
        let mut p2 = Vec::new();
        mux.on_client_delivered(total, &mut p2);
        // Total attributed equals total streamed.
        assert_eq!(p2[0].got, Got::More(total - total / 2));
    }

    #[test]
    fn response_stream_bytes_includes_overheads() {
        let one_frame = H2Mux::response_stream_bytes(1000);
        assert_eq!(one_frame, RESPONSE_HEADER + 1000 + FRAME_OVERHEAD);
        let many = H2Mux::response_stream_bytes(40_000);
        assert_eq!(many, RESPONSE_HEADER + 40_000 + 3 * FRAME_OVERHEAD);
    }

    #[test]
    fn pump_respects_backlog_bound() {
        let mut mux = H2Mux::new();
        let mut c = conn();
        // A huge response cannot be committed all at once: the
        // connection is not established, so nothing drains and the
        // backlog cap binds.
        mux.respond(&mut c, SimTime::ZERO, ObjectId(1), 10_000_000);
        assert!(c.server_backlog() <= BACKLOG_TARGET + FRAME_CHUNK + FRAME_OVERHEAD);
        assert_eq!(mux.ready.len(), 1, "rest still queued");
    }
}
