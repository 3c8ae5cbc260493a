//! The gQUIC HTTP mapping: one transport stream per request/response.
//!
//! Requests open client streams; responses come back on the same
//! stream. Because streams deliver independently, a loss only stalls
//! the objects whose frames it hit — the structural advantage over
//! HTTP/2-over-TCP on lossy links.

use crate::object::{Got, ObjectId, Progress};
use pq_sim::SimTime;
use pq_transport::{Connection, StreamId};

/// Request header bytes per request (matching the HTTP/2 number so the
/// comparison is eye-level).
pub const REQUEST_BYTES: u64 = 400;
/// Response header bytes.
pub const RESPONSE_HEADER: u64 = 200;
/// The first client request stream: they are odd, 5, 7, 9, … as in
/// gQUIC, where low ids are reserved.
const FIRST_STREAM: u64 = 5;

/// Stream bookkeeping for one QUIC connection. Streams open in id
/// order and object ids are dense, so both directions are plain
/// vectors.
#[derive(Debug, Default)]
pub struct H3Map {
    /// The object of each request stream, the `i`-th opened being
    /// stream `FIRST_STREAM + 2·i`.
    by_stream: Vec<ObjectId>,
    /// The request stream of each object, by object id.
    by_object: Vec<Option<u64>>,
}

impl H3Map {
    /// Fresh mapping.
    pub fn new() -> H3Map {
        H3Map::default()
    }

    /// Open a request stream for `object`.
    pub fn request(&mut self, conn: &mut Connection, now: SimTime, object: ObjectId) {
        let sid = FIRST_STREAM + 2 * self.by_stream.len() as u64;
        self.by_stream.push(object);
        let i = object.0 as usize;
        if self.by_object.len() <= i {
            self.by_object.resize(i + 1, None);
        }
        if let Some(slot) = self.by_object.get_mut(i) {
            *slot = Some(sid);
        }
        conn.client_write(now, StreamId(sid), REQUEST_BYTES);
    }

    /// The object request stream `stream` carries.
    fn object_of(&self, stream: StreamId) -> Option<ObjectId> {
        let offset = stream.0.checked_sub(FIRST_STREAM)?;
        if !offset.is_multiple_of(2) {
            return None;
        }
        let i = usize::try_from(offset / 2).ok()?;
        self.by_stream.get(i).copied()
    }

    /// The request stream of `object`.
    fn stream_of(&self, object: ObjectId) -> Option<u64> {
        self.by_object.get(object.0 as usize).copied().flatten()
    }

    /// A request stream finished at the server; returns the object to
    /// hand to the server application.
    pub fn on_server_stream_fin(&self, stream: StreamId) -> Option<ObjectId> {
        self.object_of(stream)
    }

    /// Server writes the response for `object` (`body` payload bytes).
    pub fn respond(&mut self, conn: &mut Connection, now: SimTime, object: ObjectId, body: u64) {
        // `respond` is only called for objects whose request stream was
        // opened; if the map ever disagrees, drop the response (the
        // load ends incomplete at the horizon) rather than aborting
        // the whole grid cell.
        let Some(sid) = self.stream_of(object) else {
            return;
        };
        conn.server_write(now, StreamId(sid), RESPONSE_HEADER + body, true);
    }

    /// Streaming (proxy) entry: write `bytes` more of `object`'s
    /// response onto its stream as they arrive from upstream, `fin`
    /// with the last — bypassing [`H3Map::respond`], which models a
    /// local server application.
    pub fn relay(
        &self,
        conn: &mut Connection,
        now: SimTime,
        object: ObjectId,
        bytes: u64,
        fin: bool,
    ) {
        if let Some(sid) = self.stream_of(object) {
            conn.server_write(now, StreamId(sid), bytes, fin);
        }
    }

    /// Translate client-side stream delivery into object progress
    /// (the response's headers count as delivered once anything is).
    pub fn on_client_delivered(&self, stream: StreamId, delivered: u64) -> Option<Progress> {
        let object = self.object_of(stream)?;
        let got = Got::Total(delivered.max(RESPONSE_HEADER));
        Some(Progress { object, got })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_sim::NetworkKind;
    use pq_transport::Protocol;

    fn conn() -> Connection {
        let net = NetworkKind::Dsl.config();
        Connection::open(
            pq_sim::ConnId(1),
            Protocol::Quic.config(&net),
            SimTime::ZERO,
        )
    }

    #[test]
    fn streams_are_odd_and_increasing() {
        let mut map = H3Map::new();
        let mut c = conn();
        map.request(&mut c, SimTime::ZERO, ObjectId(1));
        map.request(&mut c, SimTime::ZERO, ObjectId(2));
        assert_eq!(map.stream_of(ObjectId(1)), Some(5));
        assert_eq!(map.stream_of(ObjectId(2)), Some(7));
        assert_eq!(map.stream_of(ObjectId(0)), None);
        assert_eq!(map.object_of(StreamId(7)), Some(ObjectId(2)));
        assert_eq!(
            map.object_of(StreamId(6)),
            None,
            "even ids are not request streams"
        );
        assert_eq!(map.object_of(StreamId(3)), None, "below the first");
        assert_eq!(map.object_of(StreamId(9)), None, "not yet opened");
    }

    #[test]
    fn round_trip_object_mapping() {
        let mut map = H3Map::new();
        let mut c = conn();
        map.request(&mut c, SimTime::ZERO, ObjectId(3));
        assert_eq!(map.on_server_stream_fin(StreamId(5)), Some(ObjectId(3)));
        assert_eq!(map.on_server_stream_fin(StreamId(99)), None);
        map.respond(&mut c, SimTime::ZERO, ObjectId(3), 5000);
        let p = map
            .on_client_delivered(StreamId(5), RESPONSE_HEADER + 2500)
            .unwrap();
        assert_eq!(p.object, ObjectId(3));
        assert_eq!(p.got, Got::Total(RESPONSE_HEADER + 2500));
    }

    #[test]
    fn header_bytes_not_counted_as_body() {
        let mut map = H3Map::new();
        let mut c = conn();
        map.request(&mut c, SimTime::ZERO, ObjectId(1));
        let p = map.on_client_delivered(StreamId(5), 50).unwrap();
        assert_eq!(
            p.got,
            Got::Total(RESPONSE_HEADER),
            "still inside the headers"
        );
    }
}
