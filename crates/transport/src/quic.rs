//! The gQUIC connection model.
//!
//! Structural differences from [`crate::tcp`] — exactly the ones the
//! paper credits for QUIC's perceived speed (§3, §4.3):
//!
//! * **1-RTT handshake**: CHLO → SHLO flight → data (the paper runs a
//!   fresh cache, so no 0-RTT; still one RTT ahead of TCP+TLS).
//! * **Independent streams**: a lost packet only stalls the streams
//!   whose frames it carried; other responses keep rendering.
//! * **Unambiguous loss detection**: packet numbers are never reused,
//!   and an ACK frame carries its 32 most recent ranges (vs. TCP's 3
//!   SACK blocks), so a burst of losses is repaired in one round trip.
//! * Pacing and IW32 are on by default (Table 1), Cubic or BBRv1.

use crate::api::{Output, StreamId};
use crate::config::StackConfig;
use crate::idmap::{IdMap, IdSet};
use crate::rangeset::{Range, RangeSet};
use crate::rate::TxRecord;
use crate::sender::SenderCore;
use crate::sentlog::SentLog;
use crate::wire::{QuicFrame, QuicPacket, Wire};
use pq_sim::{ConnId, Direction, Packet, SimDuration, SimTime};

/// SHLO/REJ flight: server config + certs ≈ 2 packets.
const SHLO_PARTS: u8 = 2;
/// Packet-number reordering threshold for loss detection.
const PKT_THRESH: u64 = 3;
/// Max ACK delay before a pending ACK is flushed.
const ACK_DELAY: SimDuration = SimDuration::from_millis(25);
/// Per-stream flow-control window (gQUIC defaults are generous; the
/// receiving browser drains instantly so this almost never binds).
const STREAM_WINDOW: u64 = 6 * 1024 * 1024;

/// Frames that need retransmission tracking.
#[derive(Clone, Debug)]
enum SentFrame {
    Chlo,
    Shlo { part: u8, of: u8 },
    Stream { id: u64, offset: u64, len: u32 },
}

#[derive(Clone, Debug)]
struct SentPacket {
    size: u32,
    sent_at: SimTime,
    /// The one retransmittable frame a packet carries, if any (ACK
    /// frames are never tracked).
    frame: Option<SentFrame>,
    tx: TxRecord,
}

impl SentPacket {
    /// Pure-ACK packets carry no tracked frame and elicit nothing.
    fn ack_eliciting(&self) -> bool {
        self.frame.is_some()
    }
}

/// Sending side of one stream.
#[derive(Debug, Default)]
struct SendStream {
    /// Total bytes the application wrote.
    limit: u64,
    fin: bool,
    /// Next fresh offset to packetize.
    next_offset: u64,
    /// Ranges needing retransmission.
    lost: RangeSet,
    /// Ranges the peer acknowledged.
    acked: RangeSet,
}

/// Receiving side of one stream.
#[derive(Debug, Default)]
struct RecvStream {
    ooo: RangeSet,
    cum: u64,
    fin_at: Option<u64>,
    reported: u64,
    reported_fin: bool,
}

/// One QUIC endpoint (client or server half).
#[derive(Debug)]
struct QuicEndpoint {
    /// Congestion control, pacing, RTT and the RTO / pacing timers;
    /// its `bytes_in_flight` counts ack-eliciting packets only.
    core: SenderCore,
    next_pn: u64,
    sent: SentLog<SentPacket>,
    /// Ack-eliciting packets in `sent` (the RTO is armed while > 0).
    eliciting_in_flight: u32,
    largest_acked: Option<u64>,
    /// Receive state: which packet numbers arrived.
    recv_pns: RangeSet,
    /// Most recent received-packet ranges advertised per ACK frame
    /// ([`StackConfig::max_sack_blocks`]). Lost packet numbers are
    /// never resent, so old holes are permanent; advertising the full
    /// history would bloat ACKs without information (the sender has
    /// long declared those packets lost).
    max_ack_ranges: usize,
    ack_pending: bool,
    ack_at: Option<SimTime>,
    eliciting_since_ack: u32,
    /// An out-of-order arrival since the last ACK left (triggers an
    /// immediate ACK, as reordering/loss feedback must be prompt).
    ooo_pending: bool,
    send_streams: IdMap<SendStream>,
    /// Streams with a non-empty `lost` set, so `next_chunk` never
    /// walks the finished ones.
    lossy_streams: IdSet,
    /// Streams with unsent fresh data (`next_offset < limit`).
    fresh_streams: IdSet,
    recv_streams: IdMap<RecvStream>,
    /// Congestion-cutback marker: only the loss of a packet *sent
    /// after* the previous cutback triggers a new one (gQUIC's
    /// `largest_sent_at_last_cutback` rule) — otherwise a burst of
    /// losses detected over several ACKs would multiply reductions.
    cutback_pn: u64,
    /// Handshake frames pending (re)transmission.
    hs_queue: Vec<SentFrame>,
    /// Range buffers of this endpoint's ACK frames, handed back after
    /// delivery ([`QuicConnection::recycle`]) for the next ones.
    spare_ranges: Vec<Vec<Range>>,
}

impl QuicEndpoint {
    fn new(is_client: bool, cfg: &StackConfig) -> Self {
        QuicEndpoint {
            core: SenderCore::new(is_client, cfg),
            next_pn: 1,
            sent: SentLog::new(),
            eliciting_in_flight: 0,
            largest_acked: None,
            recv_pns: RangeSet::new(),
            max_ack_ranges: cfg.max_sack_blocks,
            ack_pending: false,
            ack_at: None,
            eliciting_since_ack: 0,
            ooo_pending: false,
            send_streams: IdMap::default(),
            lossy_streams: IdSet::default(),
            fresh_streams: IdSet::default(),
            recv_streams: IdMap::default(),
            cutback_pn: 0,
            hs_queue: Vec::new(),
            spare_ranges: Vec::new(),
        }
    }

    /// Pending ACK ranges frame for the peer.
    fn maybe_ack_frame(&mut self) -> Option<QuicFrame> {
        if !self.ack_pending {
            return None;
        }
        self.ack_pending = false;
        self.ack_at = None;
        self.eliciting_since_ack = 0;
        self.ooo_pending = false;
        let mut ranges = self.spare_ranges.pop().unwrap_or_default();
        self.recv_pns.highest_into(self.max_ack_ranges, &mut ranges);
        Some(QuicFrame::Ack { ranges })
    }

    /// The application appended `bytes` to `stream`.
    fn write(&mut self, stream: u64, bytes: u64, fin: bool) {
        let s = self
            .send_streams
            .get_or_insert_with(stream, SendStream::default);
        s.limit += bytes;
        s.fin = fin;
        if s.next_offset < s.limit {
            self.fresh_streams.insert(stream);
        }
        self.core.rate.set_app_limited(false);
    }

    /// Choose the next stream chunk to send: retransmissions first
    /// (lowest stream id), then fresh data round-robin by stream id.
    fn next_chunk(&self) -> Option<(u64, u64, u32, bool, bool)> {
        // (stream, offset, len, fin, is_retx)
        let lossy = self.lossy_streams.first().and_then(|id| {
            let s = self.send_streams.get(id)?;
            Some((id, s, s.lost.iter().next()?))
        });
        if let Some((id, s, r)) = lossy {
            let len = r.len().min(self.core.mss) as u32;
            // FIN is a property of the stream's end, recomputed so
            // retransmitted tails keep it.
            let fin = s.fin && r.start + u64::from(len) >= s.limit;
            return Some((id, r.start, len, fin, true));
        }
        for id in self.fresh_streams.ids() {
            let Some(s) = self.send_streams.get(id) else {
                continue;
            };
            // Flow control: stay within a window of the contiguously
            // ACKed prefix (the receiving browser drains instantly, so
            // ACKed ≈ consumed).
            let consumed = s.acked.advance_from(0);
            if s.next_offset < s.limit && s.next_offset < consumed + STREAM_WINDOW {
                let len = (s.limit - s.next_offset).min(self.core.mss) as u32;
                let fin = s.fin && s.next_offset + u64::from(len) >= s.limit;
                return Some((id, s.next_offset, len, fin, false));
            }
        }
        None
    }

    fn has_pending(&self) -> bool {
        !self.hs_queue.is_empty()
            || !self.lossy_streams.is_empty()
            || !self.fresh_streams.is_empty()
    }

    /// Log a packet that just left as `pn`.
    fn log_sent(&mut self, now: SimTime, pn: u64, size: u32, frame: Option<SentFrame>) {
        self.eliciting_in_flight += u32::from(frame.is_some());
        self.sent.push(
            pn,
            SentPacket {
                size,
                sent_at: now,
                frame,
                tx: self.core.rate.on_send(now),
            },
        );
    }

    /// Take `pn` out of the sent log (ACKed or declared lost).
    fn unlog(&mut self, pn: u64) -> Option<SentPacket> {
        let sp = self.sent.remove(pn)?;
        if sp.ack_eliciting() {
            self.eliciting_in_flight -= 1;
            self.core.bytes_in_flight =
                self.core.bytes_in_flight.saturating_sub(u64::from(sp.size));
        }
        Some(sp)
    }

    /// Emit a packet carrying nothing but the pending ACK frame.
    fn send_pure_ack(&mut self, now: SimTime, conn: ConnId, out: &mut Vec<Output>) {
        let Some(ack) = self.maybe_ack_frame() else {
            return;
        };
        let pn = self.next_pn;
        self.next_pn += 1;
        let pkt = QuicPacket {
            from_client: self.core.from_client,
            pn,
            frames: [Some(ack), None],
        };
        let size = pkt.wire_size();
        self.log_sent(now, pn, size, None);
        out.push(Output::Send(
            self.core.direction(),
            Packet::new(conn, size, Wire::Quic(pkt)),
        ));
    }

    /// Packetize and emit everything congestion control and pacing
    /// allow right now.
    fn try_send(&mut self, now: SimTime, conn: ConnId, out: &mut Vec<Output>) {
        self.core.start_round();

        loop {
            let hs = !self.hs_queue.is_empty();
            let chunk = if hs { None } else { self.next_chunk() };
            let ack_only = !hs && chunk.is_none();
            if ack_only && !self.ack_pending {
                if !self.has_pending() {
                    self.core.rate.set_app_limited(true);
                }
                break;
            }

            // Estimate the packet size for gating.
            let est_size: u64 = if hs {
                1364
            } else {
                chunk.map_or(80, |c| u64::from(c.2) + 80)
            };

            // A pure ACK is not congestion-controlled; anything else
            // passes the cwnd gate, then the pacing gate.
            if !ack_only
                && (!self.core.cwnd_allows(est_size) || self.core.pacer_holds(now, est_size, out))
            {
                break;
            }

            // Build the packet: at most an ACK plus one tracked frame.
            let ack = self.maybe_ack_frame();
            let mut tracked = None;
            let mut sent_frame = None;
            if hs {
                let f = self.hs_queue.remove(0);
                tracked = Some(match &f {
                    SentFrame::Chlo => QuicFrame::Chlo,
                    SentFrame::Shlo { part, of } => QuicFrame::Shlo {
                        part: *part,
                        of: *of,
                    },
                    #[expect(
                        clippy::unreachable,
                        reason = "hs_queue only ever holds Chlo/Shlo; stream data goes through send_streams"
                    )]
                    SentFrame::Stream { .. } => unreachable!(),
                });
                sent_frame = Some(f);
            } else if let Some((id, offset, len, fin, is_retx)) = chunk {
                // A chunk always references a live send stream; if the
                // map ever disagrees, drop the frame (the next poll
                // re-derives the chunk) instead of aborting the cell.
                if let Some(s) = self.send_streams.get_mut(id) {
                    if is_retx {
                        s.lost.remove(offset, offset + u64::from(len));
                        if s.lost.is_empty() {
                            self.lossy_streams.remove(id);
                        }
                        self.core.note_retransmit(now, "stream", id, out);
                    } else {
                        s.next_offset = offset + u64::from(len);
                        if s.next_offset >= s.limit {
                            self.fresh_streams.remove(id);
                        }
                    }
                    tracked = Some(QuicFrame::Stream {
                        id,
                        offset,
                        len,
                        fin,
                    });
                    sent_frame = Some(SentFrame::Stream { id, offset, len });
                }
            }

            let pn = self.next_pn;
            self.next_pn += 1;
            let pkt = QuicPacket {
                from_client: self.core.from_client,
                pn,
                frames: [ack, tracked],
            };
            let size = pkt.wire_size();
            if sent_frame.is_some() {
                self.core.on_sent(now, u64::from(size));
            }
            self.log_sent(now, pn, size, sent_frame);
            out.push(Output::Send(
                self.core.direction(),
                Packet::new(conn, size, Wire::Quic(pkt)),
            ));

            if ack_only {
                break; // one pure ACK is enough
            }
        }
    }

    /// Record an arrived packet number.
    fn note_received(&mut self, now: SimTime, pn: u64, eliciting: bool) {
        // In-order = exactly the next expected packet number. Historic
        // holes are permanent (lost pns are never resent) and must not
        // force an immediate ACK forever.
        let in_order = pn == self.recv_pns.max_end();
        self.recv_pns.insert(pn, pn + 1);
        if eliciting {
            self.eliciting_since_ack += 1;
            self.ack_pending = true;
            if !in_order {
                self.ooo_pending = true;
            }
            // Immediate ACK on fresh reordering or every 2nd packet;
            // otherwise arm the delayed-ACK timer.
            if !(self.ooo_pending || self.eliciting_since_ack >= 2) && self.ack_at.is_none() {
                self.ack_at = Some(now + ACK_DELAY);
            }
        }
    }

    fn ack_should_flush_now(&self) -> bool {
        self.ack_pending && (self.ooo_pending || self.eliciting_since_ack >= 2)
    }

    /// Process an ACK frame from the peer.
    fn on_ack_frame(
        &mut self,
        now: SimTime,
        ranges: &[Range],
        conn: ConnId,
        out: &mut Vec<Output>,
    ) {
        let mut newly_acked_bytes = 0u64;
        let mut rtt_sample = None;
        let mut rate_sample = None;
        let mut largest_newly = None;

        for r in ranges {
            // Most advertised ranges lie wholly below the oldest
            // outstanding packet (retired long ago): clamping to the
            // log's span makes those cost one comparison.
            let outstanding = r.start.max(self.sent.first_pn())..r.end.min(self.sent.end());
            for pn in outstanding {
                let Some(sp) = self.unlog(pn) else {
                    continue; // ACKed before, or declared lost
                };
                if sp.ack_eliciting() {
                    newly_acked_bytes += u64::from(sp.size);
                }
                largest_newly = Some(largest_newly.map_or(pn, |l: u64| l.max(pn)));
                if let Some(SentFrame::Stream { id, offset, len }) = sp.frame {
                    if let Some(s) = self.send_streams.get_mut(id) {
                        s.acked.insert(offset, offset + u64::from(len));
                    }
                }
                let sample = self.core.rate.on_ack(now, u64::from(sp.size), sp.tx);
                if sample.is_some() {
                    rate_sample = sample;
                }
                if Some(pn) == largest_newly {
                    rtt_sample = Some(now - sp.sent_at);
                }
            }
            self.largest_acked = Some(self.largest_acked.map_or(r.end - 1, |l| l.max(r.end - 1)));
        }

        if let Some(s) = rtt_sample {
            self.core.rtt.on_sample(s);
        }

        // Loss detection: packet threshold + time threshold, over the
        // packets still outstanding below the largest ACKed one.
        let mut max_lost_eliciting: Option<u64> = None;
        if let Some(largest) = self.largest_acked {
            let time_thresh = self
                .core
                .rtt
                .srtt_or(SimDuration::from_millis(100))
                .max(self.core.rtt.latest())
                .mul_f64(1.125);
            for pn in self.sent.first_pn()..largest.min(self.sent.end()) {
                let Some(sp) = self.sent.get(pn) else {
                    continue;
                };
                let by_count = largest >= pn + PKT_THRESH;
                let by_time = sp.sent_at + time_thresh <= now;
                if !(by_count || by_time) {
                    continue;
                }
                let Some(sp) = self.unlog(pn) else {
                    continue; // `get` just found it
                };
                if sp.ack_eliciting() {
                    // Only real data losses are congestion signals; a
                    // "lost" pure-ACK packet carries nothing.
                    max_lost_eliciting = Some(pn);
                }
                if let Some(frame) = sp.frame {
                    self.requeue_frame(frame);
                }
            }
        }
        if let Some(lost_pn) = max_lost_eliciting {
            // New cutback only for losses of packets sent after the
            // previous cutback.
            if lost_pn >= self.cutback_pn {
                self.core.on_congestion_event(now, out);
                self.cutback_pn = self.next_pn;
            }
        }

        self.core
            .on_acked(now, newly_acked_bytes, rtt_sample, rate_sample, out);
        self.core.rearm_rto(now, self.eliciting_in_flight > 0);
        self.try_send(now, conn, out);
    }

    /// Queue a lost packet's frame for retransmission.
    fn requeue_frame(&mut self, frame: SentFrame) {
        match frame {
            SentFrame::Chlo | SentFrame::Shlo { .. } => self.hs_queue.push(frame),
            SentFrame::Stream { id, offset, len } => {
                let Some(s) = self.send_streams.get_mut(id) else {
                    return;
                };
                // Only re-queue what the peer hasn't ACKed: the gaps
                // between the ACKed ranges inside the frame. (`lost`
                // and `acked` never overlap — a byte is re-queued only
                // once no packet carrying it is outstanding — so this
                // is all the subtraction there is to do.)
                let end = offset + u64::from(len);
                let mut gap_start = offset;
                for r in s.acked.overlapping(offset, end) {
                    s.lost.insert(gap_start, r.start);
                    gap_start = r.end;
                }
                s.lost.insert(gap_start, end);
                if !s.lost.is_empty() {
                    self.lossy_streams.insert(id);
                }
            }
        }
    }

    fn on_rto(&mut self, now: SimTime, conn: ConnId, out: &mut Vec<Output>) {
        self.core.on_rto(now, self.next_pn, out);
        // Declare everything outstanding lost.
        for pn in self.sent.first_pn()..self.sent.end() {
            if let Some(frame) = self.unlog(pn).and_then(|sp| sp.frame) {
                self.requeue_frame(frame);
            }
        }
        self.cutback_pn = self.next_pn;
        self.core.rearm_rto(now, true);
        self.try_send(now, conn, out);
    }

    fn poll_at(&self) -> SimTime {
        self.core.poll_at().min(self.ack_at.unwrap_or(SimTime::MAX))
    }
}

/// A full gQUIC connection (both endpoints).
#[derive(Debug)]
pub struct QuicConnection {
    id: ConnId,
    client: QuicEndpoint,
    server: QuicEndpoint,
    established_client: bool,
    established_server: bool,
    shlo_recv: u8,
    out: Vec<Output>,
    /// Scratch for the `(stream, delivered, fin)` progress one arriving
    /// packet causes; kept for its capacity.
    progress: Vec<(u64, u64, bool)>,
}

impl QuicConnection {
    /// Open a connection: the client immediately emits its CHLO.
    pub fn new(id: ConnId, cfg: StackConfig, now: SimTime) -> Self {
        let mut client = QuicEndpoint::new(true, &cfg);
        let server = QuicEndpoint::new(false, &cfg);
        client.hs_queue.push(SentFrame::Chlo);
        // 0-RTT: the client resumes a cached server config and may
        // bundle request data with (or right after) the CHLO.
        let zero_rtt = cfg.zero_rtt;
        let mut conn = QuicConnection {
            id,
            client,
            server,
            established_client: zero_rtt,
            established_server: false,
            shlo_recv: 0,
            out: Vec::new(),
            progress: Vec::new(),
        };
        if zero_rtt {
            conn.out.push(Output::HandshakeDone);
        }
        conn.client.try_send(now, id, &mut conn.out);
        conn
    }

    /// Push [`Output::Trace`] records from both endpoints from now on.
    pub fn observe(&mut self) {
        self.client.core.observed = true;
        self.server.core.observed = true;
    }

    /// True once the client may send stream data.
    pub fn is_established(&self) -> bool {
        self.established_client
    }

    /// Total retransmitted stream chunks across both endpoints.
    pub fn retransmits(&self) -> u64 {
        self.client.core.retransmits + self.server.core.retransmits
    }

    /// Move pending outputs to the end of `into`, oldest first.
    #[inline]
    pub fn drain_outputs(&mut self, into: &mut Vec<Output>) {
        into.append(&mut self.out);
    }

    /// Drop buffered outgoing packets (fault injection). Non-`Send`
    /// outputs survive. The RTO requeues the CHLO / lost chunks.
    pub fn discard_pending_sends(&mut self) -> usize {
        let before = self.out.len();
        self.out.retain(|o| !matches!(o, Output::Send(..)));
        before - self.out.len()
    }

    /// The client opens a request stream carrying `bytes` and closing
    /// with FIN (an HTTP request).
    pub fn client_open_stream(&mut self, now: SimTime, stream: StreamId, bytes: u64) {
        self.client.write(stream.0, bytes, true);
        if self.established_client {
            self.client.try_send(now, self.id, &mut self.out);
        }
    }

    /// The server writes response bytes onto `stream`.
    pub fn server_write(&mut self, now: SimTime, stream: StreamId, bytes: u64, fin: bool) {
        self.server.write(stream.0, bytes, fin);
        if self.established_server {
            self.server.try_send(now, self.id, &mut self.out);
        }
    }

    /// Server-side send backlog: bytes written by the server
    /// application but not yet packetized for the first time.
    #[inline]
    pub fn server_backlog(&self) -> u64 {
        let unsent = |id| {
            self.server
                .send_streams
                .get(id)
                .map(|s| s.limit - s.next_offset)
        };
        self.server.fresh_streams.ids().filter_map(unsent).sum()
    }

    /// A packet arrived at one endpoint (`Direction::Up` = at server).
    pub fn on_packet(&mut self, now: SimTime, wire: &Wire, arrived: Direction) {
        let Wire::Quic(pkt) = wire else {
            debug_assert!(false, "TCP segment delivered to QUIC connection");
            return;
        };
        let id = self.id;
        let ep = match arrived {
            Direction::Up => &mut self.server,
            Direction::Down => &mut self.client,
        };
        if ep.recv_pns.contains(pkt.pn) {
            return; // duplicate
        }
        ep.note_received(now, pkt.pn, pkt.ack_eliciting());

        let mut stream_progress = std::mem::take(&mut self.progress);
        let mut got_chlo = false;
        let mut got_shlo_parts = 0u8;
        let mut shlo_of = 0u8;
        for frame in pkt.frames() {
            match frame {
                QuicFrame::Chlo => got_chlo = true,
                QuicFrame::Shlo { of, .. } => {
                    got_shlo_parts += 1;
                    shlo_of = *of;
                }
                QuicFrame::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => {
                    let rs = ep.recv_streams.get_or_insert_with(*id, RecvStream::default);
                    let end = offset + u64::from(*len);
                    if *fin {
                        rs.fin_at = Some(end);
                    }
                    rs.ooo.insert((*offset).max(rs.cum), end);
                    rs.cum = rs.ooo.advance_from(rs.cum);
                    rs.ooo.remove_below(rs.cum);
                    let done = rs.fin_at == Some(rs.cum);
                    if rs.cum > rs.reported || (done && !rs.reported_fin) {
                        rs.reported = rs.cum;
                        rs.reported_fin = done;
                        stream_progress.push((*id, rs.cum, done));
                    }
                }
                QuicFrame::Ack { ranges } => {
                    ep.on_ack_frame(now, ranges, id, &mut self.out);
                }
            }
        }

        // Flush a prompt ACK if warranted (after processing frames so
        // the ACK covers this packet).
        if ep.ack_should_flush_now() {
            ep.try_send(now, id, &mut self.out);
            // try_send may not have produced anything if cwnd-limited;
            // force a pure-ACK packet in that case.
            ep.send_pure_ack(now, id, &mut self.out);
        }

        // Handshake progression.
        if got_chlo && arrived == Direction::Up && !self.established_server {
            self.established_server = true;
            for part in 0..SHLO_PARTS {
                self.server.hs_queue.push(SentFrame::Shlo {
                    part,
                    of: SHLO_PARTS,
                });
            }
            self.server.try_send(now, id, &mut self.out);
        }
        if got_shlo_parts > 0 && arrived == Direction::Down && !self.established_client {
            self.shlo_recv += got_shlo_parts;
            if self.shlo_recv >= shlo_of.max(SHLO_PARTS) {
                self.established_client = true;
                self.out.push(Output::HandshakeDone);
                self.client.try_send(now, id, &mut self.out);
            }
        }

        // Emit application progress events.
        for (sid, delivered, fin) in stream_progress.drain(..) {
            let ev = match arrived {
                Direction::Up => Output::ServerStreamProgress {
                    stream: StreamId(sid),
                    delivered,
                    fin,
                },
                Direction::Down => Output::ClientStreamProgress {
                    stream: StreamId(sid),
                    delivered,
                    fin,
                },
            };
            self.out.push(ev);
        }
        self.progress = stream_progress;
    }

    /// Take back a delivered packet's payload: an ACK frame's range
    /// buffer goes to the endpoint that sent it, for its next ACK.
    pub fn recycle(&mut self, wire: Wire) {
        let Wire::Quic(pkt) = wire else { return };
        let ep = if pkt.from_client {
            &mut self.client
        } else {
            &mut self.server
        };
        for frame in pkt.frames.into_iter().flatten() {
            if let QuicFrame::Ack { ranges } = frame {
                if ranges.capacity() > 0 {
                    ep.spare_ranges.push(ranges);
                }
            }
        }
    }

    /// Earliest internal timer.
    #[inline]
    pub fn poll_at(&self) -> SimTime {
        self.client.poll_at().min(self.server.poll_at())
    }

    /// Service expired timers.
    pub fn on_wake(&mut self, now: SimTime) {
        let id = self.id;
        for is_client in [true, false] {
            let ep = if is_client {
                &mut self.client
            } else {
                &mut self.server
            };
            if ep.core.rto_at.is_some_and(|t| t <= now) {
                ep.on_rto(now, id, &mut self.out);
            }
            if ep.core.pacing_at.is_some_and(|t| t <= now) {
                ep.try_send(now, id, &mut self.out);
            }
            if ep.ack_at.is_some_and(|t| t <= now) {
                ep.send_pure_ack(now, id, &mut self.out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ConnEvent, ConnEventKind, Connection, Output, StreamId};
    use crate::config::Protocol;
    use pq_sim::NetworkKind;

    fn conn(proto: Protocol) -> QuicConnection {
        let net = NetworkKind::Dsl.config();
        QuicConnection::new(ConnId(2), proto.config(&net), SimTime::ZERO)
    }

    fn outputs(c: &mut QuicConnection) -> Vec<Output> {
        let mut out = Vec::new();
        c.drain_outputs(&mut out);
        out
    }

    fn sent(c: &mut QuicConnection) -> Vec<(Direction, QuicPacket)> {
        outputs(c)
            .into_iter()
            .filter_map(|o| match o {
                Output::Send(d, p) => match p.payload {
                    Wire::Quic(q) => Some((d, q)),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn opening_emits_chlo() {
        let mut c = conn(Protocol::Quic);
        let out = sent(&mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Direction::Up);
        assert!(out[0].1.frames().any(|f| matches!(f, QuicFrame::Chlo)));
        assert!(!c.is_established());
    }

    #[test]
    fn handshake_completes_after_shlo_flight() {
        let mut c = conn(Protocol::Quic);
        let chlo = sent(&mut c).remove(0).1;
        c.on_packet(SimTime::from_millis(12), &Wire::Quic(chlo), Direction::Up);
        let flight = sent(&mut c);
        let shlo_parts = flight
            .iter()
            .flat_map(|(_, p)| p.frames())
            .filter(|f| matches!(f, QuicFrame::Shlo { .. }))
            .count();
        assert_eq!(shlo_parts, 2, "SHLO flight in 2 packets");
        for (_, p) in flight {
            c.on_packet(SimTime::from_millis(24), &Wire::Quic(p), Direction::Down);
        }
        assert!(c.is_established(), "client ready after one round trip");
    }

    #[test]
    fn duplicate_packets_are_ignored() {
        let mut c = conn(Protocol::Quic);
        let chlo = sent(&mut c).remove(0).1;
        c.on_packet(
            SimTime::from_millis(12),
            &Wire::Quic(chlo.clone()),
            Direction::Up,
        );
        let first = sent(&mut c).len();
        assert!(first >= 2);
        c.on_packet(SimTime::from_millis(13), &Wire::Quic(chlo), Direction::Up);
        assert!(sent(&mut c).is_empty(), "dup CHLO produces nothing");
    }

    #[test]
    fn streams_deliver_independently() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        // Hand-deliver two stream packets out of order across streams.
        let pkt = |pn, id, offset, len, fin| QuicPacket {
            from_client: false,
            pn,
            frames: [
                Some(QuicFrame::Stream {
                    id,
                    offset,
                    len,
                    fin,
                }),
                None,
            ],
        };
        // Stream 5 has a hole; stream 7 is complete.
        c.on_packet(
            SimTime::from_millis(1),
            &Wire::Quic(pkt(10, 5, 1000, 500, true)),
            Direction::Down,
        );
        c.on_packet(
            SimTime::from_millis(2),
            &Wire::Quic(pkt(11, 7, 0, 300, true)),
            Direction::Down,
        );
        let progress: Vec<(u64, u64, bool)> = outputs(&mut c)
            .iter()
            .filter_map(|o| match o {
                Output::ClientStreamProgress {
                    stream,
                    delivered,
                    fin,
                } => Some((stream.0, *delivered, *fin)),
                _ => None,
            })
            .collect();
        assert!(
            progress.contains(&(7, 300, true)),
            "stream 7 completes despite stream 5's hole: {progress:?}"
        );
        assert!(
            !progress.iter().any(|p| p.0 == 5 && p.1 > 0),
            "stream 5 blocked by its own hole only: {progress:?}"
        );
    }

    /// Log `pns` as sent by the server at `at`: 1000-byte frames of
    /// stream 5, or ACK-only packets when `eliciting` is false. Stream
    /// 5 has no send state, so a packet declared lost is not resent
    /// and the server's packet numbers stay where the test put them.
    fn server_sent(
        c: &mut QuicConnection,
        pns: std::ops::Range<u64>,
        at: SimTime,
        eliciting: bool,
    ) {
        let ep = &mut c.server;
        for pn in pns {
            let frame = eliciting.then_some(SentFrame::Stream {
                id: 5,
                offset: pn * 1000,
                len: 1000,
            });
            if eliciting {
                ep.core.on_sent(at, 1080);
            }
            ep.log_sent(at, pn, 1080, frame);
            ep.next_pn = pn + 1;
        }
    }

    /// The client's ACK-only packet `pn`, acknowledging `ranges`.
    fn ack(pn: u64, ranges: &[(u64, u64)]) -> Wire {
        let ranges = ranges.iter().map(|&(start, end)| Range { start, end });
        Wire::Quic(QuicPacket {
            from_client: true,
            pn,
            frames: [
                Some(QuicFrame::Ack {
                    ranges: ranges.collect(),
                }),
                None,
            ],
        })
    }

    /// Which of `pns` the server still holds as outstanding.
    fn outstanding(c: &QuicConnection, pns: std::ops::Range<u64>) -> Vec<u64> {
        pns.filter(|&pn| c.server.sent.get(pn).is_some()).collect()
    }

    /// Congestion events reported since the outputs were last drained.
    fn cutbacks(c: &mut QuicConnection) -> usize {
        outputs(c)
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Output::Trace(ConnEvent {
                        kind: ConnEventKind::CongestionEvent,
                        ..
                    })
                )
            })
            .count()
    }

    #[test]
    fn packet_threshold_loses_three_below_the_largest_acked() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        let t0 = SimTime::ZERO;
        server_sent(&mut c, 0..6, t0, true);
        // ACK only 3 at 50 ms: the sample is 50 ms, so the time
        // threshold (56.25 ms) has not passed for anything sent at 0.
        c.on_packet(SimTime::from_millis(50), &ack(1, &[(3, 4)]), Direction::Up);
        assert_eq!(
            outstanding(&c, 0..6),
            [1, 2, 4, 5],
            "3 >= 0 + 3 loses pn 0 only"
        );
        c.on_packet(SimTime::from_millis(60), &ack(2, &[(3, 5)]), Direction::Up);
        assert_eq!(
            outstanding(&c, 0..6),
            [2, 5],
            "4 >= 1 + 3 loses pn 1; pn 2 waits"
        );
    }

    #[test]
    fn time_threshold_is_nine_eighths_of_the_larger_rtt() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        server_sent(&mut c, 0..3, SimTime::ZERO, true);
        // Samples of 80 ms then 160 ms: srtt = (7 x 80 + 160) / 8 =
        // 90 ms, latest = 160 ms, so pn 0 is lost 180 ms after it
        // left (by srtt alone it would be 101.25 ms).
        c.on_packet(SimTime::from_millis(80), &ack(1, &[(1, 2)]), Direction::Up);
        c.on_packet(SimTime::from_millis(160), &ack(2, &[(1, 3)]), Direction::Up);
        assert_eq!(c.server.core.rtt.srtt(), Some(SimDuration::from_millis(90)));
        assert_eq!(outstanding(&c, 0..1), [0]);
        // The threshold is only evaluated when an ACK arrives: repeat
        // the last one (no new sample) one tick before the boundary,
        // then at it.
        let boundary = SimTime::from_millis(180);
        let before = SimTime::from_nanos(boundary.as_nanos() - 1);
        c.on_packet(before, &ack(3, &[(1, 3)]), Direction::Up);
        assert_eq!(outstanding(&c, 0..1), [0], "one tick early");
        c.on_packet(boundary, &ack(4, &[(1, 3)]), Direction::Up);
        assert_eq!(
            outstanding(&c, 0..1),
            [] as [u64; 0],
            "at sent_at + 9/8 x 160 ms"
        );
    }

    #[test]
    fn time_threshold_assumes_100_ms_before_the_first_sample() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        server_sent(&mut c, 0..1, SimTime::ZERO, true);
        // An ACK that newly acknowledges nothing takes no RTT sample:
        // here one for a packet number the server never sent. With no
        // sample, srtt is 100 ms and the boundary 112.5 ms.
        let boundary = SimTime::from_micros(112_500);
        let before = SimTime::from_nanos(boundary.as_nanos() - 1);
        c.on_packet(before, &ack(1, &[(1, 2)]), Direction::Up);
        assert_eq!(c.server.core.rtt.srtt(), None);
        assert_eq!(outstanding(&c, 0..1), [0], "one tick early");
        c.on_packet(boundary, &ack(2, &[(1, 2)]), Direction::Up);
        assert_eq!(outstanding(&c, 0..1), [] as [u64; 0], "at 9/8 x 100 ms");
    }

    #[test]
    fn only_new_ack_eliciting_losses_cut_the_window() {
        let mut c = conn(Protocol::Quic);
        c.observe();
        let _ = sent(&mut c);
        server_sent(&mut c, 0..6, SimTime::ZERO, true);
        // pn 0 lost: the first cutback, which marks everything sent so
        // far (pns below 6) as before it.
        c.on_packet(SimTime::from_millis(50), &ack(1, &[(3, 4)]), Direction::Up);
        assert_eq!(cutbacks(&mut c), 1);
        assert_eq!(c.server.cutback_pn, 6);
        // pn 1 lost, but it was sent before the cutback.
        c.on_packet(SimTime::from_millis(60), &ack(2, &[(3, 5)]), Direction::Up);
        assert_eq!(outstanding(&c, 0..6), [2, 5]);
        assert_eq!(cutbacks(&mut c), 0);
        // After the cutback: pn 6 carries only an ACK, 7..=10 data.
        let t = SimTime::from_millis(60);
        server_sent(&mut c, 6..7, t, false);
        server_sent(&mut c, 7..11, t, true);
        // ACK 9 loses pns 2 and 5 (old) and 6 (nothing in it): no cutback.
        c.on_packet(
            SimTime::from_millis(70),
            &ack(3, &[(3, 5), (9, 10)]),
            Direction::Up,
        );
        assert_eq!(outstanding(&c, 0..11), [7, 8, 10]);
        assert_eq!(cutbacks(&mut c), 0);
        // ACK 10 loses pn 7, sent after the cutback: the second one.
        c.on_packet(SimTime::from_millis(75), &ack(4, &[(9, 11)]), Direction::Up);
        assert_eq!(outstanding(&c, 0..11), [8]);
        assert_eq!(cutbacks(&mut c), 1);
        assert_eq!(c.server.cutback_pn, 11);
    }

    #[test]
    fn ack_frames_bound_their_ranges() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        // Deliver many disjoint packet numbers (every other pn) to the
        // client to force many ranges.
        for pn in (1..200u64).step_by(2) {
            let p = QuicPacket {
                from_client: false,
                pn,
                frames: [
                    Some(QuicFrame::Stream {
                        id: 5,
                        offset: pn * 100,
                        len: 50,
                        fin: false,
                    }),
                    None,
                ],
            };
            c.on_packet(SimTime::from_millis(pn), &Wire::Quic(p), Direction::Down);
        }
        let max_ranges = sent(&mut c)
            .iter()
            .flat_map(|(_, p)| p.frames())
            .filter_map(|f| match f {
                QuicFrame::Ack { ranges } => Some(ranges.len()),
                _ => None,
            })
            .max()
            .expect("acks were sent");
        let bound = Protocol::Quic
            .config(&NetworkKind::Dsl.config())
            .max_sack_blocks;
        assert!(max_ranges <= bound, "ranges bounded: {max_ranges}");
        assert!(
            max_ranges > 3,
            "still far richer than TCP SACK: {max_ranges}"
        );
    }

    #[test]
    fn zero_rtt_bundles_request_with_first_flight() {
        let net = NetworkKind::Lte.config();
        let mut conn = Connection::open(
            ConnId(3),
            Protocol::Quic.config_zero_rtt(&net),
            SimTime::ZERO,
        );
        assert!(conn.is_established());
        let Connection::Quic(q) = &mut conn else {
            unreachable!()
        };
        q.client_open_stream(SimTime::ZERO, StreamId(5), 400);
        let packets: Vec<_> = conn
            .take_outputs()
            .into_iter()
            .filter(|o| matches!(o, Output::Send(Direction::Up, _)))
            .collect();
        assert!(packets.len() >= 2, "CHLO + 0-RTT data: {}", packets.len());
    }

    #[test]
    fn retransmits_counted_after_rto() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        // Let the client's handshake RTO fire with the CHLO unacked.
        assert!(c.poll_at() <= SimTime::from_secs(1));
        c.on_wake(SimTime::from_secs(1));
        let out = sent(&mut c);
        assert!(
            out.iter()
                .any(|(_, p)| p.frames().any(|f| matches!(f, QuicFrame::Chlo))),
            "CHLO retransmitted on timeout"
        );
    }
}
