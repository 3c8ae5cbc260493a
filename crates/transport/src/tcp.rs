//! The TCP + TLS 1.3 connection model.
//!
//! One [`TcpConnection`] object models *both* endpoints of a connection
//! (client and server) plus the TLS 1.3 handshake; the caller moves
//! packets between them through the emulated link. Each direction of
//! the full-duplex byte stream has an independent sender (congestion
//! control, pacing, RTO, SACK scoreboard) and receiver (reassembly,
//! delayed ACKs).
//!
//! Fidelity notes (all knobs from the paper's Table 1 are live):
//!
//! * **Handshake**: SYN → SYN-ACK → ClientHello → server TLS flight
//!   (~4 kB) → Finished; the client's first request leaves at ≈2 RTT,
//!   vs. ≈1 RTT for QUIC — the paper's principal structural advantage.
//! * **Loss recovery**: SACK scoreboard with at most
//!   [`crate::config::StackConfig::max_sack_blocks`] ranges per ACK
//!   (3 for TCP, per Linux with timestamps) and a RACK-style
//!   "delivered-later ⇒ lost" rule gated by a 3·MSS dup threshold.
//! * **Pacing**, **IW**, **slow-start-after-idle** and **receive
//!   buffer** come straight from [`crate::config::StackConfig`].
//! * In-order delivery: the byte stream is released to the application
//!   only cumulatively — a single loss head-of-line-blocks every
//!   multiplexed HTTP/2 response, which is what lets QUIC's
//!   independent streams win on lossy links (§4.3).

use crate::api::{Output, StreamId};
use crate::config::StackConfig;
use crate::rangeset::{Range, RangeSet};
use crate::rate::TxRecord;
use crate::seglog::SegLog;
use crate::sender::SenderCore;
use crate::wire::{TcpSegKind, TcpSegment, Wire};
use pq_sim::{ConnId, Direction, Packet, SimDuration, SimTime};

/// TLS 1.3 server flight: ServerHello, EncryptedExtensions,
/// Certificate, CertificateVerify, Finished ≈ 4 kB in 3 parts.
const SERVER_FLIGHT_PARTS: u8 = 3;
/// Delayed-ACK timeout (Linux minimum).
const DELACK: SimDuration = SimDuration::from_millis(40);
/// Segments ACKed immediately at connection start (Linux quickack).
const QUICKACK_SEGS: u64 = 16;
/// Loss dup threshold in bytes-worth of SACKed data above a hole.
const DUP_THRESH_SEGS: u64 = 3;

/// A segment in flight.
#[derive(Clone, Copy, Debug)]
struct SentSeg {
    end: u64,
    sent_at: SimTime,
    retx: bool,
    tx: TxRecord,
}

/// One direction's sending half.
#[derive(Debug)]
struct TcpSender {
    /// Congestion control, pacing, RTT and the RTO / pacing timers.
    core: SenderCore,
    /// Total bytes the application has written so far.
    app_limit: u64,
    snd_una: u64,
    snd_nxt: u64,
    /// The scoreboard: segments in flight by starting sequence number.
    inflight: SegLog<SentSeg>,
    /// Bytes SACKed above `snd_una`.
    sacked: RangeSet,
    /// Bytes marked lost, awaiting retransmission.
    lost: RangeSet,
    /// Recovery episode marker: one cwnd reduction per episode.
    recovery_until: u64,
    /// RACK-style newest delivered (sent_at, seq) watermark.
    newest_delivered: (SimTime, u64),
    last_send: SimTime,
    /// Peer receive window (static: the receiver always drains).
    peer_rwnd: u64,
    slow_start_after_idle: bool,
    initial_window: u64,
}

impl TcpSender {
    fn new(from_client: bool, cfg: &StackConfig, now: SimTime) -> Self {
        TcpSender {
            core: SenderCore::new(from_client, cfg),
            app_limit: 0,
            snd_una: 0,
            snd_nxt: 0,
            inflight: SegLog::new(),
            sacked: RangeSet::new(),
            lost: RangeSet::new(),
            recovery_until: 0,
            newest_delivered: (SimTime::ZERO, 0),
            last_send: now,
            peer_rwnd: cfg.recv_buffer_bytes,
            slow_start_after_idle: cfg.slow_start_after_idle,
            initial_window: cfg.initial_window_bytes(),
        }
    }

    /// Append application data.
    fn write(&mut self, bytes: u64) {
        self.app_limit += bytes;
        self.core.rate.set_app_limited(false);
    }

    fn has_pending(&self) -> bool {
        !self.lost.is_empty() || self.snd_nxt < self.app_limit
    }

    /// Emit as many segments as congestion, flow control and pacing
    /// allow. Pushes `Send` outputs and returns nothing; an exhausted
    /// pacer sets `pacing_at`.
    fn try_send(&mut self, now: SimTime, out: &mut Vec<Output>) {
        // Idle restart (stock TCP only): collapse to IW after idle.
        if self.slow_start_after_idle
            && self.core.bytes_in_flight == 0
            && self.has_pending()
            && now.saturating_since(self.last_send) > self.core.rtt.rto()
        {
            self.core.cc.clamp_cwnd(self.initial_window);
        }
        self.core.start_round();

        loop {
            // 1. pick what to send: retransmissions first.
            let (seq, len, retx) = if let Some(r) = self.lost.iter().next() {
                (r.start, r.len().min(self.core.mss) as u32, true)
            } else if self.snd_nxt < self.app_limit {
                // Flow control: never exceed the peer's buffer.
                if self.snd_nxt - self.snd_una >= self.peer_rwnd {
                    break;
                }
                let len = (self.app_limit - self.snd_nxt).min(self.core.mss) as u32;
                (self.snd_nxt, len, false)
            } else {
                self.core.rate.set_app_limited(true);
                break;
            };

            // 2. congestion window gate, 3. pacing gate.
            let size = u64::from(len);
            if !self.core.cwnd_allows(size) || self.core.pacer_holds(now, size, out) {
                break;
            }

            // Commit the send.
            let end = seq + u64::from(len);
            if retx {
                self.lost.remove(seq, end);
                self.core.note_retransmit(now, "seq", seq, out);
            }
            self.inflight.insert(
                seq,
                SentSeg {
                    end,
                    sent_at: now,
                    retx,
                    tx: self.core.rate.on_send(now),
                },
            );
            self.core.on_sent(now, u64::from(len));
            if !retx {
                self.snd_nxt = end;
            }
            self.last_send = now;
            out.push(Output::Send(
                self.core.direction(),
                Packet::new(
                    ConnId(0), // caller rewrites
                    0,         // caller computes from wire_size
                    Wire::Tcp(TcpSegment {
                        from_client: self.core.from_client,
                        kind: TcpSegKind::Data { seq, len, retx },
                    }),
                ),
            ));
        }
    }

    /// Process an ACK for this direction's data.
    fn on_ack(&mut self, now: SimTime, cum: u64, sacks: &[Range], out: &mut Vec<Output>) {
        let mut newly_acked = 0u64;
        let mut rtt_sample: Option<SimDuration> = None;
        let mut rate_sample = None;

        // Cumulative advance.
        if cum > self.snd_una {
            newly_acked += cum - self.snd_una;
            // Drop covered segments, sampling from the newest
            // non-retransmitted one (Karn's rule).
            while let Some((start, mut seg)) = self.inflight.pop_front_below(cum) {
                let acked = seg.end.min(cum) - start;
                self.core.on_left_flight(acked);
                if seg.end <= cum && !seg.retx {
                    rtt_sample = Some(now - seg.sent_at);
                }
                self.newest_delivered = self.newest_delivered.max((seg.sent_at, start));
                let sample = self.core.rate.on_ack(now, acked, seg.tx);
                if sample.is_some() {
                    rate_sample = sample;
                }
                if seg.end > cum {
                    // Partial coverage (a retransmission chunk spanned
                    // the ACK point): shrink the segment.
                    seg.tx = self.core.rate.on_send(now); // refresh baseline
                    self.inflight.insert(cum, seg);
                }
            }
            self.snd_una = cum;
            self.sacked.remove_below(cum);
            self.lost.remove_below(cum);
        }

        // Selective blocks.
        for r in sacks {
            if r.end <= self.snd_una {
                continue;
            }
            let added = self.sacked.insert(r.start.max(self.snd_una), r.end);
            if added > 0 {
                newly_acked += added;
                // Retire fully-SACKed segments.
                self.inflight.take_where(
                    r.start.saturating_sub(self.core.mss),
                    r.end,
                    |s, seg| self.sacked.contains_range(s, seg.end),
                    |start, seg| {
                        self.core.on_left_flight(seg.end - start);
                        if !seg.retx {
                            rtt_sample = Some(now - seg.sent_at);
                        }
                        self.newest_delivered = self.newest_delivered.max((seg.sent_at, start));
                        let sample = self.core.rate.on_ack(now, seg.end - start, seg.tx);
                        if sample.is_some() {
                            rate_sample = sample;
                        }
                    },
                );
                // Anything the receiver holds beyond this block was
                // also delivered; the watermark advances via segments.
            }
        }

        if let Some(s) = rtt_sample {
            self.core.rtt.on_sample(s);
        }

        // Loss marking: a hole is lost when ≥ DUP_THRESH·MSS bytes are
        // SACKed above it *and* something sent after it was delivered
        // (RACK tie-break handles retransmissions).
        let mut lost_any = false;
        // "≥ DUP_THRESH·MSS SACKed above it" holds exactly for the
        // segments ending at or below one cutoff, found once per ACK.
        if let Some(cutoff) = self.sacked.start_of_top(DUP_THRESH_SEGS * self.core.mss) {
            self.inflight.take_where(
                0,
                cutoff,
                |start, seg| {
                    seg.end <= cutoff
                        && self.newest_delivered > (seg.sent_at, start)
                        && !self.sacked.contains_range(start, seg.end)
                },
                |start, seg| {
                    self.core.on_left_flight(seg.end - start);
                    self.lost.insert(start, seg.end);
                    lost_any = true;
                },
            );
            if lost_any {
                // Exclude any SACKed slivers.
                for r in self.sacked.iter() {
                    self.lost.remove(r.start, r.end);
                }
            }
        }
        if lost_any && self.snd_una >= self.recovery_until {
            // Enter a new recovery episode: one reduction per episode.
            self.core.on_congestion_event(now, out);
            self.recovery_until = self.snd_nxt;
        }

        self.core
            .on_acked(now, newly_acked, rtt_sample, rate_sample, out);
        self.core
            .rearm_rto(now, !(self.inflight.is_empty() && self.lost.is_empty()));
        self.try_send(now, out);
    }

    /// Fire the retransmission timeout.
    fn on_rto(&mut self, now: SimTime, out: &mut Vec<Output>) {
        self.core.on_rto(now, self.snd_una, out);
        // Everything unSACKed in flight is presumed lost.
        while let Some((start, seg)) = self.inflight.pop_front() {
            self.core.on_left_flight(seg.end - start);
            self.lost.insert(start, seg.end);
        }
        for r in self.sacked.iter() {
            self.lost.remove(r.start, r.end);
        }
        self.recovery_until = self.snd_nxt;
        self.try_send(now, out);
    }
}

/// One direction's receiving half.
#[derive(Debug)]
struct TcpReceiver {
    rcv_nxt: u64,
    ooo: RangeSet,
    max_sack_blocks: usize,
    delack_at: Option<SimTime>,
    segs_since_ack: u32,
    total_segs: u64,
    /// Last progress value reported to the application.
    reported: u64,
    /// SACK-block buffers of this receiver's ACKs, handed back after
    /// delivery ([`TcpConnection::recycle`]) for the next ones.
    spare: Vec<Vec<Range>>,
}

impl TcpReceiver {
    fn new(max_sack_blocks: usize) -> Self {
        TcpReceiver {
            rcv_nxt: 0,
            ooo: RangeSet::new(),
            max_sack_blocks,
            delack_at: None,
            segs_since_ack: 0,
            total_segs: 0,
            reported: 0,
            spare: Vec::new(),
        }
    }

    /// Ingest a data segment; returns `true` when an ACK should leave
    /// immediately (otherwise the delayed-ACK timer is armed).
    fn on_data(&mut self, now: SimTime, seq: u64, len: u32) -> bool {
        self.total_segs += 1;
        let end = seq + u64::from(len);
        let mut out_of_order = false;
        if end <= self.rcv_nxt {
            // Pure duplicate: ACK immediately so the sender learns.
            return true;
        }
        if seq > self.rcv_nxt {
            out_of_order = true;
        }
        self.ooo.insert(seq.max(self.rcv_nxt), end);
        self.rcv_nxt = self.ooo.advance_from(self.rcv_nxt);
        self.ooo.remove_below(self.rcv_nxt);

        self.segs_since_ack += 1;
        let immediate = out_of_order
            || !self.ooo.is_empty()
            || self.total_segs <= QUICKACK_SEGS
            || self.segs_since_ack >= 2;
        if !immediate && self.delack_at.is_none() {
            self.delack_at = Some(now + DELACK);
        }
        immediate
    }

    fn make_ack(&mut self, from_client: bool) -> TcpSegment {
        self.segs_since_ack = 0;
        self.delack_at = None;
        let mut sacks = self.spare.pop().unwrap_or_default();
        self.ooo.highest_into(self.max_sack_blocks, &mut sacks);
        TcpSegment {
            from_client,
            kind: TcpSegKind::Ack {
                cum: self.rcv_nxt,
                sacks,
            },
        }
    }
}

/// TLS-over-TCP handshake progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HsState {
    /// Client sent SYN, waiting for SYN-ACK.
    SynSent,
    /// Client sent ClientHello, waiting for the server flight.
    HelloSent,
    /// Both sides may exchange application data.
    Established,
}

/// A full TCP+TLS connection (both endpoints).
#[derive(Debug)]
pub struct TcpConnection {
    id: ConnId,
    hs: HsState,
    /// Flight parts the client has received.
    flight_recv: u8,
    /// Server became established (saw Finished or data).
    server_established: bool,
    /// Client handshake retransmission timer.
    hs_timer: Option<SimTime>,
    hs_backoff: u32,
    /// Server-side handshake retransmission timer.
    srv_hs_timer: Option<SimTime>,
    srv_hs_backoff: u32,
    srv_sent_flight: bool,
    syn_sent_at: SimTime,
    synack_sent_at: SimTime,
    /// Client→server pipe.
    c2s_snd: TcpSender,
    c2s_rcv: TcpReceiver,
    /// Server→client pipe.
    s2c_snd: TcpSender,
    s2c_rcv: TcpReceiver,
    out: Vec<Output>,
}

impl TcpConnection {
    /// Open a connection: the client immediately emits its SYN.
    pub fn new(id: ConnId, cfg: StackConfig, now: SimTime) -> Self {
        // TFO + TLS 1.3 early data: the client may write application
        // data immediately; it flows behind the SYN/ClientHello and
        // the server answers without waiting for the full handshake.
        let zero_rtt = cfg.zero_rtt;
        let mut conn = TcpConnection {
            id,
            hs: if zero_rtt {
                HsState::Established
            } else {
                HsState::SynSent
            },
            flight_recv: 0,
            server_established: false,
            hs_timer: Some(now + SimDuration::from_secs(1)),
            hs_backoff: 0,
            srv_hs_timer: None,
            srv_hs_backoff: 0,
            srv_sent_flight: false,
            syn_sent_at: now,
            synack_sent_at: now,
            c2s_snd: TcpSender::new(true, &cfg, now),
            c2s_rcv: TcpReceiver::new(cfg.max_sack_blocks),
            s2c_snd: TcpSender::new(false, &cfg, now),
            s2c_rcv: TcpReceiver::new(cfg.max_sack_blocks),
            out: Vec::new(),
        };
        conn.send_ctl(true, TcpSegKind::Syn);
        if zero_rtt {
            // The cookie'd SYN carries the ClientHello + early data;
            // the handshake timer still guards the SYN itself.
            conn.send_ctl(true, TcpSegKind::ClientHello);
            conn.out.push(Output::HandshakeDone);
        }
        conn
    }

    /// Push [`Output::Trace`] records from both senders from now on.
    pub fn observe(&mut self) {
        self.c2s_snd.core.observed = true;
        self.s2c_snd.core.observed = true;
    }

    /// True once the client may send application data.
    pub fn is_established(&self) -> bool {
        self.hs == HsState::Established
    }

    /// Total retransmitted segments over both directions (the §4.3
    /// TCP+ diagnostic).
    pub fn retransmits(&self) -> u64 {
        self.c2s_snd.core.retransmits + self.s2c_snd.core.retransmits
    }

    /// Move pending outputs (send requests, progress events, traces)
    /// to the end of `into`, oldest first.
    #[inline]
    pub fn drain_outputs(&mut self, into: &mut Vec<Output>) {
        // Stamp conn ids and wire sizes on outgoing packets.
        for o in &mut self.out {
            if let Output::Send(_, pkt) = o {
                pkt.conn = self.id;
                if let Wire::Tcp(seg) = &pkt.payload {
                    pkt.size = seg.wire_size();
                }
            }
        }
        into.append(&mut self.out);
    }

    /// Drop buffered outgoing packets (fault injection). Non-`Send`
    /// outputs survive. The handshake timer / data RTOs recover.
    pub fn discard_pending_sends(&mut self) -> usize {
        let before = self.out.len();
        self.out.retain(|o| !matches!(o, Output::Send(..)));
        before - self.out.len()
    }

    fn send_ctl(&mut self, from_client: bool, kind: TcpSegKind) {
        let seg = TcpSegment { from_client, kind };
        let dir = if from_client {
            Direction::Up
        } else {
            Direction::Down
        };
        self.out.push(Output::Send(
            dir,
            Packet::new(self.id, seg.wire_size(), Wire::Tcp(seg)),
        ));
    }

    /// Client writes `bytes` of application data (e.g. an HTTP/2
    /// request) onto the byte stream.
    pub fn client_write(&mut self, now: SimTime, bytes: u64) {
        self.c2s_snd.write(bytes);
        if self.hs == HsState::Established {
            self.c2s_snd.try_send(now, &mut self.out);
        }
    }

    /// Server writes `bytes` (e.g. HTTP/2 response frames).
    pub fn server_write(&mut self, now: SimTime, bytes: u64) {
        self.s2c_snd.write(bytes);
        if self.server_established {
            self.s2c_snd.try_send(now, &mut self.out);
        }
    }

    /// Server-side send backlog: bytes written by the server
    /// application but not yet transmitted. HTTP/2 response writers
    /// use this for bounded-lookahead interleaving (commit small
    /// frames only while the transport is hungry, so late-arriving
    /// responses can still be multiplexed fairly).
    #[inline]
    pub fn server_backlog(&self) -> u64 {
        self.s2c_snd.app_limit - self.s2c_snd.snd_nxt
    }

    /// A packet arrived at one endpoint (`Direction::Up` = at server).
    pub fn on_packet(&mut self, now: SimTime, wire: &Wire, arrived: Direction) {
        let Wire::Tcp(seg) = wire else {
            debug_assert!(false, "QUIC packet delivered to TCP connection");
            return;
        };
        match (&seg.kind, arrived) {
            (TcpSegKind::Syn, Direction::Up) => {
                self.synack_sent_at = now;
                self.send_ctl(false, TcpSegKind::SynAck);
                self.srv_hs_timer = Some(now + SimDuration::from_secs(1));
            }
            (TcpSegKind::SynAck, Direction::Down) if self.hs == HsState::SynSent => {
                self.c2s_snd.core.rtt.on_sample(now - self.syn_sent_at);
                self.hs = HsState::HelloSent;
                self.send_ctl(true, TcpSegKind::ClientHello);
                self.hs_backoff = 0;
                self.hs_timer = Some(now + self.c2s_snd.core.rtt.rto());
            }
            (TcpSegKind::ClientHello, Direction::Up) => {
                self.s2c_snd.core.rtt.on_sample(now - self.synack_sent_at);
                self.send_server_flight(now);
            }
            (TcpSegKind::ServerFlight { of, .. }, Direction::Down)
                if self.hs != HsState::Established =>
            {
                self.flight_recv += 1;
                if self.flight_recv >= *of {
                    self.hs = HsState::Established;
                    self.hs_timer = None;
                    self.send_ctl(true, TcpSegKind::ClientFinished);
                    self.out.push(Output::HandshakeDone);
                    // Any queued request leaves right now.
                    self.c2s_snd.try_send(now, &mut self.out);
                }
            }
            (TcpSegKind::ClientFinished, Direction::Up) => {
                self.establish_server(now);
            }
            (TcpSegKind::Data { seq, len, .. }, dir) => {
                if dir == Direction::Up {
                    // Data implies the handshake completed.
                    self.establish_server(now);
                }
                let (rcv, from_client) = match dir {
                    Direction::Up => (&mut self.c2s_rcv, false),
                    Direction::Down => (&mut self.s2c_rcv, true),
                };
                let immediate = rcv.on_data(now, *seq, *len);
                let progress = rcv.rcv_nxt;
                if immediate {
                    let ack = rcv.make_ack(from_client);
                    let dir_out = if from_client {
                        Direction::Up
                    } else {
                        Direction::Down
                    };
                    self.out.push(Output::Send(
                        dir_out,
                        Packet::new(self.id, ack.wire_size(), Wire::Tcp(ack)),
                    ));
                }
                // Report in-order delivery progress to the app.
                let rcv = match dir {
                    Direction::Up => &mut self.c2s_rcv,
                    Direction::Down => &mut self.s2c_rcv,
                };
                if progress > rcv.reported {
                    rcv.reported = progress;
                    let ev = match dir {
                        Direction::Up => Output::ServerStreamProgress {
                            stream: StreamId(0),
                            delivered: progress,
                            fin: false,
                        },
                        Direction::Down => Output::ClientStreamProgress {
                            stream: StreamId(0),
                            delivered: progress,
                            fin: false,
                        },
                    };
                    self.out.push(ev);
                }
            }
            (TcpSegKind::Ack { cum, sacks }, dir) => {
                // An ACK arriving at the server came from the client and
                // acknowledges the server's (s2c) data.
                let snd = match dir {
                    Direction::Up => &mut self.s2c_snd,
                    Direction::Down => &mut self.c2s_snd,
                };
                snd.on_ack(now, *cum, sacks, &mut self.out);
            }
            // Stray packets (e.g. a retransmitted SYN after
            // establishment) are ignored.
            _ => {}
        }
    }

    /// Take back a delivered packet's payload: an ACK's SACK-block
    /// buffer goes to the receiver that made it, for its next ACK.
    pub fn recycle(&mut self, wire: Wire) {
        let Wire::Tcp(TcpSegment {
            from_client,
            kind: TcpSegKind::Ack { sacks, .. },
        }) = wire
        else {
            return;
        };
        // The client's ACKs acknowledge server data (the s2c pipe).
        let rcv = if from_client {
            &mut self.s2c_rcv
        } else {
            &mut self.c2s_rcv
        };
        if sacks.capacity() > 0 {
            rcv.spare.push(sacks);
        }
    }

    fn establish_server(&mut self, now: SimTime) {
        if !self.server_established {
            self.server_established = true;
            self.srv_hs_timer = None;
            self.s2c_snd.try_send(now, &mut self.out);
        }
    }

    fn send_server_flight(&mut self, now: SimTime) {
        self.srv_sent_flight = true;
        for part in 0..SERVER_FLIGHT_PARTS {
            self.send_ctl(
                false,
                TcpSegKind::ServerFlight {
                    part,
                    of: SERVER_FLIGHT_PARTS,
                },
            );
        }
        self.srv_hs_timer = Some(now + self.s2c_snd.core.rtt.rto().max(SimDuration::from_secs(1)));
    }

    /// Earliest internal timer.
    #[inline]
    pub fn poll_at(&self) -> SimTime {
        let mut t = SimTime::MAX;
        for x in [
            self.hs_timer,
            self.srv_hs_timer,
            self.c2s_rcv.delack_at,
            self.s2c_rcv.delack_at,
        ]
        .into_iter()
        .flatten()
        {
            t = t.min(x);
        }
        t.min(self.c2s_snd.core.poll_at())
            .min(self.s2c_snd.core.poll_at())
    }

    /// Service any expired timers.
    pub fn on_wake(&mut self, now: SimTime) {
        // Client handshake retransmissions.
        if self.hs_timer.is_some_and(|t| t <= now) {
            self.hs_backoff += 1;
            let backoff = SimDuration::from_secs(1) * (1 << self.hs_backoff.min(6));
            match self.hs {
                HsState::SynSent => {
                    self.send_ctl(true, TcpSegKind::Syn);
                    self.hs_timer = Some(now + backoff);
                }
                HsState::HelloSent => {
                    self.send_ctl(true, TcpSegKind::ClientHello);
                    self.hs_timer = Some(now + backoff);
                }
                HsState::Established => self.hs_timer = None,
            }
        }
        // Server handshake retransmissions.
        if self.srv_hs_timer.is_some_and(|t| t <= now) {
            if self.server_established {
                self.srv_hs_timer = None;
            } else {
                self.srv_hs_backoff += 1;
                let backoff = SimDuration::from_secs(1) * (1 << self.srv_hs_backoff.min(6));
                if self.srv_sent_flight {
                    self.send_server_flight(now);
                } else {
                    self.send_ctl(false, TcpSegKind::SynAck);
                }
                self.srv_hs_timer = Some(now + backoff);
            }
        }
        // Delayed ACKs.
        if self.c2s_rcv.delack_at.is_some_and(|t| t <= now) {
            let ack = self.c2s_rcv.make_ack(false);
            self.out.push(Output::Send(
                Direction::Down,
                Packet::new(self.id, ack.wire_size(), Wire::Tcp(ack)),
            ));
        }
        if self.s2c_rcv.delack_at.is_some_and(|t| t <= now) {
            let ack = self.s2c_rcv.make_ack(true);
            self.out.push(Output::Send(
                Direction::Up,
                Packet::new(self.id, ack.wire_size(), Wire::Tcp(ack)),
            ));
        }
        // RTOs and pacing resumes.
        if self.c2s_snd.core.rto_at.is_some_and(|t| t <= now) {
            self.c2s_snd.on_rto(now, &mut self.out);
        }
        if self.s2c_snd.core.rto_at.is_some_and(|t| t <= now) {
            self.s2c_snd.on_rto(now, &mut self.out);
        }
        if self.c2s_snd.core.pacing_at.is_some_and(|t| t <= now) {
            self.c2s_snd.try_send(now, &mut self.out);
        }
        if self.s2c_snd.core.pacing_at.is_some_and(|t| t <= now) {
            self.s2c_snd.try_send(now, &mut self.out);
        }
    }
}

#[cfg(test)]
impl TcpConnection {
    /// The server sender's `(snd_una, snd_nxt, recovery_until)`: where
    /// its cumulative ACK, its next new byte and its recovery point
    /// stand.
    pub(crate) fn server_recovery(&self) -> (u64, u64, u64) {
        let s = &self.s2c_snd;
        (s.snd_una, s.snd_nxt, s.recovery_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use crate::wire::TCP_MSS;
    use pq_sim::NetworkKind;

    fn conn(proto: Protocol) -> TcpConnection {
        let net = NetworkKind::Dsl.config();
        TcpConnection::new(ConnId(1), proto.config(&net), SimTime::ZERO)
    }

    /// Drain outputs, returning just the sent segments.
    fn outputs(c: &mut TcpConnection) -> Vec<Output> {
        let mut out = Vec::new();
        c.drain_outputs(&mut out);
        out
    }

    fn sent(c: &mut TcpConnection) -> Vec<(Direction, TcpSegment)> {
        outputs(c)
            .into_iter()
            .filter_map(|o| match o {
                Output::Send(d, p) => match p.payload {
                    Wire::Tcp(seg) => Some((d, seg)),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn opening_emits_exactly_one_syn() {
        let mut c = conn(Protocol::Tcp);
        let out = sent(&mut c);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1.kind, TcpSegKind::Syn));
        assert_eq!(out[0].0, Direction::Up);
        assert!(!c.is_established());
    }

    #[test]
    fn handshake_message_sequence() {
        let mut c = conn(Protocol::TcpPlus);
        let syn = sent(&mut c).remove(0).1;
        c.on_packet(SimTime::from_millis(12), &Wire::Tcp(syn), Direction::Up);
        let synack = sent(&mut c).remove(0).1;
        assert!(matches!(synack.kind, TcpSegKind::SynAck));
        c.on_packet(
            SimTime::from_millis(24),
            &Wire::Tcp(synack),
            Direction::Down,
        );
        let ch = sent(&mut c).remove(0).1;
        assert!(matches!(ch.kind, TcpSegKind::ClientHello));
        c.on_packet(SimTime::from_millis(36), &Wire::Tcp(ch), Direction::Up);
        let flight = sent(&mut c);
        assert_eq!(flight.len(), 3, "TLS server flight in 3 parts");
        for (_, seg) in &flight {
            c.on_packet(
                SimTime::from_millis(48),
                &Wire::Tcp(seg.clone()),
                Direction::Down,
            );
        }
        assert!(c.is_established(), "client ready after the full flight");
        let fin = sent(&mut c);
        assert!(fin
            .iter()
            .any(|(_, s)| matches!(s.kind, TcpSegKind::ClientFinished)));
    }

    #[test]
    fn duplicate_synack_is_harmless() {
        let mut c = conn(Protocol::Tcp);
        let syn = sent(&mut c).remove(0).1;
        c.on_packet(SimTime::from_millis(12), &Wire::Tcp(syn), Direction::Up);
        let synack = sent(&mut c).remove(0).1;
        c.on_packet(
            SimTime::from_millis(24),
            &Wire::Tcp(synack.clone()),
            Direction::Down,
        );
        let first = sent(&mut c).len();
        assert_eq!(first, 1, "one ClientHello");
        c.on_packet(
            SimTime::from_millis(25),
            &Wire::Tcp(synack),
            Direction::Down,
        );
        assert!(sent(&mut c).is_empty(), "dup SYN-ACK ignored in HelloSent");
    }

    #[test]
    fn data_implies_server_establishment() {
        // A lost ClientFinished must not strand the server: data
        // arriving at the server side establishes it.
        let mut c = conn(Protocol::Tcp);
        let _syn = sent(&mut c);
        let data = TcpSegment {
            from_client: true,
            kind: TcpSegKind::Data {
                seq: 0,
                len: 400,
                retx: false,
            },
        };
        c.server_write(SimTime::from_millis(1), 1000);
        assert!(sent(&mut c).is_empty(), "server holds until established");
        c.on_packet(SimTime::from_millis(2), &Wire::Tcp(data), Direction::Up);
        let out = sent(&mut c);
        assert!(
            out.iter()
                .any(|(d, s)| *d == Direction::Down && matches!(s.kind, TcpSegKind::Data { .. })),
            "server flushes after implicit establishment: {out:?}"
        );
    }

    #[test]
    fn receiver_acks_every_second_segment_after_quickack() {
        let mut c = conn(Protocol::Tcp);
        let _syn = sent(&mut c);
        // Push enough in-order data segments at the client side.
        let mut acks = 0;
        for i in 0..40u64 {
            let seg = TcpSegment {
                from_client: false,
                kind: TcpSegKind::Data {
                    seq: i * 1460,
                    len: 1460,
                    retx: false,
                },
            };
            c.on_packet(SimTime::from_millis(i), &Wire::Tcp(seg), Direction::Down);
            acks += sent(&mut c)
                .iter()
                .filter(|(d, s)| *d == Direction::Up && matches!(s.kind, TcpSegKind::Ack { .. }))
                .count();
        }
        // 16 quickacks + every 2nd of the remaining 24 = 28.
        assert_eq!(acks, 28, "delayed-ACK cadence");
    }

    #[test]
    fn out_of_order_data_produces_sack_blocks() {
        let mut c = conn(Protocol::Tcp);
        let _syn = sent(&mut c);
        // Deliver segment 2 before segment 1.
        let seg2 = TcpSegment {
            from_client: false,
            kind: TcpSegKind::Data {
                seq: 2920,
                len: 1460,
                retx: false,
            },
        };
        c.on_packet(SimTime::from_millis(1), &Wire::Tcp(seg2), Direction::Down);
        let out = sent(&mut c);
        let ack = out
            .iter()
            .find_map(|(_, s)| match &s.kind {
                TcpSegKind::Ack { cum, sacks } => Some((*cum, sacks.clone())),
                _ => None,
            })
            .expect("immediate dup-ACK on gap");
        assert_eq!(ack.0, 0, "cumulative point unchanged");
        assert_eq!(ack.1.len(), 1);
        assert_eq!(ack.1[0].start, 2920);
        assert_eq!(ack.1[0].end, 4380);
    }

    #[test]
    fn progress_reported_in_order_only() {
        let mut c = conn(Protocol::Tcp);
        let _syn = outputs(&mut c);
        let mk = |seq: u64| TcpSegment {
            from_client: false,
            kind: TcpSegKind::Data {
                seq,
                len: 1000,
                retx: false,
            },
        };
        c.on_packet(
            SimTime::from_millis(1),
            &Wire::Tcp(mk(1000)),
            Direction::Down,
        );
        let progress: Vec<u64> = outputs(&mut c)
            .iter()
            .filter_map(|o| match o {
                Output::ClientStreamProgress { delivered, .. } => Some(*delivered),
                _ => None,
            })
            .collect();
        assert!(progress.is_empty(), "hole blocks delivery: {progress:?}");
        c.on_packet(SimTime::from_millis(2), &Wire::Tcp(mk(0)), Direction::Down);
        let progress: Vec<u64> = outputs(&mut c)
            .iter()
            .filter_map(|o| match o {
                Output::ClientStreamProgress { delivered, .. } => Some(*delivered),
                _ => None,
            })
            .collect();
        assert_eq!(progress, vec![2000], "hole filled releases both segments");
    }

    /// The server-side sender after it sent one segment per entry of
    /// `lens` at t = 0 (stock TCP: IW10, no pacing), then took one ACK
    /// at 50 ms with the cumulative point at 0 and these SACK blocks:
    /// the starts of the segments that ACK marked lost, whether still
    /// queued or already retransmitted.
    fn marked_lost(lens: &[u64], sacks: &[(u64, u64)]) -> Vec<u64> {
        let cfg = Protocol::Tcp.config(&NetworkKind::Dsl.config());
        let mut snd = TcpSender::new(false, &cfg, SimTime::ZERO);
        let mut out = Vec::new();
        for &len in lens {
            snd.write(len);
            snd.try_send(SimTime::ZERO, &mut out);
        }
        assert_eq!(out.len(), lens.len(), "one segment per write");
        out.clear();
        let sacks: Vec<Range> = sacks.iter().map(|&(a, b)| Range::new(a, b)).collect();
        snd.on_ack(SimTime::from_millis(50), 0, &sacks, &mut out);
        let mut lost: Vec<u64> = snd.lost.iter().map(|r| r.start).collect();
        lost.extend(out.iter().filter_map(|o| match o {
            Output::Send(_, p) => match &p.payload {
                Wire::Tcp(TcpSegment {
                    kind:
                        TcpSegKind::Data {
                            seq, retx: true, ..
                        },
                    ..
                }) => Some(*seq),
                _ => None,
            },
            _ => None,
        }));
        lost.sort_unstable();
        lost
    }

    // RFC 6675 §4, IsLost(SeqNum): true when "DupThresh discontiguous
    // SACKed sequences have arrived above 'SeqNum' or more than
    // (DupThresh - 1) * SMSS bytes with sequence numbers greater than
    // 'SeqNum' have been SACKed". DupThresh = 3, so the byte arm needs
    // more than 2 · SMSS. Every segment below went out at t = 0 in
    // sequence order, so a SACKed segment above a hole was always sent
    // after it and the RACK-style "delivered later" gate holds.
    const M: u64 = TCP_MSS;

    #[test]
    fn rfc6675_is_lost_three_full_segments_sacked_above_a_hole() {
        // Segments 0..4M, hole at [0, M), [M, 4M) SACKed: 3M bytes above
        // seq 0, and 3M > 2M, so IsLost(0).
        assert_eq!(marked_lost(&[M; 4], &[(M, 4 * M)]), vec![0]);
    }

    #[test]
    fn rfc6675_is_lost_two_full_segments_are_not_enough() {
        // [M, 3M) SACKed: 2M bytes, and 2M is not more than 2M; one
        // contiguous SACKed sequence, fewer than 3. Not lost.
        assert!(marked_lost(&[M; 3], &[(M, 3 * M)]).is_empty());
    }

    #[test]
    fn rfc6675_is_lost_three_discontiguous_full_segments() {
        // Six segments, the 2nd, 4th and 6th SACKed. Above seq 0: three
        // discontiguous sequences and 3M bytes, so both arms say lost.
        // Above 2M: two sequences and 2M bytes; above 4M: one and M.
        // Only the first hole is lost.
        let sacks = [(M, 2 * M), (3 * M, 4 * M), (5 * M, 6 * M)];
        assert_eq!(marked_lost(&[M; 6], &sacks), vec![0]);
    }

    #[test]
    fn deviation_9_is_lost_counts_dup_thresh_full_segments_of_bytes() {
        // EXPERIMENTS.md Deviation 9. Segments [0, M), [M, 2M),
        // [2M, 3M) and a short final [3M, 3M + 100); all but the first
        // SACKed. That is 2M + 100 bytes above seq 0, more than 2M, so
        // RFC 6675 says IsLost(0). The code asks for at least 3M SACKed
        // bytes and marks nothing; the fix flips this test.
        assert!(marked_lost(&[M, M, M, 100], &[(M, 3 * M + 100)]).is_empty());
    }

    #[test]
    fn deviation_9_is_lost_has_no_sequence_count_arm() {
        // EXPERIMENTS.md Deviation 9. Seven 100-byte segments (the
        // application wrote 100 bytes at a time); [100, 200),
        // [300, 400) and [500, 600) SACKed. Above seq 0 sit three
        // discontiguous SACKed sequences, DupThresh of them, so RFC
        // 6675 says IsLost(0) although only 300 bytes (under 2M) are
        // SACKed. Above 200 and 400 sit two and one: not lost. The code
        // has only the byte arm and marks nothing; the fix flips this
        // test to `vec![0]`.
        let sacks = [(100, 200), (300, 400), (500, 600)];
        assert!(marked_lost(&[100; 7], &sacks).is_empty());
    }

    #[test]
    fn zero_rtt_client_sends_request_immediately() {
        let net = NetworkKind::Lte.config();
        let mut c = TcpConnection::new(
            ConnId(1),
            Protocol::TcpPlus.config_zero_rtt(&net),
            SimTime::ZERO,
        );
        assert!(c.is_established(), "TFO+early-data is ready at once");
        c.client_write(SimTime::ZERO, 400);
        let out = sent(&mut c);
        assert!(
            out.iter()
                .any(|(_, s)| matches!(s.kind, TcpSegKind::Data { .. })),
            "request flows with the first flight: {out:?}"
        );
    }

    #[test]
    fn wire_sizes_are_stamped_on_outputs() {
        let mut c = conn(Protocol::Tcp);
        for o in outputs(&mut c) {
            if let Output::Send(_, p) = o {
                assert!(p.size > 0, "caller-visible packets have sizes");
                assert_eq!(p.conn, ConnId(1));
            }
        }
    }
}
