//! Semantic wire formats: what packets *mean*, without byte-level
//! serialization (the ns-3 altitude — see DESIGN.md §5).

use crate::rangeset::Range;

/// Per-packet header overhead charged to the link, in bytes
/// (Ethernet + IP + TCP incl. timestamps ≈ 66).
pub const TCP_OVERHEAD: u32 = 66;
/// Ethernet + IP + UDP + QUIC short header ≈ 64.
pub const QUIC_OVERHEAD: u32 = 64;
/// TCP maximum segment size (payload bytes).
pub const TCP_MSS: u64 = 1460;
/// gQUIC maximum stream-frame payload per packet (gQUIC used 1350-byte
/// UDP payloads).
pub const QUIC_MSS: u64 = 1300;

/// Payload of a simulated packet: one TCP segment or one QUIC packet.
#[derive(Clone, Debug)]
pub enum Wire {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A QUIC packet.
    Quic(QuicPacket),
}

/// A TCP segment. `from_client` distinguishes the two simplex pipes of
/// the full-duplex connection.
#[derive(Clone, Debug)]
pub struct TcpSegment {
    /// True when the client endpoint sent this segment.
    pub from_client: bool,
    /// What the segment carries.
    pub kind: TcpSegKind,
}

/// TCP segment content. The handshake (TCP 3WHS + TLS 1.3) is modelled
/// as explicit control messages whose sizes traverse the emulated link,
/// giving the paper's 2-RTT time-to-first-request for TCP+TLS.
#[derive(Clone, Debug)]
pub enum TcpSegKind {
    /// Client SYN.
    Syn,
    /// Server SYN-ACK.
    SynAck,
    /// Client ACK + TLS ClientHello (~350 B), one message.
    ClientHello,
    /// TLS server flight (ServerHello‥Finished, ~4 kB over `of` parts).
    ServerFlight {
        /// Part index (0-based).
        part: u8,
        /// Total part count.
        of: u8,
    },
    /// TLS client Finished; the client may send data right after.
    ClientFinished,
    /// Byte-stream data.
    Data {
        /// First byte offset of this segment.
        seq: u64,
        /// Payload length.
        len: u32,
        /// Whether this is a retransmission (Karn's algorithm).
        retx: bool,
    },
    /// Pure acknowledgement for the *opposite* direction's byte stream.
    Ack {
        /// Cumulative ACK point (next expected byte).
        cum: u64,
        /// SACK blocks (bounded by the stack's `max_sack_blocks` — 3
        /// for TCP with timestamps, the crucial handicap vs. QUIC).
        sacks: Vec<Range>,
    },
}

impl TcpSegment {
    /// On-the-wire size of this segment in bytes.
    pub fn wire_size(&self) -> u32 {
        let payload = match &self.kind {
            TcpSegKind::Syn | TcpSegKind::SynAck => 0,
            TcpSegKind::ClientHello => 350,
            TcpSegKind::ServerFlight { .. } => 1400,
            TcpSegKind::ClientFinished => 80,
            TcpSegKind::Data { len, .. } => *len,
            TcpSegKind::Ack { sacks, .. } => (sacks.len() as u32) * 8,
        };
        TCP_OVERHEAD + payload
    }
}

/// A QUIC packet: a packet number plus frames.
#[derive(Clone, Debug)]
pub struct QuicPacket {
    /// True when the client endpoint sent this packet.
    pub from_client: bool,
    /// Monotonically increasing packet number (never reused — the
    /// property that makes QUIC loss detection unambiguous).
    pub pn: u64,
    /// The frames bundled into this packet, in slot order: at most an
    /// ACK plus one tracked frame, so two inline slots and no list.
    pub frames: [Option<QuicFrame>; 2],
}

/// QUIC frames (the subset the page-load workload needs).
#[derive(Clone, Debug)]
pub enum QuicFrame {
    /// Client hello (~1300 B including padding, as gQUIC pads CHLOs).
    Chlo,
    /// Server hello / rejection flight part (certs etc., ~1300 B each).
    Shlo {
        /// Part index (0-based).
        part: u8,
        /// Total part count.
        of: u8,
    },
    /// Stream data.
    Stream {
        /// Stream identifier.
        id: u64,
        /// First byte offset within the stream.
        offset: u64,
        /// Payload length.
        len: u32,
        /// Final frame of the stream.
        fin: bool,
    },
    /// Acknowledgement of received packet numbers: where TCP fits 3
    /// SACK blocks, the sender's `max_sack_blocks` (32) most recent
    /// ranges ("QUIC's large SACK ranges", §4.3).
    Ack {
        /// Ranges of received packet numbers.
        ranges: Vec<Range>,
    },
}

impl QuicFrame {
    /// Approximate frame size contribution in bytes.
    pub fn size(&self) -> u32 {
        match self {
            QuicFrame::Chlo => 1300,
            QuicFrame::Shlo { .. } => 1300,
            QuicFrame::Stream { len, .. } => 8 + len,
            QuicFrame::Ack { ranges } => 8 + (ranges.len() as u32) * 8,
        }
    }
}

impl QuicPacket {
    /// The frames present, in slot order.
    pub fn frames(&self) -> impl Iterator<Item = &QuicFrame> {
        self.frames.iter().flatten()
    }

    /// On-the-wire size of this packet in bytes.
    pub fn wire_size(&self) -> u32 {
        QUIC_OVERHEAD + self.frames().map(QuicFrame::size).sum::<u32>()
    }

    /// True when the packet must be acknowledged (contains more than
    /// ACK frames).
    pub fn ack_eliciting(&self) -> bool {
        self.frames().any(|f| !matches!(f, QuicFrame::Ack { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_sizes() {
        let syn = TcpSegment {
            from_client: true,
            kind: TcpSegKind::Syn,
        };
        assert_eq!(syn.wire_size(), TCP_OVERHEAD);
        let data = TcpSegment {
            from_client: false,
            kind: TcpSegKind::Data {
                seq: 0,
                len: 1460,
                retx: false,
            },
        };
        assert_eq!(data.wire_size(), TCP_OVERHEAD + 1460);
        let ack = TcpSegment {
            from_client: true,
            kind: TcpSegKind::Ack {
                cum: 100,
                sacks: vec![Range::new(200, 300), Range::new(400, 500)],
            },
        };
        assert_eq!(ack.wire_size(), TCP_OVERHEAD + 16);
    }

    #[test]
    fn quic_sizes_and_ack_eliciting() {
        let pkt = QuicPacket {
            from_client: false,
            pn: 7,
            frames: [
                Some(QuicFrame::Stream {
                    id: 3,
                    offset: 0,
                    len: 1000,
                    fin: false,
                }),
                Some(QuicFrame::Ack {
                    ranges: vec![Range::new(0, 5)],
                }),
            ],
        };
        assert_eq!(pkt.wire_size(), QUIC_OVERHEAD + 1008 + 16);
        assert!(pkt.ack_eliciting());

        let pure_ack = QuicPacket {
            from_client: true,
            pn: 8,
            frames: [Some(QuicFrame::Ack { ranges: vec![] }), None],
        };
        assert!(!pure_ack.ack_eliciting());
    }

    /// Packets are moved by value link → lane → endpoint; the two
    /// inline frame slots must not make that a bulk copy.
    #[test]
    fn packets_stay_small() {
        assert!(std::mem::size_of::<pq_sim::Packet<Wire>>() <= 96);
    }
}
