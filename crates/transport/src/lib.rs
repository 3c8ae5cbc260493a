//! # pq-transport — the protocol stacks under study
//!
//! Segment-level models of the five Web stacks of the paper's Table 1:
//! stock Linux TCP, tuned TCP+ (IW32, pacing, tuned buffers, no
//! slow-start-after-idle), TCP+BBR, stock gQUIC (IW32, pacing, Cubic)
//! and QUIC+BBR.
//!
//! A [`Connection`] bundles *both* endpoints of one connection; the
//! browser layer (`pq-web`) moves packets between the endpoints
//! through the emulated access link and consumes stream-progress
//! events. What a connection does on the wire it reports to that
//! caller, and to no one else: after [`Connection::observe`] every ACK
//! sample, retransmission, RTO, pacing hold and congestion event comes
//! out as an [`Output::Trace`] record ([`ConnEvent`]). The crate writes
//! neither the tracer nor the profiler.
//!
//! Implemented mechanisms (see module docs for fidelity notes):
//!
//! * congestion control: [`cc::Cubic`] (RFC 8312) and [`cc::Bbr`]
//!   (BBRv1) behind [`cc::CongestionControl`];
//! * FQ-style [`pacing::Pacer`] with the paper's 10/2 quanta;
//! * [`rtt::RttEstimator`] (RFC 6298) and [`rate::RateSampler`]
//!   (delivery-rate estimation for BBR);
//! * TCP: SACK scoreboard (3 blocks/ACK), RACK-gated loss marking,
//!   RTO backoff, delayed ACKs, receive windows, idle restart and the
//!   2-RTT TCP+TLS 1.3 handshake;
//! * gQUIC: 1-RTT handshake, independent streams, 32 ACK ranges per
//!   frame, packet-number loss detection;
//! * one `sender` core under both: what Table 1 gives TCP+ and QUIC
//!   alike (IW, pacing, congestion control, RTO) is written once.

#![forbid(unsafe_code)]
// The digest-feeding set (README "Static analysis"), non-test code only.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]
#![warn(missing_docs)]

pub mod api;
pub mod cc;
pub mod config;
pub(crate) mod idmap;
pub mod pacing;
pub mod quic;
pub mod rangeset;
pub mod rate;
pub mod rtt;
pub(crate) mod seglog;
pub(crate) mod sender;
pub mod tcp;
pub mod wire;

pub use api::{ConnEvent, ConnEventKind, Connection, Output, StreamId};
pub use cc::{CcAlgorithm, CongestionControl};
pub use config::{Protocol, StackConfig};
pub use quic::QuicConnection;
pub use rangeset::{Range, RangeSet};
pub use tcp::TcpConnection;
pub use wire::{QuicFrame, QuicPacket, TcpSegKind, TcpSegment, Wire, QUIC_MSS, TCP_MSS};

#[cfg(test)]
mod conn_tests;
#[cfg(test)]
mod testutil;
