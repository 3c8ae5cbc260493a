//! The sender core TCP and gQUIC share.
//!
//! The paper's comparison is eye-level only if TCP+ and QUIC get the
//! *same* initial window, pacing and congestion-control treatment
//! (Table 1), so that treatment is written once, here: congestion
//! controller, pacer, RTT and delivery-rate estimators, the RTO and
//! pacing timers, the bytes-in-flight count and the gates a packet
//! passes before it may leave. What stays in [`crate::tcp`] and
//! [`crate::quic`] is what differs between the stacks — SACK scoreboard
//! vs packet-number log, byte stream vs streams, 2-RTT vs 1-RTT
//! handshake — including *which* bytes count as in flight and *when* a
//! loss starts a new recovery episode.

use crate::api::{ConnEvent, ConnEventKind, Output};
use crate::cc::{AckInfo, CongestionControl};
use crate::config::StackConfig;
use crate::pacing::Pacer;
use crate::rate::{RateSample, RateSampler};
use crate::rtt::RttEstimator;
use pq_sim::{Direction, SimDuration, SimTime};

/// One direction's congestion, pacing and timer state.
#[derive(Debug)]
pub(crate) struct SenderCore {
    pub(crate) from_client: bool,
    pub(crate) mss: u64,
    pub(crate) cc: Box<dyn CongestionControl>,
    pacer: Pacer,
    pub(crate) rtt: RttEstimator,
    pub(crate) rate: RateSampler,
    pub(crate) rto_at: Option<SimTime>,
    pub(crate) pacing_at: Option<SimTime>,
    pub(crate) bytes_in_flight: u64,
    pub(crate) retransmits: u64,
    /// Whether FQ-style pacing is on (Table 1).
    pacing: bool,
    /// Whether the caller asked for [`Output::Trace`] records.
    pub(crate) observed: bool,
}

impl SenderCore {
    pub(crate) fn new(from_client: bool, cfg: &StackConfig) -> Self {
        SenderCore {
            from_client,
            mss: cfg.mss,
            cc: cfg
                .cc
                .build(cfg.mss, cfg.initial_window_bytes(), cfg.cubic_connections),
            pacer: Pacer::new(cfg.mss, 10, 2),
            rtt: RttEstimator::new(),
            rate: RateSampler::new(),
            rto_at: None,
            pacing_at: None,
            bytes_in_flight: 0,
            retransmits: 0,
            pacing: cfg.pacing,
            observed: false,
        }
    }

    /// Report `kind` to the caller, if it asked.
    fn trace(&self, now: SimTime, kind: ConnEventKind, out: &mut Vec<Output>) {
        if self.observed {
            out.push(Output::Trace(ConnEvent {
                at: now,
                dir: self.direction(),
                kind,
            }));
        }
    }

    /// The direction this sender's packets travel.
    pub(crate) fn direction(&self) -> Direction {
        if self.from_client {
            Direction::Up
        } else {
            Direction::Down
        }
    }

    /// Start a send round: forget the pacing timer (the round re-arms
    /// it if the pacer holds a packet) and refresh the pacer's rate.
    pub(crate) fn start_round(&mut self) {
        self.pacing_at = None;
        if let Some(rate) = self.cc.pacing_rate(self.rtt.srtt()) {
            // BBR dictates its own rate regardless of the FQ knob.
            self.pacer.set_rate(Some(rate));
        } else if self.pacing {
            // Generic FQ rule: factor × cwnd / srtt, factor 2 in slow
            // start and 1.2 afterwards (Linux sysctl defaults).
            if let Some(srtt) = self.rtt.srtt() {
                let factor = if self.cc.in_slow_start() { 2.0 } else { 1.2 };
                let rate = factor * self.cc.cwnd() as f64 / srtt.as_secs_f64().max(1e-6);
                self.pacer.set_rate(Some(rate));
            }
        } else {
            self.pacer.set_rate(None);
        }
    }

    /// Congestion-window gate: may `size` more bytes enter the network?
    /// With nothing in flight a sender may always emit one packet —
    /// otherwise a cwnd collapsed below one packet would deadlock the
    /// connection.
    pub(crate) fn cwnd_allows(&self, size: u64) -> bool {
        self.bytes_in_flight == 0 || self.bytes_in_flight + size <= self.cc.cwnd()
    }

    /// Pacing gate: true when the pacer holds `size` bytes back, in
    /// which case the hold is reported and `pacing_at` says when to try
    /// again. (The pacer itself is a no-op unless a rate is set.)
    pub(crate) fn pacer_holds(&mut self, now: SimTime, size: u64, out: &mut Vec<Output>) -> bool {
        let release = self.pacer.release_time(now, size);
        if release <= now {
            return false;
        }
        let wait = release - now;
        self.trace(now, ConnEventKind::PacingHold { wait }, out);
        self.pacing_at = Some(release);
        true
    }

    /// `size` tracked bytes just left: they are in flight, the pacer
    /// has spent them, and the RTO runs if it did not already.
    pub(crate) fn on_sent(&mut self, now: SimTime, size: u64) {
        self.bytes_in_flight += size;
        self.pacer.on_send(now, size);
        if self.rto_at.is_none() {
            self.rto_at = Some(now + self.rtt.rto());
        }
    }

    /// Count and report one retransmission; `what` names `detail` (the
    /// sequence number or stream being resent).
    pub(crate) fn note_retransmit(
        &mut self,
        now: SimTime,
        what: &'static str,
        detail: u64,
        out: &mut Vec<Output>,
    ) {
        self.retransmits += 1;
        self.trace(now, ConnEventKind::Retransmit { what, detail }, out);
    }

    /// A loss started a new recovery episode (the caller debounces):
    /// one window reduction.
    pub(crate) fn on_congestion_event(&mut self, now: SimTime, out: &mut Vec<Output>) {
        self.cc.on_congestion_event(now, self.bytes_in_flight);
        self.trace(now, ConnEventKind::CongestionEvent, out);
    }

    /// An ACK newly covered `acked` bytes: feed congestion control and
    /// report the window and RTT it left.
    pub(crate) fn on_acked(
        &mut self,
        now: SimTime,
        acked: u64,
        rtt: Option<SimDuration>,
        rate: Option<RateSample>,
        out: &mut Vec<Output>,
    ) {
        if acked == 0 {
            return;
        }
        self.cc.on_ack(&AckInfo {
            now,
            acked_bytes: acked,
            rtt,
            srtt: self.rtt.srtt(),
            min_rtt: Some(self.rtt.min_rtt()),
            rate,
            in_flight: self.bytes_in_flight,
        });
        let sample = ConnEventKind::Ack {
            cwnd: self.cc.cwnd(),
            ssthresh: self.cc.ssthresh(),
            srtt: self.rtt.srtt(),
        };
        self.trace(now, sample, out);
    }

    /// After an ACK: the RTO restarts while anything is outstanding.
    pub(crate) fn rearm_rto(&mut self, now: SimTime, outstanding: bool) {
        self.rto_at = outstanding.then(|| now + self.rtt.rto());
    }

    /// The retransmission timeout fired: report it (`detail` is where
    /// the stack's send state stood), back the timer off and collapse
    /// the window. The caller then declares what was outstanding lost
    /// and calls [`SenderCore::rearm_rto`].
    pub(crate) fn on_rto(&mut self, now: SimTime, detail: u64, out: &mut Vec<Output>) {
        self.trace(now, ConnEventKind::Rto { detail }, out);
        self.rtt.on_rto_fired();
        self.cc.on_rto(now);
    }

    /// Earlier of the RTO and pacing timers (`SimTime::MAX` when idle).
    pub(crate) fn poll_at(&self) -> SimTime {
        let rto = self.rto_at.unwrap_or(SimTime::MAX);
        rto.min(self.pacing_at.unwrap_or(SimTime::MAX))
    }
}
