//! BBRv1 congestion control (Cardwell et al.), used by the paper's
//! `TCP+BBR` and `QUIC+BBR` variants.
//!
//! The model-based loop: estimate the bottleneck bandwidth (windowed
//! max of delivery-rate samples) and the round-trip propagation delay
//! (windowed min of RTT samples); pace at `gain × btl_bw` and cap the
//! window at `cwnd_gain × BDP`. Loss is *not* a congestion signal in
//! v1 — which is exactly why it shines on the lossy DA2GC/MSS links of
//! the paper's §4.3/§4.4.

use super::{AckInfo, CongestionControl, MaxFilter};
use pq_sim::{SimDuration, SimTime};

/// 2/ln(2): fastest gain that still doubles delivery rate per round.
const STARTUP_GAIN: f64 = 2.885;
const DRAIN_GAIN: f64 = 1.0 / 2.885;
/// ProbeBW gain cycle: probe, drain, then six phases of cruising.
const CYCLE_LEN: usize = 8;
const fn cycle_gain(phase: usize) -> f64 {
    match phase {
        0 => 1.25,
        1 => 0.75,
        _ => 1.0,
    }
}
/// Bandwidth-filter window, in packet-timed rounds.
const BW_WINDOW_ROUNDS: u64 = 10;
/// min_rtt validity window.
const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Time spent at the reduced window in ProbeRTT.
const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// BBRv1 state machine.
#[derive(Debug)]
pub struct Bbr {
    mss: u64,
    initial_window: u64,
    cwnd: u64,
    state: State,
    pacing_gain: f64,
    cwnd_gain: f64,

    bw_filter: MaxFilter,
    /// Packet-timed round counting.
    round_count: u64,
    round_start_delivered: u64,
    delivered: u64,

    min_rtt: Option<SimDuration>,
    min_rtt_stamp: SimTime,

    /// Startup exit detection.
    full_bw: f64,
    full_bw_count: u32,
    filled_pipe: bool,

    /// ProbeBW cycle position.
    cycle_index: usize,
    cycle_stamp: SimTime,

    /// ProbeRTT bookkeeping.
    probe_rtt_done_at: Option<SimTime>,
    cwnd_before_probe_rtt: u64,
}

impl Bbr {
    /// New instance with the given MSS and initial window (bytes).
    pub fn new(mss: u64, initial_window: u64) -> Self {
        Bbr {
            mss,
            initial_window,
            cwnd: initial_window,
            state: State::Startup,
            pacing_gain: STARTUP_GAIN,
            cwnd_gain: STARTUP_GAIN,
            bw_filter: MaxFilter::new(BW_WINDOW_ROUNDS),
            round_count: 0,
            round_start_delivered: 0,
            delivered: 0,
            min_rtt: None,
            min_rtt_stamp: SimTime::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done_at: None,
            cwnd_before_probe_rtt: 0,
        }
    }

    /// Current bottleneck-bandwidth estimate in bytes/sec.
    pub fn btl_bw(&self) -> f64 {
        self.bw_filter.get(self.round_count)
    }

    /// Current state name (diagnostics).
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::Startup => "Startup",
            State::Drain => "Drain",
            State::ProbeBw => "ProbeBW",
            State::ProbeRtt => "ProbeRTT",
        }
    }

    fn bdp(&self) -> Option<u64> {
        let bw = self.btl_bw();
        let rtt = self.min_rtt?;
        if bw <= 0.0 {
            return None;
        }
        Some((bw * rtt.as_secs_f64()) as u64)
    }

    fn update_cwnd(&mut self) {
        if self.state == State::ProbeRtt {
            self.cwnd = 4 * self.mss;
            return;
        }
        match self.bdp() {
            Some(bdp) => {
                let target = (self.cwnd_gain * bdp as f64) as u64;
                self.cwnd = target.max(4 * self.mss);
            }
            None => {
                self.cwnd = self.cwnd.max(self.initial_window);
            }
        }
    }

    fn check_full_pipe(&mut self, app_limited: bool) {
        if self.filled_pipe || app_limited {
            return;
        }
        let bw = self.btl_bw();
        if bw >= self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= 3 {
            self.filled_pipe = true;
        }
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.state = State::ProbeBw;
        self.cwnd_gain = 2.0;
        // Start the cycle at a random-ish phase in real BBR; we start
        // past the 1.25 probe to avoid an immediate overshoot.
        self.cycle_index = 2;
        self.pacing_gain = cycle_gain(self.cycle_index);
        self.cycle_stamp = now;
    }

    fn advance_cycle(&mut self, now: SimTime) {
        let rtt = self.min_rtt.unwrap_or(SimDuration::from_millis(100));
        if now.saturating_since(self.cycle_stamp) >= rtt {
            self.cycle_index = (self.cycle_index + 1) % CYCLE_LEN;
            self.pacing_gain = cycle_gain(self.cycle_index);
            self.cycle_stamp = now;
        }
    }
}

impl CongestionControl for Bbr {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let now = ack.now;
        self.delivered += ack.acked_bytes;

        // Packet-timed rounds: a round ends when a packet sent after
        // the round started is ACKed.
        if let Some(rate) = ack.rate {
            if rate.delivered_at_send >= self.round_start_delivered {
                self.round_count += 1;
                self.round_start_delivered = self.delivered;
            }
            if !rate.app_limited || rate.delivery_rate > self.btl_bw() {
                self.bw_filter.update(self.round_count, rate.delivery_rate);
            }
        }

        // min_rtt filter.
        if let Some(rtt) = ack.rtt {
            let expired = now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW;
            if self.min_rtt.is_none() || expired || Some(rtt) <= self.min_rtt {
                self.min_rtt = Some(rtt);
                self.min_rtt_stamp = now;
            }
        }

        // State machine.
        match self.state {
            State::Startup => {
                let app_limited = ack.rate.map(|r| r.app_limited).unwrap_or(false);
                self.check_full_pipe(app_limited);
                if self.filled_pipe {
                    self.state = State::Drain;
                    self.pacing_gain = DRAIN_GAIN;
                    self.cwnd_gain = STARTUP_GAIN;
                }
            }
            State::Drain => {
                if let Some(bdp) = self.bdp() {
                    if ack.in_flight <= bdp {
                        self.enter_probe_bw(now);
                    }
                }
            }
            State::ProbeBw => {
                self.advance_cycle(now);
                // Enter ProbeRTT when the min_rtt sample is stale.
                if now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW {
                    self.state = State::ProbeRtt;
                    self.pacing_gain = 1.0;
                    self.cwnd_before_probe_rtt = self.cwnd;
                    self.probe_rtt_done_at = Some(now + PROBE_RTT_DURATION);
                }
            }
            State::ProbeRtt => {
                if let Some(done) = self.probe_rtt_done_at {
                    if now >= done {
                        self.min_rtt_stamp = now;
                        self.probe_rtt_done_at = None;
                        if self.filled_pipe {
                            self.enter_probe_bw(now);
                        } else {
                            self.state = State::Startup;
                            self.pacing_gain = STARTUP_GAIN;
                            self.cwnd_gain = STARTUP_GAIN;
                        }
                        self.cwnd = self.cwnd_before_probe_rtt.max(4 * self.mss);
                    }
                }
            }
        }

        self.update_cwnd();
    }

    fn on_congestion_event(&mut self, _now: SimTime, _in_flight: u64) {
        // BBRv1 deliberately does not reduce on packet loss; the model
        // (bw × min_rtt) already bounds the inflight.
    }

    fn on_rto(&mut self, _now: SimTime) {
        // Conservation on timeout: restart from a minimal window; the
        // model restores cwnd as ACKs return.
        self.cwnd = 4 * self.mss;
    }

    fn pacing_rate(&self, srtt: Option<SimDuration>) -> Option<f64> {
        let bw = self.btl_bw();
        if bw > 0.0 {
            return Some(self.pacing_gain * bw);
        }
        // Bootstrap before the first bandwidth sample: pace the initial
        // window over one (smoothed) RTT at the startup gain.
        let rtt = srtt?;
        if rtt == SimDuration::ZERO {
            return None;
        }
        Some(self.pacing_gain * self.initial_window as f64 / rtt.as_secs_f64())
    }

    fn in_slow_start(&self) -> bool {
        self.state == State::Startup
    }

    fn name(&self) -> &'static str {
        "BBRv1"
    }

    fn clamp_cwnd(&mut self, max_cwnd: u64) {
        // BBR's window is model-derived; idle clamping only applies the
        // floor used elsewhere.
        self.cwnd = self.cwnd.min(max_cwnd.max(4 * self.mss));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::RateSample;

    const MSS: u64 = 1460;

    fn ack_with_rate(
        now_ms: u64,
        bytes: u64,
        rtt_ms: u64,
        rate_bps: f64,
        delivered_at_send: u64,
        in_flight: u64,
    ) -> AckInfo {
        AckInfo {
            now: SimTime::from_millis(now_ms),
            acked_bytes: bytes,
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            srtt: Some(SimDuration::from_millis(rtt_ms)),
            min_rtt: Some(SimDuration::from_millis(rtt_ms)),
            rate: Some(RateSample {
                delivery_rate: rate_bps,
                app_limited: false,
                newly_delivered: bytes,
                delivered_at_send,
            }),
            in_flight,
        }
    }

    #[test]
    fn startup_gains() {
        let b = Bbr::new(MSS, 32 * MSS);
        assert!(b.in_slow_start());
        assert_eq!(b.state_name(), "Startup");
        assert_eq!(b.cwnd(), 32 * MSS);
    }

    #[test]
    fn startup_exits_when_bw_plateaus() {
        let mut b = Bbr::new(MSS, 32 * MSS);
        let bw = 1_250_000.0; // 10 Mbps in bytes/s
        let mut delivered = 0;
        let mut now = 0;
        // Feed several rounds of a flat bandwidth estimate.
        for _ in 0..8 {
            now += 50;
            b.on_ack(&ack_with_rate(now, 10 * MSS, 50, bw, delivered, 20 * MSS));
            delivered += 10 * MSS;
        }
        assert!(b.filled_pipe, "flat bw for 3+ rounds must fill the pipe");
        assert_ne!(b.state_name(), "Startup");
    }

    #[test]
    fn drain_transitions_to_probe_bw() {
        let mut b = Bbr::new(MSS, 32 * MSS);
        let bw = 1_250_000.0;
        let mut delivered = 0;
        let mut now = 0;
        for _ in 0..8 {
            now += 50;
            b.on_ack(&ack_with_rate(now, 10 * MSS, 50, bw, delivered, 20 * MSS));
            delivered += 10 * MSS;
        }
        // Now with inflight below BDP, Drain must end.
        now += 50;
        b.on_ack(&ack_with_rate(now, 10 * MSS, 50, bw, delivered, 0));
        assert_eq!(b.state_name(), "ProbeBW");
    }

    #[test]
    fn cwnd_tracks_bdp() {
        let mut b = Bbr::new(MSS, 32 * MSS);
        let bw = 2_500_000.0; // bytes/s
        let mut delivered = 0;
        let mut now = 0;
        for _ in 0..12 {
            now += 40;
            b.on_ack(&ack_with_rate(now, 10 * MSS, 40, bw, delivered, 10 * MSS));
            delivered += 10 * MSS;
        }
        // BDP = 2.5 MB/s × 40 ms = 100 kB; cwnd_gain = 2 in ProbeBW.
        let bdp = 100_000u64;
        let cwnd = b.cwnd();
        assert!(
            cwnd >= bdp && cwnd <= 3 * bdp,
            "cwnd {cwnd} should be gain×BDP around {bdp}"
        );
    }

    #[test]
    fn loss_does_not_reduce_window() {
        let mut b = Bbr::new(MSS, 32 * MSS);
        let before = b.cwnd();
        b.on_congestion_event(SimTime::from_millis(1), 10 * MSS);
        assert_eq!(b.cwnd(), before, "BBRv1 ignores loss");
    }

    #[test]
    fn rto_collapses_window() {
        let mut b = Bbr::new(MSS, 32 * MSS);
        b.on_rto(SimTime::from_millis(1));
        assert_eq!(b.cwnd(), 4 * MSS);
    }

    #[test]
    fn pacing_rate_follows_gain_times_bw() {
        let mut b = Bbr::new(MSS, 32 * MSS);
        let bw = 1_000_000.0;
        b.on_ack(&ack_with_rate(50, 10 * MSS, 50, bw, 0, 10 * MSS));
        let rate = b.pacing_rate(Some(SimDuration::from_millis(50))).unwrap();
        assert!((rate - STARTUP_GAIN * bw).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn bootstrap_pacing_before_bw_sample() {
        let b = Bbr::new(MSS, 32 * MSS);
        let rate = b.pacing_rate(Some(SimDuration::from_millis(100))).unwrap();
        // 32 MSS over 100 ms × 2.885.
        let expect = STARTUP_GAIN * (32.0 * MSS as f64) / 0.1;
        assert!((rate - expect).abs() / expect < 1e-9);
        assert!(b.pacing_rate(None).is_none());
    }

    #[test]
    fn min_rtt_updates_on_lower_sample() {
        let mut b = Bbr::new(MSS, 32 * MSS);
        b.on_ack(&ack_with_rate(10, MSS, 80, 1e6, 0, MSS));
        assert_eq!(b.min_rtt, Some(SimDuration::from_millis(80)));
        b.on_ack(&ack_with_rate(20, MSS, 40, 1e6, 0, MSS));
        assert_eq!(b.min_rtt, Some(SimDuration::from_millis(40)));
        b.on_ack(&ack_with_rate(30, MSS, 90, 1e6, 0, MSS));
        assert_eq!(b.min_rtt, Some(SimDuration::from_millis(40)));
    }

    #[test]
    fn probe_bw_cycles_gain() {
        let mut b = Bbr::new(MSS, 32 * MSS);
        let bw = 1_250_000.0;
        let mut delivered = 0;
        let mut now = 0;
        for _ in 0..10 {
            now += 50;
            b.on_ack(&ack_with_rate(now, 10 * MSS, 50, bw, delivered, 0));
            delivered += 10 * MSS;
        }
        assert_eq!(b.state_name(), "ProbeBW");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..40 {
            now += 60; // > min_rtt, so the cycle advances
            b.on_ack(&ack_with_rate(now, 10 * MSS, 50, bw, delivered, 0));
            delivered += 10 * MSS;
            seen.insert((b.pacing_gain * 100.0) as i64);
        }
        assert!(seen.contains(&125), "probe phase seen: {seen:?}");
        assert!(seen.contains(&75), "drain phase seen: {seen:?}");
        assert!(seen.contains(&100), "cruise phase seen: {seen:?}");
    }
}
