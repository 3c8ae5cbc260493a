//! CUBIC congestion control (RFC 8312), the default of both the Linux
//! TCP stack and Chromium's gQUIC in the paper's Table 1.

use super::{AckInfo, CongestionControl};
use pq_sim::{SimDuration, SimTime};

/// RFC 8312 constant `C` (window growth scaling), in segments/sec³.
const CUBIC_C: f64 = 0.4;
/// Multiplicative decrease factor β for standard (1-connection) TCP.
const CUBIC_BETA: f64 = 0.7;

/// CUBIC state. All windows in bytes; the cubic polynomial runs in
/// segment units as in the RFC.
#[derive(Debug)]
pub struct Cubic {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Effective multiplicative-decrease factor (see `new_with`).
    beta: f64,
    /// Reno-friendly additive-increase factor.
    reno_alpha: f64,
    /// Window (segments) before the last reduction.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Time (s) for the cubic to return to `w_max`.
    k: f64,
    /// Reno-friendly window estimate (segments).
    w_est: f64,
    min_cwnd: u64,
    initial_window: u64,
}

impl Cubic {
    /// Standard single-connection CUBIC (Linux TCP): β = 0.7.
    pub fn new(mss: u64, initial_window: u64) -> Self {
        Self::new_with(mss, initial_window, 1)
    }

    /// CUBIC emulating `n` TCP connections — Chromium's gQUIC defaults
    /// to n = 2, giving β = (n−1+0.7)/n = 0.85 and roughly twice the
    /// Reno-friendly additive increase. This is a deliberate, shipped
    /// gQUIC design choice (and the reason studies find gQUIC as
    /// aggressive as two TCP flows); it is what keeps QUIC's window up
    /// on the paper's lossy in-flight networks.
    pub fn new_with(mss: u64, initial_window: u64, n_connections: u32) -> Self {
        let n = f64::from(n_connections.max(1));
        let beta = (n - 1.0 + CUBIC_BETA) / n;
        // RFC 8312 §4.2 generalized to n flows (gQUIC's
        // `_beta_last_max`/alpha derivation).
        let reno_alpha = 3.0 * n * n * (1.0 - beta) / (1.0 + beta);
        Cubic {
            mss,
            cwnd: initial_window,
            ssthresh: u64::MAX,
            beta,
            reno_alpha,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            min_cwnd: 2 * mss,
            initial_window,
        }
    }

    /// The slow-start threshold (for tests/diagnostics).
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn begin_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        let cwnd_seg = self.cwnd as f64 / self.mss as f64;
        if self.w_max < cwnd_seg {
            // We are already above the previous maximum: restart the
            // curve from here (K = 0).
            self.w_max = cwnd_seg;
            self.k = 0.0;
        } else {
            self.k = ((self.w_max - cwnd_seg) / CUBIC_C).cbrt();
        }
        self.w_est = cwnd_seg;
    }

    fn cubic_window(&self, t: f64) -> f64 {
        // W_cubic(t) = C (t − K)³ + W_max   (segments)
        CUBIC_C * (t - self.k).powi(3) + self.w_max
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> Option<u64> {
        Some(self.ssthresh)
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per ACKed MSS (byte counting).
            self.cwnd = self
                .cwnd
                .saturating_add(ack.acked_bytes)
                .min(self.ssthresh.max(self.cwnd + ack.acked_bytes));
            if self.cwnd >= self.ssthresh {
                self.cwnd = self.ssthresh;
                self.begin_epoch(ack.now);
            }
            return;
        }

        let now = ack.now;
        if self.epoch_start.is_none() {
            self.begin_epoch(now);
        }
        // `begin_epoch(now)` above guarantees `Some`; the fallback is
        // the same value it would have stored.
        let epoch_start = self.epoch_start.unwrap_or(now);
        let t = now.saturating_since(epoch_start).as_secs_f64();
        let rtt = ack
            .srtt
            .unwrap_or(SimDuration::from_millis(100))
            .as_secs_f64();

        // Target is the cubic window one RTT in the future.
        let target_seg = self.cubic_window(t + rtt);
        let cwnd_seg = self.cwnd as f64 / self.mss as f64;

        // Reno-friendly estimate (RFC 8312 §4.2, generalized to the
        // configured connection-emulation count).
        self.w_est += self.reno_alpha * ack.acked_bytes as f64 / self.cwnd as f64;

        let goal_seg = target_seg.max(self.w_est);
        if goal_seg > cwnd_seg {
            // Spread the increase over the ACKs of one window.
            let incr = (goal_seg - cwnd_seg) / cwnd_seg * ack.acked_bytes as f64;
            self.cwnd = self.cwnd.saturating_add(incr.max(0.0) as u64);
        } else {
            // In the "TCP-friendly concave plateau": creep up slowly
            // (1 % of a segment per ACK, mirroring the RFC's minimum).
            self.cwnd +=
                (self.mss as f64 * 0.01 * ack.acked_bytes as f64 / self.cwnd.max(1) as f64) as u64;
        }
    }

    fn on_congestion_event(&mut self, now: SimTime, _in_flight: u64) {
        let cwnd_seg = self.cwnd as f64 / self.mss as f64;
        // Fast convergence (RFC 8312 §4.6).
        if cwnd_seg < self.w_max {
            self.w_max = cwnd_seg * (1.0 + self.beta) / 2.0;
        } else {
            self.w_max = cwnd_seg;
        }
        let new = ((self.cwnd as f64) * self.beta) as u64;
        self.cwnd = new.max(self.min_cwnd);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        let _ = now;
    }

    fn on_rto(&mut self, now: SimTime) {
        // RFC 6582 / Linux: collapse to one segment, remember half the
        // flight as ssthresh (we use β like the rest of CUBIC).
        let cwnd_seg = self.cwnd as f64 / self.mss as f64;
        if cwnd_seg < self.w_max {
            self.w_max = cwnd_seg * (1.0 + self.beta) / 2.0;
        } else {
            self.w_max = cwnd_seg;
        }
        self.ssthresh = (((self.cwnd as f64) * self.beta) as u64).max(self.min_cwnd);
        self.cwnd = self.mss;
        self.epoch_start = None;
        let _ = now;
    }

    fn pacing_rate(&self, _srtt: Option<SimDuration>) -> Option<f64> {
        // CUBIC does not dictate a pacing rate; the sender applies the
        // generic FQ rule when pacing is enabled.
        None
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn name(&self) -> &'static str {
        "Cubic"
    }

    fn clamp_cwnd(&mut self, max_cwnd: u64) {
        self.cwnd = self
            .cwnd
            .min(max_cwnd)
            .max(self.min_cwnd.min(self.initial_window));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, bytes: u64, srtt_ms: u64, in_flight: u64) -> AckInfo {
        AckInfo {
            now: SimTime::from_millis(now_ms),
            acked_bytes: bytes,
            rtt: Some(SimDuration::from_millis(srtt_ms)),
            srtt: Some(SimDuration::from_millis(srtt_ms)),
            min_rtt: Some(SimDuration::from_millis(srtt_ms)),
            rate: None,
            in_flight,
        }
    }

    const MSS: u64 = 1460;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Cubic::new(MSS, 10 * MSS);
        // ACK a full window: cwnd should double.
        let w0 = c.cwnd();
        c.on_ack(&ack(100, w0, 100, 0));
        assert_eq!(c.cwnd(), 2 * w0);
        assert!(c.in_slow_start());
    }

    #[test]
    fn loss_reduces_by_beta() {
        let mut c = Cubic::new(MSS, 100 * MSS);
        c.on_congestion_event(SimTime::from_millis(10), 100 * MSS);
        assert_eq!(c.cwnd(), (100.0 * MSS as f64 * 0.7) as u64);
        assert!(!c.in_slow_start(), "loss sets ssthresh = cwnd");
    }

    #[test]
    fn rto_collapses_to_one_mss() {
        let mut c = Cubic::new(MSS, 50 * MSS);
        c.on_rto(SimTime::from_millis(10));
        assert_eq!(c.cwnd(), MSS);
        assert!(c.in_slow_start());
        assert_eq!(c.ssthresh(), (50.0 * MSS as f64 * 0.7) as u64);
    }

    #[test]
    fn cubic_recovers_towards_wmax() {
        let mut c = Cubic::new(MSS, 100 * MSS);
        c.on_congestion_event(SimTime::from_millis(0), 100 * MSS);
        let after_loss = c.cwnd();
        // Feed ACKs for several seconds of congestion avoidance.
        let mut now = 0;
        for _ in 0..2000 {
            now += 20;
            c.on_ack(&ack(now, MSS, 20, 50 * MSS));
        }
        assert!(
            c.cwnd() > after_loss,
            "cubic must grow after reduction: {} vs {}",
            c.cwnd(),
            after_loss
        );
        // And eventually exceed the previous maximum (convex region).
        assert!(c.cwnd() > 100 * MSS, "cwnd {} segments", c.cwnd() / MSS);
    }

    #[test]
    fn fast_convergence_shrinks_wmax() {
        let mut c = Cubic::new(MSS, 100 * MSS);
        c.on_congestion_event(SimTime::from_millis(0), 0);
        let w_max_1 = c.w_max;
        // Second loss below the previous maximum.
        c.on_congestion_event(SimTime::from_millis(100), 0);
        assert!(
            c.w_max < w_max_1,
            "fast convergence: {} !< {}",
            c.w_max,
            w_max_1
        );
    }

    /// RFC 8312 known answers after a loss at W_max = 100 segments, for
    /// Linux's β = 0.7 and gQUIC's 2-connection β = 0.85. K is checked
    /// to 1e-3 s because the reduced window truncates to whole bytes.
    #[test]
    fn rfc8312_known_answers() {
        // (n, β, K = ∛(W_max·(1−β)/C), fast-convergence W_max·(1+β)/2
        // for the second loss at β·W_max, α = 3n²(1−β)/(1+β))
        for (n, beta, k, fast_w_max, alpha) in [
            (1, 0.7, 75f64.cbrt(), 70.0 * 1.7 / 2.0, 0.5294),
            (2, 0.85, 37.5f64.cbrt(), 85.0 * 1.85 / 2.0, 0.9730),
        ] {
            let mut c = Cubic::new_with(MSS, 100 * MSS, n);
            assert!((c.beta - beta).abs() < 1e-12, "n={n}: β {}", c.beta);
            assert!(
                (c.reno_alpha - alpha).abs() < 1e-4,
                "n={n}: α {}",
                c.reno_alpha
            );

            c.on_congestion_event(SimTime::ZERO, 100 * MSS);
            assert_eq!(c.w_max, 100.0, "n={n}");
            // The first ACK in congestion avoidance starts the epoch.
            c.on_ack(&ack(10, MSS, 100, 0));
            assert!((c.k - k).abs() < 1e-3, "n={n}: K {} vs {k}", c.k);
            assert_eq!(c.cubic_window(c.k), c.w_max, "n={n}: W_cubic(K) = W_max");
            // The curve is odd about K: W_cubic(0) = W_max − C·K³ =
            // β·W_max, the reduced window, and W_cubic(2K) =
            // W_max + C·K³ = (2 − β)·W_max.
            let w0 = 100.0 * beta;
            let w2k = 100.0 * (2.0 - beta);
            assert!((c.cubic_window(0.0) - w0).abs() < 1e-2, "n={n}: W_cubic(0)");
            assert!(
                (c.cubic_window(2.0 * c.k) - w2k).abs() < 1e-2,
                "n={n}: W_cubic(2K)"
            );

            // Fast convergence (§4.6): a second loss below W_max.
            let mut c = Cubic::new_with(MSS, 100 * MSS, n);
            c.on_congestion_event(SimTime::ZERO, 100 * MSS);
            c.on_congestion_event(SimTime::from_millis(100), 0);
            assert!(
                (c.w_max - fast_w_max).abs() < 1e-3,
                "n={n}: W_max {} vs {fast_w_max}",
                c.w_max
            );
        }
        assert!((75f64.cbrt() - 4.2172).abs() < 1e-4);
        assert!((37.5f64.cbrt() - 3.3472).abs() < 1e-4);
    }

    #[test]
    fn cwnd_never_below_min() {
        let mut c = Cubic::new(MSS, 2 * MSS);
        for i in 0..10 {
            c.on_congestion_event(SimTime::from_millis(i), 0);
        }
        assert!(c.cwnd() >= 2 * MSS);
    }

    #[test]
    fn clamp_for_idle_restart() {
        let mut c = Cubic::new(MSS, 10 * MSS);
        // Grow, then clamp back to IW.
        c.on_ack(&ack(100, 20 * MSS, 100, 0));
        assert!(c.cwnd() > 10 * MSS);
        c.clamp_cwnd(10 * MSS);
        assert_eq!(c.cwnd(), 10 * MSS);
    }

    #[test]
    fn no_dictated_pacing_rate() {
        let c = Cubic::new(MSS, 10 * MSS);
        assert!(c.pacing_rate(Some(SimDuration::from_millis(50))).is_none());
    }

    #[test]
    fn slow_start_exits_at_ssthresh() {
        let mut c = Cubic::new(MSS, 10 * MSS);
        c.on_congestion_event(SimTime::ZERO, 0); // ssthresh = 7 MSS
        c.on_rto(SimTime::ZERO); // cwnd = 1 MSS, ssthresh ~4.9 MSS
        let ssthresh = c.ssthresh();
        // ACK enough to cross ssthresh.
        c.on_ack(&ack(50, 10 * MSS, 50, 0));
        assert!(c.cwnd() >= ssthresh);
        assert!(!c.in_slow_start());
    }
}
