//! RTT estimation (RFC 6298) shared by TCP and QUIC senders.

use pq_sim::SimDuration;

/// Smoothed RTT estimator with RFC 6298 retransmission timeouts.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    latest: SimDuration,
    min_rtt: SimDuration,
    /// Exponential backoff multiplier applied after RTOs.
    backoff: u32,
    /// Lower bound for the computed RTO (Linux: 200 ms).
    min_rto: SimDuration,
    /// RTO used before the first sample (RFC 6298: 1 s).
    initial_rto: SimDuration,
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// Estimator with Linux-like bounds (min RTO 200 ms, initial 1 s).
    pub fn new() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            latest: SimDuration::ZERO,
            min_rtt: SimDuration::MAX,
            backoff: 0,
            min_rto: SimDuration::from_millis(200),
            initial_rto: SimDuration::from_secs(1),
        }
    }

    /// Feed a new sample (ACK of a non-retransmitted packet —
    /// Karn's algorithm is the caller's responsibility).
    pub fn on_sample(&mut self, sample: SimDuration) {
        self.latest = sample;
        self.min_rtt = self.min_rtt.min(sample);
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                // rttvar = 3/4 rttvar + 1/4 |srtt - sample|
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                // srtt = 7/8 srtt + 1/8 sample
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
        // A valid sample resets the backoff.
        self.backoff = 0;
    }

    /// Smoothed RTT, if a sample exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Smoothed RTT or the given fallback.
    pub fn srtt_or(&self, fallback: SimDuration) -> SimDuration {
        self.srtt.unwrap_or(fallback)
    }

    /// Most recent sample.
    pub fn latest(&self) -> SimDuration {
        self.latest
    }

    /// Minimum observed RTT (`SimDuration::MAX` before any sample).
    pub fn min_rtt(&self) -> SimDuration {
        self.min_rtt
    }

    /// Current retransmission timeout including backoff.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => self.initial_rto,
            Some(srtt) => {
                let var_term = self.rttvar * 4;
                // RFC 6298: RTO = srtt + max(G, 4*rttvar); our clock
                // granularity G is 1 ns, so the var term dominates.
                (srtt + var_term).max(self.min_rto)
            }
        };
        base * (1u64 << self.backoff.min(16))
    }

    /// Double the RTO (called when an RTO fires).
    pub fn on_rto_fired(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// Current backoff exponent (0 = no backoff).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_one_second() {
        let est = RttEstimator::new();
        assert_eq!(est.rto(), SimDuration::from_secs(1));
        assert_eq!(est.srtt(), None);
    }

    #[test]
    fn first_sample_initializes() {
        let mut est = RttEstimator::new();
        est.on_sample(SimDuration::from_millis(100));
        assert_eq!(est.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = srtt + 4 * (srtt/2) = 300 ms.
        assert_eq!(est.rto(), SimDuration::from_millis(300));
        assert_eq!(est.min_rtt(), SimDuration::from_millis(100));
    }

    #[test]
    fn smoothing_converges() {
        let mut est = RttEstimator::new();
        for _ in 0..100 {
            est.on_sample(SimDuration::from_millis(50));
        }
        let srtt = est.srtt().unwrap();
        assert!((srtt.as_millis_f64() - 50.0).abs() < 0.5, "srtt {srtt}");
        // Variance decays towards zero, so the RTO approaches
        // srtt + max-term but never below the 200 ms floor.
        assert!(est.rto() >= SimDuration::from_millis(200));
        assert!(est.rto() <= SimDuration::from_millis(300));
    }

    #[test]
    fn min_rto_floor() {
        let mut est = RttEstimator::new();
        for _ in 0..50 {
            est.on_sample(SimDuration::from_millis(5));
        }
        assert!(est.rto() >= SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_resets() {
        let mut est = RttEstimator::new();
        est.on_sample(SimDuration::from_millis(100));
        let base = est.rto();
        est.on_rto_fired();
        assert_eq!(est.rto(), base * 2);
        est.on_rto_fired();
        assert_eq!(est.rto(), base * 4);
        est.on_sample(SimDuration::from_millis(100));
        assert_eq!(est.backoff(), 0, "sample clears backoff");
        assert!(est.rto() < base * 2, "rto back near base after sample");
    }

    /// RFC 6298 (2.2)-(2.3) worked by hand, exact to the nanosecond.
    #[test]
    fn rfc6298_known_answers() {
        let ms = SimDuration::from_millis;
        let us = SimDuration::from_micros;
        let mut est = RttEstimator::new();
        // (2.2) first sample R: SRTT = R, RTTVAR = R/2,
        // RTO = SRTT + 4·RTTVAR.
        est.on_sample(ms(100));
        assert_eq!(est.srtt(), Some(ms(100)));
        assert_eq!(est.rttvar, ms(50));
        assert_eq!(est.rto(), ms(300));
        // (2.3) next sample R' = 200 ms, RTTVAR before SRTT:
        // RTTVAR = 3/4·50 + 1/4·|100 − 200| = 62.5 ms,
        // SRTT = 7/8·100 + 1/8·200 = 112.5 ms,
        // RTO = 112.5 + 4·62.5 = 362.5 ms.
        est.on_sample(ms(200));
        assert_eq!(est.rttvar, us(62_500));
        assert_eq!(est.srtt(), Some(us(112_500)));
        assert_eq!(est.rto(), us(362_500));

        // The floor is Linux's 200 ms, not RFC 6298 (2.4)'s 1 s: a
        // deliberate deviation, as the tuned stacks of Table 1 run on
        // Linux. A 10 ms path computes 10 + 4·5 = 30 ms and is floored.
        let mut fast = RttEstimator::new();
        fast.on_sample(ms(10));
        assert_eq!(fast.rto(), ms(200));

        // (5.5) back-off doubles per expiry, capped at 2^16 ...
        for k in 1..=16u32 {
            est.on_rto_fired();
            assert_eq!(est.rto(), us(362_500) * (1u64 << k), "after {k} expiries");
        }
        est.on_rto_fired();
        assert_eq!(est.backoff(), 16);
        assert_eq!(est.rto(), us(362_500) * 65_536, "the cap holds");
        // ... and a fresh sample clears it: RTTVAR = 3/4·62.5 +
        // 1/4·|112.5 − 112.5| = 46.875 ms, SRTT stays 112.5 ms,
        // RTO = 112.5 + 4·46.875 = 300 ms.
        est.on_sample(us(112_500));
        assert_eq!(est.backoff(), 0);
        assert_eq!(est.rttvar, us(46_875));
        assert_eq!(est.srtt(), Some(us(112_500)));
        assert_eq!(est.rto(), ms(300));
    }

    #[test]
    fn min_rtt_tracks_minimum() {
        let mut est = RttEstimator::new();
        est.on_sample(SimDuration::from_millis(80));
        est.on_sample(SimDuration::from_millis(40));
        est.on_sample(SimDuration::from_millis(120));
        assert_eq!(est.min_rtt(), SimDuration::from_millis(40));
    }

    #[test]
    fn variance_raises_rto() {
        let mut est = RttEstimator::new();
        for i in 0..50 {
            let ms = if i % 2 == 0 { 50 } else { 150 };
            est.on_sample(SimDuration::from_millis(ms));
        }
        // High jitter must push RTO well above srtt.
        assert!(est.rto() > SimDuration::from_millis(200));
    }
}
