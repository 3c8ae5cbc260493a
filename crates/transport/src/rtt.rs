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
