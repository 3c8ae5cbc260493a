//! Congestion control: the trait plus the two algorithms the paper
//! compares (Cubic everywhere, BBRv1 in the `+BBR` variants).

use crate::rate::RateSample;
use pq_sim::{SimDuration, SimTime};

pub mod bbr;
pub mod cubic;

pub use bbr::Bbr;
pub use cubic::Cubic;

/// Everything a congestion controller learns from one ACK.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Arrival time of the ACK.
    pub now: SimTime,
    /// Bytes newly acknowledged (cumulative + selective).
    pub acked_bytes: u64,
    /// RTT sample, when the ACK covers a non-retransmitted packet.
    pub rtt: Option<SimDuration>,
    /// Current smoothed RTT.
    pub srtt: Option<SimDuration>,
    /// Minimum observed RTT.
    pub min_rtt: Option<SimDuration>,
    /// Delivery-rate sample (see [`crate::rate`]).
    pub rate: Option<RateSample>,
    /// Bytes still in flight *after* processing this ACK.
    pub in_flight: u64,
}

/// A pluggable congestion-control algorithm.
///
/// All quantities are bytes. Implementations are pure state machines:
/// the sender tells them what happened and reads back `cwnd()` and
/// `pacing_rate_bps()`.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Process an ACK.
    fn on_ack(&mut self, ack: &AckInfo);

    /// A loss-triggered congestion event (at most once per recovery
    /// episode — the sender debounces).
    fn on_congestion_event(&mut self, now: SimTime, in_flight: u64);

    /// A retransmission timeout fired.
    fn on_rto(&mut self, now: SimTime);

    /// The rate at which packets should leave, in *bytes per second*,
    /// or `None` when the algorithm does not dictate one (the sender
    /// then applies the generic `factor × cwnd / srtt` rule if pacing
    /// is enabled).
    fn pacing_rate(&self, srtt: Option<SimDuration>) -> Option<f64>;

    /// True while the algorithm is in its slow-start/startup phase
    /// (drives the pacing factor: Linux paces at 2× in slow start).
    fn in_slow_start(&self) -> bool;

    /// Algorithm name for traces and reports.
    fn name(&self) -> &'static str;

    /// Slow-start threshold in bytes, when the algorithm maintains one
    /// (Cubic); `None` otherwise (BBR has no ssthresh). Reported in
    /// each ACK sample ([`crate::ConnEventKind::Ack`]).
    fn ssthresh(&self) -> Option<u64> {
        None
    }

    /// Clamp the window (used by idle-restart: `cwnd = min(cwnd, IW)`).
    fn clamp_cwnd(&mut self, max_cwnd: u64);
}

/// Which algorithm to instantiate (Table 1 column "congestion control").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// CUBIC (RFC 8312) — default for both Linux TCP and gQUIC.
    Cubic,
    /// BBRv1 — the paper's `TCP+BBR` / `QUIC+BBR` variants
    /// ("BBRv2 was not yet available at the time of testing").
    Bbr,
}

impl CcAlgorithm {
    /// Instantiate with the given MSS and initial window (bytes).
    /// `cubic_connections` is gQUIC's N-connection emulation knob
    /// (1 for TCP, 2 for gQUIC); BBR ignores it.
    pub fn build(
        self,
        mss: u64,
        initial_window: u64,
        cubic_connections: u32,
    ) -> Box<dyn CongestionControl> {
        match self {
            CcAlgorithm::Cubic => Box::new(Cubic::new_with(mss, initial_window, cubic_connections)),
            CcAlgorithm::Bbr => Box::new(Bbr::new(mss, initial_window)),
        }
    }

    /// Display name used in protocol labels.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgorithm::Cubic => "Cubic",
            CcAlgorithm::Bbr => "BBRv1",
        }
    }
}

/// A sliding windowed-maximum filter keyed by an increasing "round"
/// counter; BBR uses it for the bottleneck-bandwidth estimate.
#[derive(Clone, Debug, Default)]
pub struct MaxFilter {
    window: u64,
    /// Monotonic deque of `(round, value)`, values strictly decreasing.
    samples: std::collections::VecDeque<(u64, f64)>,
}

impl MaxFilter {
    /// A filter remembering maxima over the last `window` rounds.
    pub fn new(window: u64) -> Self {
        MaxFilter {
            window,
            samples: std::collections::VecDeque::new(),
        }
    }

    /// Feed a sample observed at `round`.
    pub fn update(&mut self, round: u64, value: f64) {
        while let Some(&(r, _)) = self.samples.front() {
            if r + self.window <= round {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        while let Some(&(_, v)) = self.samples.back() {
            if v <= value {
                self.samples.pop_back();
            } else {
                break;
            }
        }
        self.samples.push_back((round, value));
    }

    /// Current windowed maximum (0.0 when empty).
    pub fn get(&self, current_round: u64) -> f64 {
        self.samples
            .iter()
            .find(|&&(r, _)| r + self.window > current_round)
            .map_or(0.0, |&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_filter_tracks_max() {
        let mut f = MaxFilter::new(3);
        f.update(0, 10.0);
        f.update(1, 5.0);
        assert_eq!(f.get(1), 10.0);
        f.update(2, 7.0);
        assert_eq!(f.get(2), 10.0);
        // Round 3: the round-0 sample ages out.
        f.update(3, 1.0);
        assert_eq!(f.get(3), 7.0);
    }

    #[test]
    fn max_filter_new_max_replaces() {
        let mut f = MaxFilter::new(10);
        f.update(0, 3.0);
        f.update(1, 9.0);
        assert_eq!(f.get(1), 9.0);
    }

    #[test]
    fn max_filter_empty_is_zero() {
        let f = MaxFilter::new(5);
        assert_eq!(f.get(0), 0.0);
    }

    #[test]
    fn builder_names() {
        assert_eq!(CcAlgorithm::Cubic.name(), "Cubic");
        assert_eq!(CcAlgorithm::Bbr.name(), "BBRv1");
        let cc = CcAlgorithm::Cubic.build(1460, 14_600, 1);
        assert_eq!(cc.cwnd(), 14_600);
        assert_eq!(cc.name(), "Cubic");
        let cc = CcAlgorithm::Bbr.build(1460, 46_720, 2);
        assert_eq!(cc.cwnd(), 46_720);
    }
}
