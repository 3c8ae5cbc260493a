//! The four emulated access networks of the paper's Table 2.
//!
//! | Network | Uplink | Downlink | min. RTT | Loss | Queue |
//! |---------|--------|----------|----------|------|-------|
//! | DSL     | 5 Mbps | 25 Mbps  | 24 ms    | 0 %  | 12 ms |
//! | LTE     | 2.8 Mbps | 10.5 Mbps | 74 ms | 0 %  | 200 ms |
//! | DA2GC   | 0.468 Mbps | 0.468 Mbps | 262 ms | 3.3 % | 200 ms |
//! | MSS     | 1.89 Mbps | 1.89 Mbps | 760 ms | 6.0 % | 200 ms |
//!
//! DSL and LTE are the German household/mobile medians used by the
//! paper; DA2GC and MSS are the two "bad" in-flight WiFi networks from
//! Rula et al. (WWW'18).

use crate::link::LinkConfig;
use crate::time::SimDuration;

/// The four network settings of the user study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetworkKind {
    /// Median German household broadband.
    Dsl,
    /// Median German mobile network.
    Lte,
    /// In-flight WiFi, direct-air-to-ground-cellular backhaul.
    Da2gc,
    /// In-flight WiFi, mobile-satellite-service backhaul.
    Mss,
}

impl NetworkKind {
    /// All four settings, in the paper's column order.
    pub const ALL: [NetworkKind; 4] = [
        NetworkKind::Dsl,
        NetworkKind::Lte,
        NetworkKind::Da2gc,
        NetworkKind::Mss,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            NetworkKind::Dsl => "DSL",
            NetworkKind::Lte => "LTE",
            NetworkKind::Da2gc => "DA2GC",
            NetworkKind::Mss => "MSS",
        }
    }

    /// The two in-flight networks are the "plane" environment of the
    /// rating study; DSL/LTE appear in the work and free-time settings.
    pub fn is_inflight(self) -> bool {
        matches!(self, NetworkKind::Da2gc | NetworkKind::Mss)
    }

    /// Emulation parameters (Table 2).
    pub fn config(self) -> NetworkConfig {
        match self {
            NetworkKind::Dsl => NetworkConfig {
                kind: self,
                up_bps: 5_000_000,
                down_bps: 25_000_000,
                min_rtt: SimDuration::from_millis(24),
                loss: 0.0,
                queue_ms: 12,
            },
            NetworkKind::Lte => NetworkConfig {
                kind: self,
                up_bps: 2_800_000,
                down_bps: 10_500_000,
                min_rtt: SimDuration::from_millis(74),
                loss: 0.0,
                queue_ms: 200,
            },
            NetworkKind::Da2gc => NetworkConfig {
                kind: self,
                up_bps: 468_000,
                down_bps: 468_000,
                min_rtt: SimDuration::from_millis(262),
                loss: 0.033,
                queue_ms: 200,
            },
            NetworkKind::Mss => NetworkConfig {
                kind: self,
                up_bps: 1_890_000,
                down_bps: 1_890_000,
                min_rtt: SimDuration::from_millis(760),
                loss: 0.060,
                queue_ms: 200,
            },
        }
    }
}

impl std::fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full parameter set for one emulated network.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Which preset this is.
    pub kind: NetworkKind,
    /// Uplink rate, bits per second.
    pub up_bps: u64,
    /// Downlink rate, bits per second.
    pub down_bps: u64,
    /// Minimum round-trip time (split evenly between the directions).
    pub min_rtt: SimDuration,
    /// i.i.d. random loss probability, applied per direction.
    pub loss: f64,
    /// Drop-tail queue budget in milliseconds at line rate.
    pub queue_ms: u64,
}

impl NetworkConfig {
    /// Validate this configuration, returning it unchanged when every
    /// parameter is usable. Rejected: zero bandwidth in either
    /// direction, loss outside `[0, 1]` or NaN. Use this at every
    /// boundary that accepts user-supplied (`custom_net`-style)
    /// parameters — the presets in [`NetworkKind::config`] are valid by
    /// construction.
    pub fn checked(self) -> Result<NetworkConfig, pq_fault::PqError> {
        fn bad(msg: String) -> pq_fault::PqError {
            pq_fault::PqError::InvalidConfig(msg)
        }
        if self.up_bps == 0 {
            return Err(bad("uplink bandwidth must be > 0 bps".into()));
        }
        if self.down_bps == 0 {
            return Err(bad("downlink bandwidth must be > 0 bps".into()));
        }
        if !self.loss.is_finite() || !(0.0..=1.0).contains(&self.loss) {
            return Err(bad(format!(
                "loss {} must be a probability in [0,1]",
                self.loss
            )));
        }
        Ok(self)
    }

    /// Clamp this configuration to usable values: a zero bandwidth to
    /// 1 kbit/s, a loss outside `[0, 1]` to the nearer bound and a NaN
    /// loss to 0. This is the graceful-degradation path for
    /// `custom_net`-style configs: prefer [`checked`] where an error
    /// can be surfaced instead.
    ///
    /// [`checked`]: NetworkConfig::checked
    pub fn sanitized(mut self) -> NetworkConfig {
        if self.up_bps == 0 {
            self.up_bps = 1000;
        }
        if self.down_bps == 0 {
            self.down_bps = 1000;
        }
        if !self.loss.is_finite() || self.loss < 0.0 {
            self.loss = 0.0;
        } else if self.loss > 1.0 {
            self.loss = 1.0;
        }
        self
    }

    /// Link config for the uplink direction.
    pub fn uplink(&self) -> LinkConfig {
        LinkConfig::with_queue_ms(self.up_bps, self.min_rtt / 2, self.loss, self.queue_ms)
    }

    /// Link config for the downlink direction.
    pub fn downlink(&self) -> LinkConfig {
        LinkConfig::with_queue_ms(self.down_bps, self.min_rtt / 2, self.loss, self.queue_ms)
    }

    /// Bandwidth-delay product of the downlink in bytes — what the
    /// paper tunes TCP+ socket buffers to.
    pub fn bdp_bytes(&self) -> u64 {
        (self.down_bps as f64 / 8.0 * self.min_rtt.as_secs_f64()) as u64
    }

    /// The client-side path segment of an edge topology: the paper's
    /// access network (same bandwidth, loss and queue budget) carrying
    /// `client_share` of the end-to-end minimum RTT. The edge node
    /// (proxy or middlebox) sits at the far end of this segment.
    ///
    /// `client_share` is clamped to `[0.05, 0.95]` so neither segment
    /// degenerates to zero propagation delay.
    pub fn client_segment(&self, client_share: f64) -> NetworkConfig {
        let share = clamp_share(client_share);
        NetworkConfig {
            min_rtt: SimDuration::from_secs_f64(self.min_rtt.as_secs_f64() * share),
            ..self.clone()
        }
    }

    /// The origin-side path segment of an edge topology: the backbone
    /// between the edge node and the origins. Well provisioned —
    /// `backbone_bps` in both directions, zero random loss, the
    /// remaining `1 - client_share` of the minimum RTT, and the same
    /// queue budget as the access network.
    pub fn origin_segment(&self, client_share: f64, backbone_bps: u64) -> NetworkConfig {
        let share = clamp_share(client_share);
        NetworkConfig {
            up_bps: backbone_bps.max(1000),
            down_bps: backbone_bps.max(1000),
            min_rtt: SimDuration::from_secs_f64(self.min_rtt.as_secs_f64() * (1.0 - share)),
            loss: 0.0,
            ..self.clone()
        }
    }
}

/// Clamp an RTT share to `[0.05, 0.95]`; NaN falls back to 0.2 (the
/// edge default) rather than poisoning the propagation delays.
fn clamp_share(share: f64) -> f64 {
    if share.is_nan() {
        0.2
    } else {
        share.clamp(0.05, 0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let dsl = NetworkKind::Dsl.config();
        assert_eq!(dsl.up_bps, 5_000_000);
        assert_eq!(dsl.down_bps, 25_000_000);
        assert_eq!(dsl.min_rtt, SimDuration::from_millis(24));
        assert_eq!(dsl.loss, 0.0);
        assert_eq!(dsl.queue_ms, 12);

        let mss = NetworkKind::Mss.config();
        assert_eq!(mss.up_bps, 1_890_000);
        assert!((mss.loss - 0.06).abs() < 1e-12);
        assert_eq!(mss.min_rtt, SimDuration::from_millis(760));
    }

    #[test]
    fn rtt_splits_between_directions() {
        let lte = NetworkKind::Lte.config();
        let one_way = lte.uplink().prop_delay + lte.downlink().prop_delay;
        assert_eq!(one_way, lte.min_rtt);
    }

    #[test]
    fn inflight_flag() {
        assert!(!NetworkKind::Dsl.is_inflight());
        assert!(!NetworkKind::Lte.is_inflight());
        assert!(NetworkKind::Da2gc.is_inflight());
        assert!(NetworkKind::Mss.is_inflight());
    }

    #[test]
    fn bdp_is_sane() {
        // DSL: 25 Mbps × 24 ms = 75 kB.
        assert_eq!(NetworkKind::Dsl.config().bdp_bytes(), 75_000);
        // DA2GC: 0.468 Mbps × 262 ms ≈ 15.3 kB — note this is ~10
        // segments, which is why IW32 overshoots there (§4.3).
        let bdp = NetworkKind::Da2gc.config().bdp_bytes();
        assert!((15_000..16_000).contains(&bdp), "bdp {bdp}");
    }

    #[test]
    fn checked_accepts_all_presets() {
        for kind in NetworkKind::ALL {
            assert!(kind.config().checked().is_ok(), "{kind} preset invalid?");
        }
    }

    #[test]
    fn checked_rejects_degenerate_configs() {
        let base = NetworkKind::Dsl.config();
        let mut zero_up = base.clone();
        zero_up.up_bps = 0;
        assert!(zero_up.checked().is_err());
        let mut zero_down = base.clone();
        zero_down.down_bps = 0;
        assert!(zero_down.checked().is_err());
        let mut nan_loss = base.clone();
        nan_loss.loss = f64::NAN;
        assert!(nan_loss.checked().is_err());
        let mut neg_loss = base.clone();
        neg_loss.loss = -0.1;
        assert!(neg_loss.checked().is_err());
        let mut big_loss = base;
        big_loss.loss = 1.5;
        assert!(big_loss.checked().is_err());
    }

    #[test]
    fn sanitized_clamps_into_range() {
        let mut cfg = NetworkKind::Lte.config();
        cfg.up_bps = 0;
        cfg.loss = 2.0;
        let fixed = cfg.sanitized();
        assert_eq!(fixed.up_bps, 1000);
        assert_eq!(fixed.loss, 1.0);
        assert!(fixed.checked().is_ok());
        let mut nan = NetworkKind::Lte.config();
        nan.loss = f64::NAN;
        assert_eq!(nan.sanitized().loss, 0.0);
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = NetworkKind::ALL.iter().map(|n| n.name()).collect();
        assert_eq!(names, vec!["DSL", "LTE", "DA2GC", "MSS"]);
    }

    #[test]
    fn edge_segments_split_the_rtt() {
        let net = NetworkKind::Dsl.config();
        let client = net.client_segment(0.2);
        let origin = net.origin_segment(0.2, 1_000_000_000);
        // RTT shares sum to the end-to-end minimum RTT.
        let total = client.min_rtt.as_secs_f64() + origin.min_rtt.as_secs_f64();
        assert!((total - net.min_rtt.as_secs_f64()).abs() < 1e-12);
        // The client segment keeps the access network's character …
        assert_eq!(client.up_bps, net.up_bps);
        assert_eq!(client.down_bps, net.down_bps);
        assert_eq!(client.loss, net.loss);
        assert_eq!(client.queue_ms, net.queue_ms);
        // … while the backbone is clean and fat.
        assert_eq!(origin.up_bps, 1_000_000_000);
        assert_eq!(origin.down_bps, 1_000_000_000);
        assert_eq!(origin.loss, 0.0);
        assert!(client.checked().is_ok() && origin.checked().is_ok());
    }

    #[test]
    fn edge_segment_share_is_clamped() {
        let net = NetworkKind::Lte.config();
        let rtt = net.min_rtt.as_secs_f64();
        assert!(net.client_segment(0.0).min_rtt.as_secs_f64() >= 0.05 * rtt - 1e-12);
        assert!(net.client_segment(2.0).min_rtt.as_secs_f64() <= 0.95 * rtt + 1e-12);
        let nan = net.client_segment(f64::NAN);
        assert!((nan.min_rtt.as_secs_f64() - 0.2 * rtt).abs() < 1e-12);
        // A zero-bandwidth backbone is clamped to a usable floor.
        assert!(net.origin_segment(0.2, 0).up_bps >= 1000);
    }
}
