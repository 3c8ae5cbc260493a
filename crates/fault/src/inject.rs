//! The injector state machines the pipeline layers consult.
//!
//! Two handles exist:
//!
//! * [`LinkFault`] — mutable per-link state (Gilbert–Elliott chain,
//!   flap window) owned by one `Link` inside a single simulated page
//!   load. Seeded per link direction.
//! * [`LoadFaults`] — an immutable per-page-load view over the plan;
//!   every query (`server_stall_ms`, `truncate`, …) derives a fresh
//!   RNG from `(plan seed, load seed, entity id)`, so decisions are
//!   order-independent and identical at any worker count.

use std::sync::Arc;

use crate::rng::{derive_seed, fnv1a, FaultRng};
use crate::spec::{FaultPlan, GeConfig};

/// Per-link fault state: advanced once per transmitted packet and
/// consulted for extra (fault-induced) loss.
#[derive(Debug)]
pub struct LinkFault {
    ge: Option<GeState>,
    flap: Option<crate::spec::FlapConfig>,
    injected: u64,
}

#[derive(Debug)]
struct GeState {
    cfg: GeConfig,
    bad: bool,
    rng: FaultRng,
}

impl LinkFault {
    fn new(plan: &FaultPlan, rng: FaultRng) -> LinkFault {
        LinkFault {
            ge: plan.ge.map(|cfg| GeState {
                cfg,
                bad: false,
                rng,
            }),
            flap: plan.flap,
            injected: 0,
        }
    }

    /// Decide whether the packet completing transmission at `now_ns`
    /// is lost to an injected fault. Advances the Gilbert–Elliott
    /// chain exactly once per call regardless of the flap state, so
    /// the loss pattern after an outage window is independent of the
    /// window's placement.
    pub fn lose(&mut self, now_ns: u64) -> bool {
        // Advance the GE chain first (unconditionally).
        let ge_lost = match &mut self.ge {
            Some(st) => {
                let flip = st
                    .rng
                    .chance(if st.bad { st.cfg.p_bg } else { st.cfg.p_gb });
                if flip {
                    st.bad = !st.bad;
                }
                st.rng.chance(if st.bad {
                    st.cfg.loss_bad
                } else {
                    st.cfg.loss_good
                })
            }
            None => false,
        };
        let flapped = self.in_flap(now_ns);
        let lost = ge_lost || flapped;
        if lost {
            self.injected += 1;
        }
        lost
    }

    fn in_flap(&self, now_ns: u64) -> bool {
        let Some(f) = &self.flap else {
            return false;
        };
        let t_ms = now_ns as f64 / 1e6;
        if f.period_ms > 0.0 {
            let phase = (t_ms - f.at_ms).rem_euclid(f.period_ms);
            t_ms >= f.at_ms && phase < f.dur_ms
        } else {
            t_ms >= f.at_ms && t_ms < f.at_ms + f.dur_ms
        }
    }

    /// Packets lost to injected faults so far on this link.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// Immutable per-page-load fault view. Cheap to clone (one `Arc` +
/// one `u64`); every decision derives its own RNG so queries are
/// pure functions of `(plan seed, load seed, entity)`.
#[derive(Debug, Clone)]
pub struct LoadFaults {
    plan: Arc<FaultPlan>,
    key: u64,
}

impl LoadFaults {
    /// Bind a plan to one page load, keyed by that load's run seed.
    #[must_use]
    pub fn new(plan: Arc<FaultPlan>, load_seed: u64) -> LoadFaults {
        let key = derive_seed(plan.seed, "load", load_seed);
        LoadFaults { plan, key }
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// Build the per-link fault state for the link direction `dir`
    /// (e.g. `"uplink"` / `"downlink"`), or `None` when the plan has
    /// no link-level faults.
    #[must_use]
    pub fn link_fault(&self, dir: &str) -> Option<LinkFault> {
        if !self.plan.has_link_faults() {
            return None;
        }
        Some(LinkFault::new(
            &self.plan,
            FaultRng::derived(self.key, "link", fnv1a(dir.bytes())),
        ))
    }

    /// Extra server think time (ms) injected for object `obj`, if it
    /// is stalled. The stall length jitters in `[0.5, 1.5) · ms`.
    #[must_use]
    pub fn server_stall_ms(&self, obj: u32) -> Option<f64> {
        let s = self.plan.stall?;
        let mut rng = FaultRng::derived(self.key, "stall", u64::from(obj));
        if rng.chance(s.p) {
            Some(s.ms * (0.5 + rng.f64()))
        } else {
            None
        }
    }

    /// Whether object `obj`'s response is truncated; returns the
    /// fraction of the body actually served.
    #[must_use]
    pub fn truncate(&self, obj: u32) -> Option<f64> {
        let t = self.plan.trunc?;
        let mut rng = FaultRng::derived(self.key, "trunc", u64::from(obj));
        if rng.chance(t.p) {
            Some(t.frac)
        } else {
            None
        }
    }

    /// Whether connection number `conn` (per-load index) loses its
    /// first client flight.
    #[must_use]
    pub fn handshake_flight_lost(&self, conn: u32) -> bool {
        let Some(h) = self.plan.hs else {
            return false;
        };
        let mut rng = FaultRng::derived(self.key, "hs", u64::from(conn));
        rng.chance(h.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultPlan;

    fn faults(spec: &str, load_seed: u64) -> LoadFaults {
        LoadFaults::new(Arc::new(FaultPlan::parse(spec).unwrap()), load_seed)
    }

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let f = faults("stall:p=0.5,ms=100;trunc:p=0.5;hs:p=0.5", 42);
        // Query out of order, twice — answers must match.
        let a: Vec<_> = (0..16).rev().map(|o| f.server_stall_ms(o)).collect();
        let mut b: Vec<_> = (0..16).map(|o| f.server_stall_ms(o)).collect();
        b.reverse();
        assert_eq!(a, b);
        assert_eq!(f.truncate(3), f.truncate(3));
        assert_eq!(f.handshake_flight_lost(1), f.handshake_flight_lost(1));
    }

    #[test]
    fn load_seed_changes_decisions() {
        let spec = "stall:p=0.5,ms=100";
        let a: Vec<_> = (0..64)
            .map(|o| faults(spec, 1).server_stall_ms(o).is_some())
            .collect();
        let b: Vec<_> = (0..64)
            .map(|o| faults(spec, 2).server_stall_ms(o).is_some())
            .collect();
        assert_ne!(a, b, "different load seeds must differ somewhere");
    }

    #[test]
    fn stall_magnitude_jitters_around_ms() {
        let f = faults("stall:p=1.0,ms=1000", 7);
        for o in 0..32 {
            let ms = f.server_stall_ms(o).unwrap();
            assert!((500.0..1500.0).contains(&ms), "stall {ms}");
        }
    }

    #[test]
    fn link_fault_only_with_link_clauses() {
        assert!(faults("stall:p=0.1,ms=10", 1)
            .link_fault("uplink")
            .is_none());
        assert!(faults("gel:pgb=0.1", 1).link_fault("uplink").is_some());
        assert!(faults("flap:at=100,dur=50", 1)
            .link_fault("downlink")
            .is_some());
    }

    #[test]
    fn flap_window_one_shot_and_periodic() {
        let f = faults("flap:at=100,dur=50", 1);
        let mut lf = f.link_fault("d").unwrap();
        let ms = |m: f64| (m * 1e6) as u64;
        assert!(!lf.lose(ms(50.0)));
        assert!(lf.lose(ms(120.0)), "inside one-shot window");
        assert!(!lf.lose(ms(200.0)), "after the window");
        assert!(!lf.lose(ms(1200.0)), "one-shot never repeats");
        assert_eq!(lf.injected(), 1);

        let p = faults("flap:at=100,dur=50,period=1000", 1);
        let mut lfp = p.link_fault("d").unwrap();
        assert!(lfp.lose(ms(120.0)), "first window");
        assert!(!lfp.lose(ms(200.0)), "between windows");
        assert!(lfp.lose(ms(1120.0)), "second window (period)");
    }

    #[test]
    fn ge_chain_visits_both_states() {
        let f = faults("gel:pgb=0.2,pbg=0.2,good=0.0,bad=1.0", 3);
        let mut lf = f.link_fault("d").unwrap();
        let losses = (0..2000).filter(|i| lf.lose(i * 1_000_000)).count();
        // pi_bad = 0.5 with loss_bad=1 → about half the packets die.
        assert!(losses > 500 && losses < 1500, "losses {losses}");
        assert_eq!(lf.injected() as usize, losses);
    }
}
