//! Property-based tests for the fault injector.

use std::sync::Arc;

use pq_fault::{derive_seed, FaultPlan, FaultRng, GeConfig, LoadFaults};
use proptest::prelude::*;

/// Drive a standalone Gilbert–Elliott chain (the same update rule
/// `LinkFault::lose` uses) and return the measured loss rate.
fn measured_loss(cfg: GeConfig, seed: u64, packets: u64) -> f64 {
    let mut rng = FaultRng::new(seed);
    let mut bad = false;
    let mut lost = 0u64;
    for _ in 0..packets {
        if rng.chance(if bad { cfg.p_bg } else { cfg.p_gb }) {
            bad = !bad;
        }
        if rng.chance(if bad { cfg.loss_bad } else { cfg.loss_good }) {
            lost += 1;
        }
    }
    lost as f64 / packets as f64
}

proptest! {
    /// The Gilbert–Elliott chain's long-run loss rate converges to
    /// its configured stationary rate
    /// `π_bad·loss_bad + π_good·loss_good`.
    #[test]
    fn ge_long_run_loss_converges_to_stationary(
        p_gb in 0.02f64..0.5,
        p_bg in 0.05f64..0.8,
        loss_good in 0.0f64..0.05,
        loss_bad in 0.2f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let cfg = GeConfig { p_gb, p_bg, loss_good, loss_bad };
        let expect = cfg.stationary_loss();
        let got = measured_loss(cfg, seed, 200_000);
        // Mixing is fast for these transition ranges; a 3-point
        // absolute band over 200k packets is comfortably wide.
        prop_assert!(
            (got - expect).abs() < 0.03,
            "measured {got:.4} vs stationary {expect:.4} (cfg {cfg:?})"
        );
    }

    /// The full spec→plan→LinkFault path agrees with the stationary
    /// rate too (flap off, so only the GE chain acts).
    #[test]
    fn link_fault_loss_matches_stationary(seed in 0u64..100_000) {
        let plan = FaultPlan::parse("gel:pgb=0.05,pbg=0.3,good=0.01,bad=0.6").unwrap();
        let expect = plan.ge.unwrap().stationary_loss();
        let faults = LoadFaults::new(Arc::new(plan), seed);
        let mut lf = faults.link_fault("downlink").unwrap();
        let packets = 100_000u64;
        let lost = (0..packets).filter(|i| lf.lose(i * 1_000_000)).count();
        let got = lost as f64 / packets as f64;
        prop_assert!(
            (got - expect).abs() < 0.04,
            "measured {got:.4} vs stationary {expect:.4}"
        );
        prop_assert_eq!(lf.injected(), lost as u64);
    }

    /// Seed derivation is injective-in-practice over close inputs:
    /// no collisions among neighbouring (base, idx) pairs.
    #[test]
    fn derive_seed_has_no_local_collisions(base in 0u64..1_000_000) {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..64u64 {
            for label in ["load", "stall", "trunc", "hs", "link"] {
                prop_assert!(
                    seen.insert(derive_seed(base, label, idx)),
                    "collision at base={base} label={label} idx={idx}"
                );
            }
        }
    }

    /// Fault decisions are a pure function of (plan seed, load seed,
    /// object id): two independently constructed views agree.
    #[test]
    fn load_fault_decisions_are_reproducible(
        plan_seed in 0u64..1_000_000,
        load_seed in 0u64..1_000_000,
    ) {
        let spec = format!("seed={plan_seed};stall:p=0.3,ms=250;trunc:p=0.2;hs:p=0.4");
        let a = LoadFaults::new(Arc::new(FaultPlan::parse(&spec).unwrap()), load_seed);
        let b = LoadFaults::new(Arc::new(FaultPlan::parse(&spec).unwrap()), load_seed);
        for obj in 0..32u32 {
            prop_assert_eq!(a.server_stall_ms(obj), b.server_stall_ms(obj));
            prop_assert_eq!(a.truncate(obj), b.truncate(obj));
            prop_assert_eq!(a.handshake_flight_lost(obj), b.handshake_flight_lost(obj));
        }
    }
}
