//! `PQ_FAULTS` spec grammar: parsing and validation.
//!
//! A spec is a semicolon-separated list of clauses. Each clause is
//! either the bare `seed=N` or `name:key=value,key=value,...`. All
//! times are milliseconds, all probabilities live in `[0, 1]`. See
//! the crate docs for the full grammar table.

use crate::error::PqError;

/// Default fault seed when the spec doesn't pin one.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA017;

/// Gilbert–Elliott burst-loss parameters (2-state Markov chain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeConfig {
    /// P(good → bad) per packet.
    pub p_gb: f64,
    /// P(bad → good) per packet.
    pub p_bg: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GeConfig {
    /// Long-run (stationary) loss rate of the chain:
    /// `π_bad · loss_bad + π_good · loss_good` with
    /// `π_bad = p_gb / (p_gb + p_bg)`.
    #[must_use]
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_gb + self.p_bg;
        if denom <= 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_gb / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// Mid-load link outage window(s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapConfig {
    /// Outage start, ms after load start.
    pub at_ms: f64,
    /// Outage duration in ms.
    pub dur_ms: f64,
    /// Repeat period in ms (`0` = one-shot outage).
    pub period_ms: f64,
}

/// Per-object server think-time stall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallConfig {
    /// Probability an object is stalled.
    pub p: f64,
    /// Mean extra think time in ms for a stalled object.
    pub ms: f64,
}

/// Truncated response body: a faulted object's body is cut short and
/// never completes, leaving the page load incomplete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncConfig {
    /// Probability an object's response is truncated.
    pub p: f64,
    /// Fraction of the body actually served (default `0.5`).
    pub frac: f64,
}

/// Handshake fault: the first client flight of a connection is lost,
/// forcing the transport's own handshake-timeout + backoff machinery
/// to recover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HsConfig {
    /// Probability a connection's first flight is lost.
    pub p: f64,
}

/// A parsed, validated fault plan. All fault classes are optional;
/// an empty plan ([`FaultPlan::is_empty`]) injects nothing and counts
/// as no plan everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fault seed folded into every decision.
    pub seed: u64,
    /// The original spec string (recorded in the run manifest).
    pub spec: String,
    /// Gilbert–Elliott burst loss on link directions.
    pub ge: Option<GeConfig>,
    /// Link outage window(s).
    pub flap: Option<FlapConfig>,
    /// Server think-time stalls.
    pub stall: Option<StallConfig>,
    /// Truncated responses.
    pub trunc: Option<TruncConfig>,
    /// Handshake first-flight loss.
    pub hs: Option<HsConfig>,
}

fn prob(name: &str, key: &str, v: f64) -> Result<f64, PqError> {
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(PqError::InvalidFaultSpec(format!(
            "{name}: {key}={v} must be a probability in [0,1]"
        )));
    }
    Ok(v)
}

fn pos(name: &str, key: &str, v: f64) -> Result<f64, PqError> {
    if !v.is_finite() || v <= 0.0 {
        return Err(PqError::InvalidFaultSpec(format!(
            "{name}: {key}={v} must be finite and > 0"
        )));
    }
    Ok(v)
}

fn nonneg(name: &str, key: &str, v: f64) -> Result<f64, PqError> {
    if !v.is_finite() || v < 0.0 {
        return Err(PqError::InvalidFaultSpec(format!(
            "{name}: {key}={v} must be finite and >= 0"
        )));
    }
    Ok(v)
}

/// Parsed key/value pairs of one clause.
struct Args<'a> {
    name: &'a str,
    pairs: Vec<(&'a str, f64)>,
}

impl<'a> Args<'a> {
    fn parse(name: &'a str, body: &'a str) -> Result<Self, PqError> {
        let mut pairs = Vec::new();
        for kv in body.split(',').filter(|s| !s.trim().is_empty()) {
            let (k, v) = kv.split_once('=').ok_or_else(|| {
                PqError::InvalidFaultSpec(format!("{name}: expected key=value, got `{kv}`"))
            })?;
            let val: f64 = v.trim().parse().map_err(|_| {
                PqError::InvalidFaultSpec(format!("{name}: `{}` is not a number", v.trim()))
            })?;
            pairs.push((k.trim(), val));
        }
        Ok(Args { name, pairs })
    }

    fn get(&self, key: &str) -> Option<f64> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn require(&self, key: &str) -> Result<f64, PqError> {
        self.get(key).ok_or_else(|| {
            PqError::InvalidFaultSpec(format!("{}: missing required key `{key}`", self.name))
        })
    }

    fn check_known(&self, known: &[&str]) -> Result<(), PqError> {
        for (k, _) in &self.pairs {
            if !known.contains(k) {
                return Err(PqError::InvalidFaultSpec(format!(
                    "{}: unknown key `{k}` (expected one of {})",
                    self.name,
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

impl FaultPlan {
    /// Parse a `PQ_FAULTS` spec string. Unknown clauses or keys,
    /// non-numeric values, and out-of-range probabilities are all
    /// hard errors — a chaos run with a typo'd spec must not silently
    /// inject the wrong faults.
    pub fn parse(spec: &str) -> Result<FaultPlan, PqError> {
        let mut plan = FaultPlan {
            seed: DEFAULT_FAULT_SEED,
            spec: spec.trim().to_string(),
            ge: None,
            flap: None,
            stall: None,
            trunc: None,
            hs: None,
        };
        for clause in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(v) = clause.strip_prefix("seed=") {
                plan.seed = v.trim().parse().map_err(|_| {
                    PqError::InvalidFaultSpec(format!("seed: `{}` is not a u64", v.trim()))
                })?;
                continue;
            }
            let (name, body) = clause.split_once(':').ok_or_else(|| {
                PqError::InvalidFaultSpec(format!(
                    "`{clause}` is not `name:key=value,...` or `seed=N`"
                ))
            })?;
            let name = name.trim();
            let args = Args::parse(name, body)?;
            match name {
                "gel" => {
                    args.check_known(&["pgb", "pbg", "good", "bad"])?;
                    plan.ge = Some(GeConfig {
                        p_gb: prob(name, "pgb", args.get("pgb").unwrap_or(0.01))?,
                        p_bg: prob(name, "pbg", args.get("pbg").unwrap_or(0.25))?,
                        loss_good: prob(name, "good", args.get("good").unwrap_or(0.0))?,
                        loss_bad: prob(name, "bad", args.get("bad").unwrap_or(0.3))?,
                    });
                }
                "flap" => {
                    args.check_known(&["at", "dur", "period"])?;
                    plan.flap = Some(FlapConfig {
                        at_ms: nonneg(name, "at", args.require("at")?)?,
                        dur_ms: pos(name, "dur", args.require("dur")?)?,
                        period_ms: nonneg(name, "period", args.get("period").unwrap_or(0.0))?,
                    });
                }
                "stall" => {
                    args.check_known(&["p", "ms"])?;
                    plan.stall = Some(StallConfig {
                        p: prob(name, "p", args.require("p")?)?,
                        ms: pos(name, "ms", args.require("ms")?)?,
                    });
                }
                "trunc" => {
                    args.check_known(&["p", "frac"])?;
                    plan.trunc = Some(TruncConfig {
                        p: prob(name, "p", args.require("p")?)?,
                        frac: prob(name, "frac", args.get("frac").unwrap_or(0.5))?,
                    });
                }
                "hs" => {
                    args.check_known(&["p"])?;
                    plan.hs = Some(HsConfig {
                        p: prob(name, "p", args.require("p")?)?,
                    });
                }
                other => {
                    return Err(PqError::InvalidFaultSpec(format!(
                        "unknown clause `{other}` (expected gel, flap, stall, trunc, hs, or seed=N)"
                    )));
                }
            }
        }
        Ok(plan)
    }

    /// Whether any link-level fault (GE loss, flap) is configured —
    /// gates per-link injector setup.
    #[must_use]
    pub fn has_link_faults(&self) -> bool {
        self.ge.is_some() || self.flap.is_some()
    }

    /// Whether the plan configures no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.has_link_faults() && self.stall.is_none() && self.trunc.is_none() && self.hs.is_none()
    }

    /// Compact human-readable summary of the enabled fault classes.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if let Some(g) = &self.ge {
            parts.push(format!(
                "gel(pgb={},pbg={},good={},bad={})",
                g.p_gb, g.p_bg, g.loss_good, g.loss_bad
            ));
        }
        if let Some(f) = &self.flap {
            parts.push(format!(
                "flap(at={}ms,dur={}ms,period={}ms)",
                f.at_ms, f.dur_ms, f.period_ms
            ));
        }
        if let Some(s) = &self.stall {
            parts.push(format!("stall(p={},ms={})", s.p, s.ms));
        }
        if let Some(t) = &self.trunc {
            parts.push(format!("trunc(p={},frac={})", t.p, t.frac));
        }
        if let Some(h) = &self.hs {
            parts.push(format!("hs(p={})", h.p));
        }
        if parts.is_empty() {
            "no faults".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_parses() {
        let plan = FaultPlan::parse(
            "seed=7;gel:pgb=0.02,pbg=0.3,bad=0.5;flap:at=1500,dur=400;\
             stall:p=0.05,ms=1200;trunc:p=0.01;hs:p=0.1",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        let ge = plan.ge.unwrap();
        assert_eq!(ge.p_gb, 0.02);
        assert_eq!(ge.p_bg, 0.3);
        assert_eq!(ge.loss_good, 0.0);
        assert_eq!(ge.loss_bad, 0.5);
        assert_eq!(plan.flap.unwrap().period_ms, 0.0);
        assert_eq!(plan.stall.unwrap().ms, 1200.0);
        assert_eq!(plan.trunc.unwrap().frac, 0.5);
        assert_eq!(plan.hs.unwrap().p, 0.1);
        assert!(plan.has_link_faults());
        assert!(!plan.is_empty());
    }

    #[test]
    fn default_seed_applies() {
        let plan = FaultPlan::parse("stall:p=0.1,ms=50").unwrap();
        assert_eq!(plan.seed, DEFAULT_FAULT_SEED);
        assert!(!plan.has_link_faults());
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("seed=3").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.summary(), "no faults");
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            "wat:p=0.1",
            "stall:p=1.5,ms=10",
            "stall:p=nan,ms=10",
            "stall:ms=10",
            "stall:p=0.1,ms=0",
            "gel:pgb=2",
            "gel:zap=0.1",
            "flap:at=-5,dur=10",
            "hs:p",
            "seed=banana",
            "panic",
            "panic:p=0.5",
            "slow:p=0.5,ms=100",
        ] {
            assert!(
                FaultPlan::parse(bad).is_err(),
                "spec `{bad}` should be rejected"
            );
        }
        // No clause delays a cell in wall-clock time, panics a task or
        // oscillates a link's rate: `slow`, `panic` and `bwosc` are typos.
        for (spec, clause) in [
            ("slow:p=0.5,ms=100", "slow"),
            ("panic:p=0.5", "panic"),
            ("bwosc:period=1000,depth=0.5", "bwosc"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unknown clause `{clause}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn stationary_loss_math() {
        let ge = GeConfig {
            p_gb: 0.01,
            p_bg: 0.24,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        // pi_bad = 0.01/0.25 = 0.04 → loss = 0.04*0.5 = 0.02
        assert!((ge.stationary_loss() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_enabled_classes() {
        let plan = FaultPlan::parse("gel:pgb=0.02;hs:p=0.1").unwrap();
        let s = plan.summary();
        assert!(s.contains("gel"));
        assert!(s.contains("hs"));
        assert!(!s.contains("stall"));
    }
}
