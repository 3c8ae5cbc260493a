//! The metrics registry: counters and log-bucketed histograms.
//!
//! A single process-global [`Registry`] accumulates metrics across an
//! entire experiment (thousands of simulated page loads). Histograms
//! use log-spaced buckets (ratio 2^(1/8) ≈ 9 % wide), so p50/p90/p99
//! estimates carry ≤ ~4.5 % relative error at any magnitude — plenty
//! for regression tracking — while staying allocation-free after the
//! first observation.
//!
//! Readers take typed values: [`Registry::counter_value`] (the run
//! manifest, `benches/perf`) and [`MetricSnapshot`]s (the manifest's
//! `plt_ms` rows, the emitted-name check in `tests/determinism.rs`).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Histogram bucket growth ratio: 2^(1/8).
const BUCKET_RATIO_LOG2: f64 = 1.0 / 8.0;
/// Number of buckets; spans ~ [1e-3, 1e21) with the ratio above.
const BUCKETS: usize = 256;
/// Value mapped to bucket 0 (everything ≤ this).
const BUCKET_FLOOR: f64 = 1e-3;

#[derive(Clone, Debug)]
enum Metric {
    Counter(u64),
    Histogram(Box<Histo>),
}

#[derive(Clone, Debug)]
struct Histo {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u32; BUCKETS],
}

impl Histo {
    fn new() -> Self {
        Histo {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= BUCKET_FLOOR {
            return 0;
        }
        let idx = ((v / BUCKET_FLOOR).log2() / BUCKET_RATIO_LOG2).ceil() as isize;
        idx.clamp(0, BUCKETS as isize - 1) as usize
    }

    /// Geometric upper edge of bucket `i`.
    fn bucket_edge(i: usize) -> f64 {
        BUCKET_FLOOR * 2f64.powf(i as f64 * BUCKET_RATIO_LOG2)
    }

    fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Approximate quantile via cumulative bucket walk; exact at the
    /// extremes thanks to tracked min/max.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen >= target {
                // Geometric midpoint of the bucket, clamped to the
                // observed range.
                let hi = Self::bucket_edge(i);
                let lo = if i == 0 {
                    0.0
                } else {
                    Self::bucket_edge(i - 1)
                };
                let mid = if i == 0 { hi / 2.0 } else { (lo * hi).sqrt() };
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A read-only snapshot of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricSnapshot {
    /// Monotonic counter value.
    Counter(u64),
    /// Histogram summary.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation.
        min: f64,
        /// Largest observation.
        max: f64,
        /// ~median.
        p50: f64,
        /// ~90th percentile.
        p90: f64,
        /// ~99th percentile.
        p99: f64,
    },
}

/// A registry of named metrics. One global instance lives behind
/// [`registry`]; tests may create private ones.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// A fresh, private registry (tests / tools).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Update the metric `name` in place, or insert `fresh()` and
    /// update that. Looks up by `&str`: only a first insert allocates
    /// the key.
    fn upsert(&self, name: &str, fresh: impl FnOnce() -> Metric, update: impl FnOnce(&mut Metric)) {
        let mut m = self.inner.lock().expect("registry poisoned");
        match m.get_mut(name) {
            Some(metric) => update(metric),
            None => update(m.entry(name.to_string()).or_insert_with(fresh)),
        }
    }

    /// Add `delta` to the counter `name` (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.upsert(
            name,
            || Metric::Counter(0),
            |metric| match metric {
                Metric::Counter(v) => *v += delta,
                other => *other = Metric::Counter(delta),
            },
        );
    }

    /// Record one observation into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        self.upsert(
            name,
            || Metric::Histogram(Box::new(Histo::new())),
            |metric| match metric {
                Metric::Histogram(h) => h.observe(value),
                other => {
                    let mut h = Box::new(Histo::new());
                    h.observe(value);
                    *other = Metric::Histogram(h);
                }
            },
        );
    }

    /// Current counter value (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.inner.lock().expect("registry poisoned").get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Snapshot one metric.
    pub fn get(&self, name: &str) -> Option<MetricSnapshot> {
        self.inner
            .lock()
            .expect("registry poisoned")
            .get(name)
            .map(snapshot_of)
    }

    /// Snapshot everything (sorted by name).
    pub fn snapshot(&self) -> BTreeMap<String, MetricSnapshot> {
        self.inner
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), snapshot_of(v)))
            .collect()
    }
}

fn snapshot_of(m: &Metric) -> MetricSnapshot {
    match m {
        Metric::Counter(v) => MetricSnapshot::Counter(*v),
        Metric::Histogram(h) => MetricSnapshot::Histogram {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { f64::NAN } else { h.min },
            max: if h.count == 0 { f64::NAN } else { h.max },
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter_add("test.c", 2);
        r.counter_add("test.c", 3);
        assert_eq!(r.counter_value("test.c"), 5);
        assert_eq!(r.counter_value("absent"), 0);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let r = Registry::new();
        // 1..=1000: p50 ≈ 500, p90 ≈ 900, p99 ≈ 990.
        for i in 1..=1000 {
            r.observe("test.h", f64::from(i));
        }
        let Some(MetricSnapshot::Histogram {
            count,
            min,
            max,
            p50,
            p90,
            p99,
            ..
        }) = r.get("test.h")
        else {
            panic!("histogram expected")
        };
        assert_eq!(count, 1000);
        assert_eq!(min, 1.0);
        assert_eq!(max, 1000.0);
        for (got, want) in [(p50, 500.0), (p90, 900.0), (p99, 990.0)] {
            let rel = (got - want).abs() / want;
            assert!(rel < 0.06, "quantile {got} vs {want} (rel {rel:.3})");
        }
    }

    #[test]
    fn histogram_edge_cases() {
        let r = Registry::new();
        r.observe("h", 0.0);
        r.observe("h", -5.0);
        r.observe("h", f64::NAN); // ignored
        let Some(MetricSnapshot::Histogram {
            count, min, p50, ..
        }) = r.get("h")
        else {
            panic!()
        };
        assert_eq!(count, 2);
        assert_eq!(min, -5.0);
        assert!(p50 <= 0.0, "clamped to observed range, got {p50}");
    }
}
