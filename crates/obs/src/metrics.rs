//! The metrics registry: counters, gauges, log-bucketed histograms.
//!
//! A single process-global [`Registry`] accumulates metrics across an
//! entire experiment (thousands of simulated page loads). Histograms
//! use log-spaced buckets (ratio 2^(1/8) ≈ 9 % wide), so p50/p90/p99
//! estimates carry ≤ ~4.5 % relative error at any magnitude — plenty
//! for regression tracking — while staying allocation-free after the
//! first observation.
//!
//! Exposition: [`Registry::to_prometheus`] (text format 0.0.4) and
//! [`Registry::to_json`], plus typed [`MetricSnapshot`]s for the run
//! manifests in `pq-bench`.

use crate::json::Value;
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
    Gauge(f64),
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
    /// Last-set gauge value.
    Gauge(f64),
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

impl MetricSnapshot {
    /// Encode as a JSON value (used by manifests).
    pub fn to_json(&self) -> Value {
        match self {
            MetricSnapshot::Counter(v) => Value::obj().with("type", "counter").with("value", *v),
            MetricSnapshot::Gauge(v) => Value::obj().with("type", "gauge").with("value", *v),
            MetricSnapshot::Histogram {
                count,
                sum,
                min,
                max,
                p50,
                p90,
                p99,
            } => Value::obj()
                .with("type", "histogram")
                .with("count", *count)
                .with("sum", *sum)
                .with("min", *min)
                .with("max", *max)
                .with("p50", *p50)
                .with("p90", *p90)
                .with("p99", *p99),
        }
    }
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

    /// Set the gauge `name`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.upsert(
            name,
            || Metric::Gauge(value),
            |metric| *metric = Metric::Gauge(value),
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

    /// Current gauge value.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.inner.lock().expect("registry poisoned").get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
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

    /// Remove all metrics whose name starts with `prefix` (used by
    /// harness phases that want per-phase deltas, and by tests).
    pub fn clear_prefix(&self, prefix: &str) {
        self.inner
            .lock()
            .expect("registry poisoned")
            .retain(|k, _| !k.starts_with(prefix));
    }

    /// Prometheus text exposition (format 0.0.4). Metric names have
    /// `.`/`-` mapped to `_`; histograms expose `_count`, `_sum` and
    /// quantile gauges.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, snap) in self.snapshot() {
            let pname: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            match snap {
                MetricSnapshot::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {pname} counter\n{pname} {v}");
                }
                MetricSnapshot::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge\n{pname} {v}");
                }
                MetricSnapshot::Histogram {
                    count,
                    sum,
                    p50,
                    p90,
                    p99,
                    ..
                } => {
                    let _ = writeln!(out, "# TYPE {pname} summary");
                    let _ = writeln!(out, "{pname}{{quantile=\"0.5\"}} {p50}");
                    let _ = writeln!(out, "{pname}{{quantile=\"0.9\"}} {p90}");
                    let _ = writeln!(out, "{pname}{{quantile=\"0.99\"}} {p99}");
                    let _ = writeln!(out, "{pname}_sum {sum}");
                    let _ = writeln!(out, "{pname}_count {count}");
                }
            }
        }
        out
    }

    /// JSON exposition: `{name: {type, …}}`.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::obj();
        for (name, snap) in self.snapshot() {
            obj.set(&name, snap.to_json());
        }
        obj
    }
}

fn snapshot_of(m: &Metric) -> MetricSnapshot {
    match m {
        Metric::Counter(v) => MetricSnapshot::Counter(*v),
        Metric::Gauge(v) => MetricSnapshot::Gauge(*v),
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
    fn counters_and_gauges() {
        let r = Registry::new();
        r.counter_add("test.c", 2);
        r.counter_add("test.c", 3);
        r.gauge_set("test.g", 1.5);
        assert_eq!(r.counter_value("test.c"), 5);
        assert_eq!(r.gauge_value("test.g"), Some(1.5));
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

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter_add("sim.events_processed", 7);
        r.observe("web.plt_ms.quic", 1234.0);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE sim_events_processed counter"));
        assert!(text.contains("sim_events_processed 7"));
        assert!(text.contains("web_plt_ms_quic_count 1"));
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn json_exposition_parses() {
        let r = Registry::new();
        r.counter_add("a", 1);
        r.observe("b", 2.0);
        let text = r.to_json().to_pretty();
        let v = crate::json::Value::parse(&text).expect("valid JSON");
        assert_eq!(
            v.get("a")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("b")
                .and_then(|m| m.get("count"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn clear_prefix_scopes() {
        let r = Registry::new();
        r.counter_add("x.a", 1);
        r.counter_add("y.b", 1);
        r.clear_prefix("x.");
        assert_eq!(r.counter_value("x.a"), 0);
        assert_eq!(r.counter_value("y.b"), 1);
    }
}
