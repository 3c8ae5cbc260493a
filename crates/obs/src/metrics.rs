//! The metrics registry: named `u64` counters.
//!
//! A single process-global [`Registry`] accumulates counters across an
//! entire experiment (thousands of simulated page loads). Readers take
//! values by name: [`Registry::counter_value`] (`benches/perf` and
//! tests) and [`Registry::snapshot`] (the emitted-name check in
//! `tests/determinism.rs`). Nothing else in the workspace reads it
//! back.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// A registry of named counters. One global instance lives behind
/// [`registry`]; tests may create private ones.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, u64>>,
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

    /// Add `delta` to the counter `name` (creating it at zero). Looks
    /// up by `&str`: only a first insert allocates the key.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut m = self.inner.lock().expect("registry poisoned");
        match m.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                m.insert(name.to_string(), delta);
            }
        }
    }

    /// Current counter value (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        let m = self.inner.lock().expect("registry poisoned");
        m.get(name).copied().unwrap_or(0)
    }

    /// Every counter, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner.lock().expect("registry poisoned").clone()
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
}
