//! The program's own always-on counters (`pq_obs::registry()`), read
//! from outside at span boundaries and around every timed repeat.

/// Registry counters the benchmark reads. Order is the order of
/// [`Counters::v`].
pub const NAMES: [&str; 16] = [
    "sim.events_processed",
    "web.pageloads",
    "web.pageloads_incomplete",
    "run.retries",
    "run.quarantined",
    "fault.injected",
    "sim.link.offered",
    "sim.link.delivered",
    "sim.link.tail_dropped",
    "sim.link.random_lost",
    "sim.link.fault_lost",
    "edge.conns_opened",
    "edge.conns_reused",
    "edge.mbx_early_retx",
    "par.tasks",
    "par.steals",
];

/// One reading of every counter in [`NAMES`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub v: [u64; NAMES.len()],
}

impl Counters {
    pub fn read() -> Counters {
        let reg = pq_obs::registry();
        let mut v = [0; NAMES.len()];
        for (slot, name) in v.iter_mut().zip(NAMES) {
            *slot = reg.counter_value(name);
        }
        Counters { v }
    }

    /// What happened since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut v = [0; NAMES.len()];
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = self.v[i] - earlier.v[i];
        }
        Counters { v }
    }

    pub fn get(&self, name: &str) -> u64 {
        let i = NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in counters::NAMES"));
        self.v[i]
    }

    /// `get(name)` as a float, for ratios.
    pub fn f(&self, name: &str) -> f64 {
        self.get(name) as f64
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The registry is process-global and `cargo test` runs tests on
/// parallel threads: a test that runs the simulator holds this lock,
/// so another's loads never land in its counter deltas.
#[cfg(test)]
pub static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_lookup() {
        let mut a = Counters::default();
        let mut b = Counters::default();
        a.v[1] = 10;
        b.v[1] = 250;
        let d = b.since(&a);
        assert_eq!(d.get("web.pageloads"), 240);
        assert_eq!(d.get("sim.events_processed"), 0);
        assert_eq!(ratio(d.f("web.pageloads"), 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
