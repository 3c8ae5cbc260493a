//! The declared name registries.
//!
//! The run manifest, `benches/perf` and the profile tooling all address
//! series and frames *by name*; a typo'd literal silently creates a
//! parallel series nobody reads. These constants make the name sets
//! explicit, and `tests/determinism.rs` holds a run to them: after a
//! profiled study it rejects any registry series or profiler frame
//! that was emitted but is not listed here — formatted names included,
//! since it reads what the run produced, not the source. Adding a
//! metric is a two-line diff: the call site and the registry entry.
//!
//! Keep both lists sorted.

/// Every metric name the workspace emits through the registry sinks
/// (`counter_add` / `observe`). Formatted names are checked by their
/// literal prefix before the first `{`. A series is listed — and
/// emitted — only while something reads it: the run manifest,
/// `benches/perf`, CI or a test.
pub const METRIC_NAMES: &[&str] = &[
    "edge.conns_evicted",
    "edge.conns_opened",
    "edge.conns_reused",
    "edge.mbx_early_retx",
    "fault.injected",
    "par.tasks",
    "par.worker_tasks",
    "run.quarantined",
    "run.retries",
    "sim.events_processed",
    "sim.link.delivered",
    "sim.link.fault_lost",
    "sim.link.offered",
    "sim.link.random_lost",
    "sim.link.tail_dropped",
    "trace.dropped",
    "web.pageloads",
    "web.pageloads_incomplete",
    "web.plt_ms",
];

/// Every span frame name in collapsed-stack output. Entries with
/// a trailing `:` are dynamic-label prefixes (`load:` covers
/// `load:QUIC`, `link:` the `link:downlink` frame of `pq table2`'s
/// link measurement); phase frames opened by the bench harness are
/// listed too.
pub const SPAN_NAMES: &[&str] = &[
    "ablation",
    "agreement",
    "edge:dispatch",
    "edge:mbx",
    "event:arrival",
    "event:defer",
    "event:edge-arrival",
    "event:edge-respond",
    "event:edge-timer",
    "event:edge-tx-down",
    "event:edge-tx-up",
    "event:gate",
    "event:process",
    "event:respond",
    "event:timer",
    "event:tx-down",
    "event:tx-up",
    "experiment",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "link:",
    "load:",
    "par:run",
    "par:worker",
    "table1",
    "table2",
    "table3",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_sorted_and_unique() {
        for list in [METRIC_NAMES, SPAN_NAMES] {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(list, sorted.as_slice(), "registry must stay sorted/unique");
        }
    }

    #[test]
    fn metric_names_follow_the_dotted_convention() {
        for name in METRIC_NAMES {
            let segs: Vec<&str> = name.split('.').collect();
            assert!(segs.len() >= 2, "{name} needs at least two dotted segments");
            for s in segs {
                assert!(
                    s.chars().next().is_some_and(|c| c.is_ascii_lowercase()),
                    "{name}: segment {s:?} must start lowercase"
                );
            }
        }
    }

    #[test]
    fn span_names_are_folded_safe() {
        for name in SPAN_NAMES {
            assert!(
                !name.contains(' ') && !name.contains(';'),
                "{name:?} would corrupt collapsed-stack lines"
            );
        }
    }
}
