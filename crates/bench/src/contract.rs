//! The contract: what a run must reproduce bit for bit, as one tree of
//! named nodes. `results/contract.txt` holds the tree of every contract
//! run, `tests/contract_digests.rs` compares each line, and every
//! worker-count comparison in `tests/` compares two trees with
//! [`diff`].
//!
//! A contract change (ROADMAP 1(b)) re-pins by copying the tree the
//! failing test writes over `results/contract.txt`; the diff of that
//! file names every node that moved.

use crate::manifest::{study_digest, Fnv};
use crate::{report, Experiment};
use std::collections::BTreeMap;

/// The contract tree of `e`, one `(key, value)` node per line, in this
/// order:
///
/// | Key | Value |
/// |-----|-------|
/// | `cell/<site>/<network>/<stack>` | each built stimulus, `name=value` per field: every `MetricSet` field, `runs`, `mean_plt_ms`, `mean_retransmits`, `video_secs` |
/// | `ab`, `ratings`, `funnels`, `sessions` | 16 hex digits over the A/B votes, the rating votes, both studies' funnels and both studies' sessions |
/// | `grid` | `quarantined=<n> runs_retried=<n> quarantine_list=<hex>` |
/// | one per [`report::VIEWS`] entry | 16 hex digits over the text that view prints |
/// | `root` | [`study_digest`] |
///
/// Floats print with `{}`, which round-trips, so a one-ulp change is a
/// different line.
pub fn contract(e: &Experiment) -> Vec<(String, String)> {
    let hex = |hash: &dyn Fn(&mut Fnv)| {
        let mut h = Fnv::new();
        hash(&mut h);
        format!("{:016x}", h.0)
    };
    let mut tree: Vec<(String, String)> = e
        .stimuli
        .iter()
        .map(|s| {
            let (c, m) = (s.condition, s.metrics);
            let key = format!(
                "cell/{}/{}/{}",
                e.stimuli.site_names[usize::from(c.site)],
                c.network.name(),
                c.protocol.label()
            );
            let value = format!(
                "fvc_ms={} lvc_ms={} si_ms={} vc85_ms={} plt_ms={} runs={} mean_plt_ms={} \
                 mean_retransmits={} video_secs={}",
                m.fvc_ms,
                m.lvc_ms,
                m.si_ms,
                m.vc85_ms,
                m.plt_ms,
                s.runs,
                s.mean_plt_ms,
                s.mean_retransmits,
                s.video_secs
            );
            (key, value)
        })
        .collect();
    let d = &e.data;
    tree.push(("ab".into(), hex(&|h| h.ab(d))));
    tree.push(("ratings".into(), hex(&|h| h.ratings(d))));
    tree.push(("funnels".into(), hex(&|h| h.funnels(d))));
    tree.push(("sessions".into(), hex(&|h| h.sessions(d))));
    let quarantined = e.stimuli.quarantined();
    let list = hex(&|h| {
        for q in quarantined {
            for text in [&q.site, &q.network, &q.protocol, &q.reason] {
                h.str(text);
            }
            h.u64(u64::from(q.attempts));
        }
    });
    tree.push((
        "grid".into(),
        format!(
            "quarantined={} runs_retried={} quarantine_list={list}",
            quarantined.len(),
            e.stimuli.runs_retried()
        ),
    ));
    for (name, view) in report::VIEWS {
        let mut text = String::new();
        view(e, &mut text).expect("writing to a String cannot fail");
        tree.push((name.into(), hex(&|h| h.str(&text))));
    }
    tree.push(("root".into(), format!("{:016x}", study_digest(d))));
    tree
}

/// One line per node that differs between two trees: each node whose
/// value moved or that `actual` lacks, in `expected`'s order, then each
/// node only `actual` has. For a value of `name=value` fields (a cell,
/// `grid`) the line names each field that moved; for a hash, both
/// hashes. Empty when the trees are equal.
pub fn diff(expected: &[(String, String)], actual: &[(String, String)]) -> Vec<String> {
    let (want, got) = (by_key(expected), by_key(actual));
    let moved_or_missing = expected
        .iter()
        .filter_map(|(key, w)| match got.get(key.as_str()) {
            None => Some(format!("{key}: missing (expected {w})")),
            Some(&g) if g != w => Some(moved(key, w, g)),
            Some(_) => None,
        });
    let added = actual
        .iter()
        .filter(|(key, _)| !want.contains_key(key.as_str()))
        .map(|(key, g)| format!("{key}: unexpected node {g}"));
    moved_or_missing.chain(added).collect()
}

fn by_key(tree: &[(String, String)]) -> BTreeMap<&str, &String> {
    tree.iter().map(|(k, v)| (k.as_str(), v)).collect()
}

/// `key`'s value moved from `want` to `got`: name the fields that
/// moved when both are `name=value` lists of one length.
fn moved(key: &str, want: &str, got: &str) -> String {
    let fields = |v| {
        str::split(v, ' ')
            .map(|t| t.split_once('='))
            .collect::<Option<Vec<_>>>()
    };
    match (fields(want), fields(got)) {
        (Some(w), Some(g)) if w.len() == g.len() => {
            let moved: Vec<String> = w
                .iter()
                .zip(&g)
                .filter(|(a, b)| a != b)
                .map(|((name, w), (_, g))| format!("{name} expected {w}, got {g}"))
                .collect();
            format!("{key}: {}", moved.join("; "))
        }
        _ => format!("{key}: expected {want}, got {got}"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn diff_names_each_moved_field_and_node() {
        let tree = |nodes: [(&str, &str); 3]| nodes.map(|(k, v)| (k.into(), v.into()));
        let want = tree([
            ("cell/a", "si=1 plt=2 runs=3"),
            ("fig6", "00ff"),
            ("gone", "1"),
        ]);
        let got = tree([
            ("cell/a", "si=1 plt=4 runs=5"),
            ("fig6", "0100"),
            ("new", "2"),
        ]);
        assert_eq!(
            super::diff(&want, &got),
            [
                "cell/a: plt expected 2, got 4; runs expected 3, got 5",
                "fig6: expected 00ff, got 0100",
                "gone: missing (expected 1)",
                "new: unexpected node 2",
            ]
        );
        assert!(super::diff(&want, &want).is_empty());
    }
}
