//! The machine-readable run manifest written by `pq runall`.
//!
//! One `results/manifest.json` per experiment execution, declared once
//! in [`manifest_json`]: grid size, seed, git revision, per-phase
//! wall-times, the fault spec and the quarantined cells, and the run's
//! [`contract`](crate::contract()) tree, which `results/contract.txt`
//! pins and which alone holds the grid's loads, events, faults and
//! retries (`grid`) and the [`study_digest`] (`root`). The funnels
//! are only a hash there (`funnels`); their counts are in `pq table3`'s
//! output. Its timings are one sample from one machine; speed is
//! measured by `benches/perf`.

use crate::Experiment;
use pq_obs::json::Value;
use pq_obs::PhaseTimer;
use pq_study::StudyData;

/// The study digest's per-byte multiplier: 2⁴⁸ + 0x1b3. This is **not**
/// the FNV-1a/64 prime (2⁴⁰ + 0x1b3, `0x0000_0100_0000_01b3`), and it
/// stays as it is: every pinned digest in `results/contract.txt`,
/// CHANGES.md and `benches/perf` was computed with it. Do not "dedupe"
/// this hasher into `pq_ckpt::fnv1a`.
const DIGEST_MULTIPLIER: u64 = 0x1_0000_0000_01b3;

/// Accumulating hasher for the study digest and every hashed node of
/// the contract: FNV-1a's offset basis and xor-then-multiply step,
/// with [`DIGEST_MULTIPLIER`] as the multiplier.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(DIGEST_MULTIPLIER);
    }
    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }

    /// Every A/B vote, float bits included, in study order.
    pub(crate) fn ab(&mut self, data: &StudyData) {
        self.u64(data.ab.len() as u64);
        for v in &data.ab {
            self.str(v.group.name());
            self.u64(u64::from(v.participant));
            self.u64(u64::from(v.site));
            self.str(v.network.name());
            self.str(v.pair.0.label());
            self.str(v.pair.1.label());
            self.byte(match v.choice {
                pq_study::AbChoice::First => 0,
                pq_study::AbChoice::NoDifference => 1,
                pq_study::AbChoice::Second => 2,
            });
            self.f64(v.confidence);
            self.u64(u64::from(v.replays));
            self.byte(u8::from(v.valid));
        }
    }

    /// Every rating vote, float bits included, in study order.
    pub(crate) fn ratings(&mut self, data: &StudyData) {
        self.u64(data.ratings.len() as u64);
        for v in &data.ratings {
            self.str(v.group.name());
            self.u64(u64::from(v.participant));
            self.u64(u64::from(v.site));
            self.str(v.network.name());
            self.str(v.protocol.label());
            self.byte(v.environment as u8);
            self.f64(v.speed);
            self.f64(v.quality);
            self.byte(u8::from(v.valid));
        }
    }

    /// Both studies' sessions, every field, float bits included.
    pub(crate) fn sessions(&mut self, data: &StudyData) {
        for sessions in [&data.sessions_ab, &data.sessions_rating] {
            self.u64(sessions.len() as u64);
            for s in sessions {
                let p = &s.participant;
                self.str(p.group.name());
                self.u64(u64::from(p.id));
                let floats = [p.jnd, p.obs_noise, p.rating_bias, p.rating_noise];
                let paces = [p.secs_per_ab_video, p.secs_per_rating_video, p.replay_scale];
                for x in p.w.into_iter().chain(floats).chain(paces) {
                    self.f64(x);
                }
                self.byte(p.age as u8);
                for flag in s.conformance.violated.into_iter().chain([p.male, s.rusher]) {
                    self.byte(u8::from(flag));
                }
                self.f64(s.secs_per_video);
            }
        }
    }

    /// Both studies' funnels: Table 3.
    pub(crate) fn funnels(&mut self, data: &StudyData) {
        for funnel in data.funnel_ab.iter().chain(&data.funnel_rating) {
            self.u64(u64::from(funnel.recruited));
            for &n in &funnel.after {
                self.u64(u64::from(n));
            }
        }
    }
}

/// A 64-bit FNV-1a-style digest (same shape, its own multiplier,
/// 2⁴⁸ + 0x1b3) over a study execution's votes and funnels: all A/B
/// votes, all rating votes (float bits included) and both funnel
/// tables, in canonical order. It is the `root` node of
/// [`crate::contract()`], which also covers what it does not: each
/// stimulus's metrics, the sessions, the grid's retries and quarantines
/// and the text of every printed view.
///
/// This is the parallel-determinism witness: `PQ_JOBS=1` and
/// `PQ_JOBS=N` runs of the same scale/seed must produce the same
/// digest, and CI diffs the two manifests' trees to prove it. Any
/// divergence means an RNG stream got keyed by execution order instead
/// of cell coordinates.
pub fn study_digest(data: &StudyData) -> u64 {
    let mut h = Fnv::new();
    h.ab(data);
    h.ratings(data);
    h.funnels(data);
    h.0
}

/// Everything a `runall` execution leaves behind for machines: the
/// finished experiment, the phase timer and the run's contract tree as
/// one JSON object.
///
/// Keys, in order; readers are CI (`.github/workflows/ci.yml`) and the
/// tests, through [`Value::get`]:
///
/// | Key | Value |
/// |-----|-------|
/// | `sites` | sites in the grid (`PQ_SCALE`: 4 / 12 / 36) |
/// | `runs` | valid page loads per cell (`PQ_SCALE`: 3 / 11 / 31) |
/// | `seed` | stimulus and study seed |
/// | `jobs` | `pq-par` worker count the run executed with (`PQ_JOBS`) |
/// | `git_rev` | `git rev-parse --short HEAD`, or `unknown` outside a checkout |
/// | `created_unix` | Unix timestamp (seconds) of manifest creation |
/// | `phases` | `[{name, secs}]` wall seconds in execution order |
/// | `fault_spec` | the spec of the run's fault plan, as `PQ_FAULTS` spelled it (empty = injection off) |
/// | `cells_quarantined` | `[{site, network, protocol, reason, attempts}]` cells that exhausted their retries |
/// | `alloc` | only under `PQ_PROF_ALLOC=1`: `{total_allocs, total_bytes, peak_bytes}` |
/// | `edge` | only with an edge stack in the grid: `{stacks, pool_size, replicas, conns_opened, conns_reused, conns_evicted, mbx_early_retx}`, the counts summed over the grid's loads |
/// | `contract` | `[{key, value}]`: `contract`, node by node |
///
/// The grid's loads, events and injected faults are the tree's `grid`
/// node, and the manifest does not restate them.
pub fn manifest_json(e: &Experiment, timer: &PhaseTimer, contract: Vec<(String, String)>) -> Value {
    // Before anything below allocates: the report is of the run, not
    // of writing the report.
    let alloc = pq_prof::alloc_enabled().then(pq_prof::alloc_snapshot);
    let phases: Vec<Value> = timer
        .phases()
        .iter()
        .map(|(name, secs)| Value::obj().with("name", name.as_str()).with("secs", *secs))
        .collect();
    let stacks = &e.spec.stacks;
    let cells_quarantined: Vec<Value> = e
        .stimuli
        .quarantined()
        .iter()
        .map(|q| {
            Value::obj()
                .with("site", q.site.as_str())
                .with("network", q.network.as_str())
                .with("protocol", q.protocol.as_str())
                .with("reason", q.reason.as_str())
                .with("attempts", q.counts.loads)
        })
        .collect();
    let mut out = Value::obj()
        .with("sites", e.spec.sites.len())
        .with("runs", e.spec.runs)
        .with("seed", e.spec.seed)
        .with("jobs", pq_par::jobs())
        .with("git_rev", git_rev())
        .with(
            "created_unix",
            #[expect(
                clippy::disallowed_methods,
                reason = "manifest timestamp, not digested"
            )]
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        )
        .with("phases", phases)
        .with(
            "fault_spec",
            e.spec.faults.as_ref().map_or("", |p| p.spec.as_str()),
        )
        .with("cells_quarantined", cells_quarantined);
    if let Some(snap) = alloc {
        out.set(
            "alloc",
            Value::obj()
                .with("total_allocs", snap.total_allocs)
                .with("total_bytes", snap.total_bytes)
                .with("peak_bytes", snap.peak_bytes),
        );
    }
    let edge_stacks: Vec<Value> = stacks
        .iter()
        .filter(|p| p.is_edge())
        .map(|p| Value::from(p.label()))
        .collect();
    if !edge_stacks.is_empty() {
        // The grid's loads leave `LoadOptions.edge` at `None`, which
        // means exactly this config.
        let cfg = pq_edge::EdgeConfig::default();
        let counts = e.stimuli.counts();
        out.set(
            "edge",
            Value::obj()
                .with("stacks", edge_stacks)
                .with("pool_size", cfg.pool_size)
                .with("replicas", cfg.replicas)
                .with("conns_opened", counts.conns_opened)
                .with("conns_reused", counts.conns_reused)
                .with("conns_evicted", counts.conns_evicted)
                .with("mbx_early_retx", counts.mbx_early_retx),
        );
    }
    let contract: Vec<Value> = contract
        .into_iter()
        .map(|(key, value)| Value::obj().with("key", key).with("value", value))
        .collect();
    out.set("contract", contract);
    out
}

/// `git rev-parse --short HEAD`, or `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_transport::Protocol;

    #[test]
    fn digest_hasher_is_pinned_and_is_not_fnv1a() {
        let mut h = Fnv::new();
        h.byte(7);
        h.u64(0x0123_4567_89ab_cdef);
        h.f64(1.5);
        h.str("QUIC");
        assert_eq!(
            h.0, 0x4bf4_7bf2_1457_7b61,
            "every pinned study_digest moves with this"
        );

        // The same byte stream through real FNV-1a/64 hashes differently.
        let mut bytes = vec![7u8];
        bytes.extend(0x0123_4567_89ab_cdef_u64.to_le_bytes());
        bytes.extend(1.5f64.to_bits().to_le_bytes());
        bytes.extend(4u64.to_le_bytes());
        bytes.extend(b"QUIC");
        assert_ne!(h.0, pq_ckpt::fnv1a(&bytes));
    }

    /// One site on one network under `stacks`.
    fn tiny_experiment(stacks: &[Protocol]) -> Experiment {
        crate::RunSpec {
            sites: vec![pq_web::catalogue::site("wikipedia.org").unwrap()],
            networks: vec![pq_sim::NetworkKind::Lte],
            stacks: stacks.to_vec(),
            runs: 2,
            ..crate::RunSpec::default()
        }
        .run()
    }

    fn keys(v: &Value) -> Vec<&str> {
        let Value::Obj(fields) = v else {
            panic!("the manifest is an object")
        };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// The schema CI's Python reads: 10 keys on every run, `alloc` only
    /// while the counting allocator is on, `edge` only with an edge
    /// stack in the grid, in this order, and `contract` last.
    #[test]
    fn manifest_keys_are_pinned_and_alloc_edge_are_conditional() {
        const ALWAYS: [&str; 9] = [
            "sites",
            "runs",
            "seed",
            "jobs",
            "git_rev",
            "created_unix",
            "phases",
            "fault_spec",
            "cells_quarantined",
        ];
        let mut timer = PhaseTimer::new();
        let plain = timer.phase("experiment", crate::tests::smoke_1910);
        let tree = || vec![("root".to_string(), "0123456789abcdef".to_string())];
        let m = manifest_json(plain, &timer, tree());
        assert_eq!(keys(&m)[..ALWAYS.len()], ALWAYS);
        assert_eq!(keys(&m)[ALWAYS.len()..], ["contract"]);
        let get = |key: &str| m.get(key).unwrap_or_else(|| panic!("{key} present"));
        assert_eq!(get("sites").as_u64(), Some(4));
        assert_eq!(get("runs").as_u64(), Some(3));
        assert_eq!(get("seed").as_u64(), Some(1910));
        assert_eq!(get("fault_spec").as_str(), Some(""));
        let phases = get("phases").as_arr().expect("phases array");
        assert_eq!(keys(&phases[0]), ["name", "secs"]);
        assert_eq!(
            phases[0].get("name").and_then(Value::as_str),
            Some("experiment")
        );
        let node = &get("contract").as_arr().expect("one entry per node")[0];
        assert_eq!(keys(node), ["key", "value"]);
        assert_eq!(
            node.get("value").and_then(Value::as_str),
            Some("0123456789abcdef")
        );

        pq_prof::set_alloc_enabled(true);
        let edge = timer.phase("edge", || {
            tiny_experiment(&[Protocol::Quic, Protocol::QuicMbx])
        });
        let m = manifest_json(&edge, &timer, tree());
        pq_prof::set_alloc_enabled(false);
        assert_eq!(keys(&m)[..ALWAYS.len()], ALWAYS);
        assert_eq!(keys(&m)[ALWAYS.len()..], ["alloc", "edge", "contract"]);
        let alloc = m.get("alloc").expect("alloc block");
        assert_eq!(keys(alloc), ["total_allocs", "total_bytes", "peak_bytes"]);
        assert!(alloc.get("total_allocs").and_then(Value::as_u64) > Some(0));
        let block = m.get("edge").expect("edge block");
        assert_eq!(
            keys(block),
            [
                "stacks",
                "pool_size",
                "replicas",
                "conns_opened",
                "conns_reused",
                "conns_evicted",
                "mbx_early_retx"
            ]
        );
        assert_eq!(
            block.get("stacks").and_then(Value::as_arr),
            Some(&[Value::from("QUIC-MBX")][..])
        );
        let d = pq_edge::EdgeConfig::default();
        assert_eq!(block.get("pool_size"), Some(&Value::from(d.pool_size)));
        assert_eq!(block.get("replicas"), Some(&Value::from(d.replicas)));
    }

    #[test]
    fn study_digest_deterministic_and_seed_sensitive() {
        let stimuli = crate::RunSpec {
            sites: vec![pq_web::catalogue::site("apache.org").unwrap()],
            runs: 2,
            seed: 77,
            ..crate::RunSpec::default()
        }
        .stimuli();
        let a = pq_study::run_study(&stimuli, 1);
        let b = pq_study::run_study(&stimuli, 1);
        let c = pq_study::run_study(&stimuli, 2);
        assert_eq!(study_digest(&a), study_digest(&b), "same seed, same digest");
        assert_ne!(study_digest(&a), study_digest(&c), "digest tracks the data");
    }
}
