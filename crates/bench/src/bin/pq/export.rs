//! `pq export [path]`: the raw study data as JSON — mirroring the
//! paper's public data release (https://study.netray.io). Writes
//! `study_data.json` in the working directory, or `path` when given.
//!
//! ```sh
//! PQ_SCALE=reduced cargo run --release -p pq-bench --bin pq -- export out.json
//! ```

use pq_bench::RunSpec;
use pq_obs::json::Value;

pub fn run(spec: &RunSpec) {
    let path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "study_data.json".into());
    let e = crate::experiment("export", spec);

    let ab: Vec<Value> = e
        .data
        .ab
        .iter()
        .map(|v| {
            Value::obj()
                .with("group", v.group.name())
                .with("participant", v.participant)
                .with("site", e.stimuli.site_names[v.site as usize].as_str())
                .with("network", v.network.name())
                .with(
                    "pair",
                    vec![Value::from(v.pair.0.label()), Value::from(v.pair.1.label())],
                )
                .with(
                    "choice",
                    match v.choice {
                        pq_study::AbChoice::First => "first",
                        pq_study::AbChoice::NoDifference => "no_difference",
                        pq_study::AbChoice::Second => "second",
                    },
                )
                .with("confidence", v.confidence)
                .with("replays", u64::from(v.replays))
                .with("valid", v.valid)
        })
        .collect();

    let ratings: Vec<Value> = e
        .data
        .ratings
        .iter()
        .map(|v| {
            Value::obj()
                .with("group", v.group.name())
                .with("participant", v.participant)
                .with("site", e.stimuli.site_names[v.site as usize].as_str())
                .with("network", v.network.name())
                .with("protocol", v.protocol.label())
                .with("environment", v.environment.name())
                .with("speed", v.speed)
                .with("quality", v.quality)
                .with("valid", v.valid)
        })
        .collect();

    let stimuli: Vec<Value> = e
        .stimuli
        .iter()
        .map(|s| {
            Value::obj()
                .with(
                    "site",
                    e.stimuli.site_names[s.condition.site as usize].as_str(),
                )
                .with("network", s.condition.network.name())
                .with("protocol", s.condition.protocol.label())
                .with("runs", s.runs as u64)
                .with("fvc_ms", s.metrics.fvc_ms)
                .with("si_ms", s.metrics.si_ms)
                .with("vc85_ms", s.metrics.vc85_ms)
                .with("lvc_ms", s.metrics.lvc_ms)
                .with("plt_ms", s.metrics.plt_ms)
                .with("mean_plt_ms", s.mean_plt_ms)
                .with("mean_retransmits", s.mean_retransmits)
        })
        .collect();

    let funnel = |f: &pq_study::Funnel| {
        Value::obj().with("recruited", u64::from(f.recruited)).with(
            "after",
            f.after
                .iter()
                .map(|&n| Value::from(u64::from(n)))
                .collect::<Vec<Value>>(),
        )
    };
    let doc = Value::obj()
        .with(
            "paper",
            "Perceiving QUIC: Do Users Notice or Even Care? (CoNEXT 2019)",
        )
        .with("generator", "perceiving-quic reproduction")
        .with("scale", e.spec.scale.label())
        .with("seed", e.spec.seed)
        .with(
            "funnels",
            Value::obj()
                .with(
                    "ab",
                    e.data.funnel_ab.iter().map(funnel).collect::<Vec<Value>>(),
                )
                .with(
                    "rating",
                    e.data
                        .funnel_rating
                        .iter()
                        .map(funnel)
                        .collect::<Vec<Value>>(),
                ),
        )
        .with("stimuli", stimuli)
        .with("ab_votes", ab)
        .with("rating_votes", ratings);

    pq_ckpt::atomic_write(&path, doc.to_pretty().as_bytes()).expect("write output file");
    eprintln!(
        "[export] wrote {path}: {} A/B votes, {} ratings, {} stimuli",
        e.data.ab.len(),
        e.data.ratings.len(),
        e.stimuli.iter().count()
    );
}
