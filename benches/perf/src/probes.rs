//! Phase C of the traced run: fixed-size calls into the layers that
//! `load_page` hides, each under its own span, inputs seeded from
//! `--seed`. Sizes are constants so two commits do the same work.

use crate::bulk;
use crate::spans::Recorder;
use crate::workloads::Spec;
use pq_edge::EdgeConfig;
use pq_sim::{
    ConnId, EventQueue, Link, NetworkConfig, NetworkKind, Packet, PushOutcome, SimDuration, SimRng,
    SimTime,
};
use pq_study::StimulusSet;
use pq_transport::{Protocol, RangeSet};
use pq_web::{load_page, LoadOptions, SiteSpec, Website};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `(metric name, unit, value)`.
pub type Metrics = Vec<(String, &'static str, f64)>;

/// Seconds `f` takes.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// 1 M pops + 1 M schedules against a queue held at 512 pending
/// events (the hold model: every popped event schedules a successor a
/// random distance ahead).
fn event_queue(seed: u64) -> f64 {
    const PENDING: u64 = 512;
    const PAIRS: u64 = 1_000_000;
    let mut rng = SimRng::new(seed).fork("probe-event-queue");
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING {
        q.schedule(SimTime::from_nanos(rng.below(1_000_000)), i);
    }
    let (secs, ()) = timed(|| {
        for _ in 0..PAIRS {
            let (now, ev) = q.pop().expect("the queue holds PENDING events");
            q.schedule(now + SimDuration::from_nanos(1 + rng.below(1_000_000)), ev);
        }
    });
    black_box(q.len());
    2.0 * PAIRS as f64 / secs
}

/// 1 M packets in total through saturated links with the downlink
/// configuration of each of the workload's networks.
fn link(spec: &Spec, seed: u64) -> f64 {
    const PACKETS: u64 = 1_000_000;
    let per_net = PACKETS / spec.networks.len() as u64;
    let mut delivered = 0u64;
    let (secs, ()) = timed(|| {
        for kind in &spec.networks {
            let rng = SimRng::new(seed).fork("probe-link");
            let mut link: Link<u64> = Link::new(kind.config().downlink(), rng);
            let mut now = SimTime::ZERO;
            let mut next = match link.push(now, Packet::new(ConnId(0), 1500, 0)) {
                PushOutcome::StartedTx(t) => t,
                other => unreachable!("an idle link starts transmitting, got {other:?}"),
            };
            for i in 0..per_net {
                now = next;
                link.push(now, Packet::new(ConnId(0), 1500, i));
                let txd = link.on_tx_done(now);
                delivered += u64::from(txd.delivery.is_some());
                next = txd
                    .next_tx_done
                    .unwrap_or(now + SimDuration::from_millis(1));
            }
        }
    });
    black_box(delivered);
    (per_net * spec.networks.len() as u64) as f64 / secs
}

/// The SACK-scoreboard pattern: scattered MSS-sized inserts, then
/// cumulative trims; 2 000 rounds of 500 inserts + 10 trims.
fn rangeset(seed: u64) -> f64 {
    const ROUNDS: u64 = 2_000;
    let mut rng = SimRng::new(seed).fork("probe-rangeset");
    let inserts: Vec<(u64, u64)> = (0..500)
        .map(|_| {
            let s = rng.below(1_000_000);
            (s, s + 1460)
        })
        .collect();
    let (secs, ()) = timed(|| {
        for _ in 0..ROUNDS {
            let mut rs = RangeSet::new();
            for &(s, e) in &inserts {
                rs.insert(s, e);
            }
            for cut in (0..1_000_000).step_by(100_000) {
                rs.remove_below(cut);
            }
            black_box(rs.covered());
        }
    });
    (ROUNDS * 510) as f64 / secs
}

/// 4 MB per transfer, 8 transfers per stack and network: segments the
/// downlink delivered per host second.
fn bulk_segs_per_s(protocol: Protocol, net: NetworkKind, seed: u64) -> f64 {
    const TRANSFERS: u64 = 8;
    const BYTES: u64 = 4_000_000;
    let cfg = net.config();
    let mut segments = 0;
    let (secs, ()) = timed(|| {
        for i in 0..TRANSFERS {
            let t = bulk::transfer(protocol, &cfg, seed.wrapping_add(i), BYTES);
            let wire_s = (BYTES * 8) as f64 / cfg.down_bps as f64;
            assert!(
                t.complete && t.sim_s > wire_s && (cfg.loss == 0.0 || t.retransmits > 0),
                "{} bulk over {net}: complete {} in {} s (wire {wire_s} s), {} retransmits",
                protocol.label(),
                t.complete,
                t.sim_s,
                t.retransmits
            );
            segments += t.segments;
        }
    });
    segments as f64 / secs
}

/// 100 k no-op items through `par_map`, ten times, on every core.
fn par_dispatch() -> f64 {
    const ITEMS: usize = 100_000;
    const ROUNDS: usize = 10;
    pq_par::set_jobs(Some(pq_par::available_jobs()));
    let items: Vec<u32> = (0..ITEMS as u32).collect();
    let (secs, ()) = timed(|| {
        for _ in 0..ROUNDS {
            black_box(pq_par::par_map(&items, |x| *x));
        }
    });
    (ITEMS * ROUNDS) as f64 / secs
}

/// µs per call of the three statistics the figures lean on, on
/// vote-sized inputs: ANOVA over 5 groups of 400 ratings, a t interval
/// over 400, Pearson over 36 site means.
fn stats(seed: u64) -> [f64; 3] {
    let mut rng = SimRng::new(seed).fork("probe-stats");
    let groups: Vec<Vec<f64>> = (0..5)
        .map(|g| {
            (0..400)
                .map(|_| rng.normal_with(40.0 + f64::from(g), 12.0))
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = groups.iter().map(Vec::as_slice).collect();
    let xs: Vec<f64> = (0..36).map(|_| rng.range_f64(500.0, 9000.0)).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 60.0 - x / 200.0 + rng.normal()).collect();
    let per_call_us = |calls: u32, f: &dyn Fn()| {
        let (secs, ()) = timed(|| (0..calls).for_each(|_| f()));
        secs * 1e6 / f64::from(calls)
    };
    [
        per_call_us(2_000, &|| {
            black_box(pq_stats::one_way_anova(black_box(&refs)));
        }),
        per_call_us(20_000, &|| {
            black_box(pq_stats::t_interval(black_box(&groups[0]), 0.99));
        }),
        per_call_us(200_000, &|| {
            black_box(pq_stats::pearson(black_box(&xs), black_box(&ys)));
        }),
    ]
}

/// 200 durable appends to a journal under `out`. Times the disk
/// (`fdatasync` per record), so it is informational.
fn journal(out: &Path) -> Result<f64, String> {
    const RECORDS: u32 = 200;
    let path = out.join("probe-journal.jsonl");
    let io = |e: std::io::Error| format!("journal probe at {}: {e}", path.display());
    pq_ckpt::journal_open(&path, false).map_err(io)?;
    let (secs, res) = timed(|| {
        (0..RECORDS).try_for_each(|i| {
            pq_ckpt::journal_append(&pq_ckpt::Record::new(
                "cell",
                &format!("site-{i}/LTE/QUIC"),
                [("plt".to_string(), format!("{:016x}", u64::from(i) << 20))],
            ))
        })
    });
    res.map_err(io)?;
    pq_ckpt::journal_complete().map_err(io)?;
    Ok(f64::from(RECORDS) / secs)
}

/// Wall time of the smoke stimulus grid on one thread.
fn smoke_build_s(seed: u64) -> f64 {
    let sites: Vec<Website> = pq_web::corpus().into_iter().take(4).collect();
    timed(|| {
        black_box(StimulusSet::build_with_faults(
            &sites,
            &NetworkKind::ALL,
            &Protocol::ALL,
            3,
            seed,
            None,
        ))
    })
    .0
}

/// What switching an instrument on costs: the smoke grid with it off
/// and on, three alternations, `median(on) / median(off) − 1`.
fn overhead_share(seed: u64, switch: impl Fn(bool)) -> f64 {
    pq_par::set_jobs(Some(1));
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        switch(false);
        off.push(smoke_build_s(seed));
        switch(true);
        on.push(smoke_build_s(seed));
    }
    switch(false);
    crate::stats::median(&on) / crate::stats::median(&off) - 1.0
}

/// The one externally specified setting we have (PEMI, SNIPPETS.md):
/// near segment 1 % loss / 2 ms / 100 Mbps, far segment 0 % / 50 ms /
/// 10 Mbps, bulk transfer, QUIC with and without the middlebox.
///
/// How it maps onto the model — and where it cannot — is in README.md
/// ("The PEMI cell").
pub mod pemi {
    use super::*;

    /// The near (client-side) segment as the access network: its
    /// bandwidth and loss, and the whole path's 52 ms RTT, which
    /// `EdgeConfig::client_rtt_share` then splits.
    pub fn edge_net() -> NetworkConfig {
        NetworkConfig {
            kind: NetworkKind::Lte,
            up_bps: 100_000_000,
            down_bps: 100_000_000,
            min_rtt: SimDuration::from_millis(52),
            loss: 0.01,
            queue_ms: 200,
        }
    }

    /// 2 ms of 52 ms is a share of 0.038; the model clamps shares to
    /// 0.05, so the near segment gets 2.6 ms and the far one 49.4 ms.
    pub fn edge_config() -> EdgeConfig {
        EdgeConfig {
            client_rtt_share: 2.0 / 52.0,
            backbone_bps: 10_000_000,
            ..EdgeConfig::default()
        }
    }

    /// Plain QUIC has no junction, so the path is one link: the
    /// bottleneck's 10 Mbps, the sum of the delays, and the path's one
    /// loss rate.
    pub fn plain_net() -> NetworkConfig {
        NetworkConfig {
            up_bps: 10_000_000,
            down_bps: 10_000_000,
            ..edge_net()
        }
    }

    /// One 4 MB object: `Website::generate` caps a root document at
    /// 400 kB, so the generated single-object site has its size set
    /// afterwards.
    pub fn site() -> Website {
        let mut site = Website::generate(&SiteSpec {
            name: "pemi-bulk".to_string(),
            total_bytes: 4_000_000,
            objects: 1,
            origins: 1,
            seed: 0x9e31,
        });
        site.objects[0].size = 4_000_000;
        site
    }

    /// `(host ms of the QUIC-MBX loads, goodput with the middlebox ÷
    /// goodput without)` over 8 load seeds; the ratio is simulated
    /// time only, so it repeats exactly.
    pub fn cell(seed: u64) -> (f64, f64) {
        const LOADS: u64 = 8;
        let site = site();
        let opts = LoadOptions {
            edge: Some(edge_config()),
            processing_scale: 0.0,
            ..LoadOptions::default()
        };
        let plt_s = |protocol: Protocol, net: &NetworkConfig| -> f64 {
            (0..LOADS)
                .map(|i| {
                    let res = load_page(&site, net, protocol, seed.wrapping_add(i), &opts);
                    assert!(res.complete, "PEMI {} load incomplete", protocol.label());
                    res.plt.as_secs_f64()
                })
                .sum()
        };
        let plain_s = plt_s(Protocol::Quic, &plain_net());
        let (host_s, mbx_s) = timed(|| plt_s(Protocol::QuicMbx, &edge_net()));
        (host_s * 1e3, plain_s / mbx_s)
    }
}

/// Run every probe under its own span and name the results.
pub fn run(rec: &mut Recorder, spec: &Spec, seed: u64, out: &Path) -> Result<Metrics, String> {
    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));

    put(
        "sim.event_queue.ops_per_s",
        "1/s",
        rec.scope("probe.event_queue", |_| event_queue(seed)),
    );
    put(
        "sim.link.packets_per_s",
        "1/s",
        rec.scope("probe.link", |_| link(spec, seed)),
    );
    put(
        "transport.rangeset.ops_per_s",
        "1/s",
        rec.scope("probe.rangeset", |_| rangeset(seed)),
    );
    for (stack, label) in [(Protocol::TcpPlus, "tcp_plus"), (Protocol::Quic, "quic")] {
        for (net, cond) in [(NetworkKind::Lte, "clean"), (NetworkKind::Mss, "lossy")] {
            let v = rec.scope(&format!("probe.bulk.{label}.{cond}"), |_| {
                bulk_segs_per_s(stack, net, seed)
            });
            put(
                &format!("transport.bulk.{label}.{cond}.segs_per_s"),
                "1/s",
                v,
            );
        }
    }
    let (host_ms, ratio) = rec.scope("probe.pemi", |_| pemi::cell(seed));
    put("edge.pemi.host_ms", "ms", host_ms);
    put("edge.pemi.goodput_ratio", "ratio", ratio);
    put(
        "par.dispatch.tasks_per_s",
        "1/s",
        rec.scope("probe.par_dispatch", |_| par_dispatch()),
    );
    let [anova, t_interval, pearson] = rec.scope("probe.stats", |_| stats(seed));
    put("stats.anova_us", "us", anova);
    put("stats.t_interval_us", "us", t_interval);
    put("stats.pearson_us", "us", pearson);
    put(
        "ckpt.journal.records_per_s",
        "1/s",
        rec.scope("probe.journal", |_| journal(out))?,
    );
    put(
        "obs.trace_overhead_share",
        "ratio",
        rec.scope("probe.obs_overhead", |_| {
            overhead_share(seed, |on| {
                let level = if on {
                    pq_obs::Level::Info
                } else {
                    pq_obs::Level::Off
                };
                pq_obs::tracer().set_level(level);
                // The ring keeps what the traced builds recorded; empty
                // it so every build starts with the same buffer.
                pq_obs::tracer().drain();
            })
        }),
    );
    put(
        "prof.overhead_share",
        "ratio",
        rec.scope("probe.prof_overhead", |_| {
            overhead_share(seed, |on| {
                pq_prof::configure(false, on);
                pq_prof::reset();
            })
        }),
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pemi_cell_maps_the_two_segments() {
        let (net, ec) = (pemi::edge_net(), pemi::edge_config());
        let near = net.client_segment(ec.client_rtt_share);
        let far = net.origin_segment(ec.client_rtt_share, ec.backbone_bps);
        assert_eq!((near.down_bps, near.loss), (100_000_000, 0.01));
        assert_eq!((far.down_bps, far.loss), (10_000_000, 0.0));
        // The share clamp: 2.6 ms + 49.4 ms, not 2 + 50.
        assert!((near.min_rtt.as_millis_f64() - 2.6).abs() < 1e-6);
        assert!((far.min_rtt.as_millis_f64() - 49.4).abs() < 1e-6);
        let site = pemi::site();
        assert_eq!((site.objects.len(), site.total_bytes()), (1, 4_000_000));
    }
}
