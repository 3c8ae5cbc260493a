//! The traced run: the per-layer numbers, measured from outside.
//!
//! * two untraced repeats, on one worker and on every core — the
//!   reference for the tracing overhead, the serial-equals-parallel
//!   check, and `par.*`;
//! * **A** — the repeat again with a span around each public call and
//!   registry counters read at the same boundaries;
//! * **B** — cell replay: the workload's sites × all networks × all
//!   stacks, run index 0, one load at a time;
//! * **C** — the layer probes of [`crate::probes`].
//!
//! Spans are kept in memory and written as a Chrome trace at the end.

use crate::counters::{ratio, Counters};
use crate::probes::{self, Metrics};
use crate::spans::Recorder;
use crate::stats::{median, tail};
use crate::workloads::{repeat, setup, Inputs, Workload};
use pq_metrics::{typical_run, MetricSet, Recording};
use pq_sim::NetworkKind;
use pq_study::stimulus::run_seed;
use pq_transport::Protocol;
use pq_web::{load_page, LoadOptions};
use std::hint::black_box;
use std::path::Path;

pub struct Traced {
    pub metrics: Metrics,
    /// Pipeline executions checked (two untraced, one traced).
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Metric-name suffix of a stack.
fn stack_slug(p: Protocol) -> &'static str {
    match p {
        Protocol::Tcp => "tcp",
        Protocol::TcpPlus => "tcp_plus",
        Protocol::TcpPlusBbr => "tcp_plus_bbr",
        Protocol::Quic => "quic",
        Protocol::QuicBbr => "quic_bbr",
        Protocol::QuicEdge => "quic_edge",
        Protocol::QuicMbx => "quic_mbx",
        Protocol::H2Edge => "h2_edge",
    }
}

/// Name prefix of phase B's per-load spans; the full name carries the
/// stack and the network as labels.
const LOAD_SPAN: &str = "web.load_page";

/// Tasks each pool worker has executed so far.
fn worker_tasks(jobs: usize) -> Vec<u64> {
    (0..jobs)
        .map(|id| pq_obs::registry().counter_value(&format!("par.worker_tasks{{worker=\"{id}\"}}")))
        .collect()
}

/// What phase B measured beyond what its spans (`replay.timed`,
/// `replay.counted` and their children) already carry.
struct Replay {
    /// Host µs of each timed load, with its stack and network.
    loads: Vec<(Protocol, NetworkKind, f64)>,
    retransmits: u64,
    /// The counting sweep's allocations, bytes and live-heap peak.
    allocs: u64,
    alloc_bytes: u64,
    peak_live_bytes: u64,
}

/// Phase B. The cells run twice: once timed with the counting
/// allocator off (it costs about a tenth of a load), once counted.
fn replay(rec: &mut Recorder, inp: &Inputs, seed: u64) -> Replay {
    pq_par::set_jobs(Some(1));
    let opts = LoadOptions {
        faults: inp.plan.clone(),
        ..LoadOptions::default()
    };
    let cells: Vec<(usize, NetworkKind, Protocol)> = (0..inp.sites.len())
        .flat_map(|s| {
            NetworkKind::ALL
                .into_iter()
                .flat_map(move |n| Protocol::ALL_WITH_EDGE.into_iter().map(move |p| (s, n, p)))
        })
        .collect();
    let load = |&(s, net, stack): &(usize, NetworkKind, Protocol)| {
        let site = &inp.sites[s];
        let rs = run_seed(seed, &site.name, net, stack, 0);
        load_page(site, &net.config(), stack, rs, &opts)
    };

    let first_span = rec.spans().len();
    let retransmits = rec.scope("replay.timed", |rec| {
        let mut retransmits = 0;
        let mut seen: Vec<MetricSet> = Vec::new();
        for cell in &cells {
            let name = format!(
                "{LOAD_SPAN}{{stack=\"{}\",net=\"{}\"}}",
                cell.2.label(),
                cell.1.name()
            );
            let res = rec.scope(&name, |_| load(cell));
            retransmits += res.retransmits;
            rec.scope("metrics.extract", |_| {
                seen.push(MetricSet::from_timeline(&res.timeline, res.plt));
                black_box(Recording::render(&res.timeline, res.plt, 10));
                black_box(typical_run(&seen));
            });
            if seen.len() == 31 {
                seen.clear();
            }
        }
        retransmits
    });
    // One load span per cell, in cell order.
    let loads = rec.spans()[first_span..]
        .iter()
        .filter(|s| s.name.starts_with(LOAD_SPAN))
        .zip(&cells)
        .map(|(s, &(_, net, stack))| (stack, net, s.dur_ns() as f64 / 1e3))
        .collect();
    let snap = rec.scope("replay.counted", |_| {
        pq_prof::reset();
        pq_prof::configure(true, false);
        for cell in &cells {
            black_box(load(cell));
        }
        pq_prof::configure(false, false);
        pq_prof::alloc_snapshot()
    });
    Replay {
        loads,
        retransmits,
        allocs: snap.total_allocs,
        alloc_bytes: snap.total_bytes,
        peak_live_bytes: snap.peak_bytes,
    }
}

pub fn run(w: &'static Workload, seed: u64, out_dir: &Path) -> Result<Traced, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let spec = w.spec();
    let mut rec = Recorder::new(format!("{}-seed{seed}", w.name));
    let mut failures = Vec::new();

    let inputs = setup(&spec, seed, &mut rec);

    // Untraced, on one worker and on every core: the reference for
    // the tracing overhead, `par.*`, and the check that the worker
    // count changes no output.
    let every_core = pq_par::available_jobs();
    let serial = repeat(&inputs, seed, &mut Recorder::off());
    pq_par::set_jobs(Some(every_core));
    let tasks_before = worker_tasks(every_core);
    let counts_before = Counters::read();
    let par = repeat(&inputs, seed, &mut Recorder::off());
    let par_counts = Counters::read().since(&counts_before);
    let tasks_after = worker_tasks(every_core);
    pq_par::set_jobs(Some(1));
    if let Err(e) = w.check(seed, &serial.outcome) {
        failures.push(format!("untraced repeat: {e}"));
    }
    if let Err(e) = par.outcome.check_against(&serial.outcome) {
        failures.push(format!("{every_core} workers differ from 1: {e}"));
    }

    // A: the same repeat under spans.
    let a = repeat(&inputs, seed, &mut rec);
    if let Err(e) = a.outcome.check_against(&serial.outcome) {
        failures.push(format!("traced repeat differs from untraced: {e}"));
    }
    let pipeline = rec
        .find("pipeline")
        .expect("repeat opens the pipeline span");
    let pipeline_s = rec.spans()[pipeline].dur_s();
    let self_cover = rec.subtree_self_ns(pipeline) as f64 / 1e9 / pipeline_s;
    // The span that built the workload's stimulus set: inside the
    // pipeline on the grids, in set-up on the resampling workload.
    let build = rec
        .find("study.stimulus_build")
        .or_else(|| rec.find("setup.stimulus_build"))
        .expect("every workload builds a stimulus set");
    let build_s = rec.spans()[build].dur_s();
    let built = rec.spans()[build].counts;

    let b = replay(&mut rec, &inputs, seed);
    let timed_sweep = rec.find("replay.timed").expect("replay records it");
    let replayed = rec.spans()[timed_sweep].counts;
    let counted = rec.spans()[rec.find("replay.counted").expect("replay records it")].counts;
    let extract_s = rec.total_s(timed_sweep, "metrics.extract");
    let c = probes::run(&mut rec, &spec, seed, out_dir)?;

    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));

    let loads = built.f("web.pageloads");
    let offered = built.f("sim.link.offered");
    put(
        "sim.events_per_load",
        "count",
        ratio(built.f("sim.events_processed"), loads),
    );
    put(
        "sim.events_per_s",
        "1/s",
        ratio(built.f("sim.events_processed"), build_s),
    );
    put(
        "sim.link.drop_share",
        "ratio",
        ratio(offered - built.f("sim.link.delivered"), offered),
    );
    put(
        "fault.injected_per_load",
        "count",
        ratio(built.f("fault.injected"), loads),
    );
    put(
        "web.incomplete_share",
        "ratio",
        ratio(built.f("web.pageloads_incomplete"), loads),
    );
    let cells = (spec.n_sites * spec.networks.len() * spec.stacks.len()) as f64;
    put(
        "study.retries_per_cell",
        "count",
        built.f("run.retries") / cells,
    );
    put(
        "study.quarantined_cells",
        "count",
        built.f("run.quarantined"),
    );

    put("study.stimulus_build_s", "s", build_s);
    let run_study_s = rec.total_s(pipeline, "study.run_study");
    put("study.run_study_s", "s", run_study_s);
    put(
        "study.votes_per_s",
        "1/s",
        ratio(a.outcome.votes as f64, run_study_s),
    );
    let mut analysis_s = 0.0;
    for fig in ["fig3", "fig4", "fig5", "fig6"] {
        let s = rec.total_s(pipeline, &format!("study.analysis.{fig}"));
        analysis_s += s;
        put(&format!("study.analysis.{fig}_ms"), "ms", s * 1e3);
    }
    put(
        "share.stimulus_build",
        "ratio",
        rec.total_s(pipeline, "study.stimulus_build") / pipeline_s,
    );
    put("share.run_study", "ratio", run_study_s / pipeline_s);
    put("share.analysis", "ratio", analysis_s / pipeline_s);
    put(
        "bench.trace_overhead_share",
        "ratio",
        a.wall_s() / serial.wall_s() - 1.0,
    );

    put("par.speedup", "ratio", serial.wall_s() / par.wall_s());
    put(
        "par.efficiency",
        "ratio",
        serial.wall_s() / par.wall_s() / every_core as f64,
    );
    put(
        "par.busy_share",
        "ratio",
        par.cpu_s() / (every_core as f64 * par.wall_s()),
    );
    let executed: Vec<u64> = tasks_after
        .iter()
        .zip(&tasks_before)
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = executed.iter().sum();
    put(
        "par.max_worker_task_share",
        "ratio",
        ratio(
            executed.iter().copied().max().unwrap_or(0) as f64,
            total as f64,
        ),
    );
    put("par.steals", "count", par_counts.f("par.steals"));

    let n = b.loads.len() as f64;
    let p50 = |pick: &dyn Fn(&(Protocol, NetworkKind, f64)) -> bool| {
        median(
            &b.loads
                .iter()
                .filter(|l| pick(l))
                .map(|l| l.2)
                .collect::<Vec<_>>(),
        )
    };
    for stack in Protocol::ALL_WITH_EDGE {
        let name = format!("web.load_host_us.p50.{}", stack_slug(stack));
        put(&name, "us", p50(&|l| l.0 == stack));
    }
    for net in NetworkKind::ALL {
        let name = format!("web.load_host_us.p50.{}", net.name().to_ascii_lowercase());
        put(&name, "us", p50(&|l| l.1 == net));
    }
    let host_us: Vec<f64> = b.loads.iter().map(|l| l.2).collect();
    let max_us = host_us.iter().copied().fold(0.0, f64::max);
    put(
        "web.load_host_us.tail",
        "us",
        tail(&host_us).map_or(max_us, |(_, v)| v),
    );
    put("web.load_host_us.max", "us", max_us);
    put("metrics.extract_us_per_load", "us", extract_s * 1e6 / n);
    put(
        "transport.retransmits_per_load",
        "count",
        b.retransmits as f64 / n,
    );
    put(
        "edge.pool_reuse_share",
        "ratio",
        ratio(
            replayed.f("edge.conns_reused"),
            replayed.f("edge.conns_reused") + replayed.f("edge.conns_opened"),
        ),
    );
    let mbx_loads = b.loads.iter().filter(|l| l.0.has_middlebox()).count() as f64;
    put(
        "edge.mbx_early_retx_per_load",
        "count",
        ratio(replayed.f("edge.mbx_early_retx"), mbx_loads),
    );
    put(
        "web.allocs_per_load",
        "count",
        ratio(b.allocs as f64, counted.f("web.pageloads")),
    );
    put(
        "web.alloc_bytes_per_load",
        "B",
        ratio(b.alloc_bytes as f64, counted.f("web.pageloads")),
    );
    put(
        "web.allocs_per_event",
        "count",
        ratio(b.allocs as f64, counted.f("sim.events_processed")),
    );
    put(
        "web.peak_live_mb",
        "MiB",
        b.peak_live_bytes as f64 / (1024.0 * 1024.0),
    );
    m.extend(c);

    let path = out_dir.join(format!("trace.{}.json", w.name));
    std::fs::write(&path, rec.to_chrome_trace())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "  untraced wall {:.4} s, traced {:.4} s; phase-A self times cover {:.2} % of its wall; \
         web.load_host_us.tail is p{} of {} loads; {} spans in {}",
        serial.wall_s(),
        a.wall_s(),
        100.0 * self_cover,
        tail(&host_us).map_or(100.0, |(p, _)| p),
        host_us.len(),
        rec.spans().len(),
        path.display()
    );
    for why in &failures {
        eprintln!("[pq-perf] {}: traced run FAILED: {why}", w.name);
    }
    Ok(Traced {
        metrics: m,
        attempted: 3,
        failures,
    })
}
