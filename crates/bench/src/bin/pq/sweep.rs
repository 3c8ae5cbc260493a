//! `pq sweep`: where does QUIC's perceptible advantage live?
//!
//! The paper samples four points of the network space (Table 2) and
//! concludes that QUIC's edge grows as networks get slower and
//! lossier. This sweep maps the whole plane: median Speed-Index ratio
//! QUIC/TCP+ over a bandwidth × loss grid (and an RTT column), with
//! the ~7.5 % just-noticeable-difference contour marked — cells where
//! users would notice per the Study-1 psychophysics.
//!
//! The grid cells are independent page-load simulations seeded purely
//! by the cell, so they execute on the `pq-par` pool
//! (`PQ_JOBS` workers) and print in canonical order with bit-identical
//! values at any worker count.
//!
//! ```sh
//! PQ_JOBS=8 cargo run --release -p pq-bench --bin pq -- sweep
//! ```

use pq_sim::{NetworkConfig, NetworkKind, SimDuration};
use pq_transport::Protocol;
use pq_web::{catalogue, load_page, LoadOptions};

const RUNS: u64 = 7;

fn median(mut v: Vec<f64>) -> f64 {
    // total_cmp: NaN sorts high instead of panicking the whole sweep.
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn si_ratio(site: &pq_web::Website, net: &NetworkConfig) -> f64 {
    let opts = LoadOptions::default();
    let si = |p: Protocol| {
        median(
            (0..RUNS)
                .map(|s| load_page(site, net, p, 9000 + s, &opts).metrics.si_ms)
                .collect(),
        )
    };
    si(Protocol::TcpPlus) / si(Protocol::Quic)
}

fn cell(ratio: f64) -> String {
    // Mark cells beyond the mean JND (≈ 7.5 % in log-time).
    let mark = if ratio > 1.075 {
        "*" // QUIC noticeably faster
    } else if ratio < 1.0 / 1.075 {
        "!" // TCP+ noticeably faster
    } else {
        " "
    };
    format!("{ratio:>6.3}{mark}")
}

pub fn run(_: &pq_bench::RunSpec) {
    let Some(site) = catalogue::site("gov.uk") else {
        eprintln!("[sweep] corpus site gov.uk missing — corpus changed? aborting");
        std::process::exit(1);
    };
    let jobs = pq_par::jobs();
    eprintln!("[sweep] jobs={jobs}");
    println!(
        "median SI(TCP+) / SI(QUIC) for gov.uk  (*: QUIC side of the ~7.5% JND, !: TCP+ side)\n"
    );

    println!("— bandwidth × loss (RTT 100 ms, queue 200 ms) —");
    let bands = [
        500_000u64, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 25_000_000,
    ];
    let losses = [0.0, 0.01, 0.02, 0.04, 0.06];

    // Scatter the whole bandwidth × loss grid over the worker pool
    // (row-major, so gathered results print in table order).
    let grid: Vec<NetworkConfig> = bands
        .iter()
        .flat_map(|&down| {
            losses.iter().map(move |&loss| NetworkConfig {
                kind: NetworkKind::Lte,
                up_bps: down / 3,
                down_bps: down,
                min_rtt: SimDuration::from_millis(100),
                loss,
                queue_ms: 200,
            })
        })
        .collect();
    let ratios = pq_par::par_map(&grid, |net| si_ratio(&site, net));

    print!("{:>10}", "down\\loss");
    for l in losses {
        print!(" {:>6.0}%", l * 100.0);
    }
    println!();
    for (bi, down) in bands.iter().enumerate() {
        print!("{:>8.1}Mb", *down as f64 / 1e6);
        for li in 0..losses.len() {
            print!(" {}", cell(ratios[bi * losses.len() + li]));
        }
        println!();
    }

    println!("\n— RTT sweep (10 Mbps down, no loss) —");
    print!("{:>10}", "RTT");
    let rtts = [10u64, 25, 50, 100, 200, 400, 800];
    for r in rtts {
        print!(" {r:>5}ms");
    }
    println!();
    let rtt_grid: Vec<NetworkConfig> = rtts
        .iter()
        .map(|&rtt| NetworkConfig {
            kind: NetworkKind::Lte,
            up_bps: 3_000_000,
            down_bps: 10_000_000,
            min_rtt: SimDuration::from_millis(rtt),
            loss: 0.0,
            queue_ms: 200,
        })
        .collect();
    let rtt_ratios = pq_par::par_map(&rtt_grid, |net| si_ratio(&site, net));
    print!("{:>10}", "ratio");
    for ratio in rtt_ratios {
        print!(" {}", cell(ratio));
    }
    println!();
    println!("\nExpected shape (paper takeaway): the ratio grows down-and-right");
    println!("(slower, lossier) and with RTT — QUIC's 1-RTT handshake and loss");
    println!("recovery matter most exactly where networks are worst.");
}
