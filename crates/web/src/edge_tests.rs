//! End-to-end page loads through the edge stacks: terminating proxy
//! (`QUIC-EDGE`, `H2-EDGE`) and transparent middlebox (`QUIC-MBX`).

use crate::browser::{load_page, LoadOptions, PageLoadResult};
use crate::catalogue;
use pq_sim::{NetworkConfig, NetworkKind};
use pq_transport::Protocol;

fn load(site_name: &str, net: &NetworkConfig, proto: Protocol, seed: u64) -> PageLoadResult {
    let site = catalogue::site(site_name).expect("site in corpus");
    load_page(&site, net, proto, seed, &LoadOptions::default())
}

#[test]
fn all_edge_stacks_complete_on_dsl() {
    let net = NetworkKind::Dsl.config();
    for proto in Protocol::EDGE {
        let r = load("apache.org", &net, proto, 1);
        assert!(r.complete, "{}: incomplete", proto.label());
        assert!(
            r.metrics.well_ordered(),
            "{}: {:?}",
            proto.label(),
            r.metrics
        );
    }
}

#[test]
fn edge_stacks_complete_on_every_network() {
    for kind in [
        NetworkKind::Dsl,
        NetworkKind::Lte,
        NetworkKind::Mss,
        NetworkKind::Da2gc,
    ] {
        let net = kind.config();
        for proto in Protocol::EDGE {
            let r = load("wikipedia.org", &net, proto, 5);
            assert!(r.complete, "{} on {kind:?}: incomplete", proto.label());
        }
    }
}

#[test]
fn proxy_pools_multi_origin_site_over_fewer_legs() {
    // nytimes contacts many origins; under QUIC-EDGE the client holds
    // ONE H3 connection and the proxy fans out over pooled legs —
    // with pool_size 2 × replicas 2, reuse must kick in.
    let net = NetworkKind::Dsl.config();
    let site = catalogue::site("nytimes.com").expect("site");
    let plain = load_page(&site, &net, Protocol::Quic, 3, &LoadOptions::default());
    let edge = load_page(&site, &net, Protocol::QuicEdge, 3, &LoadOptions::default());
    assert!(edge.complete, "QUIC-EDGE incomplete");
    // Total connections (client + legs) stays bounded by the pools;
    // plain QUIC opens one per origin from the client.
    assert!(
        plain.connections >= 10,
        "plain fan-out expected: {}",
        plain.connections
    );
    assert!(
        edge.connections > 1,
        "proxy must open origin legs: {}",
        edge.connections
    );
}

#[test]
fn proxy_reuses_pooled_connections() {
    let net = NetworkKind::Dsl.config();
    // Many objects, few origins: dispatches outnumber the pool.
    let r = load("wikipedia.org", &net, Protocol::H2Edge, 9);
    assert!(r.complete);
    assert!(
        r.counts.conns_reused > 0,
        "multi-object site must reuse proxy legs: {:?}",
        r.counts
    );
}

#[test]
fn edge_loads_are_bit_identical_across_repeats() {
    let net = NetworkKind::Lte.config();
    for proto in Protocol::EDGE {
        let a = load("w3.org", &net, proto, 11);
        let b = load("w3.org", &net, proto, 11);
        assert_eq!(
            a.metrics.plt_ms,
            b.metrics.plt_ms,
            "{}: PLT differs across identical loads",
            proto.label()
        );
        assert_eq!(a.retransmits, b.retransmits, "{}", proto.label());
        assert_eq!(a.connections, b.connections, "{}", proto.label());
        assert_eq!(
            a.timeline.last_change(),
            b.timeline.last_change(),
            "{}",
            proto.label()
        );
    }
}

#[test]
fn middlebox_early_retransmits_on_lossy_link() {
    // DA2GC's 3.3% loss gives the middlebox plenty to recover; sum
    // early retransmits over seeds so one lucky loss-free load can't
    // fail the test.
    let net = NetworkKind::Da2gc.config();
    let mut early = 0;
    for seed in 0..5 {
        let r = load("w3.org", &net, Protocol::QuicMbx, seed);
        assert!(r.complete, "seed {seed}: incomplete");
        early += r.counts.mbx_early_retx;
    }
    assert!(
        early > 0,
        "middlebox must early-retransmit on a 3.3%-loss link"
    );
}

#[test]
fn table1_stacks_ignore_edge_options() {
    // The edge field must be inert for the paper's five stacks: same
    // result with and without it.
    let net = NetworkKind::Dsl.config();
    let site = catalogue::site("apache.org").expect("site");
    for proto in [Protocol::Quic, Protocol::TcpPlus] {
        let plain = load_page(&site, &net, proto, 7, &LoadOptions::default());
        let edge_opts = LoadOptions {
            edge: Some(pq_edge::EdgeConfig::default()),
            ..LoadOptions::default()
        };
        let with_edge = load_page(&site, &net, proto, 7, &edge_opts);
        assert_eq!(
            plain.metrics.plt_ms,
            with_edge.metrics.plt_ms,
            "{}: edge options leaked into a Table-1 stack",
            proto.label()
        );
        assert_eq!(plain.connections, with_edge.connections);
    }
}
