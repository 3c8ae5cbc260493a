//! End-to-end page-load tests: the whole stack (site → HTTP → transport
//! → emulated link → render → metrics) on real corpus sites.

use crate::browser::{load_page, LoadOptions, PageLoadResult};
use crate::catalogue;
use pq_metrics::Recording;
use pq_sim::{NetworkConfig, NetworkKind};
use pq_transport::Protocol;

fn load(site_name: &str, net: &NetworkConfig, proto: Protocol, seed: u64) -> PageLoadResult {
    let site = catalogue::site(site_name).expect("site in corpus");
    load_page(&site, net, proto, seed, &LoadOptions::default())
}

#[test]
fn small_site_loads_on_dsl_all_protocols() {
    let net = NetworkKind::Dsl.config();
    for proto in Protocol::ALL {
        let r = load("apache.org", &net, proto, 1);
        assert!(r.complete, "{}: incomplete", proto.label());
        assert!(
            r.metrics.well_ordered(),
            "{}: {:?}",
            proto.label(),
            r.metrics
        );
        assert!(
            r.metrics.plt_ms < 3_000.0,
            "{}: small site too slow: {:?}",
            proto.label(),
            r.metrics
        );
    }
}

#[test]
fn large_site_loads_on_dsl() {
    let net = NetworkKind::Dsl.config();
    for proto in [Protocol::TcpPlus, Protocol::Quic] {
        let r = load("nytimes.com", &net, proto, 2);
        assert!(r.complete, "{}: incomplete", proto.label());
        // ~4.2 MB over 25 Mbps ≈ 1.4 s floor.
        assert!(
            (1_000.0..20_000.0).contains(&r.metrics.plt_ms),
            "{}: plt {:?}",
            proto.label(),
            r.metrics.plt_ms
        );
    }
}

#[test]
fn quic_renders_earlier_than_stock_tcp() {
    // The 1-RTT handshake advantage must show up in FVC on every
    // network; compare medians over a few seeds for robustness.
    for kind in [NetworkKind::Dsl, NetworkKind::Lte] {
        let net = kind.config();
        let mut tcp = Vec::new();
        let mut quic = Vec::new();
        for seed in 0..5 {
            tcp.push(
                load("wikipedia.org", &net, Protocol::Tcp, seed)
                    .metrics
                    .fvc_ms,
            );
            quic.push(
                load("wikipedia.org", &net, Protocol::Quic, seed)
                    .metrics
                    .fvc_ms,
            );
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let (m_tcp, m_quic) = (med(&mut tcp), med(&mut quic));
        assert!(
            m_quic < m_tcp,
            "{kind:?}: QUIC FVC {m_quic} !< TCP FVC {m_tcp}"
        );
    }
}

#[test]
fn multi_origin_site_opens_many_connections() {
    let net = NetworkKind::Dsl.config();
    let r = load("nytimes.com", &net, Protocol::Quic, 3);
    assert!(
        r.connections >= 10,
        "nytimes contacts many origins: {}",
        r.connections
    );
    let r2 = load("apache.org", &net, Protocol::Quic, 3);
    assert!(r2.connections <= 2, "apache is near-single-origin");
}

#[test]
fn loss_free_networks_have_deterministic_loss_counters() {
    let net = NetworkKind::Dsl.config();
    let r = load("gov.uk", &net, Protocol::TcpPlus, 4);
    assert!(r.complete);
    // DSL has no random loss; all retransmissions (if any) come from
    // queue overflow.
    assert!(r.metrics.well_ordered());
}

#[test]
fn da2gc_loss_hurts_tcp_plus_more_than_quic() {
    // §4.3: on DA2GC, TCP+ retransmits more (IW32 bursts into a 15 kB
    // BDP) and QUIC recovers better. Check PLT medians over seeds.
    let net = NetworkKind::Da2gc.config();
    let mut plus = Vec::new();
    let mut quic = Vec::new();
    for seed in 0..7 {
        plus.push(load("w3.org", &net, Protocol::TcpPlus, seed).metrics.si_ms);
        quic.push(load("w3.org", &net, Protocol::Quic, seed).metrics.si_ms);
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let (m_plus, m_quic) = (med(&mut plus), med(&mut quic));
    assert!(
        m_quic < m_plus,
        "QUIC SI {m_quic} should beat TCP+ SI {m_plus} on DA2GC"
    );
}

#[test]
fn runs_vary_with_seed_but_not_without() {
    let net = NetworkKind::Mss.config();
    let a = load("wordpress.com", &net, Protocol::Quic, 10);
    let b = load("wordpress.com", &net, Protocol::Quic, 10);
    let c = load("wordpress.com", &net, Protocol::Quic, 11);
    assert_eq!(a.metrics.plt_ms, b.metrics.plt_ms, "same seed, same run");
    assert_ne!(a.metrics.plt_ms, c.metrics.plt_ms, "different seed differs");
}

#[test]
fn recording_rendered_from_the_timeline() {
    let net = NetworkKind::Dsl.config();
    let r = load("google.com", &net, Protocol::Quic, 5);
    let rec = Recording::render(&r.timeline, r.plt, 30);
    assert_eq!(rec.fps, 30);
    assert!(rec.frames.last().copied().unwrap_or(0.0) >= 1.0 - 1e-9);
    assert!((rec.metrics.plt_ms - r.metrics.plt_ms).abs() < 1e-9);
}

#[test]
fn every_network_completes_the_lab_sites() {
    for kind in NetworkKind::ALL {
        let net = kind.config();
        for name in catalogue::LAB_SITES {
            let proto = Protocol::Quic;
            let r = load(name, &net, proto, 6);
            assert!(
                r.complete,
                "{name} on {kind:?} incomplete (plt {:?})",
                r.plt
            );
            assert!(
                r.metrics.well_ordered(),
                "{name} on {kind:?}: {:?}",
                r.metrics
            );
        }
    }
}

#[test]
fn plt_exceeds_lvc_when_beacons_straggle() {
    // Beacons carry no visual weight; pages with them should show
    // PLT > LVC at least sometimes.
    let net = NetworkKind::Lte.config();
    let mut saw_gap = false;
    for name in ["nytimes.com", "etsy.com", "demorgen.be"] {
        let r = load(name, &net, Protocol::TcpPlus, 8);
        if r.metrics.plt_ms > r.metrics.lvc_ms + 1.0 {
            saw_gap = true;
        }
    }
    assert!(saw_gap, "beacon tail should push PLT past LVC somewhere");
}

#[test]
fn retransmissions_reported_on_lossy_networks() {
    let net = NetworkKind::Mss.config();
    let r = load("etsy.com", &net, Protocol::TcpPlus, 9);
    assert!(r.retransmits > 0, "6 % loss must cause retransmissions");
}

#[test]
fn every_object_finishes_by_onload() {
    // `complete` is onload: it holds once the last object — the root
    // document among them — is processed, and `plt` is not earlier
    // than that nor than the last paint.
    let net = NetworkKind::Dsl.config();
    let r = load("gov.uk", &net, Protocol::Quic, 12);
    assert!(r.complete);
    assert!(r.metrics.well_ordered());
    assert!(r.timeline.last_change().is_some_and(|t| t <= r.plt));
}
