//! Inspect the 36-site study corpus: structural parameters and the
//! visual-completeness curve of one load, rendered as ASCII — a peek
//! at the "videos" the study participants rate.
//!
//! ```sh
//! cargo run --release --example site_explorer [site] [network]
//! ```

use perceiving_quic::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!(
            "{:<20} {:>8} {:>8} {:>8}  (pass a site name for details)",
            "site", "kB", "objects", "origins"
        );
        for spec in web::corpus_specs() {
            let site = web::Website::generate(&spec);
            println!(
                "{:<20} {:>8} {:>8} {:>8}",
                site.name,
                site.total_bytes() / 1000,
                site.object_count(),
                site.origins
            );
        }
        return;
    }

    let site = web::site(&args[0]).unwrap_or_else(|| {
        eprintln!("unknown site {:?}", args[0]);
        std::process::exit(1)
    });
    let kind = match args.get(1).map(String::as_str) {
        Some("DSL") | None => NetworkKind::Dsl,
        Some("LTE") => NetworkKind::Lte,
        Some("DA2GC") => NetworkKind::Da2gc,
        Some("MSS") => NetworkKind::Mss,
        Some(other) => {
            eprintln!("unknown network {other:?} (DSL/LTE/DA2GC/MSS)");
            std::process::exit(1)
        }
    };
    let net = kind.config();

    println!(
        "{} on {}: {} objects, {} kB, {} origins\n",
        site.name,
        kind.name(),
        site.object_count(),
        site.total_bytes() / 1000,
        site.origins
    );

    for proto in [Protocol::Tcp, Protocol::Quic] {
        let r = web::load_page(&site, &net, proto, 11, &LoadOptions::default());
        let rec = Recording::render(&r.timeline, r.plt, 10);
        println!(
            "{}: FVC {:.2}s  SI {:.2}s  PLT {:.2}s  ({} connections, {} retransmissions)",
            proto.label(),
            r.metrics.fvc_ms / 1000.0,
            r.metrics.si_ms / 1000.0,
            r.metrics.plt_ms / 1000.0,
            r.connections,
            r.retransmits
        );
        // ASCII strip of the video: one column per second, height = VC.
        let secs = rec.duration_secs().ceil() as usize;
        for level in (1..=5).rev() {
            let threshold = level as f64 / 5.0;
            let row: String = (0..secs.min(72))
                .map(|s| {
                    if rec.vc_at(s as f64 + 0.99) >= threshold {
                        '█'
                    } else {
                        ' '
                    }
                })
                .collect();
            println!("  {:>3.0}% |{row}", threshold * 100.0);
        }
        println!("       +{}", "-".repeat(secs.min(72)));
        println!(
            "        0s {:>width$}",
            format!("{secs}s"),
            width = secs.min(72).saturating_sub(3)
        );
        println!();
    }
}
