//! Website models: a structured object graph a browser can load.
//!
//! Substitution note (DESIGN.md §2): the paper replays 36 *recorded*
//! production websites in Mahimahi. We generate synthetic sites whose
//! structural parameters (bytes, object count/size distribution,
//! origin count, discovery depth, render-blocking head resources,
//! beacon tail) are drawn deterministically from a per-site seed so
//! the corpus spans the same ranges.

use crate::object::{ObjectId, ObjectKind, WebObject};
use pq_sim::{OriginId, SimRng};

/// Structural parameters from which a site is generated.
#[derive(Clone, Debug)]
pub struct SiteSpec {
    /// Site hostname (display only).
    pub name: String,
    /// Approximate total transfer size in bytes.
    pub total_bytes: u64,
    /// Number of objects including the root document.
    pub objects: u32,
    /// Number of distinct server origins contacted.
    pub origins: u16,
    /// Seed for the per-site generation stream.
    pub seed: u64,
}

/// A generated website.
#[derive(Clone, Debug)]
pub struct Website {
    /// Hostname.
    pub name: String,
    /// All objects; index 0 is the root HTML document.
    pub objects: Vec<WebObject>,
    /// Number of distinct origins.
    pub origins: u16,
}

impl Website {
    /// Generate a site from its spec. Deterministic: the same spec
    /// yields the same site forever.
    pub fn generate(spec: &SiteSpec) -> Website {
        #[expect(
            clippy::disallowed_methods,
            reason = "catalogue derivation point: site generation is a pure function of the committed spec seed"
        )]
        let mut rng = SimRng::new(spec.seed ^ 0x5173_5173);
        let n = spec.objects.max(1);
        let origins = spec.origins.clamp(1, n.min(u32::from(u16::MAX)) as u16);

        // --- root document: 5–12 % of total bytes, at least 8 kB.
        let html_size = ((spec.total_bytes as f64 * rng.range_f64(0.05, 0.12)) as u64)
            .clamp(8_000, 400_000)
            .min(spec.total_bytes);
        let mut objects = vec![WebObject {
            id: ObjectId(0),
            origin: OriginId(0),
            size: html_size,
            kind: ObjectKind::Html,
            render_weight: 0.0, // filled during normalization
            render_blocking: false,
            discovered_by: None,
            discovery_at: 0.0,
            progressive: true,
            defer_ms: 0.0,
        }];

        // --- subresource kinds: weights tuned to archive statistics.
        let rest = n - 1;
        let mut sizes = Vec::with_capacity(rest as usize);
        let remaining = spec.total_bytes.saturating_sub(html_size).max(1);
        // Log-normal sizes normalized to hit the byte budget.
        let mut raw: Vec<f64> = (0..rest).map(|_| rng.lognormal(0.0, 1.4)).collect();
        let sum: f64 = raw.iter().sum::<f64>().max(1e-9);
        for r in &mut raw {
            sizes.push(((*r / sum) * remaining as f64).max(300.0) as u64);
        }

        // A few render-blocking head resources.
        let blocking = (rest / 12).clamp(1, 4);
        // A beacon tail: ~15 % of objects are non-visual trackers.
        let beacons = rest / 7;
        // Sites differ wildly in how long their analytics tail drags
        // on (the PLT-vs-perception decoupling of §4.4/Fig. 6): a
        // per-site tail factor scales beacon deferrals, and some
        // beacons chain (tag managers loading further tags).
        let tail_scale = rng.lognormal(0.0, 0.8).clamp(0.3, 8.0);
        let mut prev_beacon: Option<ObjectId> = None;

        for (i, size) in (0..rest).zip(sizes) {
            let id = ObjectId(i + 1);
            let kind = if i < blocking {
                if rng.chance(0.6) {
                    ObjectKind::Css
                } else {
                    ObjectKind::Script
                }
            } else if i >= rest - beacons {
                ObjectKind::Beacon
            } else {
                match rng.below(10) {
                    0..=4 => ObjectKind::Image,
                    5..=6 => ObjectKind::Script,
                    7 => ObjectKind::Font,
                    8 => ObjectKind::Xhr,
                    _ => ObjectKind::Css,
                }
            };

            // Origin: first-party biased; beacons are third-party.
            let origin = if kind == ObjectKind::Beacon && origins > 1 {
                OriginId(rng.range_u64(1, u64::from(origins) - 1) as u16)
            } else if rng.chance(0.45) || origins == 1 {
                OriginId(0)
            } else {
                OriginId(rng.range_u64(0, u64::from(origins) - 1) as u16)
            };

            // Discovery: head resources early in the HTML; most content
            // spread through the document; beacons late (often injected
            // by scripts).
            let (discovered_by, discovery_at) = match kind {
                ObjectKind::Css | ObjectKind::Script if i < blocking => {
                    (Some(ObjectId(0)), rng.range_f64(0.02, 0.15))
                }
                // Beacons chain off each other half the time (a tag
                // manager that loads further tags), serializing the
                // onload tail.
                ObjectKind::Beacon => match prev_beacon {
                    Some(parent) if rng.chance(0.5) => (Some(parent), 1.0),
                    _ => (Some(ObjectId(0)), rng.range_f64(0.75, 1.0)),
                },
                ObjectKind::Font => {
                    // Fonts are referenced by a stylesheet when one
                    // exists: discovered only when it completes.
                    (
                        Some(ObjectId(rng.range_u64(1, u64::from(blocking)) as u32)),
                        1.0,
                    )
                }
                _ => (Some(ObjectId(0)), rng.range_f64(0.05, 0.9)),
            };

            let progressive = matches!(kind, ObjectKind::Image | ObjectKind::Html);
            // Deferral: beacons fire after the page settles; some XHR
            // is idle-time work; below-the-fold images lazy-load.
            let defer_ms = match kind {
                ObjectKind::Beacon => rng.range_f64(400.0, 1200.0) * tail_scale,
                ObjectKind::Xhr if rng.chance(0.5) => rng.range_f64(300.0, 800.0),
                ObjectKind::Image if discovery_at > 0.65 && rng.chance(0.6) => {
                    rng.range_f64(300.0, 900.0)
                }
                _ => 0.0,
            };
            if kind == ObjectKind::Beacon {
                prev_beacon = Some(id);
            }
            objects.push(WebObject {
                id,
                origin,
                size,
                kind,
                render_weight: 0.0,
                render_blocking: i < blocking,
                discovered_by,
                discovery_at,
                progressive,
                defer_ms,
            });
        }

        // --- visual weights: HTML text ≈ 25 %, images by size^0.7,
        // fonts small, CSS paints via the blocks it styles (weight 0 —
        // but it *gates* first paint), beacons/XHR zero.
        for o in &mut objects {
            o.render_weight = match o.kind {
                ObjectKind::Image => (o.size as f64).powf(0.7),
                ObjectKind::Font => (o.size as f64).powf(0.5) * 0.2,
                _ => 0.0,
            };
        }
        if let Some((html, visual)) = objects.split_first_mut() {
            let vis_sum: f64 = visual.iter().map(|o| o.render_weight).sum();
            if vis_sum > 0.0 {
                html.render_weight = 0.25;
                for o in visual {
                    o.render_weight *= 0.75 / vis_sum;
                }
            } else {
                html.render_weight = 1.0;
            }
        }

        Website {
            name: spec.name.clone(),
            objects,
            origins,
        }
    }

    /// Total transfer size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.size).sum()
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Sum of visual weights (≈1 by construction).
    pub fn visual_weight_sum(&self) -> f64 {
        self.objects.iter().map(|o| o.render_weight).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(total: u64, objects: u32, origins: u16, seed: u64) -> SiteSpec {
        SiteSpec {
            name: "example.org".into(),
            total_bytes: total,
            objects,
            origins,
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec(1_000_000, 60, 12, 7);
        let a = Website::generate(&s);
        let b = Website::generate(&s);
        assert_eq!(a.object_count(), b.object_count());
        for (x, y) in a.objects.iter().zip(&b.objects) {
            assert_eq!(x.size, y.size);
            assert_eq!(x.origin, y.origin);
            assert_eq!(x.discovery_at, y.discovery_at);
        }
    }

    #[test]
    fn byte_budget_roughly_met() {
        let s = spec(2_000_000, 80, 10, 3);
        let w = Website::generate(&s);
        let total = w.total_bytes() as f64;
        assert!(
            (total / 2_000_000.0 - 1.0).abs() < 0.35,
            "total {total} vs budget 2 MB"
        );
    }

    #[test]
    fn weights_normalized() {
        let w = Website::generate(&spec(800_000, 50, 6, 11));
        let sum = w.visual_weight_sum();
        assert!((sum - 1.0).abs() < 1e-9, "weight sum {sum}");
    }

    #[test]
    fn root_is_html_and_first() {
        let w = Website::generate(&spec(500_000, 30, 4, 13));
        assert_eq!(w.objects[0].kind, ObjectKind::Html);
        assert_eq!(w.objects[0].discovered_by, None);
        for o in &w.objects[1..] {
            assert!(o.discovered_by.is_some());
        }
    }

    #[test]
    fn origins_respected() {
        let w = Website::generate(&spec(500_000, 40, 5, 17));
        assert!(w.objects.iter().all(|o| o.origin.0 < w.origins));
        assert_eq!(w.origins, 5);
    }

    #[test]
    fn has_blocking_and_beacons() {
        let w = Website::generate(&spec(1_500_000, 70, 8, 19));
        assert!(
            w.objects.iter().any(|o| o.render_blocking),
            "head resources exist"
        );
        assert!(
            w.objects.iter().any(|o| o.kind == ObjectKind::Beacon),
            "beacon tail exists"
        );
        // Beacons never paint.
        for o in &w.objects {
            if o.kind == ObjectKind::Beacon {
                assert_eq!(o.render_weight, 0.0);
            }
        }
    }

    #[test]
    fn single_object_site() {
        let w = Website::generate(&spec(50_000, 1, 1, 23));
        assert_eq!(w.object_count(), 1);
        assert!((w.visual_weight_sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn font_discovered_by_stylesheet() {
        let w = Website::generate(&spec(3_000_000, 120, 20, 29));
        for o in &w.objects {
            if o.kind == ObjectKind::Font {
                let parent = o.discovered_by.unwrap();
                assert_ne!(parent, ObjectId(0));
                assert_eq!(o.discovery_at, 1.0, "fonts wait for the stylesheet");
            }
        }
    }
}
