//! The page half of the loader: what the browser does with the bytes.
//!
//! Objects are discovered progressively while their parents stream in,
//! cost main-thread time once delivered, and paint — the visual
//! completeness curve is built here.

use super::{Ev, Loader};
use crate::mux::Mux;
use crate::object::{ObjectId, WebObject};
use crate::website::Website;
use pq_sim::{SimDuration, SimTime};

/// Style-recalc + first-layout cost paid once before first paint.
const STYLE_LAYOUT_MS: f64 = 250.0;
/// Progressive resources paint up to this share from raw bytes; the
/// rest appears when decoding/layout finishes.
const PROGRESSIVE_CAP: f64 = 0.9;
/// The HTML parser works through the document over roughly this long
/// (main-thread parsing + preload-scanner yield), so subresources are
/// discovered staggered rather than in one instant — which also
/// staggers the per-origin initial-window bursts.
const PARSE_SPREAD_MS: f64 = 350.0;

/// One web object and how far its load has come.
pub(super) struct ObjState<'a> {
    pub(super) spec: &'a WebObject,
    /// The objects it references, sorted by discovery fraction.
    children: Vec<(f64, ObjectId)>,
    discovered: bool,
    /// Response-stream bytes expected (protocol-specific overheads)…
    pub(super) expect: u64,
    /// …and delivered, as a count and as a fraction.
    pub(super) got: u64,
    frac: f64,
    /// Delivery finished; processing scheduled.
    processing: bool,
    done_at: Option<SimTime>,
    /// Current paint contribution.
    contrib: f64,
}

/// The object table of a fresh load of `site` over `mux`.
pub(super) fn table<'a>(site: &'a Website, mux: &Mux) -> Vec<ObjState<'a>> {
    let fresh = |o: &'a WebObject| ObjState {
        spec: o,
        children: Vec::new(),
        discovered: false,
        expect: mux.response_bytes(o.size),
        got: 0,
        frac: 0.0,
        processing: false,
        done_at: None,
        contrib: 0.0,
    };
    let mut objs: Vec<ObjState> = site.objects.iter().map(fresh).collect();
    for o in &site.objects {
        let parent = o.discovered_by.and_then(|p| objs.get_mut(p.0 as usize));
        if let Some(parent) = parent {
            parent.children.push((o.discovery_at, o.id));
        }
    }
    for o in &mut objs {
        // total_cmp: discovery fractions are finite by construction,
        // but the sort must never be the thing that panics.
        o.children.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    objs
}

/// Client-side processing cost of a fully delivered object: parse and
/// execute for scripts/CSS, decode for images — time a real browser
/// spends on the main thread, independent of the transport.
fn processing_ms(o: &WebObject) -> f64 {
    use crate::object::ObjectKind::*;
    let kb = o.size as f64 / 1000.0;
    match o.kind {
        Script => 200.0 + 0.7 * kb,
        Css => 80.0 + 0.25 * kb,
        Image => 25.0 + 0.12 * kb,
        Html => 40.0,
        Font => 30.0,
        Xhr => 15.0,
        Beacon => 2.0,
    }
}

impl Loader<'_> {
    /// An object became discovered: request it (immediately, or after
    /// its lazy-load deferral).
    pub(super) fn discover(&mut self, now: SimTime, id: ObjectId) {
        let Some(o) = self.objs.get_mut(id.0 as usize) else {
            return;
        };
        if o.discovered {
            return;
        }
        o.discovered = true;
        // Parser stagger: children of the root document become visible
        // to the fetcher as the parser reaches them.
        let stagger = if o.spec.discovered_by == Some(ObjectId(0)) {
            o.spec.discovery_at * PARSE_SPREAD_MS
        } else {
            0.0
        };
        let defer = (o.spec.defer_ms + stagger) * self.opts.processing_scale;
        if defer > 0.0 {
            let at = now + SimDuration::from_secs_f64(defer / 1e3);
            self.q.schedule(at, Ev::DeferredRequest(id));
            return;
        }
        self.request_object(now, id);
    }

    /// The client has `got` of the object's expected stream bytes.
    pub(super) fn object_progress(&mut self, now: SimTime, id: ObjectId, got: u64) {
        let Some(o) = self.objs.get_mut(id.0 as usize) else {
            return;
        };
        if o.done_at.is_some() {
            return;
        }
        o.got = got.min(o.expect);
        let frac = o.got as f64 / o.expect.max(1) as f64;
        o.frac = frac;
        if o.got >= o.expect && !o.processing {
            o.processing = true;
            let ms = processing_ms(o.spec) * self.opts.processing_scale;
            let at = now + SimDuration::from_secs_f64(ms / 1e3);
            self.q.schedule(at, Ev::Processed(id));
        }

        self.update_render(now, id, frac, false);
        self.release_children(now, id, Some(frac));
    }

    /// Parsing/decoding of a delivered object finished: the object is
    /// now *done* — it paints fully, releases `discovery_at = 1.0`
    /// children, and counts towards onload.
    pub(super) fn object_processed(&mut self, now: SimTime, id: ObjectId) {
        let Some(o) = self.objs.get_mut(id.0 as usize) else {
            return;
        };
        if o.done_at.is_some() {
            return; // already processed
        }
        o.done_at = Some(now);
        self.n_done += 1;
        if self.n_done == self.objs.len() {
            self.plt_at = Some(now);
        }
        self.note(|r| r.processed(id, now));
        self.update_render(now, id, 1.0, true);
        self.release_children(now, id, None);
    }

    /// Discover the children `id` has released: while it streams in,
    /// those referenced up to `frac` of the way through (`discovery_at
    /// = 1.0` waits for the parent's processing instead); once it is
    /// processed (`None`), those.
    fn release_children(&mut self, now: SimTime, id: ObjectId, frac: Option<f64>) {
        let mut i = 0;
        while let Some(o) = self.objs.get(id.0 as usize) {
            let Some(&(at, kid)) = o.children.get(i) else {
                break;
            };
            i += 1;
            match frac {
                Some(frac) if at < 1.0 && frac + 1e-12 >= at => self.discover(now, kid),
                // Sorted by fraction: what a fraction releases is a prefix.
                Some(_) => break,
                None if at >= 1.0 => self.discover(now, kid),
                None => {}
            }
        }
    }

    fn update_render(&mut self, now: SimTime, id: ObjectId, frac: f64, done: bool) {
        let Some(o) = self.objs.get_mut(id.0 as usize) else {
            return;
        };
        // Contribution of this object to visual completeness.
        // Progressive resources paint most of their area from raw
        // bytes, the rest once decoded; others appear when done.
        let contrib = if o.spec.render_weight > 0.0 {
            if done {
                o.spec.render_weight
            } else if o.spec.progressive {
                o.spec.render_weight * (frac * PROGRESSIVE_CAP)
            } else {
                0.0
            }
        } else {
            0.0
        };
        // Incremental VC update.
        let delta = contrib - o.contrib;
        o.contrib = contrib;
        self.vc += delta;

        // First-paint gate: head parsed + render-blocking resources
        // processed, then one style+layout pass.
        if !self.gate_open && !self.gate_scheduled {
            let head_parsed = self.objs.first().is_some_and(|o| o.frac >= 0.15);
            let mut blocking = self.objs.iter().filter(|o| o.spec.render_blocking);
            if head_parsed && blocking.all(|o| o.done_at.is_some()) {
                self.gate_scheduled = true;
                let layout =
                    SimDuration::from_secs_f64(STYLE_LAYOUT_MS * self.opts.processing_scale / 1e3);
                self.q.schedule(now + layout, Ev::GateOpen);
            }
        } else if self.gate_open && delta > 0.0 {
            self.timeline.push(now, self.vc);
        }
    }
}
