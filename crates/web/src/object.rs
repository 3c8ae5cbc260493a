//! Web objects: the resources a page load fetches.

use pq_sim::OriginId;

/// Identifier of an object within one website.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Resource class — drives render weight, blocking behaviour and
/// discovery patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// The root document (progressive, discovered at t=0).
    Html,
    /// Stylesheet: render-blocking, discovered early in the HTML.
    Css,
    /// Script: render-blocking when synchronous.
    Script,
    /// Image: progressive paint contribution.
    Image,
    /// Web font: needed for text paint, modelled as late visual weight.
    Font,
    /// Fetch/XHR data used by scripts.
    Xhr,
    /// Trackers, analytics beacons: zero visual weight — they extend
    /// PLT (onload) without moving any visual metric, which is exactly
    /// why the paper finds PLT correlating worst with users (§4.4).
    Beacon,
}

/// One fetchable resource of a website.
#[derive(Clone, Debug)]
pub struct WebObject {
    /// Object id (index into the website's object list).
    pub id: ObjectId,
    /// Which server origin hosts it.
    pub origin: OriginId,
    /// Transfer size in bytes (as on the wire, compressed).
    pub size: u64,
    /// Resource class.
    pub kind: ObjectKind,
    /// Share of the page's visual area this object paints (0 for
    /// non-visual resources); normalized to sum to 1 per site.
    pub render_weight: f64,
    /// Whether first paint waits for this object (head CSS, sync JS).
    pub render_blocking: bool,
    /// Parent that references this object (`None` for the root HTML).
    pub discovered_by: Option<ObjectId>,
    /// Fraction of the parent that must be delivered before this
    /// object is discovered and requested (1.0 = parent complete).
    pub discovery_at: f64,
    /// Whether the object paints progressively as bytes arrive (HTML,
    /// images) or only when complete (CSS-styled blocks, fonts).
    pub progressive: bool,
    /// Request deferral in milliseconds after the discovery condition
    /// is met (0 = immediate). Models lazy-loaded images, deferred
    /// analytics and idle-time XHR — the traffic gaps that let stock
    /// TCP's slow-start-after-idle collapse the window.
    pub defer_ms: f64,
}

/// How far one object's response got, in response-stream bytes
/// (headers and framing included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Got {
    /// Delivered so far (gQUIC reports per-stream positions).
    Total(u64),
    /// Newly delivered (HTTP/2 attributes each delivery to objects).
    More(u64),
}

/// Client-side progress of one object's response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progress {
    /// Which object.
    pub object: ObjectId,
    /// How far it got.
    pub got: Got,
}
