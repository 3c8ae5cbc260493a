//! The structured event tracer: severity-gated, ring-buffered,
//! timestamped in raw nanoseconds so both virtual sim-time and
//! wall-time layers can report without this crate depending on either.
//!
//! Cost model: when tracing is disabled (the default) every
//! instrumentation site reduces to one relaxed atomic load and a
//! branch — [`enabled`] — so hot paths in the simulator stay hot.
//! When enabled, recording takes a short mutex critical section and
//! (for dynamic names/arguments) an allocation; the ring bounds total
//! memory and overwrites the oldest events once full.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Severity / verbosity of a traced event, ordered `Warn < Info <
/// Debug`: the levels something records at. [`Level::Off`] disables
/// everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Tracing disabled.
    Off = 0,
    /// Suspicious conditions (invalid config, clamped inputs, …).
    Warn = 1,
    /// Run structure: spans, lifecycle events, cwnd/RTT counters.
    Info = 2,
    /// Dense diagnostics: queue depths, pacing delays, drops.
    Debug = 3,
}

impl Level {
    /// Parse `PQ_TRACE`-style level names (case-insensitive). Unknown
    /// strings yield `None` so callers can warn instead of guessing.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "" | "none" => Some(Level::Off),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// A typed event argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Text.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Shape of a traced event (maps onto Chrome trace-event phases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: `ts_ns .. ts_ns + dur_ns` (Chrome phase `X`).
    Span,
    /// A point in time (Chrome phase `i`).
    Instant,
    /// A sampled numeric series (Chrome phase `C`); the value is the
    /// first argument.
    Counter,
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Start timestamp in nanoseconds (sim-time for `pid ≥ 1`,
    /// wall-time since tracer init for `pid 0`).
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants/counters).
    pub dur_ns: u64,
    /// Event shape.
    pub kind: EventKind,
    /// Category (layer): `"sim"`, `"transport"`, `"web"`, `"study"`,
    /// `"bench"`, …
    pub cat: &'static str,
    /// Display name.
    pub name: String,
    /// Track group (process row in Chrome trace).
    pub pid: u32,
    /// Track within the group (thread row).
    pub tid: u32,
    /// Typed arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Everything behind the ring mutex.
#[derive(Default)]
pub(crate) struct Inner {
    pub(crate) ring: Vec<Event>,
    /// Next write position in the ring (wraps).
    pub(crate) head: usize,
    /// Events discarded because the ring was full.
    pub(crate) dropped: u64,
    /// Total events offered.
    pub(crate) recorded: u64,
    pub(crate) capacity: usize,
    /// Registered track-group names (`pid` → label).
    pub(crate) pid_names: Vec<(u32, String)>,
    /// Registered track names (`(pid, tid)` → label).
    pub(crate) tid_names: Vec<(u32, u32, String)>,
}

impl Inner {
    fn push(&mut self, ev: Event) {
        self.recorded += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else if self.capacity > 0 {
            self.dropped += 1;
            let at = self.head;
            self.ring[at] = ev;
        } else {
            self.dropped += 1;
            return;
        }
        self.head = (self.head + 1) % self.capacity.max(1);
    }

    /// Events in recording order (oldest → newest).
    pub(crate) fn ordered(&self) -> Vec<Event> {
        if self.ring.len() < self.capacity {
            self.ring.clone()
        } else {
            let mut out = Vec::with_capacity(self.ring.len());
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
            out
        }
    }
}

/// The process-global tracer. Use [`tracer`] to reach it.
pub struct Tracer {
    level: AtomicU8,
    next_pid: AtomicU32,
    epoch: Instant,
    pub(crate) inner: Mutex<Inner>,
}

/// Ring capacity (events) until [`Tracer::set_capacity`] changes it.
pub const DEFAULT_RING_CAPACITY: usize = 262_144;

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The global tracer (created lazily, disabled until initialised).
#[inline]
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        level: AtomicU8::new(Level::Off as u8),
        next_pid: AtomicU32::new(1),
        #[expect(clippy::disallowed_methods, reason = "epoch of harness trace stamps")]
        epoch: Instant::now(),
        inner: Mutex::new(Inner {
            capacity: DEFAULT_RING_CAPACITY,
            ..Inner::default()
        }),
    })
}

/// Fast global check: is tracing active at `level`? One relaxed atomic
/// load — the only cost instrumentation pays when tracing is off.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    tracer().level.load(Ordering::Relaxed) >= level as u8
}

impl Tracer {
    /// Set the active level programmatically.
    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Resize the ring to `capacity` events (at least one), keeping the
    /// newest events that fit.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        let mut inner = self.inner.lock().expect("tracer poisoned");
        let mut ring = inner.ordered();
        ring.drain(..ring.len().saturating_sub(capacity));
        inner.head = ring.len() % capacity;
        inner.ring = ring;
        inner.capacity = capacity;
    }

    /// Nanoseconds of wall time since the tracer was created — the
    /// timestamp domain of harness (`pid 0`) events.
    pub fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Allocate a fresh track group (Chrome-trace `pid`) labelled
    /// `name`; `pid 0` is reserved for the harness.
    pub fn new_pid(&self, name: &str) -> u32 {
        let pid = self.next_pid.fetch_add(1, Ordering::Relaxed);
        if enabled(Level::Warn) {
            let mut inner = self.inner.lock().expect("tracer poisoned");
            inner.pid_names.push((pid, name.to_string()));
        }
        pid
    }

    /// Label a track (`tid`) within a group.
    pub fn name_track(&self, pid: u32, tid: u32, name: &str) {
        if enabled(Level::Warn) {
            let mut inner = self.inner.lock().expect("tracer poisoned");
            inner.tid_names.push((pid, tid, name.to_string()));
        }
    }

    fn record(&self, ev: Event) {
        let mut inner = self.inner.lock().expect("tracer poisoned");
        inner.push(ev);
    }

    /// Record a completed span `start_ns..end_ns`. No-op below the
    /// active level.
    #[allow(clippy::too_many_arguments, reason = "one per Chrome-trace field")]
    pub fn span(
        &self,
        level: Level,
        cat: &'static str,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !enabled(level) {
            return;
        }
        self.record(Event {
            ts_ns: start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            kind: EventKind::Span,
            cat,
            name: name.into(),
            pid,
            tid,
            args,
        });
    }

    /// Record an instant event.
    #[allow(clippy::too_many_arguments, reason = "one per Chrome-trace field")]
    pub fn instant(
        &self,
        level: Level,
        cat: &'static str,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        ts_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !enabled(level) {
            return;
        }
        self.record(Event {
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Instant,
            cat,
            name: name.into(),
            pid,
            tid,
            args,
        });
    }

    /// Record a counter sample (a numeric time series; renders as a
    /// stacked area chart in Perfetto).
    #[allow(clippy::too_many_arguments, reason = "one per Chrome-trace field")]
    pub fn counter(
        &self,
        level: Level,
        cat: &'static str,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        ts_ns: u64,
        value: f64,
    ) {
        if !enabled(level) {
            return;
        }
        self.record(Event {
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Counter,
            cat,
            name: name.into(),
            pid,
            tid,
            args: vec![("value", ArgValue::F64(value))],
        });
    }

    /// A warning that must reach the operator even with tracing off:
    /// always printed to stderr, and recorded as a `Warn` instant on
    /// the harness track when tracing is enabled.
    pub fn warn(&self, cat: &'static str, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("[pq-obs] warn[{cat}]: {msg}");
        let ts = self.wall_ns();
        self.instant(Level::Warn, cat, msg, 0, 0, ts, Vec::new());
    }

    /// Number of events currently buffered / recorded / dropped.
    pub fn stats(&self) -> (usize, u64, u64) {
        let inner = self.inner.lock().expect("tracer poisoned");
        (inner.ring.len(), inner.recorded, inner.dropped)
    }

    /// Drain the buffer (oldest → newest) and reset drop counters.
    /// Track names are kept so multi-flush sessions stay labelled.
    pub fn drain(&self) -> Vec<Event> {
        let mut inner = self.inner.lock().expect("tracer poisoned");
        let out = inner.ordered();
        inner.ring.clear();
        inner.head = 0;
        inner.dropped = 0;
        out
    }

    /// Snapshot events without draining.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().expect("tracer poisoned").ordered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialise tests that toggle the global level.
    fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let t = tracer();
        t.set_level(level);
        t.drain();
        let r = f();
        t.set_level(Level::Off);
        t.drain();
        r
    }

    #[test]
    fn disabled_records_nothing() {
        with_level(Level::Off, || {
            assert!(!enabled(Level::Warn));
            tracer().instant(Level::Warn, "test", "x", 0, 0, 1, Vec::new());
            assert_eq!(tracer().snapshot().len(), 0);
        });
    }

    #[test]
    fn level_gating() {
        with_level(Level::Info, || {
            assert!(enabled(Level::Warn));
            assert!(enabled(Level::Info));
            assert!(!enabled(Level::Debug));
            tracer().instant(Level::Debug, "test", "hidden", 0, 0, 1, Vec::new());
            tracer().instant(Level::Info, "test", "shown", 0, 0, 2, Vec::new());
            let evs = tracer().snapshot();
            assert_eq!(evs.len(), 1);
            assert_eq!(evs[0].name, "shown");
        });
    }

    #[test]
    fn span_and_counter_shapes() {
        with_level(Level::Debug, || {
            let t = tracer();
            t.span(
                Level::Info,
                "test",
                "load",
                1,
                0,
                100,
                400,
                vec![("bytes", 1500u64.into())],
            );
            t.counter(Level::Info, "test", "cwnd", 1, 2, 250, 14600.0);
            let evs = t.drain();
            assert_eq!(evs.len(), 2);
            assert_eq!(evs[0].kind, EventKind::Span);
            assert_eq!(evs[0].dur_ns, 300);
            assert_eq!(evs[1].kind, EventKind::Counter);
            assert_eq!(evs[1].args[0].1, ArgValue::F64(14600.0));
        });
    }

    #[test]
    fn ring_overwrites_oldest() {
        with_level(Level::Info, || {
            let t = tracer();
            // Shrink the ring for the test, then restore.
            let orig = {
                let mut inner = t.inner.lock().unwrap();
                let orig = inner.capacity;
                inner.capacity = 4;
                orig
            };
            let (_, recorded_before, _) = t.stats();
            for i in 0..10u64 {
                t.instant(Level::Info, "test", format!("e{i}"), 0, 0, i, Vec::new());
            }
            let evs = t.drain();
            assert_eq!(evs.len(), 4);
            assert_eq!(evs[0].name, "e6", "oldest surviving event");
            assert_eq!(evs[3].name, "e9");
            let (_, recorded, _) = t.stats();
            assert_eq!(recorded - recorded_before, 10);
            t.inner.lock().unwrap().capacity = orig;
        });
    }

    #[test]
    fn ring_overflow_warns_at_export() {
        with_level(Level::Info, || {
            let t = tracer();
            let orig = {
                let mut inner = t.inner.lock().unwrap();
                let orig = inner.capacity;
                inner.capacity = 4;
                orig
            };
            for i in 0..10u64 {
                t.instant(Level::Info, "test", format!("d{i}"), 0, 0, i, Vec::new());
            }
            let (_, _, dropped) = t.stats();
            assert_eq!(dropped, 6, "overflow must be counted");
            let dir = std::env::temp_dir().join("pq_obs_dropped_test");
            let path = dir.join("out.json");
            crate::export::export(&path).expect("export");
            let text = std::fs::read_to_string(&path).expect("read exported trace");
            assert!(
                text.contains("ring overflow dropped 6 events"),
                "the warning, with its count, is exported"
            );
            std::fs::remove_dir_all(&dir).ok();
            t.inner.lock().unwrap().capacity = orig;
        });
    }

    #[test]
    fn set_capacity_keeps_the_newest_events_in_order() {
        with_level(Level::Info, || {
            let t = tracer();
            let names = |evs: Vec<Event>| evs.into_iter().map(|e| e.name).collect::<Vec<_>>();
            let push = |range: std::ops::Range<u64>| {
                for i in range {
                    t.instant(Level::Info, "test", format!("c{i}"), 0, 0, i, Vec::new());
                }
            };
            t.set_capacity(4);
            push(0..6); // wrapped: c2..c5 survive
            t.set_capacity(6);
            push(6..9); // fills to 6, then overwrites the oldest (c2)
            assert_eq!(names(t.snapshot()), ["c3", "c4", "c5", "c6", "c7", "c8"]);
            t.set_capacity(2);
            assert_eq!(names(t.snapshot()), ["c7", "c8"]);
            push(9..10);
            assert_eq!(names(t.drain()), ["c8", "c9"]);
            t.set_capacity(DEFAULT_RING_CAPACITY);
        });
    }

    #[test]
    fn parse_levels() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        for unknown in ["bogus", "error", "trace"] {
            assert_eq!(Level::parse(unknown), None, "{unknown}");
        }
        assert!(Level::Warn < Level::Debug);
    }

    #[test]
    fn pid_allocation_is_unique() {
        let a = tracer().new_pid("run a");
        let b = tracer().new_pid("run b");
        assert_ne!(a, b);
        assert!(a >= 1 && b >= 1, "pid 0 reserved for the harness");
    }
}
