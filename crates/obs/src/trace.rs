//! The structured event tracer: severity-gated, timestamped in raw
//! nanoseconds so both virtual sim-time and wall-time layers can
//! report without this crate depending on either.
//!
//! Cost model: when tracing is disabled (the default) every
//! instrumentation site reduces to one relaxed atomic load and a
//! branch — [`enabled`] — so hot paths stay hot. When enabled,
//! recording takes a short mutex critical section and (for dynamic
//! names/arguments) an allocation. Only the harness records here — its
//! phases, pool workers and studies, a bounded number of rows per run —
//! so the buffer is a plain `Vec`; a page load's rows are a value it
//! returns ([`Process`]), drawn from its own record.

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

impl Event {
    /// A span `start_ns..end_ns`.
    pub fn span(
        cat: &'static str,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Event {
        Event {
            dur_ns: end_ns.saturating_sub(start_ns),
            kind: EventKind::Span,
            ..Event::instant(cat, name, pid, tid, start_ns, args)
        }
    }

    /// An instant at `ts_ns`.
    pub fn instant(
        cat: &'static str,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        ts_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Event {
        Event {
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Instant,
            cat,
            name: name.into(),
            pid,
            tid,
            args,
        }
    }

    /// A counter sample `value` at `ts_ns`.
    pub fn counter(
        cat: &'static str,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        ts_ns: u64,
        value: f64,
    ) -> Event {
        let args = vec![("value", ArgValue::F64(value))];
        Event {
            kind: EventKind::Counter,
            ..Event::instant(cat, name, pid, tid, ts_ns, args)
        }
    }
}

/// The rows of one traced process that the tracer never held: a page
/// load drawn from its record. [`crate::export::ChromeTrace::process`]
/// gives it its `pid`, so its events' own `pid`s are not read.
#[derive(Clone, Debug, Default)]
pub struct Process {
    /// The process row's label.
    pub name: String,
    /// `(tid, label)` of each named track, in the order they were named.
    pub tracks: Vec<(u32, String)>,
    /// Its events.
    pub events: Vec<Event>,
}

/// Everything behind the tracer's mutex.
#[derive(Default)]
pub(crate) struct Inner {
    /// Events since the last drain, in recording order.
    pub(crate) events: Vec<Event>,
    /// Total events recorded.
    pub(crate) recorded: u64,
    /// Registered track-group names (`pid` → label).
    pub(crate) pid_names: Vec<(u32, String)>,
}

/// The process-global tracer. Use [`tracer`] to reach it.
pub struct Tracer {
    level: AtomicU8,
    next_pid: AtomicU32,
    epoch: Instant,
    pub(crate) inner: Mutex<Inner>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The global tracer (created lazily, disabled until initialised).
#[inline]
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        level: AtomicU8::new(Level::Off as u8),
        next_pid: AtomicU32::new(1),
        #[expect(clippy::disallowed_methods, reason = "epoch of harness trace stamps")]
        epoch: Instant::now(),
        inner: Mutex::default(),
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

    /// Record `ev` if tracing is active at `level`. Build `ev` behind
    /// an [`enabled`] check where its name or arguments allocate.
    pub fn record(&self, level: Level, ev: Event) {
        if enabled(level) {
            let mut inner = self.inner.lock().expect("tracer poisoned");
            inner.recorded += 1;
            inner.events.push(ev);
        }
    }

    /// A warning that must reach the operator even with tracing off:
    /// always printed to stderr, and recorded as a `Warn` instant on
    /// the harness track when tracing is enabled.
    pub fn warn(&self, cat: &'static str, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("[pq-obs] warn[{cat}]: {msg}");
        let ts = self.wall_ns();
        self.record(Level::Warn, Event::instant(cat, msg, 0, 0, ts, Vec::new()));
    }

    /// Number of events buffered since the last drain, and recorded in
    /// all.
    pub fn stats(&self) -> (usize, u64) {
        let inner = self.inner.lock().expect("tracer poisoned");
        (inner.events.len(), inner.recorded)
    }

    /// Drain the buffer, oldest first. Process names are kept so
    /// multi-flush sessions stay labelled.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut self.inner.lock().expect("tracer poisoned").events)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serialise tests that toggle the global level or drain the
    /// tracer.
    pub(crate) fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
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
            tracer().record(
                Level::Warn,
                Event::instant("test", "x", 0, 0, 1, Vec::new()),
            );
            assert_eq!(tracer().drain().len(), 0);
        });
    }

    #[test]
    fn level_gating() {
        with_level(Level::Info, || {
            assert!(enabled(Level::Warn));
            assert!(enabled(Level::Info));
            assert!(!enabled(Level::Debug));
            let instant = |name, ts| Event::instant("test", name, 0, 0, ts, Vec::new());
            tracer().record(Level::Debug, instant("hidden", 1));
            tracer().record(Level::Info, instant("shown", 2));
            let evs = tracer().drain();
            assert_eq!(evs.len(), 1);
            assert_eq!(evs[0].name, "shown");
        });
    }

    #[test]
    fn span_and_counter_shapes() {
        with_level(Level::Debug, || {
            let t = tracer();
            let args = vec![("bytes", ArgValue::U64(1500))];
            t.record(
                Level::Info,
                Event::span("test", "load", 1, 0, 100, 400, args),
            );
            t.record(
                Level::Info,
                Event::counter("test", "cwnd", 1, 2, 250, 14600.0),
            );
            let evs = t.drain();
            assert_eq!(evs.len(), 2);
            assert_eq!(evs[0].kind, EventKind::Span);
            assert_eq!(evs[0].dur_ns, 300);
            assert_eq!(evs[1].kind, EventKind::Counter);
            assert_eq!(evs[1].args[0].1, ArgValue::F64(14600.0));
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
