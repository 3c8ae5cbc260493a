//! # pq-obs — observability substrate (tracing + metrics), zero deps
//!
//! The layers that own a run's state (`pq-web` → `pq-study` →
//! `pq-bench`) report into this crate so that a run can be *seen*
//! instead of guessed at. `pq-sim` and `pq-transport` report to their
//! caller: the page load draws its links and connections here and
//! folds their counts into the registry once per load:
//!
//! * [`trace`] — a ring-buffered structured event tracer. Events carry
//!   a nanosecond timestamp (virtual sim-time for the emulation layers,
//!   wall-time for the harness), a severity [`Level`], a category, a
//!   track (`pid`/`tid` in Chrome-trace terms) and typed arguments.
//!   Tracing is **off by default** and gated behind one relaxed atomic
//!   load, so the instrumented hot paths cost (near) nothing when
//!   disabled. [`Tracer::set_level`] turns it on and
//!   [`Tracer::set_capacity`] sizes the ring.
//! * [`metrics`] — a process-global registry of named `u64` counters,
//!   read by name: the run manifest, `benches/perf` and the tests are
//!   its readers, and [`names::METRIC_NAMES`] lists only counters one
//!   of them reads. Always on (the emitting layers batch updates — the
//!   page load adds its event and link counts once, at its end — so
//!   the per-event cost stays negligible).
//! * [`export`] — the trace buffer's serialiser: the Chrome
//!   trace-event format, which renders page loads as waterfalls in
//!   Perfetto or `chrome://tracing`.
//! * [`json`] — a minimal hand-rolled JSON value/parser/printer used by
//!   the exporters and by `pq-bench`'s run manifests (the environment
//!   has no network access, so `serde` is not available; this module
//!   fills the gap with ~300 auditable lines).
//! * [`timing`] — wall-clock phase timers for the experiment harness.
//! * [`names`] — the declared counter and span-frame names a run is
//!   held to.
//!
//! Like every library crate, pq-obs reads no environment: it is
//! configured by the values its caller passes. The `pq` binary parses
//! `PQ_TRACE`, `PQ_TRACE_BUF` and `PQ_TRACE_OUT` with the other knobs
//! (README "Knobs") and applies them through the calls above.
//!
//! ## Track conventions
//!
//! * `pid 0` — the harness (wall-clock time since process start).
//! * `pid ≥ 1` — one simulated page load each (virtual sim-time);
//!   within a load, `tid 0` carries page-level markers (FVC/LVC/PLT)
//!   and, at Debug, the links' queue samples, drops and losses,
//!   `tid 1+ci` one row per transport connection, and `tid 100+obj`
//!   one row per web object (the waterfall).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod names;
pub mod timing;
pub mod trace;

pub use metrics::{registry, Registry};
pub use timing::PhaseTimer;
pub use trace::{enabled, tracer, ArgValue, Event, EventKind, Level, Tracer};
