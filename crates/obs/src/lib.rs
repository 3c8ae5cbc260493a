//! # pq-obs — observability substrate (tracing + metrics), zero deps
//!
//! Every layer of the testbed (`pq-sim` → `pq-transport` → `pq-web` →
//! `pq-study` → `pq-bench`) reports into this crate so that a run can
//! be *seen* instead of guessed at:
//!
//! * [`trace`] — a ring-buffered structured event tracer. Events carry
//!   a nanosecond timestamp (virtual sim-time for the emulation layers,
//!   wall-time for the harness), a severity [`Level`], a category, a
//!   track (`pid`/`tid` in Chrome-trace terms) and typed arguments.
//!   Tracing is **off by default** and gated behind one relaxed atomic
//!   load, so the instrumented hot paths cost (near) nothing when
//!   disabled. Enable with `PQ_TRACE=info` (or `error`/`warn`/`debug`/
//!   `trace`) and direct the export with `PQ_TRACE_OUT=path`.
//! * [`metrics`] — a process-global registry of counters and
//!   log-bucketed histograms (p50/p90/p99), read by name through typed
//!   accessors: the run manifest, `benches/perf` and the tests are its
//!   readers, and [`names::METRIC_NAMES`] lists only series one of
//!   them reads. Always on (the emitting layers batch updates so the
//!   per-event cost stays negligible).
//! * [`export`] — the trace buffer's serialiser: the Chrome
//!   trace-event format, which renders page loads as waterfalls in
//!   Perfetto or `chrome://tracing`.
//! * [`json`] — a minimal hand-rolled JSON value/parser/printer used by
//!   the exporters and by `pq-bench`'s run manifests (the environment
//!   has no network access, so `serde` is not available; this module
//!   fills the gap with ~300 auditable lines).
//! * [`timing`] — wall-clock phase timers for the experiment harness.
//! * [`profile`] — the bridge to `pq-prof`: configures the counting
//!   allocator and span profiler from `PQ_PROF_*` knobs and writes the
//!   collapsed-stack / flamegraph-SVG outputs at exit.
//! * [`names`] — the declared metric and span-frame names a run is
//!   held to.
//! * [`env`] — the central environment-variable funnel: every `PQ_*`
//!   knob in the workspace reads through [`env::var`] /
//!   [`env::var_parsed`] (unparsable values warn via the tracer), and
//!   `clippy::disallowed_methods` rejects raw `std::env::var` calls
//!   anywhere else, and funnel calls outside the `pq` binary, pq-obs
//!   and the proptest shim.
//!
//! ## Environment knobs
//!
//! | Variable | Effect |
//! |----------|--------|
//! | `PQ_TRACE` | `off` (default), `error`, `warn`, `info`, `debug`, `trace` |
//! | `PQ_TRACE_OUT` | export path (Chrome trace JSON) |
//! | `PQ_TRACE_BUF` | ring capacity in events (default 262144) |
//! | `PQ_PROF_ALLOC` | `1` enables the counting allocator (per-phase/per-worker alloc attribution) |
//! | `PQ_PROF_OUT` | collapsed-stack output path (turns the span profiler on) |
//! | `PQ_PROF_SVG` | flamegraph SVG output path (turns the span profiler on) |
//!
//! ## Track conventions
//!
//! * `pid 0` — the harness (wall-clock time since process start).
//! * `pid ≥ 1` — one simulated page load each (virtual sim-time);
//!   within a load, `tid 0` carries page-level markers (FVC/LVC/PLT),
//!   `tid 1+ci` one row per transport connection, and `tid 100+obj`
//!   one row per web object (the waterfall).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod env;
pub mod export;
pub mod json;
pub mod metrics;
pub mod names;
pub mod profile;
pub mod timing;
pub mod trace;

pub use export::flush_to_env;
pub use metrics::{registry, MetricSnapshot, Registry};
pub use timing::{PhaseTimer, Stopwatch};
pub use trace::{enabled, init_from_env, tracer, ArgValue, Event, EventKind, Level, Tracer};
