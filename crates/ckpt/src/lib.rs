//! # pq-ckpt — crash-safe resumable runs, zero deps
//!
//! The process-level counterpart to pq-fault: pq-fault makes
//! *in-process* failures (panics, injected faults) survivable; this
//! crate makes *process-level* failures (kill -9, OOM, power loss)
//! survivable without forfeiting completed work or tearing the
//! `results/` files the digest-based regression oracle reads.
//!
//! Three pillars:
//!
//! * [`journal`] — a write-ahead cell journal. As each grid cell
//!   completes, the caller appends a checksummed (FNV-1a/64, the same
//!   hash as `study_digest`), schema-versioned record of its
//!   deterministic inputs and result to `results/journal.jsonl` via an
//!   append+fsync writer. On resume the journal is replayed, checksums
//!   verified, and a torn or corrupt tail *truncated with a warning*
//!   rather than aborting the run — every intact record is a cell that
//!   never needs recomputing, and because every cell is a pure
//!   function of `(seed, coordinates)`, the resumed run's
//!   `study_digest` is bit-identical to an uninterrupted one.
//! * [`atomicio`] — `atomic_write` (same-directory temp file + fsync +
//!   rename) and `durable_append` for everything under `results/`, so
//!   a crash can never leave a half-written manifest, plus
//!   recovery-time sweeping of stale temp files.
//! * [`sig`] — SIGINT/SIGTERM latched into an [`interrupted`] flag the
//!   sweep polls at cancellation points, turning "kill" into "journal
//!   current state, flush, exit 0 with `resumable: true`".
//!
//! The crate deliberately has **zero dependencies** (it sits below
//! `pq-prof` in the workspace DAG so even the profiler's writers can
//! use it) and reads **no environment variables** — all configuration
//! arrives as function arguments from callers that go through the
//! `pq_obs::env` funnel. Diagnostics go through a pluggable
//! [`set_warn_sink`] so `pq-obs` can route them into the tracer.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod atomicio;
pub mod fnv;
pub mod journal;
pub mod sig;

pub use atomicio::{atomic_write, durable_append, recover_stale_temps};
pub use fnv::fnv1a;
pub use journal::{
    journal_active, journal_append, journal_complete, journal_detach, journal_meta, journal_open,
    records_written, replayed, replayed_count, Record, Replay,
};
pub use sig::{install_signal_handlers, interrupted, set_interrupted};

use std::sync::Mutex;

/// Lossless `f64` encoding for journal fields: the IEEE-754 bit
/// pattern as 16 lowercase hex digits. `Value::Num` in the workspace's
/// hand-rolled JSON is an `f64`, and journal records must round-trip
/// *bit-identically*, so floats never travel as decimal text.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_to_hex`]. `None` on anything but 16 hex digits.
pub fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// `u64` encoding for journal fields (hex, so values above 2^53 do not
/// lose precision the way `Value::Num` would).
pub fn u64_to_hex(v: u64) -> String {
    format!("{v:x}")
}

/// Inverse of [`u64_to_hex`].
pub fn u64_from_hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

type WarnSink = Box<dyn Fn(&str) + Send + Sync>;

static WARN_SINK: Mutex<Option<WarnSink>> = Mutex::new(None);

/// Route pq-ckpt diagnostics (torn-journal truncations, stale temp
/// files, watchdog stalls) somewhere better than stderr. `pq-obs`
/// installs a tracer-backed sink during `init_from_env`.
pub fn set_warn_sink(sink: impl Fn(&str) + Send + Sync + 'static) {
    let mut slot = WARN_SINK.lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(Box::new(sink));
}

/// Emit a diagnostic through the installed sink (stderr by default).
/// Public so sibling crates (e.g. the pq-par watchdog) share the
/// same channel.
pub fn warn(msg: &str) {
    let slot = WARN_SINK.lock().unwrap_or_else(|e| e.into_inner());
    match slot.as_ref() {
        Some(sink) => sink(msg),
        None => eprintln!("pq-ckpt: {msg}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_hex_round_trips_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            -123.456e-78,
        ] {
            let enc = f64_to_hex(v);
            assert_eq!(enc.len(), 16);
            let back = f64_from_hex(&enc).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan = f64_from_hex(&f64_to_hex(f64::NAN)).unwrap();
        assert!(nan.is_nan());
        assert!(f64_from_hex("xyz").is_none());
        assert!(f64_from_hex("0").is_none());
    }

    #[test]
    fn u64_hex_round_trips() {
        for v in [0, 1, u64::MAX, 15_607_277_576_046_472_443] {
            assert_eq!(u64_from_hex(&u64_to_hex(v)), Some(v));
        }
        assert!(u64_from_hex("").is_none());
        assert!(u64_from_hex("11112222333344445").is_none());
    }

    #[test]
    fn warn_sink_receives_messages() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        set_warn_sink(move |_msg| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        warn("test message");
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }
}
