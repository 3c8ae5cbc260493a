//! # pq-sim — deterministic discrete-event network emulation
//!
//! The Mahimahi-equivalent substrate of the *Perceiving QUIC*
//! reproduction: a packet-granular, event-driven simulator of the
//! client access link with rate shaping, drop-tail queueing sized in
//! milliseconds, fixed propagation delay and i.i.d. random loss —
//! exactly the knobs of the paper's Table 2.
//!
//! Design follows the smoltcp school: no async runtime, no trait
//! objects on the hot path, explicit state machines, and everything
//! driven by a virtual clock so runs are bit-for-bit reproducible from
//! a single seed.
//!
//! A pure library: it writes no metrics registry, tracer or profiler.
//! A link hands every outcome back — a tx-done names the [`Loss`] that
//! destroyed its packet — and keeps lifetime [`LinkStats`]; the event
//! queue counts what it fired. The owner of a run (the page load)
//! decides what to record and when.
//!
//! ## Quick tour
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time.
//! * [`SimRng`] — splittable PCG RNG; every subsystem forks its own
//!   stream.
//! * [`EventQueue`] — the future-event list with FIFO tie-breaking.
//! * [`Link`] — one direction of the access link (shaping + queue +
//!   delay + loss), driven by `push`/`on_tx_done` callbacks that
//!   return what happened to each packet.
//! * [`Lane`] — a link plus its pending tx-done and in-propagation
//!   packets, merged with the queue by [`Stamp`] instead of stored in it.
//! * [`NetworkKind`] — the DSL / LTE / DA2GC / MSS presets (Table 2).

#![forbid(unsafe_code)]
// The digest-feeding set (README "Static analysis"), non-test code only.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]
#![warn(missing_docs)]

pub mod event;
pub mod lane;
pub mod link;
pub mod netconfig;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod time;

pub use event::{EventQueue, Stamp};
pub use lane::{Lane, LaneEvent, Source};
pub use link::{Link, LinkConfig, LinkStats, Loss, PushOutcome, TxDone};
pub use netconfig::{NetworkConfig, NetworkKind};
pub use packet::{ConnId, Direction, OriginId, Packet};
pub use queue::DropTailQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
