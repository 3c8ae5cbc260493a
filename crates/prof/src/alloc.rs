//! The counting global allocator: every heap allocation in the
//! process, counted while enabled.
//!
//! Disabled (the default), [`CountingAlloc`] forwards straight to
//! [`System`] after one relaxed atomic load. Enabled, it additionally
//! bumps a fixed set of atomics — no locks, no allocation, no
//! syscalls — so the recording path can never recurse into itself or
//! disturb the simulated workload beyond its (wall-clock-only) cost.
//! It keeps three totals: allocations, bytes requested, and the
//! high-water mark of live heap bytes (an estimate of the allocator's
//! RSS contribution).

#![allow(
    unsafe_code,
    reason = "the counting #[global_allocator] requires one unsafe impl; it is confined to this module under the workspace's deny(unsafe_code), only forwards to System and bumps atomics — reviewed to stay allocation-free and panic-free"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes (signed: frees of pre-enable allocations may drive
/// it below zero; the peak tracker clamps at read time).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Is allocation counting active?
#[inline(always)]
pub fn alloc_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Switch allocation counting on or off.
pub fn set_alloc_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// A point-in-time read of every allocation counter.
#[derive(Clone, Debug, PartialEq)]
pub struct AllocSnapshot {
    /// Total allocations counted while enabled.
    pub total_allocs: u64,
    /// Total bytes requested while enabled.
    pub total_bytes: u64,
    /// High-water mark of live heap bytes while enabled (RSS
    /// estimate).
    pub peak_bytes: u64,
}

/// Read every counter. Cheap enough for end-of-run reporting; the
/// individual atomics are read relaxed, so concurrent traffic may be
/// split across fields — fine for a report, not an invariant.
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        total_allocs: TOTAL_ALLOCS.load(Relaxed),
        total_bytes: TOTAL_BYTES.load(Relaxed),
        peak_bytes: PEAK_BYTES.load(Relaxed).max(0) as u64,
    }
}

/// Zero all allocation counters (tests).
pub fn reset_alloc() {
    TOTAL_ALLOCS.store(0, Relaxed);
    TOTAL_BYTES.store(0, Relaxed);
    LIVE_BYTES.store(0, Relaxed);
    PEAK_BYTES.store(0, Relaxed);
}

/// The recording path: atomics only — it must never allocate (it *is*
/// the allocator) and never panic.
#[inline]
fn record_alloc(size: usize) {
    let size = size as u64;
    TOTAL_ALLOCS.fetch_add(1, Relaxed);
    TOTAL_BYTES.fetch_add(size, Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

#[inline]
fn record_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as i64, Relaxed);
}

/// A [`GlobalAlloc`] that forwards to [`System`] and, when enabled,
/// counts. Installed as the workspace `#[global_allocator]` by
/// `pq-prof`'s crate root.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ENABLED.load(Relaxed) {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ENABLED.load(Relaxed) {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Relaxed) {
            record_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ENABLED.load(Relaxed) {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}
