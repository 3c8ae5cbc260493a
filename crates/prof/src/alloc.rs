//! The counting global allocator: every heap allocation in the
//! process, attributed to the current harness phase.
//!
//! Disabled (the default), [`CountingAlloc`] forwards straight to
//! [`System`] after one relaxed atomic load. Enabled, it additionally
//! bumps a fixed set of atomics — no locks, no allocation, no
//! syscalls — so the recording path can never recurse into itself or
//! disturb the simulated workload beyond its (wall-clock-only) cost.
//!
//! Attribution model:
//!
//! * **Phase** — a process-global index set by [`enter_phase`] /
//!   [`set_phase`] (the `PhaseTimer` in `pq-obs` drives this). Slot 0
//!   is the implicit "(untimed)" phase for allocations outside any
//!   phase.
//! * **Peak** — the high-water mark of live heap bytes while counting
//!   was enabled, an estimate of the allocator's RSS contribution.

#![allow(
    unsafe_code,
    reason = "the counting #[global_allocator] requires one unsafe impl; it is confined to this module under the workspace's deny(unsafe_code), only forwards to System and bumps atomics — reviewed to stay allocation-free and panic-free"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Fixed number of phase slots (slot 0 = "(untimed)"); the `runall`
/// pipeline uses ~10. Overflow attributes to slot 0.
const MAX_PHASES: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CUR_PHASE: AtomicUsize = AtomicUsize::new(0);

struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const, reason = "array-repeat init")]
const ZERO_SLOT: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

static PHASE_SLOTS: [Slot; MAX_PHASES] = [ZERO_SLOT; MAX_PHASES];
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes (signed: frees of pre-enable allocations may drive
/// it below zero; the peak tracker clamps at read time).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Registered phase names for slots 1.. (slot 0 is implicit). Only
/// touched by [`enter_phase`] / [`alloc_snapshot`], never by the
/// allocator itself.
static PHASE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Is allocation counting active?
#[inline(always)]
pub fn alloc_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Switch allocation counting on or off.
pub fn set_alloc_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Register (or find) the phase named `name` and make it current.
/// Returns the previous phase index for [`set_phase`] to restore.
pub fn enter_phase(name: &str) -> usize {
    let idx = {
        let mut names = PHASE_NAMES.lock().unwrap_or_else(|e| e.into_inner());
        match names.iter().position(|n| n == name) {
            Some(i) => i + 1,
            None if names.len() + 1 < MAX_PHASES => {
                names.push(name.to_string());
                names.len()
            }
            None => 0, // table full: attribute to "(untimed)"
        }
    };
    CUR_PHASE.swap(idx, Relaxed)
}

/// Restore a phase index previously returned by [`enter_phase`].
pub fn set_phase(idx: usize) {
    CUR_PHASE.store(if idx < MAX_PHASES { idx } else { 0 }, Relaxed);
}

/// Allocation count/bytes attributed to one phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseAlloc {
    /// Phase name as registered by [`enter_phase`].
    pub phase: String,
    /// Allocations made while the phase was current.
    pub allocs: u64,
    /// Bytes requested while the phase was current.
    pub bytes: u64,
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
    /// Per-phase attribution, in phase registration order; includes
    /// the implicit `(untimed)` slot 0 when it saw traffic.
    pub phases: Vec<PhaseAlloc>,
}

/// Read every counter. Cheap enough for end-of-run reporting; the
/// individual atomics are read relaxed, so concurrent traffic may be
/// split across fields — fine for attribution, not an invariant.
pub fn alloc_snapshot() -> AllocSnapshot {
    let names = PHASE_NAMES.lock().unwrap_or_else(|e| e.into_inner());
    let mut phases = Vec::new();
    let untimed = &PHASE_SLOTS[0];
    if untimed.allocs.load(Relaxed) > 0 {
        phases.push(PhaseAlloc {
            phase: "(untimed)".to_string(),
            allocs: untimed.allocs.load(Relaxed),
            bytes: untimed.bytes.load(Relaxed),
        });
    }
    for (i, name) in names.iter().enumerate() {
        if let Some(slot) = PHASE_SLOTS.get(i + 1) {
            phases.push(PhaseAlloc {
                phase: name.clone(),
                allocs: slot.allocs.load(Relaxed),
                bytes: slot.bytes.load(Relaxed),
            });
        }
    }
    AllocSnapshot {
        total_allocs: TOTAL_ALLOCS.load(Relaxed),
        total_bytes: TOTAL_BYTES.load(Relaxed),
        peak_bytes: PEAK_BYTES.load(Relaxed).max(0) as u64,
        phases,
    }
}

/// Zero all allocation counters and forget registered phases (tests).
pub fn reset_alloc() {
    TOTAL_ALLOCS.store(0, Relaxed);
    TOTAL_BYTES.store(0, Relaxed);
    LIVE_BYTES.store(0, Relaxed);
    PEAK_BYTES.store(0, Relaxed);
    CUR_PHASE.store(0, Relaxed);
    for s in &PHASE_SLOTS {
        s.allocs.store(0, Relaxed);
        s.bytes.store(0, Relaxed);
    }
    PHASE_NAMES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
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
    let phase = CUR_PHASE.load(Relaxed);
    if let Some(slot) = PHASE_SLOTS.get(phase) {
        slot.allocs.fetch_add(1, Relaxed);
        slot.bytes.fetch_add(size, Relaxed);
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    // The peak of a known allocation is checked in
    // `tests/alloc_peak.rs`, a one-thread binary: here other tests
    // free memory while counting is on, which moves the process-global
    // live count under it.

    #[test]
    fn phase_overflow_folds_into_untimed() {
        let _g = crate::span::test_lock();
        reset_alloc();
        for i in 0..MAX_PHASES + 4 {
            let prev = enter_phase(&format!("overflow_{i}"));
            set_phase(prev);
        }
        // The table is bounded; late registrations return slot 0.
        assert_eq!(enter_phase("one_more"), 0);
        set_phase(0);
        reset_alloc();
    }
}
