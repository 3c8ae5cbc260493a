//! The counting allocator tracks a known allocation: its count, its
//! bytes and the live-bytes peak it raises.
//!
//! `LIVE_BYTES` is process-global, so a free on any other thread while
//! counting is on moves the peak this check reads. This binary runs
//! without the test harness (`harness = false` in Cargo.toml): `main`
//! is the only thread, and the peak must rise by the whole allocation.

fn main() {
    pq_prof::reset_alloc();
    pq_prof::set_alloc_enabled(true);
    // Nothing runs between the reset and this allocation, so the live
    // count just before it is exactly zero.
    let v: Vec<u8> = Vec::with_capacity(1 << 20);
    std::hint::black_box(&v);
    let after = pq_prof::alloc_snapshot();
    pq_prof::set_alloc_enabled(false);
    assert!(after.total_allocs >= 1);
    assert!(after.total_bytes >= 1 << 20);
    assert!(
        after.peak_bytes >= 1 << 20,
        "peak {} B is short of the 1 MiB allocation",
        after.peak_bytes
    );
    println!("alloc_peak: ok");
}
