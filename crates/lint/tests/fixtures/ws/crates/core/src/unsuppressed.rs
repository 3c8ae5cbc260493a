//! Fixture: two index findings nothing suppresses.

pub fn pick(v: &[u32], i: usize, j: usize) -> u32 {
    v[i] + v[j]
}
