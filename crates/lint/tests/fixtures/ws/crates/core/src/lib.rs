//! Fixture: a digest-crate root dense with violations — one hit for
//! every rule. Never compiled; the lint only lexes it.

use std::collections::HashMap;

pub fn typical(v: &[f64], m: &HashMap<u32, u32>) -> u64 {
    let _t = Instant::now();
    let rng = SimRng::new(7);
    pq_par::par_map(v, |x| *x);
    let s: f64 = v.iter().sum();
    let first = v[0];
    let second = v.get(1).unwrap();
    let _ = std::env::var("PQ_FIXTURE");
    reg.counter_add("BadName", 1);
    let _ = std::fs::write("results/fixture.json", b"x");
    let _span = pq_prof::span("Bad Frame");
    // pq-lint: allow(index)
    (s + first + second + rng.next_f64() + m.len() as f64) as u64
}
