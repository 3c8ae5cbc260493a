//! The three parsers that take bytes from outside the program — the
//! `PQ_FAULTS` spec, a journal line, a JSON document (`pq-perf compare`
//! reads user-named files) — return `Ok` / `Err` / `None` on any input:
//! they never panic and never hang. A panic here is a bug in the
//! parser, fixed there; the test finishing is the no-hang check.

use pq_ckpt::journal::{decode_line, encode_line};
use pq_ckpt::Record;
use pq_fault::FaultPlan;
use pq_obs::json::Value;
use proptest::prelude::*;

/// Feed `bytes` (lossy UTF-8) to all three parsers.
fn parse_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = FaultPlan::parse(&text);
    let _ = decode_line(&text);
    let _ = Value::parse(&text);
}

/// One valid input per parser: the chaos spec, an encoded journal
/// record, a manifest-shaped document — each accepted by its parser.
fn valid_inputs() -> [String; 3] {
    let record = Record::new(
        "cell",
        "wikipedia.org/LTE/QUIC",
        [("plt", "4073a00000000000"), ("note", "tab\t\"q\" é \u{1}")]
            .map(|(k, v)| (k.to_string(), v.to_string())),
    );
    let manifest = Value::obj()
        .with("scale", "smoke")
        .with("seed", 1910u64)
        .with("study_digest", "c0d50f06ad80383f")
        .with("resumable", false)
        .with(
            "phases",
            vec![Value::obj()
                .with("name", "experiment")
                .with("secs", 1.25e-3)],
        )
        .with("alloc", Value::Null)
        .with("fault_spec", "é\n\\ \u{1F600}");
    let (spec, line, doc) = (
        pq_bench::CHAOS_SPEC,
        encode_line(&record),
        manifest.to_pretty(),
    );
    assert!(FaultPlan::parse(spec).is_ok());
    assert_eq!(decode_line(&line), Some(record));
    assert_eq!(Value::parse(&doc), Ok(manifest));
    [spec.to_string(), line, doc]
}

/// The bytes the three grammars are made of, so random input gets past
/// the first token.
const GRAMMAR: &[u8] = b"{}[]\":,;=\\u0123456789abcdef-+.eE \ntrunlse=pgb";

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..96),
        picks in prop::collection::vec(any::<usize>(), 0..96),
    ) {
        parse_all(&raw);
        let grammar: Vec<u8> = picks.iter().map(|p| GRAMMAR[p % GRAMMAR.len()]).collect();
        parse_all(&grammar);
    }
}

/// Every single-byte mutation and every truncation of each valid input,
/// exhaustively (≈ 150 k short parses).
#[test]
fn single_byte_mutations_never_panic() {
    for input in valid_inputs() {
        let mut bytes = input.into_bytes();
        for at in 0..bytes.len() {
            parse_all(&bytes[..at]);
            let original = bytes[at];
            for byte in 0..=u8::MAX {
                bytes[at] = byte;
                parse_all(&bytes);
            }
            bytes[at] = original;
        }
    }
}
