//! An append-only record writer: one line per record, appended with
//! fdatasync, formatted as a flat, schema-versioned JSON object whose
//! last member is an FNV-1a/64 checksum of the rest of the line:
//!
//! ```text
//! {"schema":1,"kind":"cell","key":"apache.org/DSL/QUIC","fields":{...},"crc":"9f2e..."}
//! ```
//!
//! Nothing in the pipeline writes or reads a journal: a killed run is
//! rerun, because every grid cell is a pure function of
//! `(seed, coordinates)`. The writer stays only because pq-perf's
//! journal-append probe times it.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::fnv::fnv1a;

/// Journal line schema.
pub const SCHEMA: u64 = 1;

/// One journal record: a kind, a key and ordered string fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Record family (`"cell"`, …).
    pub kind: String,
    /// Record key, `site/network/protocol` for grid cells.
    pub key: String,
    /// Payload, in the order the writer chose (kept stable so the
    /// encoded line — and therefore its checksum — is deterministic).
    pub fields: Vec<(String, String)>,
}

impl Record {
    /// Build a record from string-ish pairs.
    pub fn new(
        kind: &str,
        key: &str,
        fields: impl IntoIterator<Item = (String, String)>,
    ) -> Record {
        Record {
            kind: kind.to_string(),
            key: key.to_string(),
            fields: fields.into_iter().collect(),
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn encode_body(rec: &Record) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"schema\":");
    s.push_str(&SCHEMA.to_string());
    s.push_str(",\"kind\":\"");
    escape_into(&mut s, &rec.kind);
    s.push_str("\",\"key\":\"");
    escape_into(&mut s, &rec.key);
    s.push_str("\",\"fields\":{");
    for (i, (k, v)) in rec.fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        escape_into(&mut s, k);
        s.push_str("\":\"");
        escape_into(&mut s, v);
        s.push('"');
    }
    s.push_str("}}");
    s
}

/// Encode a record as a self-checksummed journal line (no newline).
pub fn encode_line(rec: &Record) -> String {
    let body = encode_body(rec);
    let crc = fnv1a(body.as_bytes());
    let mut line = String::with_capacity(body.len() + 28);
    // Splice the crc member in before the final `}` so the checksum
    // covers every byte of the body.
    if let Some(stem) = body.get(..body.len() - 1) {
        line.push_str(stem);
    }
    line.push_str(",\"crc\":\"");
    line.push_str(&format!("{crc:016x}"));
    line.push_str("\"}");
    line
}

struct State {
    path: PathBuf,
    writer: fs::File,
}

static JOURNAL: Mutex<Option<State>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut Option<State>) -> R) -> R {
    let mut guard = JOURNAL.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Start a fresh journal at `path` (any file already there is
/// discarded) and install it as the process-wide journal. The second
/// argument is unused; it keeps the signature pq-perf's probe calls.
pub fn journal_open(path: impl AsRef<Path>, _unused: bool) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(d) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(d)?;
    }
    let _ = fs::remove_file(path);
    #[expect(clippy::disallowed_methods, reason = "the journal's O_APPEND writer")]
    let writer = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    with_state(|s| {
        *s = Some(State {
            path: path.to_path_buf(),
            writer,
        });
    });
    Ok(())
}

/// Append one record durably (encode, write line, fdatasync). A no-op
/// returning `Ok` when no journal is open.
pub fn journal_append(rec: &Record) -> io::Result<()> {
    with_state(|s| {
        let Some(st) = s.as_mut() else {
            return Ok(());
        };
        let mut line = encode_line(rec);
        line.push('\n');
        st.writer.write_all(line.as_bytes())?;
        st.writer.sync_data()
    })
}

/// Close and delete the journal.
pub fn journal_complete() -> io::Result<()> {
    with_state(|s| {
        let Some(st) = s.take() else {
            return Ok(());
        };
        drop(st.writer);
        match fs::remove_file(&st.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: &str, key: &str, fields: &[(&str, &str)]) -> Record {
        Record::new(
            kind,
            key,
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn encoded_line_is_pinned() {
        // The checksum is FNV-1a/64 of the line with the crc member
        // cut out, computed independently of this crate.
        assert_eq!(
            encode_line(&rec(
                "cell",
                "site-7/LTE/QUIC",
                &[("plt", "0000000000700000")]
            )),
            "{\"schema\":1,\"kind\":\"cell\",\"key\":\"site-7/LTE/QUIC\",\
             \"fields\":{\"plt\":\"0000000000700000\"},\"crc\":\"8c27b28b7f5f09b0\"}"
        );
        assert_eq!(
            encode_body(&rec("m", "k\"\\", &[("a", "\n\r\t\u{1}"), ("λ", "π")])),
            "{\"schema\":1,\"kind\":\"m\",\"key\":\"k\\\"\\\\\",\
             \"fields\":{\"a\":\"\\n\\r\\t\\u0001\",\"λ\":\"π\"}}"
        );
    }

    // The writer tests share one process-wide journal slot, so they
    // run as a single test.
    #[test]
    fn open_append_complete() {
        let dir =
            std::env::temp_dir().join(format!("pq-ckpt-journal-{}-writer", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("sub").join("journal.jsonl");

        // No journal open: appending is a no-op.
        assert!(journal_append(&rec("cell", "x", &[])).is_ok());

        // Opening discards a file already at the path.
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"stale\n").unwrap();
        journal_open(&path, true).unwrap();
        let records = [
            rec("cell", "a/DSL/QUIC", &[("plt", "3ff0000000000000")]),
            rec("cell", "b/LTE/TCP", &[]),
        ];
        for r in &records {
            journal_append(r).unwrap();
        }
        let body = fs::read_to_string(&path).unwrap();
        let want: String = records.iter().map(|r| encode_line(r) + "\n").collect();
        assert_eq!(body, want);

        journal_complete().unwrap();
        assert!(!path.exists());
        assert!(journal_complete().is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
