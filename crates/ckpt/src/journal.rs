//! The write-ahead cell journal.
//!
//! One line per completed grid cell, appended with fsync *before* the
//! result is considered durable, formatted as a flat, schema-versioned
//! JSON object whose last member is an FNV-1a/64 checksum of the rest
//! of the line:
//!
//! ```text
//! {"schema":1,"kind":"cell","key":"apache.org/DSL/QUIC","fields":{...},"crc":"9f2e..."}
//! ```
//!
//! All field values are strings (floats travel as IEEE-754 bit
//! patterns in hex — see [`crate::f64_to_hex`]) so decoding is exact.
//! The decoder is deliberately strict: any line that is not
//! byte-for-byte something this encoder could have produced fails the
//! checksum or the parse, and on replay the file is truncated at the
//! first such line — a torn tail costs the records after the tear,
//! never the run.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::fnv::fnv1a;

/// Journal line schema. Bump when the record shape changes; replay
/// treats unknown schemas as corrupt (truncate + recompute) rather
/// than guessing.
pub const SCHEMA: u64 = 1;

/// One journal record: a kind (`"meta"`, `"cell"`, `"quarantine"`), a
/// grid key (`site/network/protocol`), and ordered string fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Record family — lookup is keyed on `(kind, key)`.
    pub kind: String,
    /// Cell coordinates, `site/network/protocol` for grid records.
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

    /// First field named `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Outcome of replaying a pre-existing journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// Intact records recovered.
    pub records: usize,
    /// Whether a torn/corrupt tail was detected and truncated.
    pub torn: bool,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn eat(&mut self, lit: &str) -> Option<()> {
        let end = self.i.checked_add(lit.len())?;
        if self.b.get(self.i..end)? == lit.as_bytes() {
            self.i = end;
            Some(())
        } else {
            None
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn number(&mut self) -> Option<u64> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(self.b.get(start..self.i)?)
            .ok()?
            .parse()
            .ok()
    }

    /// Parse `"..."` with the escapes `escape_into` emits.
    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let c = self.peek()?;
            self.i += 1;
            match c {
                b'"' => return Some(out),
                b'\\' => {
                    let e = self.peek()?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.i.checked_add(4)?;
                            let hex = std::str::from_utf8(self.b.get(self.i..end)?).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i = end;
                        }
                        _ => return None,
                    }
                }
                c if c < 0x20 => return None,
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let start = self.i - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return None,
                    };
                    let end = start.checked_add(len)?;
                    let s = std::str::from_utf8(self.b.get(start..end)?).ok()?;
                    out.push_str(s);
                    self.i = end;
                }
            }
        }
    }
}

/// Decode and checksum-verify one journal line. `None` means the line
/// is torn, corrupt, or from an unknown schema.
pub fn decode_line(line: &str) -> Option<Record> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let idx = line.rfind(",\"crc\":\"")?;
    let crc_start = idx.checked_add(8)?;
    let crc_hex = line.get(crc_start..crc_start + 16)?;
    if line.get(crc_start + 16..) != Some("\"}") {
        return None;
    }
    let crc = u64::from_str_radix(crc_hex, 16).ok()?;
    let mut body = String::with_capacity(idx + 1);
    body.push_str(line.get(..idx)?);
    body.push('}');
    if fnv1a(body.as_bytes()) != crc {
        return None;
    }
    let mut cur = Cur {
        b: body.as_bytes(),
        i: 0,
    };
    cur.eat("{\"schema\":")?;
    if cur.number()? != SCHEMA {
        return None;
    }
    cur.eat(",\"kind\":")?;
    let kind = cur.string()?;
    cur.eat(",\"key\":")?;
    let key = cur.string()?;
    cur.eat(",\"fields\":{")?;
    let mut fields = Vec::new();
    if cur.peek() == Some(b'}') {
        cur.i += 1;
    } else {
        loop {
            let k = cur.string()?;
            cur.eat(":")?;
            let v = cur.string()?;
            fields.push((k, v));
            match cur.peek()? {
                b',' => cur.i += 1,
                b'}' => {
                    cur.i += 1;
                    break;
                }
                _ => return None,
            }
        }
    }
    cur.eat("}")?;
    if cur.i != body.len() {
        return None;
    }
    Some(Record { kind, key, fields })
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

type ReplayMap = BTreeMap<(String, String), Record>;

fn replay_file(path: &Path) -> io::Result<(ReplayMap, Replay)> {
    let data = match fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((BTreeMap::new(), Replay::default()))
        }
        Err(e) => return Err(e),
    };
    let mut map = BTreeMap::new();
    let mut info = Replay::default();
    let mut off = 0usize;
    while off < data.len() {
        let rest = data.get(off..).unwrap_or(&[]);
        // A record is only durable once its trailing newline landed;
        // a final partial line is by definition a torn write.
        let Some(nl) = rest.iter().position(|b| *b == b'\n') else {
            info.torn = true;
            break;
        };
        let line_ok = std::str::from_utf8(rest.get(..nl).unwrap_or(&[]))
            .ok()
            .and_then(decode_line);
        match line_ok {
            Some(rec) => {
                map.insert((rec.kind.clone(), rec.key.clone()), rec);
                info.records += 1;
                off += nl + 1;
            }
            None => {
                info.torn = true;
                break;
            }
        }
    }
    if info.torn {
        let dropped = data.len() - off;
        crate::warn(&format!(
            "journal: torn/corrupt record at byte {off} of {} — truncating {dropped} trailing byte(s); {} intact record(s) kept",
            path.display(),
            info.records
        ));
        #[expect(clippy::disallowed_methods, reason = "torn-tail set_len, then fsync")]
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(off as u64)?;
        f.sync_all()?;
    }
    Ok((map, info))
}

// ---------------------------------------------------------------------------
// Global journal state
// ---------------------------------------------------------------------------

struct State {
    path: PathBuf,
    writer: fs::File,
    replayed: ReplayMap,
    written: u64,
}

static JOURNAL: Mutex<Option<State>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut Option<State>) -> R) -> R {
    let mut guard = JOURNAL.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Open (and, when `resume` is set, replay) the journal at `path`,
/// installing it as the process-wide journal. Without `resume` any
/// pre-existing journal is discarded — a fresh run must not
/// accidentally inherit cells from an older, possibly different
/// configuration. Stale temp files next to the journal are swept
/// either way.
pub fn journal_open(path: impl AsRef<Path>, resume: bool) -> io::Result<Replay> {
    let path = path.as_ref();
    if let Some(d) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(d)?;
        let _ = crate::recover_stale_temps(d);
    }
    let (map, info) = if resume {
        replay_file(path)?
    } else {
        let _ = fs::remove_file(path);
        (BTreeMap::new(), Replay::default())
    };
    #[expect(clippy::disallowed_methods, reason = "the journal's O_APPEND writer")]
    let writer = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    with_state(|s| {
        *s = Some(State {
            path: path.to_path_buf(),
            writer,
            replayed: map,
            written: 0,
        });
    });
    Ok(info)
}

/// Whether a journal is currently open.
pub fn journal_active() -> bool {
    with_state(|s| s.is_some())
}

/// Append one record durably (encode, write line, fdatasync). A no-op
/// returning `Ok` when no journal is open, so instrumented code paths
/// cost nothing in journal-less runs.
pub fn journal_append(rec: &Record) -> io::Result<()> {
    with_state(|s| {
        let Some(st) = s.as_mut() else {
            return Ok(());
        };
        let mut line = encode_line(rec);
        line.push('\n');
        st.writer.write_all(line.as_bytes())?;
        st.writer.sync_data()?;
        st.written += 1;
        Ok(())
    })
}

/// Look up a replayed record by `(kind, key)` — the resume fast path.
pub fn replayed(kind: &str, key: &str) -> Option<Record> {
    with_state(|s| {
        s.as_ref().and_then(|st| {
            st.replayed
                .get(&(kind.to_string(), key.to_string()))
                .cloned()
        })
    })
}

/// Number of replayed records currently available for resume.
pub fn replayed_count() -> u64 {
    with_state(|s| s.as_ref().map_or(0, |st| st.replayed.len() as u64))
}

/// Records appended to the open journal by *this* process.
pub fn records_written() -> u64 {
    with_state(|s| s.as_ref().map_or(0, |st| st.written))
}

/// Validate (or establish) the journal's run configuration. The meta
/// record binds the journal to the deterministic inputs of the sweep —
/// seed, scale, fault spec, stack selection. If a replayed meta record
/// disagrees with `fields`, the journal belongs to a *different* run:
/// every replayed record is discarded, the file is truncated, and a
/// fresh meta record is written. Returns `true` when replayed records
/// remain usable for resume.
pub fn journal_meta(fields: &[(&str, &str)]) -> io::Result<bool> {
    let want: Vec<(String, String)> = fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let rec = Record::new("meta", "run", want.clone());
    with_state(|s| {
        let Some(st) = s.as_mut() else {
            return Ok(false);
        };
        let existing = st.replayed.get(&("meta".to_string(), "run".to_string()));
        match existing {
            Some(m) if m.fields == want => Ok(true),
            Some(m) => {
                crate::warn(&format!(
                    "journal: meta mismatch (journal {:?} vs run {:?}) — discarding {} replayed record(s) and starting fresh",
                    m.fields,
                    want,
                    st.replayed.len()
                ));
                st.replayed.clear();
                st.writer.set_len(0)?;
                append_locked(st, &rec)?;
                Ok(false)
            }
            None if !st.replayed.is_empty() => {
                crate::warn(&format!(
                    "journal: {} replayed record(s) but no meta record — discarding and starting fresh",
                    st.replayed.len()
                ));
                st.replayed.clear();
                st.writer.set_len(0)?;
                append_locked(st, &rec)?;
                Ok(false)
            }
            None => {
                append_locked(st, &rec)?;
                Ok(false)
            }
        }
    })
}

fn append_locked(st: &mut State, rec: &Record) -> io::Result<()> {
    let mut line = encode_line(rec);
    line.push('\n');
    st.writer.write_all(line.as_bytes())?;
    st.writer.sync_data()?;
    st.written += 1;
    Ok(())
}

/// Clean completion: close and delete the journal. A later run starts
/// from nothing — there is no state left to resume.
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

/// Close the journal *without* deleting it (interrupted runs keep
/// their state on disk for the resume).
pub fn journal_detach() {
    with_state(|s| {
        *s = None;
    });
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

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pq-ckpt-journal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = rec(
            "cell",
            "apache.org/DSL/QUIC",
            &[
                ("seed", "776"),
                ("plt", "40a5dccccccccccd"),
                ("msg", "odd \"chars\"\\\n\ttab\u{1}"),
            ],
        );
        let line = encode_line(&r);
        assert!(line.starts_with("{\"schema\":1,"));
        assert_eq!(decode_line(&line).unwrap(), r);
        // Empty fields too.
        let e = rec("meta", "run", &[]);
        assert_eq!(decode_line(&encode_line(&e)).unwrap(), e);
        // Unicode.
        let u = rec("cell", "köln.example/LTE/TCP", &[("λ", "π≈3")]);
        assert_eq!(decode_line(&encode_line(&u)).unwrap(), u);
    }

    #[test]
    fn checksum_detects_any_flip() {
        let line = encode_line(&rec("cell", "k", &[("a", "1")]));
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                assert!(decode_line(&s).is_none(), "flip at {i} went undetected");
            }
        }
        assert!(decode_line("").is_none());
        assert!(decode_line("{\"schema\":1}").is_none());
        // Truncations never decode.
        for cut in 1..line.len() {
            assert!(decode_line(&line[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let line = encode_line(&rec("cell", "k", &[]));
        let bumped = line.replace("{\"schema\":1,", "{\"schema\":2,");
        // Re-checksum the tampered body so only the schema check can fail.
        let idx = bumped.rfind(",\"crc\":\"").unwrap();
        let body = format!("{}}}", &bumped[..idx]);
        let fixed = format!(
            "{},\"crc\":\"{:016x}\"}}",
            &bumped[..idx],
            fnv1a(body.as_bytes())
        );
        assert!(decode_line(&fixed).is_none());
    }

    // The global-journal tests share one process-wide journal slot, so
    // they run as a single test to avoid interleaving.
    #[test]
    fn journal_lifecycle_replay_torn_tail_and_meta() {
        let dir = scratch("lifecycle");
        let path = dir.join("journal.jsonl");

        // Fresh open, write some records.
        let info = journal_open(&path, false).unwrap();
        assert_eq!(info, Replay::default());
        assert!(journal_active());
        assert!(!journal_meta(&[("seed", "776"), ("scale", "smoke")]).unwrap());
        journal_append(&rec("cell", "a/DSL/QUIC", &[("plt", "3ff0000000000000")])).unwrap();
        journal_append(&rec("cell", "b/LTE/TCP", &[("plt", "4000000000000000")])).unwrap();
        journal_append(&rec("quarantine", "c/MSS/QUIC", &[("reason", "panic")])).unwrap();
        assert_eq!(records_written(), 4); // meta + 3
        journal_detach();

        // Tear the tail: append garbage.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"schema\":1,\"kind\":\"cell\",\"key\":\"torn")
            .unwrap();
        drop(f);

        // Resume: replay keeps the intact records, truncates the tear.
        let info = journal_open(&path, true).unwrap();
        assert!(info.torn);
        assert_eq!(info.records, 4);
        assert!(journal_meta(&[("seed", "776"), ("scale", "smoke")]).unwrap());
        assert_eq!(replayed_count(), 4);
        let got = replayed("cell", "a/DSL/QUIC").unwrap();
        assert_eq!(got.get("plt"), Some("3ff0000000000000"));
        assert!(replayed("cell", "torn").is_none());
        assert!(replayed("quarantine", "c/MSS/QUIC").is_some());
        // The file itself was truncated back to intact records only.
        let body = fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 4);
        assert!(body.ends_with('\n'));

        // A later write then clean completion deletes the file.
        journal_append(&rec("cell", "d/DSL/TCP", &[])).unwrap();
        journal_complete().unwrap();
        assert!(!path.exists());
        assert!(!journal_active());
        assert!(journal_append(&rec("cell", "x", &[])).is_ok());

        // Meta mismatch discards replayed state.
        journal_open(&path, false).unwrap();
        journal_meta(&[("seed", "1")]).unwrap();
        journal_append(&rec("cell", "a/DSL/QUIC", &[("plt", "0000000000000000")])).unwrap();
        journal_detach();
        journal_open(&path, true).unwrap();
        assert!(!journal_meta(&[("seed", "2")]).unwrap());
        assert_eq!(replayed_count(), 0);
        assert!(replayed("cell", "a/DSL/QUIC").is_none());
        journal_complete().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
