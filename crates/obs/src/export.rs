//! The trace exporter: Chrome trace-event JSON. Load the file in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` and a
//! page load renders as a waterfall — one process row per load, one
//! thread row per connection and per web object, counter charts for
//! cwnd/queue depth. Timestamps are microseconds with nanosecond
//! fractions.

use crate::json::{write_escaped, Value};
use crate::trace::{tracer, ArgValue, Event, EventKind, Process};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

fn args_json(args: &[(&'static str, ArgValue)]) -> Value {
    let mut obj = Value::obj();
    for (k, v) in args {
        let val = match v {
            ArgValue::U64(n) => Value::Num(*n as f64),
            ArgValue::F64(n) => Value::Num(*n),
            ArgValue::Str(s) => Value::Str(s.clone()),
        };
        obj.set(k, val);
    }
    obj
}

/// A Chrome trace being written, one row per line.
pub struct ChromeTrace<'w> {
    out: &'w mut dyn Write,
    /// Rows written so far, metadata included.
    rows: usize,
    /// Events written so far.
    events: usize,
    /// Processes written so far; the next one's `pid` is one more.
    processes: u32,
}

impl ChromeTrace<'_> {
    fn row(&mut self, row: &str) -> io::Result<()> {
        let sep = if self.rows == 0 { "\n" } else { ",\n" };
        self.rows += 1;
        write!(self.out, "{sep}{row}")
    }

    /// A `process_name` or `thread_name` metadata row.
    fn meta(&mut self, what: &str, pid: u32, tid: u32, name: &str) -> io::Result<()> {
        let mut s = format!(
            "{{\"ph\":\"M\",\"name\":\"{what}\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
        );
        write_escaped(&mut s, name);
        s.push_str("}}");
        self.row(&s)
    }

    /// `ev` as a row of process `pid`.
    fn event(&mut self, ev: &Event, pid: u32) -> io::Result<()> {
        let mut s = String::new();
        s.push('{');
        let (ph, extra) = match ev.kind {
            EventKind::Span => ("X", format!(",\"dur\":{:.3}", ev.dur_ns as f64 / 1e3)),
            EventKind::Instant => ("i", ",\"s\":\"t\"".to_string()),
            EventKind::Counter => ("C", String::new()),
        };
        let _ = write!(s, "\"ph\":\"{ph}\",\"name\":");
        write_escaped(&mut s, &ev.name);
        let _ = write!(s, ",\"cat\":\"{}\"", ev.cat);
        let _ = write!(
            s,
            ",\"ts\":{:.3}{extra},\"pid\":{pid},\"tid\":{}",
            ev.ts_ns as f64 / 1e3,
            ev.tid
        );
        if !ev.args.is_empty() {
            s.push_str(",\"args\":");
            s.push_str(&args_json(&ev.args).to_string());
        }
        s.push('}');
        self.events += 1;
        self.row(&s)
    }

    /// Write `p` as the next process: the first gets `pid` 1, the
    /// next 2, and so on.
    pub fn process(&mut self, p: &Process) -> io::Result<()> {
        self.processes += 1;
        let pid = self.processes;
        self.meta("process_name", pid, 0, &p.name)?;
        for (tid, name) in &p.tracks {
            self.meta("thread_name", pid, *tid, name)?;
        }
        for ev in &p.events {
            self.event(ev, pid)?;
        }
        Ok(())
    }
}

/// Write a Chrome trace to `path`, streamed so that no more than one
/// process's rows need be in memory: first the processes `processes`
/// writes, then the tracer's own rows, drained — the harness (`pid 0`)
/// and the processes it named, numbered after the written ones.
/// Returns the number of events written.
pub fn export(
    path: &Path,
    processes: impl FnOnce(&mut ChromeTrace) -> io::Result<()>,
) -> io::Result<usize> {
    pq_ckpt::atomic_write_with(path, |out| {
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let mut trace = ChromeTrace {
            out,
            rows: 0,
            events: 0,
            processes: 0,
        };
        processes(&mut trace)?;
        let t = tracer();
        let events = t.drain();
        let names = t.inner.lock().expect("tracer poisoned").pid_names.clone();
        let written = trace.processes;
        let pid = |pid: u32| if pid == 0 { 0 } else { pid + written };
        trace.meta("process_name", 0, 0, "harness (wall time)")?;
        for (p, name) in &names {
            trace.meta("process_name", pid(*p), 0, name)?;
        }
        for ev in &events {
            trace.event(ev, pid(ev.pid))?;
        }
        trace.out.write_all(b"\n]}\n")?;
        Ok(trace.events)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{tests::with_level, Level};

    #[test]
    fn chrome_trace_is_valid_json() {
        let args = || {
            vec![
                ("bytes", ArgValue::U64(7)),
                ("who", ArgValue::Str("a\"b".into())),
            ]
        };
        let load = Process {
            name: "site · QUIC · seed 1".into(),
            tracks: vec![(0, "page".into()), (2, "conn 1 (QUIC)".into())],
            events: vec![
                Event::span("test", "obj 1 image", 0, 2, 1_000, 3_500, args()),
                Event::instant("test", "FVC", 0, 0, 3_000, args()),
                Event::counter("test", "cwnd", 0, 2, 4_000, 14600.0),
            ],
        };
        let path = std::env::temp_dir()
            .join(format!("pq_obs_export_{}", std::process::id()))
            .join("trace.json");
        let (worker, written) = with_level(Level::Info, || {
            let worker = tracer().new_pid("worker");
            let phase = Event::instant("test", "phase", worker, 0, 5, Vec::new());
            tracer().record(Level::Info, phase);
            let written = export(&path, |trace| {
                trace.process(&load)?;
                trace.process(&load)
            });
            (worker, written.expect("export"))
        });
        assert_eq!(written, 7, "two loads' three events and the harness's one");
        let text = std::fs::read_to_string(&path).expect("read exported trace");
        std::fs::remove_dir_all(path.parent().expect("temp dir")).ok();
        let doc = Value::parse(&text).expect("chrome trace parses as JSON");
        let evs = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents");
        let field = |e: &Value, k| e.get(k).and_then(Value::as_f64);
        let span = evs
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("a span");
        assert_eq!(
            (field(span, "ts"), field(span, "dur"), field(span, "pid")),
            (Some(1.0), Some(2.5), Some(1.0))
        );
        let pids = |ph: &str| -> Vec<f64> {
            evs.iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .filter_map(|e| field(e, "pid"))
                .collect()
        };
        assert_eq!(pids("C"), [1.0, 2.0], "loads are numbered as written");
        // The harness's own processes follow the written ones.
        let phase = evs
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("phase"))
            .expect("the harness event");
        assert_eq!(field(phase, "pid"), Some(f64::from(worker + 2)));
    }
}
