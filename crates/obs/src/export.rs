//! The trace exporter: Chrome trace-event JSON. Load the file in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` and a
//! page load renders as a waterfall — one process row per load, one
//! thread row per connection and per web object, counter charts for
//! cwnd/queue depth. Timestamps are microseconds with nanosecond
//! fractions.

use crate::json::{write_escaped, Value};
use crate::trace::{tracer, ArgValue, Event, EventKind};
use std::fmt::Write as _;
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

/// Serialise events to the Chrome trace-event JSON format.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let t = tracer();
    let inner = t.inner.lock().expect("tracer poisoned");
    let mut out = String::with_capacity(events.len() * 128 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &str, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(s);
    };
    // Metadata: process/thread names.
    push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"harness (wall time)\"}}",
        &mut first,
    );
    for (pid, name) in &inner.pid_names {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        );
        write_escaped(&mut s, name);
        s.push_str("}}");
        push(&s, &mut first);
    }
    for (pid, tid, name) in &inner.tid_names {
        let mut s = String::new();
        let _ = write!(s, "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":");
        write_escaped(&mut s, name);
        s.push_str("}}");
        push(&s, &mut first);
    }
    drop(inner);
    for ev in events {
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
            ",\"ts\":{:.3}{extra},\"pid\":{},\"tid\":{}",
            ev.ts_ns as f64 / 1e3,
            ev.pid,
            ev.tid
        );
        if !ev.args.is_empty() {
            s.push_str(",\"args\":");
            s.push_str(&args_json(&ev.args).to_string());
        }
        s.push('}');
        push(&s, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

/// Write the buffered events to `path` as Chrome trace JSON. Drains
/// the buffer. Returns the number of events written.
///
/// Ring overflow is never silent: when the buffer dropped events
/// since the last drain, a `trace.dropped` counter records how many
/// and a tracer warning (which itself lands in the exported file)
/// says so once, with the remedy.
pub fn export(path: &Path) -> std::io::Result<usize> {
    let t = tracer();
    let (_, _, dropped) = t.stats();
    if dropped > 0 {
        crate::metrics::registry().counter_add("trace.dropped", dropped);
        t.warn(
            "trace",
            format!(
                "ring overflow dropped {dropped} events before export; raise PQ_TRACE_BUF to keep them"
            ),
        );
    }
    let events = t.drain();
    pq_ckpt::atomic_write(path, to_chrome_trace(&events).as_bytes())?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &str, ts: u64, dur: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: dur,
            kind,
            cat: "test",
            name: name.to_string(),
            pid: 1,
            tid: 2,
            args: vec![
                ("bytes", ArgValue::U64(7)),
                ("who", ArgValue::Str("a\"b".into())),
            ],
        }
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let events = vec![
            ev(EventKind::Span, "obj 1 image", 1_000, 2_500),
            ev(EventKind::Instant, "FVC", 3_000, 0),
            ev(EventKind::Counter, "cwnd", 4_000, 0),
        ];
        let text = to_chrome_trace(&events);
        let doc = Value::parse(&text).expect("chrome trace parses as JSON");
        let evs = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents");
        // ≥ 3 payload events (+ metadata rows).
        let phases: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"C"));
        let span = evs
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(span.get("dur").and_then(Value::as_f64), Some(2.5));
    }
}
