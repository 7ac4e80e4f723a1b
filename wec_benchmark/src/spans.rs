//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each public call it makes into a
//! layer and each HTTP exchange it sends: name, start and end (ns since
//! the run began), the span that caused it, and the request id shared by
//! every span of one operation.  Spans stay in memory and are written as
//! JSON lines when the run ends.  With tracing off nothing is stored.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    list: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            list: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id for a span that will be recorded once it ends (so its
    /// children can name it as their parent first).  0 when tracing is off.
    pub fn open(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a span under an id from [`Spans::open`].
    pub fn close(&self, id: u64, name: &str, parent: u64, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.list.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Record a leaf span; returns its id.
    pub fn leaf(&self, name: &str, parent: u64, req: u64, start: Instant, end: Instant) -> u64 {
        let id = self.open();
        self.close(id, name, parent, req, start, end);
        id
    }

    /// Time `f` as one span.
    pub fn time<T>(&self, name: &str, parent: u64, req: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        self.close(id, name, parent, req, start, Instant::now());
        out
    }

    pub fn len(&self) -> usize {
        self.list.lock().expect("span list poisoned").len()
    }

    /// Write every span as one JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut list = self.list.lock().expect("span list poisoned");
        list.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in list.iter() {
            out.push_str("{\"name\":");
            wec_telemetry::json::escape_into(&mut out, &s.name);
            let _ = writeln!(
                out,
                ",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_round_trip_as_json_lines() {
        let spans = Spans::new(true);
        let root = spans.time("root", 0, 0, |id| {
            spans.time("child", id, 7, |_| ());
            id
        });
        assert_eq!(spans.len(), 2);
        let path = std::env::temp_dir().join(format!("wec-spans-{}.jsonl", std::process::id()));
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let rows: Vec<_> = text
            .lines()
            .map(|l| wec_telemetry::json::parse(l).unwrap())
            .collect();
        let child = rows
            .iter()
            .find(|r| r.get("name").and_then(|n| n.as_str()) == Some("child"))
            .unwrap();
        assert_eq!(child.get("parent").and_then(|v| v.as_u64()), Some(root));
        assert_eq!(child.get("req").and_then(|v| v.as_u64()), Some(7));
        let off = Spans::new(false);
        off.time("x", 0, 0, |_| ());
        assert_eq!(off.len(), 0);
    }
}
