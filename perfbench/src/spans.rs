//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions — nothing inside the program is
//! instrumented. A span has a name, start and end (ns since the run's
//! origin), the id of the span that caused it, and the id of the request
//! it belongs to. Each thread records into its own [`Recorder`]; the
//! recorders are merged and written out once, when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the run's origin (shared by every thread).
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// An open span: closed by [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    pub request: u64,
    name: &'static str,
    start: u64,
}

/// A per-thread span buffer.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Open a span; `parent` 0 marks a root, and `request` 0 starts a new
    /// request named after the span itself.
    pub fn begin(&self, name: &'static str, parent: u64, request: u64) -> Open {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            request: if request == 0 { id } else { request },
            name,
            start: now_ns(),
        }
    }

    /// Close `open` now.
    pub fn end(&mut self, open: Open) {
        let end = now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start: open.start,
            end,
        });
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(Open) -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f(open);
        self.end(open);
        out
    }

    /// Move every span of `other` into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Self times (ns) of every span named `name`: duration minus the
    /// time its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                stats::self_time(s.start, s.end, kids) as f64
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_by_parent_id() {
        let rec = Recorder {
            spans: vec![
                Span {
                    id: 1,
                    parent: 0,
                    request: 7,
                    name: "queue",
                    start: 0,
                    end: 100,
                },
                Span {
                    id: 2,
                    parent: 1,
                    request: 7,
                    name: "codec",
                    start: 20,
                    end: 80,
                },
                Span {
                    id: 3,
                    parent: 2,
                    request: 7,
                    name: "engine",
                    start: 30,
                    end: 50,
                },
                Span {
                    id: 4,
                    parent: 0,
                    request: 8,
                    name: "queue",
                    start: 200,
                    end: 250,
                },
            ],
        };
        assert_eq!(rec.self_times("queue"), vec![40.0, 50.0]);
        assert_eq!(rec.self_times("codec"), vec![40.0]);
        assert_eq!(rec.self_times("engine"), vec![20.0]);
        assert_eq!(rec.durations("queue"), vec![100.0, 50.0]);
    }
}
