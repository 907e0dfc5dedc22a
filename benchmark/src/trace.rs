//! Spans recorded by the benchmark's own code around its calls into each
//! layer. They are buffered in memory and written out when the run ends;
//! with tracing off the same loops run straight through, which is what the
//! end-to-end numbers are measured on.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Ops per span in the embedded phases: fine enough to see a split storm,
/// coarse enough that the clock reads stay under a percent of the work.
pub const CHUNK: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    /// First op (embedded phases) or request id (service) covered.
    pub op: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span (a no-op with tracing off) and returns its
    /// index for children to name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
    ) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` over every item and returns the phase's wall time. With
    /// tracing on, the phase becomes a parent span with one child per
    /// [`CHUNK`] items; the children's durations come back as the second
    /// value (empty with tracing off).
    pub fn phase<T>(
        &mut self,
        name: &'static str,
        items: &[T],
        mut f: impl FnMut(usize, &T),
    ) -> (Duration, Vec<u64>) {
        let start = Instant::now();
        if !self.on {
            for (i, item) in items.iter().enumerate() {
                f(i, item);
            }
            return (start.elapsed(), Vec::new());
        }
        let parent = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: NO_PARENT,
            op: 0,
        });
        let mut chunk_ns = Vec::with_capacity(items.len() / CHUNK + 1);
        for (c, chunk) in items.chunks(CHUNK).enumerate() {
            let t0 = Instant::now();
            for (i, item) in chunk.iter().enumerate() {
                f(c * CHUNK + i, item);
            }
            let t1 = Instant::now();
            chunk_ns.push((t1 - t0).as_nanos() as u64);
            self.record("chunk", t0, t1, parent, (c * CHUNK) as u64);
        }
        let elapsed = start.elapsed();
        self.spans[parent as usize].end_ns = self.now_ns();
        (elapsed, chunk_ns)
    }

    /// Times one call as a span of its own (checkpoint, reopen, ...).
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (Duration, R) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, NO_PARENT, 0);
        (end - start, out)
    }

    /// Writes the buffered spans as JSON lines; nothing with tracing off.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time summed by span name, in seconds: where a traced pass went.
pub fn self_seconds_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, f64> {
    let mut by_name = std::collections::BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_runs_straight_through_and_records_nothing() {
        let mut t = Tracer::new(false);
        let mut seen = 0;
        let (_, chunks) = t.phase("p", &[1, 2, 3], |i, &x| seen += i + x);
        assert_eq!(seen, 9);
        assert!(chunks.is_empty() && t.spans().is_empty());
    }

    #[test]
    fn on_records_a_parent_and_one_child_per_chunk() {
        let mut t = Tracer::new(true);
        let items = vec![0u8; CHUNK * 2 + 5];
        let mut count = 0;
        let (_, chunks) = t.phase("ingest", &items, |i, _| {
            assert_eq!(i, count);
            count += 1;
        });
        assert_eq!(count, items.len());
        assert_eq!(chunks.len(), 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].name, spans[0].parent), ("ingest", NO_PARENT));
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == 0 && s.name == "chunk"));
        assert_eq!(spans[3].op, (CHUNK * 2) as u64);
        assert!(spans[0].end_ns >= spans[3].end_ns);
        let own = self_times(spans);
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - children);
    }
}
