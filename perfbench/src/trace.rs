//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions, written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

/// A span recorder; a disabled tracer records nothing and never reads
/// the clock, so the untraced path pays for no instrumentation.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the tracer was created.
    pub fn origin_elapsed(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; returns its id (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another tracer's spans, keeping parent links valid and
    /// times on this tracer's clock.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Duration (seconds) of closed span `id`; 0 when disabled.
    pub fn duration(&self, id: usize) -> f64 {
        if self.enabled {
            let s = &self.spans[id];
            (s.end_ns - s.start_ns) as f64 * 1e-9
        } else {
            0.0
        }
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.open("job", None, 0);
        t.span("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.durations("job")[0] >= t.durations("child")[0]);
        assert!(t.duration(root) >= 0.002);
        let mut other = Tracer::new(true);
        let id = other.open("x", None, 1);
        other.span("y", Some(id), 1, || ());
        other.close(id);
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        let mut off = Tracer::new(false);
        off.span("job", None, 0, || ());
        assert!(off.spans().is_empty());
    }
}
