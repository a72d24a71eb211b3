//! In-memory host spans recorded around the benchmark's calls into the
//! crates' public entry points. Untraced runs carry no tracer, so the
//! end-to-end metrics pay nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is the entry point, `pass` the workload pass it
/// belongs to (one id per pass), `parent` the enclosing span.
pub struct Span {
    pub name: String,
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Spans are kept in memory and written out once, when the
/// run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    next_pass: u32,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), next_pass: 0, pass: 0 }
    }

    /// Starts a new workload pass; spans opened until the next call share
    /// its id.
    pub fn begin_pass(&mut self) -> u32 {
        self.next_pass += 1;
        self.pass = self.next_pass;
        self.pass
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, nested under any open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Total seconds of spans named `name` (optionally in one pass).
    pub fn total(&self, name: &str, pass: Option<u32>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && pass.is_none_or(|p| s.pass == p))
            .map(Span::secs)
            .sum()
    }

    /// Spans as JSON lines, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"pass\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.pass, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Runs `f` inside a span when tracing, or bare when not.
pub fn traced<T>(tr: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_pass_id() {
        let mut t = Tracer::new();
        let pass = t.begin_pass();
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.pass == pass && s.end_ns >= s.start_ns));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
