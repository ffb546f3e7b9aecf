//! Spans recorded by the benchmark's own code around each call into a
//! layer's public functions: name, start, end, the span that caused it
//! and the repetition it belongs to. Spans stay in memory until the run
//! ends. A layer's self time is its span's duration minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.soa.integrate`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (0 is the warm-up).
    pub rep: u32,
}

/// The span recorder. Disabled, it adds one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (traced runs interleave both).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Spans recorded from here on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Per span name, the self time summed within each timed repetition
    /// (the warm-up, repetition 0, is left out), one entry per
    /// repetition in which the name occurred.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_times();
        let mut per_rep: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.rep > 0 {
                *per_rep.entry((s.name, s.rep)).or_insert(0) += ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_rep {
            out.entry(name).or_default().push(ns as f64);
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("[");
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"rep\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.rep, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_rep(1);
        t.span("rep", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_times();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own[0] + own[1] + own[2], total);
        assert!(own[0] < own[2], "the root only wraps its children");
        let by_name = t.self_ns_by_name();
        assert_eq!(by_name["a"].len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
