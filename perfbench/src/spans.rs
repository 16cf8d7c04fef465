//! Host-time spans around the benchmark's calls into the workspace layers.
//!
//! Every timed call goes through [`Spans::begin`] / [`Spans::end`], which
//! always return the call's duration. While recording is on (the traced
//! iterations of a `--trace 1` run) each call is also kept as a span with
//! its parent and request id, and its duration is added to the iteration's
//! per-name totals. Spans stay in memory and are written once, when the
//! benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// A call in progress.
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

pub struct Spans {
    epoch: Instant,
    workload: &'static str,
    /// Whether calls are currently recorded.
    pub on: bool,
    /// Request id stamped on new spans: the iteration, round or admission
    /// request the call belongs to.
    pub request: u64,
    open: Vec<usize>,
    done: Vec<Span>,
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            epoch: Instant::now(),
            workload,
            on: false,
            request: 0,
            open: Vec::new(),
            done: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            let ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.done.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.open.last().copied(),
                request: self.request,
            });
            self.open.push(self.done.len() - 1);
            self.done.len() - 1
        });
        Open { start, index }
    }

    /// Close `open`, returning its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if let Some(i) = open.index {
            let span = &mut self.done[i];
            span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
            *self.totals.entry(span.name).or_default() += secs;
            self.open.retain(|&j| j != i);
        }
        secs
    }

    /// Time `f` as one call named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let v = f();
        (v, self.end(open))
    }

    /// Recorded seconds per span name since the last call, then reset.
    pub fn take_totals(&mut self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut self.totals)
    }

    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Every recorded span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"unit\": \"ns\", \"spans\": [",
            self.workload
        );
        for (i, s) in self.done.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
                 \"parent\": {parent}, \"workload\": \"{}\", \"request\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                self.workload,
                s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_only_when_on() {
        let mut s = Spans::new("w");
        let (_, _) = s.time("off", || ());
        assert_eq!(s.len(), 0);
        s.on = true;
        s.request = 7;
        let outer = s.begin("outer");
        let (_, _) = s.time("inner", || ());
        s.end(outer);
        assert_eq!(s.len(), 2);
        let json = s.to_json();
        assert!(json.contains("\"name\": \"inner\", \"start\""));
        assert!(json.contains("\"parent\": 0, \"workload\": \"w\", \"request\": 7"));
        let totals = s.take_totals();
        assert!(totals.contains_key("outer") && totals.contains_key("inner"));
    }
}
