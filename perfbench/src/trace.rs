//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Each span has a name, start, end, parent and run id; slices of
//! `sim.run` also carry their `Network::perf()` deltas. Nothing is written
//! while a run is timed: [`Spans::to_json`] renders them once it has
//! ended.

use crate::measure::self_time;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-slice counter deltas from `Network::perf()` / `Network::steps()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceCounts {
    /// Events processed in the slice.
    pub events: u64,
    /// Packets handed to a wire (hop-counted).
    pub hops: u64,
    /// Timers that fired.
    pub timer_fires: u64,
}

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `topology.build` or `sim.slice`.
    pub name: &'static str,
    /// Index of this span in its recorder.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which simulation of the process the span belongs to.
    pub run: u32,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (equal to `start` while open).
    pub end: u64,
    /// Counter deltas, for slices.
    pub counts: Option<SliceCounts>,
}

impl Span {
    /// Span length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Span recorder for one process.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u32) -> usize {
        let id = self.spans.len();
        let t = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            run,
            start: t,
            end: t,
            counts: None,
        });
        id
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        let t = self.now();
        self.spans[id].end = t;
    }

    /// Attach counter deltas to span `id`.
    pub fn set_counts(&mut self, id: usize, counts: SliceCounts) {
        self.spans[id].counts = Some(counts);
    }

    /// Span `id`.
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id` in ns: its length minus what its children
    /// cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start, c.end))
            .collect();
        self_time(s.start, s.end, &children)
    }

    /// JSON array of every span, one object per span, with self time and
    /// slice counts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n    {{\"name\":\"{}\",\"id\":{},\"parent\":{},\"run\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.name,
                s.id,
                parent,
                s.run,
                s.start,
                s.end,
                self.self_ns(s.id)
            );
            if let Some(c) = s.counts {
                let _ = write!(
                    out,
                    ",\"events\":{},\"hops\":{},\"timer_fires\":{}",
                    c.events, c.hops, c.timer_fires
                );
            }
            out.push('}');
        }
        out.push_str("\n  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_of_recorded_tree() {
        let mut sp = Spans::new();
        let root = sp.open("sim.run", None, 0);
        let a = sp.open("sim.slice", Some(root), 0);
        sp.close(a);
        let b = sp.open("sim.slice", Some(root), 0);
        sp.close(b);
        sp.close(root);
        // Pin exact times so the arithmetic is checked, not the clock.
        sp.spans[root].start = 0;
        sp.spans[root].end = 1_000;
        sp.spans[a].start = 100;
        sp.spans[a].end = 400;
        sp.spans[b].start = 500;
        sp.spans[b].end = 900;
        assert_eq!(sp.self_ns(root), 300);
        assert_eq!(sp.self_ns(a), 300);
        let json = sp.to_json();
        assert!(json.contains("\"name\":\"sim.run\",\"id\":0,\"parent\":null"));
        assert!(json.contains("\"self_ns\":300"));
    }
}
