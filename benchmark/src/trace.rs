//! Spans recorded around the calls into each layer.
//!
//! Every call boundary goes through [`Tracer::open`] / [`Tracer::close`],
//! which always time the interval. A recording tracer (the traced pass)
//! also keeps a span — name, start, end, parent, repetition — in memory and
//! writes them all as JSON lines at exit; a silent one (the untraced reps
//! that give the end-to-end numbers) keeps nothing.

use std::io::Write;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    /// The repetition the span belongs to (its request identifier).
    rep: usize,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// A started interval, returned by [`Tracer::open`].
#[must_use = "close the span to time it"]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    recording: bool,
    origin: Instant,
    rep: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Tags the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.recording.then(|| {
            let ns = self.ns(start);
            self.spans.push(Span {
                name,
                rep: self.rep,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Ends the span and returns its length in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.ns(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans close in nesting order");
        }
        (end - open.start).as_secs_f64()
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Seconds spent in spans called `name`, summed per repetition, for
    /// repetitions `0..reps`.
    pub fn per_rep_seconds(&self, name: &str, reps: usize) -> Vec<f64> {
        let mut sums = vec![0.0; reps];
        for s in self.spans.iter().filter(|s| s.name == name && s.rep < reps) {
            sums[s.rep] += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        sums
    }

    /// The length in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","rep":{},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.rep, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_tracer_nests_and_sums_per_rep() {
        let mut tr = Tracer::new(true);
        for rep in 0..2 {
            tr.set_rep(rep);
            let outer = tr.open("run");
            let inner = tr.open("step");
            tr.close(inner);
            let inner = tr.open("step");
            tr.close(inner);
            tr.close(outer);
        }
        assert_eq!(tr.spans.len(), 6);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.durations("step").len(), 4);
        let per_rep = tr.per_rep_seconds("step", 2);
        assert_eq!(per_rep.len(), 2);
        assert!(per_rep.iter().all(|&s| s >= 0.0));
        assert_eq!(tr.per_rep_seconds("absent", 2), vec![0.0, 0.0]);
    }

    #[test]
    fn silent_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.open("run");
        assert!(tr.close(open) >= 0.0);
        assert!(tr.spans.is_empty());
    }
}
