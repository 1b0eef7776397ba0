//! Benchmark-side spans: name, start, end, parent and run id, recorded
//! around calls into the layers' public functions, kept in memory and
//! written once at exit with each span's self time.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; 0 is "no span" (a root's parent).
pub type SpanId = usize;

struct Span {
    run: usize,
    parent: SpanId,
    name: String,
    start: Instant,
    end: Option<Instant>,
}

/// In-memory span recorder. A disabled recorder records nothing.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled` is false for the untraced end-to-end mode.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span under `parent` (0 for a root) in run `run`.
    pub fn begin(&self, run: usize, parent: SpanId, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span lock poisoned by a panic");
        spans.push(Span {
            run,
            parent,
            name: name.into(),
            start: Instant::now(),
            end: None,
        });
        spans.len()
    }

    /// Closes span `id`.
    pub fn end(&self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = Instant::now();
        self.spans.lock().expect("span lock poisoned by a panic")[id - 1].end = Some(now);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, run: usize, parent: SpanId, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(run, parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in seconds of the closed spans of run `run` whose name
    /// starts with `name_prefix`.
    pub fn durations(&self, run: usize, name_prefix: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panic")
            .iter()
            .filter(|s| s.run == run && s.name.starts_with(name_prefix))
            .filter_map(|s| s.end.map(|e| (e - s.start).as_secs_f64()))
            .collect()
    }

    /// Renders every span as TSV: times in microseconds since the
    /// recorder's epoch; self time is the duration minus the union of its
    /// children's intervals (children may run concurrently, like the
    /// per-rank spans of one world).
    pub fn to_tsv(&self) -> String {
        let spans = self.spans.lock().expect("span lock poisoned by a panic");
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len() + 1];
        for s in spans.iter() {
            if let Some(e) = s.end {
                children[s.parent].push((us(s.start), us(e)));
            }
        }
        let mut out = String::from("id\tparent\trun\tname\tstart_us\tend_us\tdur_us\tself_us\n");
        for (i, s) in spans.iter().enumerate() {
            let Some(e) = s.end else { continue };
            let (start, end) = (us(s.start), us(e));
            let covered = union_len(&mut children[i + 1], start, end);
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{start:.1}\t{end:.1}\t{:.1}\t{:.1}",
                i + 1,
                s.parent,
                s.run,
                s.name,
                end - start,
                (end - start - covered).max(0.0)
            );
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 7.0), (-1.0, 0.5)];
        assert_eq!(union_len(&mut v, 0.0, 6.0), 4.0);
    }
}
