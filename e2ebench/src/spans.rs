//! Bench-side spans and self-time attribution.
//!
//! Spans are recorded in memory around the benchmark's own calls into
//! each layer (never inside the library) and written out when the run
//! ends. A layer's self time is the part of its span not covered by a
//! deeper span; where two spans of the same depth overlap (two serve
//! clients waiting on the daemon's single executor), the earlier one
//! owns the overlap, because the executor serves jobs in arrival order.
//! The self times of one trace therefore partition its root span
//! exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one; `None` for a trace root.
    pub parent: Option<u64>,
    /// Spans of one pass, the set-up or one probe share a trace id.
    pub trace: String,
    pub name: &'static str,
    /// Seconds since the run's epoch.
    pub start: f64,
    pub end: f64,
}

/// In-memory span store. Disabled recorders drop everything.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Starts a span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, trace: &str, parent: Option<u64>) -> u64 {
        let now = Instant::now();
        self.record(name, trace, parent, now, now)
    }

    pub fn close(&mut self, id: u64) {
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Records a finished interval and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace: trace.to_string(),
            name,
            start: start.saturating_duration_since(self.epoch).as_secs_f64(),
            end: end.saturating_duration_since(self.epoch).as_secs_f64(),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name over a set of spans. Every instant inside a
/// root span is attributed to the deepest span covering it (ties: the
/// one that started first), so the values sum to the roots' total
/// duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let depth = |s: &Span| {
        let mut d = 0usize;
        let mut cur = s.parent;
        while let Some(p) = cur {
            d += 1;
            cur = by_id.get(&p).and_then(|s| s.parent);
        }
        d
    };
    let depths: Vec<usize> = spans.iter().map(depth).collect();
    let mut cuts: Vec<f64> = spans.iter().flat_map(|s| [s.start, s.end]).collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let owner = spans
            .iter()
            .zip(&depths)
            .filter(|(s, _)| s.start <= a && s.end >= b)
            .min_by(|(x, dx), (y, dy)| dy.cmp(dx).then(x.start.total_cmp(&y.start)));
        if let Some((s, _)) = owner {
            *out.entry(s.name).or_default() += b - a;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            trace: "t".into(),
            name,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        let spans = [
            span(1, None, "pass", 0.0, 10.0),
            span(2, Some(1), "check", 1.0, 6.0),
            span(3, Some(2), "generate", 2.0, 3.0),
            span(4, Some(2), "generate", 4.0, 4.5),
            span(5, Some(1), "check", 7.0, 9.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], 3.0);
        assert_eq!(t["check"], 5.5);
        assert_eq!(t["generate"], 1.5);
        assert_eq!(t.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_siblings_are_not_double_counted() {
        // Two clients waiting on one executor: the earlier job owns
        // the overlap.
        let spans = [
            span(1, None, "pass", 0.0, 4.0),
            span(2, Some(1), "miss", 0.0, 3.0),
            span(3, Some(1), "hit", 0.5, 3.5),
        ];
        let t = self_times(&spans);
        assert_eq!(t["miss"], 3.0);
        assert_eq!(t["hit"], 0.5);
        assert_eq!(t["pass"], 0.5);
        assert_eq!(t.values().sum::<f64>(), 4.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let now = Instant::now();
        assert_eq!(r.record("x", "t", None, now, now), 0);
        assert!(r.spans().is_empty());
    }
}
