//! In-memory span recorder for the traced run.
//!
//! Spans come only from the benchmark's own code, wrapped around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Each span records its name, start, end and parent. Spans
//! stay in memory until the run ends and are then written out as JSON
//! lines.

use std::io::Write as _;
use std::time::Instant;

/// One closed (or still open, `end_ns == u64::MAX`) span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_with`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// The span recorder. A disabled tracer records nothing and reads no
/// clock, so the same replay code serves the untraced comparison run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: u64::MAX, parent });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`. The result passes through
    /// `black_box`, so a call whose result the caller drops still runs.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = std::hint::black_box(f());
        self.exit(id);
        out
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }

    /// Summed self time in seconds of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Writes every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(parent, kids)| {
            let mut covered = 0u64;
            // Children are opened in start order; merge their clipped
            // intervals so overlap is never counted twice.
            let mut reach = parent.start_ns;
            for &k in kids {
                let start = spans[k].start_ns.max(reach);
                let end = spans[k].end_ns.min(parent.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            parent.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The first span whose children's summed durations exceed its own.
pub fn overfull(spans: &[Span]) -> Option<&Span> {
    let mut kids = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p] += s.duration_ns();
        }
    }
    spans.iter().zip(&kids).find(|(s, k)| **k > s.duration_ns()).map(|(s, _)| s)
}

/// A timing distribution: median, tail and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Median.
    pub p50: f64,
    /// The highest percentile of the ladder 50/90/99/99.9/99.99 that has at
    /// least ten samples beyond it (the median when none has).
    pub tail: f64,
    /// The percentile `tail` reports, e.g. `99.0`.
    pub tail_pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Percentiles in parts per ten thousand, lowest first.
const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Nearest-rank percentile of sorted `xs` at `q` parts per ten thousand.
fn rank(n: usize, q: u64) -> usize {
    (q as usize * n).div_ceil(10_000).max(1)
}

/// Summarises `xs` into a [`Dist`].
pub fn dist(mut xs: Vec<f64>) -> Dist {
    let n = xs.len();
    if n == 0 {
        return Dist { p50: 0.0, tail: 0.0, tail_pct: 50.0, n };
    }
    xs.sort_by(f64::total_cmp);
    let at = |q: u64| xs[rank(n, q) - 1];
    let q = LADDER.iter().rev().copied().find(|&q| n - rank(n, q) >= 10).unwrap_or(5_000);
    Dist { p50: at(5_000), tail: at(q), tail_pct: q as f64 / 100.0, n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_never_sum_past_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.enter("root");
        for _ in 0..50 {
            let tick = t.enter("tick");
            t.time("leaf.a", || std::hint::black_box((0..200).sum::<u64>()));
            t.time("leaf.b", || std::hint::black_box((0..100).product::<u64>()));
            t.exit(tick);
        }
        t.exit(root);
        let spans = t.spans();
        assert_eq!(overfull(spans), None);
        let selfs = self_times_ns(spans);
        for (i, parent) in spans.iter().enumerate() {
            let kids: u64 =
                spans.iter().filter(|s| s.parent == Some(i)).map(Span::duration_ns).sum();
            assert!(kids <= parent.duration_ns(), "children of {} exceed it", parent.name);
            assert_eq!(selfs[i], parent.duration_ns() - kids, "self time of {}", parent.name);
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let span = |start_ns, end_ns, parent| Span { name: "s", start_ns, end_ns, parent };
        let spans = [span(0, 100, None), span(10, 60, Some(0)), span(40, 120, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![10, 50, 80]);
        assert_eq!(overfull(&spans), Some(&spans[0]), "50 + 80 ns of children in 100 ns");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x");
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let d = dist((1..=100).map(f64::from).collect());
        assert_eq!((d.p50, d.tail, d.tail_pct, d.n), (50.0, 90.0, 90.0, 100));
        let d = dist((1..=1000).map(f64::from).collect());
        assert_eq!((d.tail, d.tail_pct), (990.0, 99.0));
        let d = dist(vec![3.0; 12]);
        assert_eq!((d.tail, d.tail_pct), (3.0, 50.0));
        assert_eq!(dist(Vec::new()).n, 0);
    }
}
