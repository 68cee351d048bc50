//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into the library's
//! public functions — nothing inside the simulator is instrumented. Each
//! span carries a name (the layer it times), start and end on one
//! process-wide clock, the span that caused it and the trial it belongs
//! to. Parallel workers record into their own [`Spans`] and the caller
//! appends them, so recording takes no lock. Spans are written out once,
//! when the benchmark ends.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, e.g. `core.scan`.
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch (0 while open).
    pub end_ns: u64,
    /// Index of the causing span in the same [`Spans`].
    pub parent: Option<usize>,
    /// Trial (or shard, or fixture) the span belongs to.
    pub trial: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A growable span log.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span now; returns its id for [`Spans::close`] and for use
    /// as a child's parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trial: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            trial,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trial: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, trial);
        let out = f();
        self.close(id);
        out
    }

    /// Wall duration of span `id` in ns.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].duration_ns()
    }

    /// Moves every span of `other` to the end of this log, rebasing its
    /// parent links; `other`'s root spans become children of `parent`.
    pub fn append_under(&mut self, other: Spans, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// [`Spans::append_under`] keeping `other`'s roots as roots.
    pub fn append(&mut self, other: Spans) {
        self.append_under(other, None);
    }

    /// Per-layer summary: count, busy (self) time, and the self and
    /// full durations of every span of the layer. A span's self time is
    /// its duration minus the part of its interval its children cover.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let self_ns = s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns);
            let layer = layers.entry(s.name).or_default();
            layer.self_ns.push(self_ns);
            layer.full_ns.push(s.duration_ns());
        }
        layers
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trial\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trial
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Durations of one layer's spans.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Self time of each span, ns.
    pub self_ns: Vec<u64>,
    /// Full duration of each span, ns.
    pub full_ns: Vec<u64>,
}

impl Layer {
    pub fn count(&self) -> u64 {
        self.self_ns.len() as u64
    }

    /// Σ self time, seconds.
    pub fn busy_s(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail percentile to report for `n` samples: 99 when at least ten
/// samples lie beyond it, otherwise the highest whole percentile that
/// still leaves ten beyond it (0 when there are fewer than eleven).
pub fn tail_percentile(n: usize) -> u32 {
    (1..=99u32)
        .rev()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new();
        spans.spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                trial: 0,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                trial: 0,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 50,
                parent: Some(0),
                trial: 0,
            },
            Span {
                name: "c",
                start_ns: 90,
                end_ns: 120,
                parent: Some(0),
                trial: 0,
            },
        ];
        let layers = spans.layers();
        // Children cover [10, 50) and [90, 100) of the parent.
        assert_eq!(layers["a"].self_ns, vec![50]);
        assert_eq!(layers["b"].count(), 2);
        assert_eq!(layers["c"].full_ns, vec![30]);
    }

    #[test]
    fn append_rebases_parents() {
        let mut a = Spans::new();
        let root = a.open("x", None, 0);
        a.close(root);
        let mut b = Spans::new();
        let p = b.open("y", None, 1);
        b.open("z", Some(p), 1);
        a.append(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(10), 0);
        assert_eq!(quantile(&[5, 1, 3], 0.5), 3);
    }
}
