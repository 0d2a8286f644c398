//! In-memory span recorder: each span has a name, a key (cycle index or
//! ingest `seq`), a start, an end and the span that caused it. Spans stay in
//! memory until the benchmark writes them out; self time is a span's
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::JsonValue;

/// One recorded span; times are nanoseconds since the trace origin.
#[derive(Clone, Debug, PartialEq)]
struct Span {
    /// Layer name (`cycle`, `task1`, `step.fanout`, ...).
    name: &'static str,
    /// Cycle index or ingest `seq` the span belongs to.
    key: u64,
    /// Start, ns since the trace origin.
    start_ns: u64,
    /// End, ns since the trace origin.
    end_ns: u64,
    /// Index of the causing span, `None` for a root.
    parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals of a trace, within the trees of one root layer.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Name of the root layer of the spans' trees.
    pub root: &'static str,
    /// Layer name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
    /// Self time over the summed duration of the root spans.
    pub share: f64,
}

/// The span store.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            key,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, ns: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered.min(s.dur_ns())
            })
            .collect()
    }

    /// The root layer of span `i`'s tree.
    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Per-layer totals, by root layer and then name.
    pub fn layers(&self) -> Vec<LayerRow> {
        let mut root_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut rows: BTreeMap<(&'static str, &'static str), LayerRow> = BTreeMap::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let root = self.root_name(i);
            if s.parent.is_none() {
                *root_ms.entry(root).or_default() += s.dur_ns() as f64 / 1e6;
            }
            let row = rows.entry((root, s.name)).or_insert(LayerRow {
                root,
                name: s.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
                share: 0.0,
            });
            row.count += 1;
            row.total_ms += s.dur_ns() as f64 / 1e6;
            row.self_ms += own as f64 / 1e6;
        }
        let mut rows: Vec<LayerRow> = rows.into_values().collect();
        for r in &mut rows {
            r.share = r.self_ms / root_ms[r.root].max(f64::MIN_POSITIVE);
        }
        rows
    }

    /// Share of the `root` spans' time that no leaf layer accounts for: the
    /// self time of every span with children, inside `root` subtrees, over
    /// the roots' total duration.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let mut has_kids = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_kids[p] = true;
            }
        }
        let (mut unattributed, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if self.root_name(i) != root {
                continue;
            }
            if s.parent.is_none() {
                total += s.dur_ns();
            }
            if has_kids[i] {
                unattributed += own[i];
            }
        }
        if total == 0 {
            0.0
        } else {
            unattributed as f64 / total as f64
        }
    }

    /// `[{"name","key","start_ns","end_ns","parent"}, ...]`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Arr(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::obj()
                        .set("name", s.name)
                        .set("key", s.key)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set(
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::U64(p as u64)),
                        )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut trace = Trace::new(t0);
        let root = trace.push("cycle", 0, at(0), at(100), None);
        let step = trace.push("step", 0, at(10), at(100), Some(root));
        // Overlapping children count once; one sticks out past the parent.
        trace.push("task1", 0, at(10), at(40), Some(step));
        trace.push("task1", 0, at(30), at(50), Some(step));
        trace.push("task23", 0, at(90), at(120), Some(step));
        let own = trace.self_ns();
        assert_eq!(own[root], 10_000_000);
        assert_eq!(own[step], 40_000_000);
        let layers = trace.layers();
        let task1 = layers.iter().find(|r| r.name == "task1").unwrap();
        assert_eq!(
            (task1.root, task1.count, task1.total_ms),
            ("cycle", 2, 50.0)
        );
        assert!((task1.self_ms - 50.0).abs() < 1e-9 && (task1.share - 0.5).abs() < 1e-9);
        let share = trace.unattributed_share("cycle");
        assert!((share - 0.5).abs() < 1e-12, "{share}");
    }
}
