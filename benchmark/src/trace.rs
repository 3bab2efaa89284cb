//! Spans recorded by the harness around its calls into each layer, and the
//! self-time arithmetic over them.
//!
//! A span is `{name, start, end, parent, job}` on one clock. A layer's self
//! time is the sum, over its spans, of the span's duration minus the part of
//! that interval its child spans cover — so the self times of a whole tree
//! add up to the root's duration exactly.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds on the rep's clock.
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one request share an identifier.
    pub job: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("start", Json::Num(self.start)),
            ("end", Json::Num(self.end)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("job", Json::Num(self.job as f64)),
        ])
    }
}

/// The spans of one traced rep.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    pub spans: Vec<Span>,
}

impl SpanTree {
    /// Add a span and return its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Give every parentless span other than the `adopters` themselves the
    /// adopter whose interval contains its start. Wrapper spans are recorded
    /// without knowing which phase is running; the phase intervals are only
    /// known once the sort returns its statistics.
    pub fn adopt(&mut self, adopters: &[usize]) {
        for i in 0..self.spans.len() {
            if self.spans[i].parent.is_some() || adopters.contains(&i) {
                continue;
            }
            let start = self.spans[i].start;
            self.spans[i].parent = adopters.iter().copied().find(|&a| {
                self.spans[a].job == self.spans[i].job
                    && self.spans[a].start <= start
                    && start <= self.spans[a].end
            });
        }
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to its own.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let (lo, hi) = (self.spans[p].start, self.spans[p].end);
                let (start, end) = (span.start.clamp(lo, hi), span.end.clamp(lo, hi));
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (start, end) in kids {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (span.duration() - covered).max(0.0)
            })
            .collect()
    }

    /// Self time summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(span.name).or_insert(0.0) += own;
        }
        by_name
    }

    /// Durations of the spans called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() * 1e3)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(self.spans.iter().map(Span::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut tree = SpanTree::default();
        let root = tree.push(span("job", 0.0, 10.0, None));
        let split = tree.push(span("split", 1.0, 5.0, Some(root)));
        let merge = tree.push(span("merge", 5.0, 9.0, Some(root)));
        tree.push(span("decode", 1.0, 2.0, Some(split)));
        tree.push(span("append", 2.5, 3.5, Some(split)));
        // Overlapping children are covered once, not twice.
        tree.push(span("read", 5.0, 7.0, Some(merge)));
        tree.push(span("read", 6.0, 8.0, Some(merge)));
        // A child that sticks out of its parent is clipped to it.
        tree.push(span("append", 8.5, 9.5, Some(merge)));

        let own = tree.self_times();
        assert_eq!(own[root], 2.0); // 10 - (4 + 4)
        assert_eq!(own[split], 2.0); // 4 - (1 + 1)
        assert_eq!(own[merge], 0.5); // 4 - (3 + 0.5)

        let by_name = tree.self_time_by_name();
        assert_eq!(by_name["read"], 4.0);
        assert_eq!(by_name["append"], 2.0);
    }

    #[test]
    fn self_times_of_a_clean_tree_sum_to_the_root() {
        let mut tree = SpanTree::default();
        let root = tree.push(span("job", 0.0, 8.0, None));
        let a = tree.push(span("split", 0.5, 4.0, Some(root)));
        tree.push(span("decode", 1.0, 3.0, Some(a)));
        tree.push(span("drain", 4.0, 7.5, Some(root)));
        let total: f64 = tree.self_times().iter().sum();
        assert!((total - 8.0).abs() < 1e-12);
    }

    #[test]
    fn adopt_assigns_orphans_by_containment() {
        let mut tree = SpanTree::default();
        let root = tree.push(span("job", 0.0, 10.0, None));
        let split = tree.push(span("split", 1.0, 5.0, Some(root)));
        let merge = tree.push(span("merge", 5.5, 9.0, Some(root)));
        let in_split = tree.push(span("decode", 1.5, 2.0, None));
        let in_merge = tree.push(span("read", 6.0, 6.5, None));
        let between = tree.push(span("flush", 5.2, 5.3, None));
        tree.adopt(&[split, merge, root]);
        assert_eq!(tree.spans[in_split].parent, Some(split));
        assert_eq!(tree.spans[in_merge].parent, Some(merge));
        // Not inside a phase: falls through to the root, listed last.
        assert_eq!(tree.spans[between].parent, Some(root));
        assert_eq!(tree.spans[root].parent, None);
    }
}
