//! The benchmark's own span list.
//!
//! Every layer is timed from outside, around calls into its public
//! functions; the program's tracing stays off. A span is
//! `(name, start, end, parent, batch)`. The list lives in memory and is
//! written out when the run ends. This is deliberately not `trace::Trace`:
//! the benchmark must not add names to the program's registry, and must
//! keep working when the program's tracing changes.

use crate::host::now_ns;
use crate::json::J;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Batch the span belongs to; spans of one batch share it.
    pub batch: u64,
}

#[derive(Default)]
pub struct SpanList {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanList {
    /// Times `f` as a span named `name`, nested under the span open now.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        batch: u64,
        f: impl FnOnce(&mut SpanList) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = now_ns();
        out
    }

    /// [`SpanList::time`] when `record` holds; otherwise just runs `f`.
    pub fn time_if<T>(
        &mut self,
        record: bool,
        name: &'static str,
        batch: u64,
        f: impl FnOnce(&mut SpanList) -> T,
    ) -> T {
        if record {
            self.time(name, batch, f)
        } else {
            f(self)
        }
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn to_json(&self) -> J {
        J::Arr(
            self.spans
                .iter()
                .map(|s| {
                    J::obj([
                        ("name", J::str(s.name)),
                        ("start_ns", J::Num(s.start_ns as f64)),
                        ("end_ns", J::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(J::Num(-1.0), |p| J::Num(p as f64)),
                        ),
                        ("batch", J::Num(s.batch as f64)),
                    ])
                })
                .collect(),
        )
    }
}
