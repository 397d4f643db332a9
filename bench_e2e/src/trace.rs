//! In-memory span recorder for the traced (`--trace 1`) runs.
//!
//! A span is `(name, start, end, parent)` around one call into a layer's
//! public API, made from the benchmark's own code; nothing inside the
//! program is instrumented. Spans stay in memory until the run ends, then
//! [`Recorder::self_seconds`] folds them into per-layer self times (a
//! span's duration minus the part its children cover) and
//! [`Recorder::to_json`] writes them out.
//!
//! A disabled recorder costs one branch per `enter`/`exit` and reads no
//! clock, so the untraced pass of a traced run executes the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Clone, Copy, Debug)]
#[must_use = "a span must be closed with Recorder::exit"]
pub struct SpanId(u32);

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(ROOT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self seconds per span name: each span's duration minus its direct
    /// children's durations. Summed over every name, this equals the summed
    /// duration of the root spans exactly (up to float rounding).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "self times need every span closed");
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for s in &self.spans {
            if s.parent != ROOT {
                self_ns[s.parent as usize] -= (s.end_ns - s.start_ns) as i128;
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Seconds covered by root spans.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Every span as a JSON array of `[name, start_ns, end_ns, parent]`
    /// rows (`parent` is -1 for a root).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(48 * self.spans.len() + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            write!(
                out,
                "[\"{}\",{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent
            )
            .expect("write to string");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut rec = Recorder::new(true);
        let root = rec.enter("root");
        let a = rec.enter("a");
        let b = rec.enter("b");
        std::hint::black_box((0..10_000).sum::<u64>());
        rec.exit(b);
        rec.exit(a);
        let c = rec.enter("b");
        rec.exit(c);
        rec.exit(root);
        let selfs = rec.self_seconds();
        let sum: f64 = selfs.values().sum();
        assert!((sum - rec.root_seconds()).abs() < 1e-9);
        assert_eq!(selfs.len(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.enter("x");
        rec.exit(id);
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.root_seconds(), 0.0);
    }
}
