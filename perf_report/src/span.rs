//! In-memory spans around the harness's calls into each layer.
//!
//! A traced run wraps every public call it makes in a [`Span`] (name,
//! start, end, parent, track, operation id), keeps them in memory, and
//! writes them out once at the end — as per-name self-time totals in the
//! report and, on request, as Chrome-trace JSON. Spans *inside* the
//! program are a later issue; everything here is recorded from the
//! benchmark's own files.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Timeline the span is drawn on: the harness thread, a client
    /// connection, or a rank (for spans laid out from `ExecStats`).
    pub track: u32,
    /// Step / call / job the span belongs to; spans of one operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Laid out from per-step counters the program published rather than
    /// timed by the harness clock (rank timelines under a `run_world` span).
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Disabled tracers record nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    track: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Token returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// `origin` is shared by every tracer of a run so tracks line up.
    pub fn new(enabled: bool, origin: Instant, track: u32) -> Self {
        Self {
            enabled,
            origin,
            track,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording between operations (never inside an open span):
    /// traced runs leave every other operation untraced to price the spans.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            track: self.track,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            derived: false,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost-first");
        }
    }

    /// Time `f` under a span.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Add a span that was not timed here (see [`Span::derived`]) under the
    /// innermost open span. `start_ns`/`end_ns` are relative to the origin.
    pub fn add_derived(
        &mut self,
        name: &'static str,
        track: u32,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                track,
                op,
                start_ns,
                end_ns,
                derived: true,
            });
        }
    }

    /// Nanoseconds since the shared origin (for laying out derived spans).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "unclosed span at end of run");
        self.spans
    }
}

/// Concatenate per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children may overlap each other, e.g.
/// two rank timelines under one `run_world` span, so the cover is a union).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (count, total duration ns, total self ns).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Chrome-trace ("Trace Event Format") JSON: one complete event per span,
/// one `tid` per track, so `chrome://tracing` / Perfetto shows a step's or
/// job's layers side by side instead of only summed.
pub fn chrome_trace_json(spans: &[Span], track_names: &BTreeMap<u32, String>) -> String {
    let mut out = String::from("[\n");
    for (track, name) in track_names {
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"args\":{{\"name\":\"{name}\"}}}},\n"
        ));
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"derived\":{}}}}}",
            s.name,
            s.track,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.op,
            s.derived,
        ));
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            track: 0,
            op: 0,
            start_ns,
            end_ns,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b 50..70.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("aa", Some(1), 20, 30),
            span("b", Some(0), 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_cover_their_union_only() {
        // Children 10..60 and 40..90 overlap by 20: union covers 80, not 100.
        // A third child sticks out past the parent and is clipped to it.
        let spans = vec![
            span("root", None, 0, 100),
            span("r0", Some(0), 10, 60),
            span("r1", Some(0), 40, 90),
            span("late", Some(0), 95, 130),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 80 - 5);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"], (1, 100, 15));
        assert_eq!(totals["r0"], (1, 50, 50));
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        let outer = t.begin("outer", 7);
        t.scope("inner", 7, || std::hint::black_box(1 + 1));
        t.add_derived("rank", 9, 7, 5, 6);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[2].derived && spans[2].track == 9);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Tracer::new(false, Instant::now(), 0);
        let o = off.begin("x", 0);
        off.end(o);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents_and_chrome_trace_is_valid_json() {
        let a = vec![span("a", None, 0, 10), span("a1", Some(0), 1, 2)];
        let b = vec![span("b", None, 0, 10), span("b1", Some(0), 3, 4)];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        let names = BTreeMap::from([(0u32, "harness".to_string())]);
        let text = chrome_trace_json(&all, &names);
        let parsed = rmcrt_bench::campaign::json::parse(&text).expect("chrome trace parses");
        assert_eq!(parsed.as_array().map(<[_]>::len), Some(5));
    }
}
