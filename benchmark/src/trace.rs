//! Harness-side spans: recorded around the calls into each layer, kept in
//! memory, written out when the run ends.
//!
//! Spans are taken on the driver thread only, so nesting is a stack. A
//! disabled tracer (the untraced run) costs one branch per span.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` indexes into the tracer's span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one timed iteration share its id; 0 is "outside any
    /// timed iteration" (set-up, compile, probes).
    pub iteration: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Id of the iteration in progress (0 = none) and ids handed out.
    iteration: u32,
    iterations: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

/// Per-name totals: how often, how long, and how long excluding children.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Start the next timed iteration: the spans that follow carry its id.
    pub fn begin_iteration(&self) {
        let mut st = self.state.borrow_mut();
        st.iterations += 1;
        st.iteration = st.iterations;
    }

    /// Back to "outside any iteration".
    pub fn end_iteration(&self) {
        self.state.borrow_mut().iteration = 0;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut st = self.state.borrow_mut();
            let index = st.spans.len();
            let parent = st.open.last().copied();
            let iteration = st.iteration;
            st.open.push(index);
            st.spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                iteration,
            });
            index
        };
        let result = f();
        let mut st = self.state.borrow_mut();
        st.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        st.open.pop();
        result
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.state.borrow().spans)
    }

    /// The trace document: per-name totals over every span, plus the spans
    /// themselves for everything outside the timed iterations and for the
    /// first `keep` iterations under each top-level name (a full timed
    /// phase of the many-small-evaluations workload is hundreds of
    /// thousands of spans).
    pub fn to_json(&self, keep: usize) -> Json {
        let st = self.state.borrow();
        let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut kept = std::collections::BTreeSet::from([0]);
        for s in st
            .spans
            .iter()
            .filter(|s| s.iteration != 0 && s.parent.is_none())
        {
            let ordinal = seen.entry(s.name).or_default();
            *ordinal += 1;
            if *ordinal <= keep {
                kept.insert(s.iteration);
            }
        }
        let summary = totals(&st.spans)
            .into_iter()
            .map(|(name, t)| {
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ])
            })
            .collect();
        let spans = st
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| kept.contains(&s.iteration))
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("iteration", Json::Num(f64::from(s.iteration))),
                ])
            })
            .collect();
        Json::obj(vec![
            ("span_count", Json::Num(st.spans.len() as f64)),
            ("kept_iterations_per_name", Json::Num(keep as f64)),
            ("summary", Json::Arr(summary)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover (children of one parent never overlap — one thread, one stack).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // compile [0,100] > parse [10,40], emit [50,90] > fmt [60,70]
        let spans = vec![
            span("compile", 0, 100, None),
            span("parse", 10, 40, Some(0)),
            span("emit", 50, 90, Some(0)),
            span("fmt", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let t = totals(&spans);
        assert_eq!(
            t["compile"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(t["emit"].self_ns, 30);
    }

    #[test]
    fn tracer_records_nesting_and_iteration_ids() {
        let tr = Tracer::new(true);
        tr.span("setup", || {});
        tr.begin_iteration();
        tr.end_iteration();
        tr.begin_iteration();
        let v = tr.span("iteration", || {
            tr.span("gen", || 7) + tr.span("drain", || 1)
        });
        tr.end_iteration();
        tr.span("after", || {});
        assert_eq!(v, 8);
        let spans = tr.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["setup", "iteration", "gen", "drain", "after"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!((spans[0].iteration, spans[4].iteration), (0, 0));
        assert!(spans[1..4].iter().all(|s| s.iteration == 2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Children lie inside their parent.
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[3].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_body() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 5), 5);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn trace_document_keeps_only_the_first_iterations() {
        let tr = Tracer::new(true);
        tr.span("load", || {});
        for path in ["native", "interp", "native", "native", "interp"] {
            tr.begin_iteration();
            tr.span(path, || tr.span("call", || {}));
            tr.end_iteration();
        }
        // Two per top-level name: native, interp, native, (native), interp.
        let doc = tr.to_json(2);
        assert_eq!(doc.get("span_count").and_then(Json::as_f64), Some(11.0));
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).unwrap().len(),
            1 + 2 * 4
        );
        let summary = doc.get("summary").and_then(Json::as_arr).unwrap();
        let calls = summary
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("call"))
            .unwrap();
        assert_eq!(calls.get("count").and_then(Json::as_f64), Some(5.0));
    }
}
