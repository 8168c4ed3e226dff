//! The benchmark's own span recorder: spans are taken around the calls the
//! benchmark makes into the library, kept in memory, and written once at
//! exit. Nothing inside the library is instrumented (`GML_TRACE` stays off).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called (`step`, `checkpoint`, `Runtime::new`, a probe name).
    pub name: &'static str,
    /// The module the call enters (`apgas.runtime`, `core.framework`, ...).
    pub layer: &'static str,
    /// The run (one executor invocation or one probe) the span belongs to.
    pub run: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start and end, nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Library counters read at the span's two boundaries, as deltas.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Shared by the main thread (runtime start/stop) and the place-zero
/// activity (everything else); a span costs two clock reads and one push.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for `close` and for children.
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        run: u32,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder user panics while recording");
        spans.push(Span {
            name,
            layer,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
            counters: vec![],
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize, counters: Vec<(&'static str, u64)>) {
        let end_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder user panics while recording");
        spans[id].end_ns = end_ns;
        spans[id].counters = counters;
    }

    /// Time `f` as one span; `f` receives the span's index to parent its
    /// own children.
    pub fn time<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        run: u32,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.open(name, layer, run, parent);
        let out = f(id);
        self.close(id, vec![]);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no recorder user panics while recording")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children that overlap each other (ship
/// threads beside a step) are counted once, and a child is clipped to its
/// parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in kids {
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

/// The trace document written at exit.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, &self_ns))| {
            Json::obj([
                ("id", Json::from(id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("run", Json::from(u64::from(s.run))),
                ("name", Json::from(s.name)),
                ("layer", Json::from(s.layer)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("self_ns", Json::from(self_ns)),
                (
                    "counters",
                    Json::obj(s.counters.iter().map(|&(k, v)| (k, Json::from(v)))),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("spans", Json::Arr(rows)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer: "l",
            run: 0,
            parent,
            start_ns,
            end_ns,
            counters: vec![],
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_one_level_at_a_time() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        // children 10..40 and 30..70 overlap by 10; a third runs past the
        // parent's end (a ship thread joined late) and is clipped at 100.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 70),
            span(Some(0), 90, 130),
        ];
        // covered = 10..70 (60) + 90..100 (10)
        assert_eq!(self_times_ns(&spans)[0], 30);
        // a child entirely inside another adds nothing
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(0), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn recorder_parents_and_orders_spans() {
        let rec = Recorder::new();
        rec.time("outer", "bench", 7, None, |outer| {
            rec.time("inner", "core.framework", 7, Some(outer), |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn trace_document_is_valid_json() {
        let mut s = span(None, 0, 10);
        s.name = "quote\"and\\slash\n";
        s.counters = vec![("ctl", 62)];
        let doc = to_json("logreg_ctl", 42, &[s, span(Some(0), 1, 2)]);
        apgas::trace::validate_json(&doc).expect("library validator accepts it");
        assert!(doc.contains("\"self_ns\":9"));
    }
}
