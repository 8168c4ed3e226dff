//! Per-iteration critical-path reconstruction over causal trace events.
//!
//! The cost report decomposes iteration time into per-*counter* aggregates;
//! this module decomposes it along the *critical path*: for each executor
//! iteration (an `exec.step` span), it gathers every span that ran anywhere
//! in the world during that window, verifies the causal DAG the
//! `span_id`/`parent_id` links form, merges each place's busy intervals, and
//! reports which place carried the path, how the path splits into compute /
//! ship / ctl / idle-wait, and how badly the slowest place straggled behind
//! the median. HPX's resiliency work and ReStore (see PAPERS.md) both stress
//! that overhead must be attributed to the critical path rather than to
//! wall-clock sums — this is that attribution layer.
//!
//! **Honesty under drops.** The event rings overwrite their oldest entries
//! when full; an iteration whose window precedes a wrapped ring's oldest
//! retained event may be missing spans, so it is flagged
//! [`incomplete`](IterProfile::complete) instead of contributing a bogus
//! path.

use std::collections::{HashMap, HashSet};

use crate::trace::{Phase, SpanKind, TraceEvent};

/// How one span kind contributes to the critical-path breakdown; each
/// kind's class is declared beside its name ([`SpanKind::class`]).
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub enum CostClass {
    /// Application work: remote task bodies, pool jobs, object
    /// snapshot/restore payload work.
    Compute,
    /// Data movement: serialization, store save/fetch traffic, checkpoint
    /// ships, and the sender side of `at`/`async_at` round trips.
    Ship,
    /// Resilient-finish control traffic to place zero.
    Ctl,
    /// Executor phases and failure instants — structural, not charged to
    /// any breakdown bucket.
    Structural,
}

/// The critical-path profile of one executor iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterProfile {
    /// The iteration number (the `exec.step` span's argument).
    pub iteration: u64,
    /// Wall time of the step span, nanoseconds.
    pub wall_nanos: u64,
    /// The critical path: the busiest single place's merged busy time inside
    /// the window, clamped to the wall. By construction
    /// `max-place-compute ≤ critical_path ≤ wall`.
    pub critical_path_nanos: u64,
    /// Compute share of the dominant place's path (merged intervals).
    pub compute_nanos: u64,
    /// Ship share, with compute-covered time subtracted (no double count).
    pub ship_nanos: u64,
    /// Ctl share, with compute- and ship-covered time subtracted.
    pub ctl_nanos: u64,
    /// Wall time not covered by the critical path: the iteration waited on
    /// nothing measurable (scheduling gaps, blocked collectives).
    pub idle_nanos: u64,
    /// The place whose merged busy time was the path.
    pub dominant_place: u32,
    /// Slowest place compute / median place compute (1.0 when balanced; 1.0
    /// when fewer than two places computed).
    pub straggler_ratio: f64,
    /// False when a wrapped ring may have lost events inside this window —
    /// the profile is then a lower bound, not a reconstruction.
    pub complete: bool,
}

/// A reconstructed causal DAG over one window's events, with validation
/// helpers for the test suite and the analyzer's sanity gates.
#[derive(Debug, Default)]
pub struct SpanDag {
    /// Edges child span id → parent span id (parent 0 = root, not stored).
    pub edges: HashMap<u64, u64>,
    /// Every span id seen in the window (any phase).
    pub nodes: HashSet<u64>,
}

impl SpanDag {
    /// Build the DAG from a window's events. Begin events count as nodes
    /// too: a span that never ended (e.g. one still open at a killed place
    /// when it died) is a legitimate causal parent — its Begin is always
    /// recorded before any child can capture it.
    pub fn build(events: &[TraceEvent]) -> SpanDag {
        let mut dag = SpanDag::default();
        for e in events {
            if e.span_id == 0 {
                continue;
            }
            dag.nodes.insert(e.span_id);
            if e.parent_id != 0 {
                dag.edges.insert(e.span_id, e.parent_id);
            }
        }
        dag
    }

    /// True when every parent edge lands on a node present in the window.
    /// Dangling parents mean the window (or a wrapped ring) lost the sender.
    pub fn is_complete(&self) -> bool {
        self.edges.values().all(|p| self.nodes.contains(p))
    }

    /// True when following parent links never cycles. Ids are allocated
    /// monotonically so a cycle would indicate corruption; the analyzer
    /// refuses to attribute paths over a cyclic graph.
    pub fn is_acyclic(&self) -> bool {
        for start in self.edges.keys() {
            let (mut cur, mut hops) = (*start, 0usize);
            while let Some(&p) = self.edges.get(&cur) {
                cur = p;
                hops += 1;
                if hops > self.edges.len() {
                    return false;
                }
            }
        }
        true
    }

    /// Depth of the longest parent chain (root spans have depth 0).
    pub fn max_depth(&self) -> usize {
        let mut deepest = 0;
        for start in self.edges.keys() {
            let (mut cur, mut hops) = (*start, 0usize);
            while let Some(&p) = self.edges.get(&cur) {
                cur = p;
                hops += 1;
                if hops > self.edges.len() {
                    break; // cyclic; is_acyclic() reports it
                }
            }
            deepest = deepest.max(hops);
        }
        deepest
    }
}

/// Merge `[start, end)` intervals and return total covered length.
fn merged_len(intervals: &mut [(u64, u64)]) -> u64 {
    merge(intervals).iter().map(|(s, e)| e - s).sum()
}

/// Total length of `a`'s merged coverage not covered by `b` (`b` merged).
fn len_minus(a: &mut [(u64, u64)], b: &[(u64, u64)]) -> u64 {
    // Merge `a` first — overlapping same-class spans (e.g. nested ctl spans)
    // must not double-count — then subtract by clipping each merged interval
    // against the (sorted, merged) b-intervals. Inputs are small (one
    // iteration's spans), so O(n·m) is fine and keeps the arithmetic
    // obviously correct.
    let merged = merge(a);
    let mut total = 0u64;
    for &(s, e) in merged.iter() {
        let mut cursor = s;
        for &(bs, be) in b {
            if be <= cursor {
                continue;
            }
            if bs >= e {
                break;
            }
            if bs > cursor {
                total += bs.min(e) - cursor;
            }
            cursor = cursor.max(be);
            if cursor >= e {
                break;
            }
        }
        if cursor < e {
            total += e - cursor;
        }
    }
    total
}

/// Merge intervals in place and return the merged, disjoint list.
fn merge(intervals: &mut [(u64, u64)]) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for &(s, e) in intervals.iter() {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Reconstruct per-iteration critical-path profiles from a tracer's drained
/// events. `dropped` is the tracer's per-place wrap-loss count
/// ([`crate::trace::Tracer::dropped`]); iterations whose window may have
/// lost events are flagged incomplete. Returns profiles ordered by
/// iteration.
pub fn analyze(events: &[TraceEvent], dropped: &[u64]) -> Vec<IterProfile> {
    // Step windows: each End event of an exec.step span.
    let mut steps: Vec<(u64, u64, u64)> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Step && e.phase == Phase::End)
        .map(|e| (e.arg, e.t_nanos.saturating_sub(e.dur_nanos), e.t_nanos))
        .collect();
    steps.sort_unstable();
    // Per-place floor: times earlier than a wrapped ring's oldest retained
    // event are unreliable for that place.
    let mut floors: HashMap<u32, u64> = HashMap::new();
    for (place, &lost) in dropped.iter().enumerate() {
        if lost > 0 {
            let oldest = events
                .iter()
                .filter(|e| e.place == place as u32)
                .map(|e| e.t_nanos)
                .min()
                .unwrap_or(u64::MAX);
            floors.insert(place as u32, oldest);
        }
    }
    let mut out = Vec::with_capacity(steps.len());
    for (iteration, w0, w1) in steps {
        let wall = w1 - w0;
        // Gather the window's drawn events (leaf work: ends + instants).
        let window: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| {
                e.phase == Phase::End
                    && e.kind != SpanKind::Step
                    && e.t_nanos.saturating_sub(e.dur_nanos) < w1
                    && e.t_nanos > w0
            })
            .collect();
        let complete = !floors.values().any(|&floor| w0 < floor);
        // Per-place interval sets, total and by class.
        let mut busy: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        let mut by_class: HashMap<(u32, CostClass), Vec<(u64, u64)>> = HashMap::new();
        for e in &window {
            let s = e.t_nanos.saturating_sub(e.dur_nanos).max(w0);
            let t = e.t_nanos.min(w1);
            if s >= t {
                continue;
            }
            busy.entry(e.place).or_default().push((s, t));
            let class = e.kind.class();
            if class != CostClass::Structural {
                by_class.entry((e.place, class)).or_default().push((s, t));
            }
        }
        // The path: the busiest place's merged coverage, clamped to wall.
        let (mut dominant_place, mut path) = (0u32, 0u64);
        for (&place, iv) in busy.iter_mut() {
            let len = merged_len(iv).min(wall);
            if len > path || (len == path && place < dominant_place) {
                dominant_place = place;
                path = len;
            }
        }
        // Breakdown on the dominant place, with overlap subtracted in
        // compute > ship > ctl priority so the parts never exceed the path.
        let mut compute_iv =
            by_class.remove(&(dominant_place, CostClass::Compute)).unwrap_or_default();
        let compute_m = merge(&mut compute_iv);
        let compute = compute_m.iter().map(|(s, e)| e - s).sum::<u64>().min(wall);
        let mut ship_iv = by_class.remove(&(dominant_place, CostClass::Ship)).unwrap_or_default();
        let ship = len_minus(&mut ship_iv, &compute_m).min(wall.saturating_sub(compute));
        let mut cover = compute_m.clone();
        cover.extend(merge(&mut ship_iv));
        let cover = merge(&mut cover);
        let mut ctl_iv = by_class.remove(&(dominant_place, CostClass::Ctl)).unwrap_or_default();
        let ctl = len_minus(&mut ctl_iv, &cover).min(wall.saturating_sub(compute + ship));
        // Straggler ratio over per-place compute coverage.
        let mut computes: Vec<u64> = busy
            .keys()
            .map(|&p| {
                let mut iv = by_class.remove(&(p, CostClass::Compute)).unwrap_or_default();
                if p == dominant_place {
                    compute
                } else {
                    merged_len(&mut iv).min(wall)
                }
            })
            .filter(|&n| n > 0)
            .collect();
        computes.sort_unstable();
        let straggler_ratio = if computes.len() >= 2 {
            // Lower-middle median: biased *against* the straggler, so the
            // ratio never under-reports a genuinely slow place.
            let median = computes[(computes.len() - 1) / 2];
            if median == 0 {
                1.0
            } else {
                *computes.last().unwrap() as f64 / median as f64
            }
        } else {
            1.0
        };
        out.push(IterProfile {
            iteration,
            wall_nanos: wall,
            critical_path_nanos: path,
            compute_nanos: compute,
            ship_nanos: ship,
            ctl_nanos: ctl,
            idle_nanos: wall.saturating_sub(path),
            dominant_place,
            straggler_ratio,
            complete,
        });
    }
    out
}

/// Max per-place *compute* coverage inside a step window — the lower bound
/// the acceptance criterion pins the critical path against. Exposed for
/// tests; `analyze` maintains `critical_path ≥ this` by construction since
/// compute intervals are a subset of the busy intervals.
pub fn max_place_compute(events: &[TraceEvent], w0: u64, w1: u64) -> u64 {
    let mut per_place: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for e in events {
        if e.phase != Phase::End || e.kind.class() != CostClass::Compute {
            continue;
        }
        let s = e.t_nanos.saturating_sub(e.dur_nanos).max(w0);
        let t = e.t_nanos.min(w1);
        if s < t {
            per_place.entry(e.place).or_default().push((s, t));
        }
    }
    per_place.values_mut().map(|iv| merged_len(iv).min(w1 - w0)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: SpanKind,
        place: u32,
        begin: u64,
        end: u64,
        span_id: u64,
        parent_id: u64,
        arg: u64,
    ) -> TraceEvent {
        TraceEvent {
            t_nanos: end,
            dur_nanos: end - begin,
            place,
            phase: Phase::End,
            kind,
            label: "",
            arg,
            span_id,
            parent_id,
        }
    }

    #[test]
    fn merged_len_handles_overlap_and_gaps() {
        assert_eq!(merged_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(merged_len(&mut []), 0);
        assert_eq!(merged_len(&mut [(3, 3)]), 0);
    }

    #[test]
    fn len_minus_subtracts_covered_time() {
        let mut a = vec![(0, 10), (20, 30)];
        let b = vec![(5, 25)];
        assert_eq!(len_minus(&mut a, &b), 5 + 5);
        let mut a2 = vec![(0, 4)];
        assert_eq!(len_minus(&mut a2, &[]), 4);
        let mut a3 = vec![(0, 4)];
        assert_eq!(len_minus(&mut a3, &[(0, 4)]), 0);
        // Overlapping a-intervals count their union, not their sum.
        let mut a4 = vec![(0, 30), (10, 40)];
        assert_eq!(len_minus(&mut a4, &[(5, 15)]), 5 + 25);
    }

    #[test]
    fn analyze_attributes_path_to_busiest_place() {
        // Step window [0, 100]; place 1 computes 60ns, place 2 computes 30ns.
        let events = vec![
            ev(SpanKind::Step, 0, 0, 100, 1, 0, 7),
            ev(SpanKind::AtRemote, 1, 10, 70, 2, 1, 0),
            ev(SpanKind::AtRemote, 2, 10, 40, 3, 1, 0),
            ev(SpanKind::Encode, 1, 70, 80, 4, 2, 0),
        ];
        let profiles = analyze(&events, &[0, 0, 0]);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.iteration, 7);
        assert_eq!(p.wall_nanos, 100);
        assert_eq!(p.dominant_place, 1);
        assert_eq!(p.critical_path_nanos, 70, "60 compute + 10 encode merged");
        assert_eq!(p.compute_nanos, 60);
        assert_eq!(p.ship_nanos, 10);
        assert_eq!(p.idle_nanos, 30);
        assert!(p.complete);
        // Bounds the acceptance criterion pins.
        assert!(p.critical_path_nanos <= p.wall_nanos);
        assert!(p.critical_path_nanos >= max_place_compute(&events, 0, 100));
        assert!((p.straggler_ratio - 2.0).abs() < 1e-9, "60 vs median 30");
    }

    #[test]
    fn analyze_flags_drop_affected_iterations() {
        let events = vec![
            ev(SpanKind::Step, 0, 0, 100, 1, 0, 0),
            ev(SpanKind::Step, 0, 200, 300, 2, 0, 1),
            // Place 1's oldest retained event is at t=150: iteration 0's
            // window precedes it, iteration 1's does not.
            ev(SpanKind::AtRemote, 1, 150, 160, 3, 1, 0),
            ev(SpanKind::AtRemote, 1, 210, 260, 4, 2, 0),
        ];
        let profiles = analyze(&events, &[0, 5]);
        assert_eq!(profiles.len(), 2);
        assert!(!profiles[0].complete, "window before the wrap floor is suspect");
        assert!(profiles[1].complete);
        // Without drops both are complete.
        let clean = analyze(&events, &[0, 0]);
        assert!(clean[0].complete && clean[1].complete);
    }

    #[test]
    fn dag_validation_accepts_forests_and_rejects_dangling_parents() {
        let good = vec![
            ev(SpanKind::Step, 0, 0, 10, 1, 0, 0),
            ev(SpanKind::At, 0, 1, 5, 2, 1, 0),
            ev(SpanKind::AtRemote, 1, 2, 4, 3, 2, 0),
        ];
        let dag = SpanDag::build(&good);
        assert!(dag.is_complete());
        assert!(dag.is_acyclic());
        assert_eq!(dag.max_depth(), 2);

        let dangling = vec![ev(SpanKind::AtRemote, 1, 2, 4, 3, 99, 0)];
        let dag = SpanDag::build(&dangling);
        assert!(!dag.is_complete(), "parent 99 was never drawn");
        assert!(dag.is_acyclic());
    }

    #[test]
    fn dag_detects_cycles() {
        // Hand-forged corruption: 2 → 3 → 2.
        let mut dag = SpanDag::default();
        dag.nodes.extend([2, 3]);
        dag.edges.insert(2, 3);
        dag.edges.insert(3, 2);
        assert!(!dag.is_acyclic());
    }

    #[test]
    fn straggler_ratio_is_one_when_balanced_or_solo() {
        let events = vec![
            ev(SpanKind::Step, 0, 0, 100, 1, 0, 0),
            ev(SpanKind::AtRemote, 1, 0, 50, 2, 1, 0),
            ev(SpanKind::AtRemote, 2, 0, 50, 3, 1, 0),
        ];
        let p = &analyze(&events, &[])[0];
        assert!((p.straggler_ratio - 1.0).abs() < 1e-9);
        let solo = vec![
            ev(SpanKind::Step, 0, 0, 100, 1, 0, 0),
            ev(SpanKind::AtRemote, 1, 0, 50, 2, 1, 0),
        ];
        let p = &analyze(&solo, &[])[0];
        assert!((p.straggler_ratio - 1.0).abs() < 1e-9, "one computing place cannot straggle");
    }
}
