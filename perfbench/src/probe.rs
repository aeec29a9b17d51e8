//! How a workload's calls are timed.
//!
//! Workload code wraps each end-to-end operation in [`Probe::op`] and each
//! call into a library layer in [`Probe::call`]. The timed run uses
//! [`Timer`], which reads the clock once before and once after each
//! operation and ignores the calls, so untraced timing carries no tracing
//! cost. The traced run uses [`Tracer`], which records a span around every
//! operation (the root) and every layer call (its children).
//!
//! A clock read costs some 20–40 ns. Every timing includes one read's worth,
//! the same on both sides of any comparison of two commits; it matters only
//! next to the shortest calls, such as a replica-local `peek_front`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::hist::Histogram;

/// The raw spans of one operation in this many are kept for `trace.jsonl`.
pub const KEEP_EVERY: u64 = 64;

/// The kinds of end-to-end operation the workloads issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A detectable enqueue followed by a detectable dequeue.
    Pair,
    /// A replica-local `peek_front`.
    Peek,
    /// A detectable map put (prep + exec).
    Put,
    /// A plain map get.
    Get,
    /// The operations of one recover cycle before its crash.
    Cycle,
    /// `recover`, `rebuild_allocator` and both `resolve`s after a crash.
    Recovery,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 6] =
        [Kind::Pair, Kind::Peek, Kind::Put, Kind::Get, Kind::Cycle, Kind::Recovery];

    /// The kind's name in report lines.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pair => "pair",
            Kind::Peek => "peek",
            Kind::Put => "put",
            Kind::Get => "get",
            Kind::Cycle => "cycle",
            Kind::Recovery => "recovery",
        }
    }

    /// The name of the root span of an operation of this kind.
    fn root(self) -> &'static str {
        match self {
            Kind::Pair => "op.pair",
            Kind::Peek => "op.peek",
            Kind::Put => "op.put",
            Kind::Get => "op.get",
            Kind::Cycle => "op.cycle",
            Kind::Recovery => "op.recovery",
        }
    }
}

/// One latency histogram per [`Kind`].
#[derive(Clone, Debug, Default)]
pub struct KindHists([Histogram; 6]);

impl KindHists {
    fn record(&mut self, kind: Kind, ns: u64) {
        self.0[kind as usize].record(ns);
    }

    /// The histogram of `kind`.
    pub fn get(&self, kind: Kind) -> &Histogram {
        &self.0[kind as usize]
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &KindHists) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.merge(b);
        }
    }
}

/// Times operations and, when tracing, the layer calls inside them.
pub trait Probe {
    /// Runs one end-to-end operation of `kind`.
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Runs one call into a library layer, inside an operation.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;

    /// When the most recent operation ended.
    fn last_end(&self) -> Instant;

    /// Hands over the operation latencies recorded so far and starts anew.
    fn take_lat(&mut self) -> KindHists;
}

/// The timed run's probe: two clock reads per operation, none per call.
#[derive(Debug)]
pub struct Timer {
    lat: KindHists,
    last: Instant,
}

impl Default for Timer {
    fn default() -> Self {
        Timer { lat: KindHists::default(), last: Instant::now() }
    }
}

impl Probe for Timer {
    #[inline]
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self);
        let t1 = Instant::now();
        self.lat.record(kind, (t1 - t0).as_nanos() as u64);
        self.last = t1;
        r
    }

    #[inline]
    fn call<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn last_end(&self) -> Instant {
        self.last
    }

    fn take_lat(&mut self) -> KindHists {
        std::mem::take(&mut self.lat)
    }
}

/// One timed interval: an operation (root, no parent) or a layer call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `op.<kind>` for a root, `<layer>.<function>` for a call.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the parent span among its operation's spans.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

/// Replaces `out` with each span's self time: its duration minus the part
/// of its interval that its child spans cover. `spans` are the spans of one
/// operation, indexed as their `parent` fields are.
///
/// The union of the children's intervals is swept without allocating
/// (quadratic in an operation's handful of spans), so the traced run's
/// cost per operation stays small next to its shortest calls.
pub fn self_times(spans: &[Span], out: &mut Vec<u64>) {
    out.clear();
    for (i, s) in spans.iter().enumerate() {
        let (mut covered, mut reach) = (0, s.start_ns);
        // Take the children's intervals, clipped to the parent and to what
        // is already covered, in order of start.
        while let Some((a, b)) = spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_ns.max(reach), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .min()
        {
            covered += b - a;
            reach = b;
        }
        out.push(s.end_ns - s.start_ns - covered);
    }
}

/// Aggregate of every span of one name.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Durations.
    pub dur: Histogram,
    /// Total self time, in nanoseconds.
    pub self_ns: u128,
    /// Whether these are root spans.
    pub root: bool,
}

/// The traced run's probe: a span per operation and per layer call, with
/// per-name durations and self times aggregated as operations end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    next_op: u64,
    /// Spans of the operation in flight; the root is at index 0.
    cur: Vec<Span>,
    /// Their self times, once the operation ends.
    selfs: Vec<u64>,
    /// Raw spans of every [`KEEP_EVERY`]th operation.
    pub kept: Vec<Span>,
    /// Aggregates by span name.
    pub spans: BTreeMap<&'static str, SpanStats>,
    lat: KindHists,
    last: Instant,
}

impl Tracer {
    /// A tracer for client `thread`, timing from `epoch`.
    pub fn new(epoch: Instant, thread: usize) -> Self {
        Tracer {
            epoch,
            thread: thread as u64,
            next_op: 0,
            cur: Vec::new(),
            selfs: Vec::new(),
            kept: Vec::new(),
            spans: BTreeMap::new(),
            lat: KindHists::default(),
            last: epoch,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }
}

impl Probe for Tracer {
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = Instant::now();
        let op = self.thread << 48 | self.next_op;
        self.next_op += 1;
        let start_ns = self.ns(t0);
        self.cur.push(Span { name: kind.root(), start_ns, end_ns: start_ns, parent: None, op });
        let r = f(self);
        let t1 = Instant::now();
        self.cur[0].end_ns = self.ns(t1);
        self_times(&self.cur, &mut self.selfs);
        for (s, &own) in self.cur.iter().zip(&self.selfs) {
            let agg = self.spans.entry(s.name).or_default();
            agg.dur.record(s.end_ns - s.start_ns);
            agg.self_ns += u128::from(own);
            agg.root = s.parent.is_none();
        }
        self.lat.record(kind, (t1 - t0).as_nanos() as u64);
        if op.is_multiple_of(KEEP_EVERY) {
            self.kept.append(&mut self.cur);
        } else {
            self.cur.clear();
        }
        self.last = t1;
        r
    }

    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let op = self.cur.first().expect("a layer call runs inside an operation").op;
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        self.cur.push(Span { name, start_ns, end_ns, parent: Some(0), op });
        r
    }

    fn last_end(&self) -> Instant {
        self.last
    }

    fn take_lat(&mut self) -> KindHists {
        std::mem::take(&mut self.lat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // root [0,100) ─┬─ a [10,40) ── a1 [15,20), a2 [18,30) (overlap)
        //               ├─ b [35,60)  (overlaps a: union counts once)
        //               └─ c [90,120) (sticks out: clipped to the root)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 35, 60, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a1", 15, 20, Some(1)),
            span("a2", 18, 30, Some(1)),
        ];
        // root: 100 - |[10,60) ∪ [90,100)| = 100 - 60 = 40
        // a: 30 - |[15,30)| = 15; b, c, a1, a2 have no children.
        let mut out = vec![7];
        self_times(&spans, &mut out);
        assert_eq!(out, vec![40, 15, 25, 30, 5, 12]);
    }

    #[test]
    fn tracer_self_times_add_up_to_root_duration() {
        let mut t = Tracer::new(Instant::now(), 3);
        for _ in 0..KEEP_EVERY + 1 {
            t.op(Kind::Put, |p| {
                p.call("map.prep_put", || std::hint::black_box(1 + 1));
                p.call("map.exec_put", || std::hint::black_box(2 + 2));
            });
        }
        let root = &t.spans["op.put"];
        assert!(root.root && !t.spans["map.exec_put"].root);
        assert_eq!(root.dur.count(), KEEP_EVERY + 1);
        let all_self: u128 = t.spans.values().map(|s| s.self_ns).sum();
        assert_eq!(all_self, root.dur.sum_ns(), "depth-2 spans partition the root");
        // Operations 0 and KEEP_EVERY were kept, three spans each.
        assert_eq!(t.kept.len(), 6);
        assert_eq!(t.kept[3].op, 3 << 48 | KEEP_EVERY);
        assert_eq!(t.kept[4].parent, Some(0));
    }
}
