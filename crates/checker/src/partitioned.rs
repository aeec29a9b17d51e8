//! The partitioned, streaming verification pipeline.
//!
//! The monolithic Wing–Gong search ([`check`](crate::check)) explores one
//! global interleaving space and therefore caps at
//! [`MAX_OPS`](crate::MAX_OPS) operations. This module decomposes the
//! problem along the two axes that make full soak-scale histories
//! checkable:
//!
//! 1. **Time — cut-point segmentation.** Wherever every earlier record's
//!    deadline precedes every later record's invocation, the interval order
//!    is total across the cut: *every* linearization puts the whole prefix
//!    before the whole suffix. The record list splits into windows at these
//!    cuts ([`segments`]) and the search runs per window, threading the
//!    *set* of reachable spec states across each cut (a window may end in
//!    several states — e.g. concurrent enqueues left in either order, or a
//!    crashed droppable operation applied or dropped — so a single threaded
//!    state would be unsound). Crash markers complete every pending
//!    operation's deadline, which makes them natural cut points.
//! 2. **Space — P-compositionality.** For a [`Partitionable`] spec,
//!    operations on distinct keys are independent, so the history is
//!    linearizable iff each key's projected sub-history is
//!    ([`check_partitioned`]).
//!
//! Within a window the search is the same memoized DFS as the classic
//! checker, but keyed on a chunked [`BitSet`] instead of a `u64`, so a
//! window may exceed 63 operations (up to
//! [`CheckOptions::max_window_ops`]).
//!
//! Completeness note: segmentation introduces no approximation. A cut is
//! only taken where the interval order forces prefix-before-suffix, and the
//! frontier carries *every* spec state some valid linearization of the
//! prefix can reach, so the pipeline accepts exactly the histories the
//! monolithic search accepts (`tests/checker_equivalence.rs` checks this
//! differentially against [`check`](crate::check) on all ≤ 63-op
//! histories).

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;

use dss_spec::{Partitionable, SequentialSpec};

use crate::bits::BitSet;
use crate::interval::OpRecord;
use crate::wgl::Violation;

/// Tuning knobs of the segmented search.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Upper bound on the records of one window (a run of transitively
    /// overlapping operations). Windows are typically a small multiple of
    /// the thread count, but one operation preempted mid-flight spans
    /// every operation the other threads complete meanwhile — a long,
    /// narrow window the search handles in time linear in its length per
    /// state. A window that exceeds this bound fails with
    /// [`Violation::WindowTooLarge`] rather than risking an intractable
    /// search.
    pub max_window_ops: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { max_window_ops: 4096 }
    }
}

/// What a successful segmented check covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Total operations checked.
    pub ops: usize,
    /// Number of windows the history split into (summed over partitions).
    pub windows: usize,
    /// Records in the largest window.
    pub max_window: usize,
    /// Largest state-set carried across any cut.
    pub frontier_peak: usize,
    /// Number of partitions ([`check_partitioned`]) or 1.
    pub partitions: usize,
    /// Whether the FIFO fast path produced the verdict (no window search).
    pub fast_path: bool,
}

impl CheckStats {
    pub(crate) fn absorb(&mut self, other: &CheckStats) {
        self.ops += other.ops;
        self.windows += other.windows;
        self.max_window = self.max_window.max(other.max_window);
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.partitions += other.partitions;
    }
}

/// Splits `records` (sorted by invocation) into maximal windows at every
/// cut point — positions where each earlier record's deadline is at most
/// each later record's invocation, so the interval order totally separates
/// prefix from suffix.
pub fn segments<O, R>(records: &[OpRecord<O, R>]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut max_deadline = 0u64;
    for i in 0..records.len() {
        debug_assert!(i == 0 || records[i - 1].inv <= records[i].inv, "records sorted by inv");
        max_deadline = max_deadline.max(records[i].deadline);
        if i + 1 == records.len() || max_deadline <= records[i + 1].inv {
            out.push(start..i + 1);
            start = i + 1;
            // Records before this cut all precede records after it, so the
            // running maximum restarts per window.
            max_deadline = 0;
        }
    }
    out
}

/// Explores every linearization of one window from each start state,
/// returning the set of spec states reachable by completing the window and
/// the longest prefix covered (for diagnostics on failure).
pub(crate) fn window_end_states<'a, T: SequentialSpec>(
    spec: &T,
    records: &[OpRecord<T::Op, T::Resp>],
    starts: impl IntoIterator<Item = &'a T::State>,
) -> (HashSet<T::State>, usize)
where
    T::State: 'a,
{
    let mut memo = HashSet::new();
    let mut ends = HashSet::new();
    let mut best = 0usize;
    for s in starts {
        explore(spec, records, BitSet::new(records.len()), s, &mut memo, &mut ends, &mut best);
    }
    (ends, best)
}

fn explore<T: SequentialSpec>(
    spec: &T,
    records: &[OpRecord<T::Op, T::Resp>],
    done: BitSet,
    state: &T::State,
    memo: &mut HashSet<(BitSet, T::State)>,
    ends: &mut HashSet<T::State>,
    best: &mut usize,
) {
    let covered = done.count();
    *best = (*best).max(covered);
    if covered == records.len() {
        ends.insert(state.clone());
        return;
    }
    if !memo.insert((done.clone(), state.clone())) {
        return;
    }
    // Interval-order constraint, as in the monolithic search: an
    // unprocessed record whose deadline precedes r's invocation must be
    // handled first. The earliest deadline among the *other* unprocessed
    // records is the smallest one, or the second smallest for the record
    // holding the smallest — one pass per state, not one per candidate.
    let (mut first, mut first_at, mut second) = (u64::MAX, usize::MAX, u64::MAX);
    for (j, o) in records.iter().enumerate() {
        if done.test(j) {
            continue;
        }
        if o.deadline < first {
            (second, first, first_at) = (first, o.deadline, j);
        } else if o.deadline < second {
            second = o.deadline;
        }
    }
    for (i, r) in records.iter().enumerate() {
        if done.test(i) {
            continue;
        }
        let forced_later = (if i == first_at { second } else { first }) <= r.inv;
        if !forced_later {
            if let Some((next, resp)) = spec.apply(state, &r.op, r.pid) {
                let resp_ok = match &r.resp {
                    Some(expected) => *expected == resp,
                    None => true,
                };
                if resp_ok {
                    let mut d = done.clone();
                    d.set(i);
                    explore(spec, records, d, &next, memo, ends, best);
                }
            }
        }
        if r.droppable {
            let mut d = done.clone();
            d.set(i);
            explore(spec, records, d, state, memo, ends, best);
        }
    }
}

/// Checks an interval-ordered record list of any length by cut-point
/// segmentation, threading the reachable-state frontier across windows.
///
/// Verdict-equivalent to the monolithic [`check`](crate::check) but
/// unbounded in history length; only a single window (a run of
/// transitively overlapping operations) is bounded, by
/// [`CheckOptions::max_window_ops`].
///
/// # Errors
///
/// [`Violation::WindowNoLinearization`] pinpointing the window that admits
/// no linearization, or [`Violation::WindowTooLarge`].
/// [`Violation::Malformed`] on an empty record list: a pipeline that
/// reports success must have checked at least one operation — an empty
/// history reaching the checker is a recording bug upstream, and quietly
/// exiting 0 on it would let a broken harness masquerade as verified.
pub fn check_records<T: SequentialSpec>(
    spec: &T,
    records: &[OpRecord<T::Op, T::Resp>],
    options: &CheckOptions,
) -> Result<CheckStats, Violation> {
    check_records_in(spec, records, options, None)
}

pub(crate) fn check_records_in<T: SequentialSpec>(
    spec: &T,
    records: &[OpRecord<T::Op, T::Resp>],
    options: &CheckOptions,
    partition: Option<&str>,
) -> Result<CheckStats, Violation> {
    if records.is_empty() {
        return Err(Violation::Malformed(match partition {
            Some(p) => format!("empty record list in partition {p}: nothing to check"),
            None => "empty record list: nothing to check".into(),
        }));
    }
    let mut stats =
        CheckStats { ops: records.len(), partitions: 1, frontier_peak: 1, ..Default::default() };
    let mut frontier: HashSet<T::State> = HashSet::from([spec.initial()]);
    for (w, range) in segments(records).into_iter().enumerate() {
        let window = &records[range];
        if window.len() > options.max_window_ops {
            return Err(Violation::WindowTooLarge {
                window: w,
                first_op: window[0].id.0,
                len: window.len(),
                limit: options.max_window_ops,
            });
        }
        let (ends, best) = window_end_states(spec, window, frontier.iter());
        if ends.is_empty() {
            return Err(Violation::WindowNoLinearization {
                window: w,
                first_op: window[0].id.0,
                last_op: window[window.len() - 1].id.0,
                len: window.len(),
                partition: partition.map(String::from),
                best,
            });
        }
        stats.windows += 1;
        stats.max_window = stats.max_window.max(window.len());
        stats.frontier_peak = stats.frontier_peak.max(ends.len());
        frontier = ends;
    }
    Ok(stats)
}

/// Checks a [`Partitionable`] spec's record list by P-compositionality:
/// splits the records by partition key, projects each group onto the
/// partition's sub-spec, and runs the segmented check per partition.
///
/// # Errors
///
/// The first failing partition's [`Violation`], with the partition key in
/// [`Violation::WindowNoLinearization::partition`].
/// [`Violation::Malformed`] on an empty record list (same contract as
/// [`check_records`]): zero partitions checked must never read as a
/// verified history.
pub fn check_partitioned<T: Partitionable>(
    spec: &T,
    records: &[OpRecord<T::Op, T::Resp>],
    options: &CheckOptions,
) -> Result<CheckStats, Violation> {
    if records.is_empty() {
        return Err(Violation::Malformed("empty record list: nothing to check".into()));
    }
    type PartRecord<T> = OpRecord<
        <<T as Partitionable>::Part as SequentialSpec>::Op,
        <<T as Partitionable>::Part as SequentialSpec>::Resp,
    >;
    let mut groups: BTreeMap<T::Key, Vec<PartRecord<T>>> = BTreeMap::new();
    for r in records {
        groups.entry(spec.key_of(&r.op)).or_default().push(OpRecord {
            id: r.id,
            pid: r.pid,
            op: spec.project_op(&r.op),
            resp: r.resp.as_ref().map(|resp| spec.project_resp(resp)),
            inv: r.inv,
            deadline: r.deadline,
            droppable: r.droppable,
        });
    }
    let mut stats = CheckStats::default();
    for (key, group) in &groups {
        let part = spec.part_spec(key);
        let label = format!("{key:?}");
        stats.absorb(&check_records_in(&part, group, options, Some(&label))?);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check, check_history, records_for, Condition, History};
    use dss_spec::types::{QueueOp, QueueResp, QueueSpec, RegisterOp, RegisterResp, RegisterSpec};
    use dss_spec::Keyed;

    type QH = History<QueueOp, QueueResp>;

    fn sequential_pairs(n: usize) -> QH {
        let mut h = QH::new();
        for i in 0..n as u64 {
            let a = h.invoke(0, QueueOp::Enqueue(i + 1));
            h.ret(a, QueueResp::Ok);
            let b = h.invoke(0, QueueOp::Dequeue);
            h.ret(b, QueueResp::Value(i + 1));
        }
        h
    }

    #[test]
    fn sequential_history_splits_into_unit_windows() {
        let h = sequential_pairs(10);
        let records = records_for(&h, Condition::Linearizability).unwrap();
        let segs = segments(&records);
        assert_eq!(segs.len(), 20, "every sequential op is its own window");
        let stats = check_records(&QueueSpec, &records, &CheckOptions::default()).unwrap();
        assert_eq!(stats.windows, 20);
        assert_eq!(stats.max_window, 1);
    }

    #[test]
    fn histories_far_beyond_max_ops_are_checked() {
        let h = sequential_pairs(500); // 1000 ops >> 63
        let records = records_for(&h, Condition::Linearizability).unwrap();
        assert!(matches!(check(&QueueSpec, &records), Err(Violation::HistoryTooLarge { .. })));
        let stats = check_records(&QueueSpec, &records, &CheckOptions::default()).unwrap();
        assert_eq!(stats.ops, 1000);
    }

    #[test]
    fn overlapping_ops_share_a_window() {
        let mut h = QH::new();
        let a = h.invoke(0, QueueOp::Enqueue(1));
        let b = h.invoke(1, QueueOp::Enqueue(2));
        h.ret(a, QueueResp::Ok);
        h.ret(b, QueueResp::Ok);
        let records = records_for(&h, Condition::Linearizability).unwrap();
        assert_eq!(segments(&records), vec![0..2]);
    }

    #[test]
    fn frontier_carries_both_enqueue_orders_across_the_cut() {
        // Two concurrent enqueues (one window), then sequential dequeues
        // observing the *reverse* order — valid only if the frontier kept
        // both end states across the cut.
        let mut h = QH::new();
        let a = h.invoke(0, QueueOp::Enqueue(1));
        let b = h.invoke(1, QueueOp::Enqueue(2));
        h.ret(a, QueueResp::Ok);
        h.ret(b, QueueResp::Ok);
        let c = h.invoke(0, QueueOp::Dequeue);
        h.ret(c, QueueResp::Value(2));
        let d = h.invoke(0, QueueOp::Dequeue);
        h.ret(d, QueueResp::Value(1));
        let records = records_for(&h, Condition::Linearizability).unwrap();
        assert!(segments(&records).len() >= 2, "dequeues are separate windows");
        check_records(&QueueSpec, &records, &CheckOptions::default()).unwrap();
    }

    #[test]
    fn violation_names_the_offending_window() {
        let mut h = sequential_pairs(50); // ops 0..100 fine
        let a = h.invoke(0, QueueOp::Enqueue(777));
        h.ret(a, QueueResp::Ok);
        let b = h.invoke(0, QueueOp::Dequeue);
        h.ret(b, QueueResp::Value(778)); // wrong value
        let records = records_for(&h, Condition::Linearizability).unwrap();
        let err = check_records(&QueueSpec, &records, &CheckOptions::default()).unwrap_err();
        match err {
            Violation::WindowNoLinearization { first_op, last_op, partition, .. } => {
                assert_eq!((first_op, last_op), (202, 202), "the bad dequeue's own window");
                assert_eq!(partition, None);
            }
            other => panic!("expected window violation, got {other}"),
        }
    }

    #[test]
    fn window_over_limit_reports_window_too_large() {
        // 5 mutually overlapping ops with a 4-op window bound.
        let mut h = QH::new();
        let ids: Vec<_> = (0..5).map(|p| h.invoke(p, QueueOp::Enqueue(p as u64))).collect();
        for id in ids {
            h.ret(id, QueueResp::Ok);
        }
        let records = records_for(&h, Condition::Linearizability).unwrap();
        let err =
            check_records(&QueueSpec, &records, &CheckOptions { max_window_ops: 4 }).unwrap_err();
        assert!(matches!(err, Violation::WindowTooLarge { len: 5, limit: 4, .. }), "{err}");
    }

    #[test]
    fn one_op_spanning_thousands_of_sequential_ops_checks_quickly() {
        // A preempted reader overlaps 2000 sequential writes and returns
        // the last one: a single 2001-record window whose only
        // linearization puts the read at the very end.
        let mut h: History<RegisterOp, RegisterResp> = History::new();
        let read = h.invoke(1, RegisterOp::Read);
        for v in 1..=2000 {
            let w = h.invoke(0, RegisterOp::Write(v));
            h.ret(w, RegisterResp::Ok);
        }
        h.ret(read, RegisterResp::Value(2000));
        let records = records_for(&h, Condition::Linearizability).unwrap();
        let start = std::time::Instant::now();
        let stats = check_records(&RegisterSpec, &records, &CheckOptions::default()).unwrap();
        assert_eq!((stats.windows, stats.max_window), (1, 2001));
        assert!(start.elapsed().as_secs() < 10, "took {:?}", start.elapsed());
    }

    #[test]
    fn crash_droppable_outcomes_both_carried() {
        // A crashed enqueue may or may not have taken effect; the frontier
        // must carry both outcomes so either later observation passes.
        for observed in [true, false] {
            let mut h = QH::new();
            let _a = h.invoke(0, QueueOp::Enqueue(5));
            h.crash();
            let b = h.invoke(1, QueueOp::Dequeue);
            h.ret(b, if observed { QueueResp::Value(5) } else { QueueResp::Empty });
            let records = records_for(&h, Condition::StrictLinearizability).unwrap();
            check_records(&QueueSpec, &records, &CheckOptions::default())
                .unwrap_or_else(|e| panic!("observed={observed}: {e}"));
        }
    }

    #[test]
    fn segmented_verdicts_match_monolithic_on_crash_history() {
        let mut h = QH::new();
        let _a = h.invoke(0, QueueOp::Enqueue(5));
        h.crash();
        let b = h.invoke(0, QueueOp::Dequeue);
        h.ret(b, QueueResp::Empty);
        let c = h.invoke(0, QueueOp::Dequeue);
        h.ret(c, QueueResp::Value(5));
        for cond in [
            Condition::StrictLinearizability,
            Condition::PersistentAtomicity,
            Condition::DurableLinearizability,
        ] {
            let records = records_for(&h, cond).unwrap();
            let mono = check(&QueueSpec, &records).is_ok();
            let seg = check_records(&QueueSpec, &records, &CheckOptions::default()).is_ok();
            assert_eq!(mono, seg, "{cond:?}");
            assert_eq!(mono, check_history(&QueueSpec, &h, cond).is_ok(), "{cond:?}");
        }
    }

    #[test]
    fn partitioned_check_splits_by_key() {
        let mem = Keyed::new(RegisterSpec);
        let mut h: History<(u64, RegisterOp), RegisterResp> = History::new();
        for key in 0..8u64 {
            let w = h.invoke(0, (key, RegisterOp::Write(key * 10)));
            h.ret(w, RegisterResp::Ok);
        }
        for key in 0..8u64 {
            let r = h.invoke(1, (key, RegisterOp::Read));
            h.ret(r, RegisterResp::Value(key * 10));
        }
        let records = records_for(&h, Condition::Linearizability).unwrap();
        let stats = check_partitioned(&mem, &records, &CheckOptions::default()).unwrap();
        assert_eq!(stats.partitions, 8);
        assert_eq!(stats.ops, 16);
    }

    #[test]
    fn partitioned_violation_names_the_key() {
        let mem = Keyed::new(RegisterSpec);
        let mut h: History<(u64, RegisterOp), RegisterResp> = History::new();
        let w = h.invoke(0, (3, RegisterOp::Write(1)));
        h.ret(w, RegisterResp::Ok);
        let r = h.invoke(0, (3, RegisterOp::Read));
        h.ret(r, RegisterResp::Value(2)); // new/old inversion on key 3
        let ok = h.invoke(0, (4, RegisterOp::Read));
        h.ret(ok, RegisterResp::Value(0));
        let records = records_for(&h, Condition::Linearizability).unwrap();
        let err = check_partitioned(&mem, &records, &CheckOptions::default()).unwrap_err();
        match err {
            Violation::WindowNoLinearization { partition, .. } => {
                assert_eq!(partition.as_deref(), Some("3"));
            }
            other => panic!("expected window violation, got {other}"),
        }
    }

    #[test]
    fn pending_tail_lands_in_final_window() {
        let mut h = QH::new();
        let a = h.invoke(0, QueueOp::Enqueue(1));
        h.ret(a, QueueResp::Ok);
        let _pending = h.invoke(1, QueueOp::Dequeue); // never returns
        let records = records_for(&h, Condition::Linearizability).unwrap();
        let stats = check_records(&QueueSpec, &records, &CheckOptions::default()).unwrap();
        assert_eq!(stats.ops, 2);
    }
}
