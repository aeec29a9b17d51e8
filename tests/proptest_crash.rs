//! Property-based crash testing of the DSS queue.
//!
//! For arbitrary operation scripts, crash points, writeback adversaries,
//! and flush granularities: after crash + recovery, `resolve` must answer
//! consistently with the persisted queue state, and no value may be lost,
//! duplicated, or invented.

use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use dss::baselines::{DurableQueue, LogQueue};
use dss::core::{
    DetectableCas, DssQueue, DssStack, ReplicatedQueue, Resolved, ResolvedCas, ResolvedOp,
    Universal,
};
use dss::pmem::{CrashSignal, FlushGranularity, PmemPool, ThreadHandle, WritebackAdversary};
use dss::spec::types::{QueueResp, StackOp, StackResp, StackSpec};

#[derive(Clone, Copy, Debug)]
enum Op {
    DetEnqueue,
    DetDequeue,
    PlainEnqueue,
    PlainDequeue,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::DetEnqueue),
        Just(Op::DetDequeue),
        Just(Op::PlainEnqueue),
        Just(Op::PlainDequeue),
    ]
}

fn arb_adversary() -> impl Strategy<Value = WritebackAdversary> {
    prop_oneof![
        Just(WritebackAdversary::None),
        Just(WritebackAdversary::All),
        (0u64..1000, 0.0f64..=1.0)
            .prop_map(|(seed, prob)| WritebackAdversary::Random { seed, prob }),
    ]
}

fn arb_granularity() -> impl Strategy<Value = FlushGranularity> {
    prop_oneof![Just(FlushGranularity::Line), Just(FlushGranularity::Word)]
}

/// The crash property, shared between the generated cases below and the
/// explicit regression tests at the bottom of this file: run `script` with a
/// crash armed after `crash_after` pmem operations, then check that the
/// post-crash resolution and queue contents are exactly consistent with the
/// pre-crash bookkeeping.
fn check_crash_case(
    script: &[Op],
    crash_after: u64,
    adversary: WritebackAdversary,
    granularity: FlushGranularity,
    coalesce: bool,
    per_address: bool,
) -> Result<(), TestCaseError> {
    {
        let q = <DssQueue>::new_in(1, 64, granularity);
        // With coalescing on, flushes issued between fence points sit in a
        // pending set that the crash drops wholesale — the strictest
        // persistence schedule the write-behind layer can produce.
        // Per-address drains narrow each fence point to the lines it
        // orders against, widening what the crash can drop further still.
        q.pool().set_coalescing(coalesce);
        q.pool().set_per_address_drains(per_address);
        // Register before arming so crash indices stay relative to the ops.
        let h0 = q.register_thread().unwrap();
        // Bookkeeping that survives the unwind (the "application journal"),
        // including which operation was in flight when the crash hit.
        let enq_done: std::cell::RefCell<Vec<u64>> = Default::default();
        let deq_done: std::cell::RefCell<Vec<u64>> = Default::default();
        let in_flight: std::cell::RefCell<Option<(Op, u64)>> = Default::default();

        let crashed = q.pool().crashes_within(crash_after, || {
            for (i, op) in script.iter().enumerate() {
                let v = 1000 + i as u64;
                *in_flight.borrow_mut() = Some((*op, v));
                match op {
                    Op::DetEnqueue => {
                        q.prep_enqueue(h0, v).unwrap();
                        q.exec_enqueue(h0);
                        enq_done.borrow_mut().push(v);
                    }
                    Op::PlainEnqueue => {
                        q.enqueue(h0, v).unwrap();
                        enq_done.borrow_mut().push(v);
                    }
                    Op::DetDequeue => {
                        q.prep_dequeue(h0);
                        if let QueueResp::Value(x) = q.exec_dequeue(h0) {
                            deq_done.borrow_mut().push(x);
                        }
                    }
                    Op::PlainDequeue => {
                        if let QueueResp::Value(x) = q.dequeue(h0) {
                            deq_done.borrow_mut().push(x);
                        }
                    }
                }
                *in_flight.borrow_mut() = None;
            }
        });

        if crashed {
            q.pool().crash(&adversary);
            q.recover();
            q.rebuild_allocator();
        }

        let mut effective_enq: HashSet<u64> = enq_done.borrow().iter().copied().collect();
        let mut effective_deq: HashSet<u64> = deq_done.borrow().iter().copied().collect();
        if crashed {
            match q.resolve(h0) {
                Resolved { op: Some(ResolvedOp::Enqueue(v)), resp: Some(QueueResp::Ok) } => {
                    effective_enq.insert(v);
                }
                Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Value(v)) } => {
                    effective_deq.insert(v);
                }
                _ => {}
            }
        }

        let remaining: Vec<u64> = q.snapshot_values();
        let remaining_set: HashSet<u64> = remaining.iter().copied().collect();
        prop_assert_eq!(remaining.len(), remaining_set.len(), "duplicate values in queue");

        // A *plain* operation interrupted by the crash is exactly the case
        // detectability exists for: the application cannot know whether it
        // took effect, so the invariant grants it the benefit of the doubt.
        let interrupted = if crashed { *in_flight.borrow() } else { None };
        if let Some((Op::PlainEnqueue, v)) = interrupted {
            if remaining_set.contains(&v) {
                effective_enq.insert(v);
            }
        }
        let plain_dequeue_interrupted = matches!(interrupted, Some((Op::PlainDequeue, _)));

        for v in &effective_deq {
            prop_assert!(effective_enq.contains(v), "dequeued {v} never enqueued");
            prop_assert!(!remaining_set.contains(v), "{v} dequeued yet still present");
        }
        for v in &remaining_set {
            prop_assert!(effective_enq.contains(v), "queued {v} never enqueued");
        }
        let vanished: Vec<u64> = effective_enq
            .iter()
            .filter(|v| !remaining_set.contains(v) && !effective_deq.contains(v))
            .copied()
            .collect();
        if plain_dequeue_interrupted {
            prop_assert!(
                vanished.len() <= 1,
                "at most the plain-dequeue victim may vanish: {vanished:?}"
            );
        } else {
            prop_assert!(vanished.is_empty(), "effective enqueues vanished: {vanished:?}");
        }

        // FIFO order of the surviving prefix: remaining values must appear
        // in increasing enqueue order (values increase with script index).
        let mut sorted = remaining.clone();
        sorted.sort_unstable();
        prop_assert_eq!(remaining, sorted, "FIFO order violated after crash");
    }
    Ok(())
}

/// The replicated-layer crash property: the same conservation invariant as
/// [`check_crash_case`], driven through the log-fed replicated execution
/// layer. Single-threaded, so the victim thread *is* the leased appender —
/// the armed crash lands inside its announce, batch persist or
/// committed-seq publish (an appender killed mid-batch), and recovery must
/// resolve the half-applied batch from the durable log alone. Every
/// replicated operation is detectable, so no benefit-of-the-doubt case
/// exists: nothing may vanish, ever.
fn check_replicated_crash_case(
    script: &[bool], // true = enqueue, false = dequeue
    crash_after: u64,
    adversary: WritebackAdversary,
    granularity: FlushGranularity,
    coalesce: bool,
    per_address: bool,
) -> Result<(), TestCaseError> {
    let q = <ReplicatedQueue>::new_in(1, 64, granularity);
    q.pool().set_coalescing(coalesce);
    q.pool().set_per_address_drains(per_address);
    let h0 = q.register_thread().unwrap();
    let enq_done: std::cell::RefCell<Vec<u64>> = Default::default();
    let deq_done: std::cell::RefCell<Vec<u64>> = Default::default();

    let crashed = q.pool().crashes_within(crash_after, || {
        for (i, &enq) in script.iter().enumerate() {
            let v = 1000 + i as u64;
            if enq {
                q.enqueue(h0, v).unwrap();
                enq_done.borrow_mut().push(v);
            } else if let QueueResp::Value(x) = q.dequeue(h0) {
                deq_done.borrow_mut().push(x);
            }
        }
    });
    if crashed {
        q.pool().crash(&adversary);
        q.recover();
        q.rebuild_allocator();
    }

    let mut effective_enq: HashSet<u64> = enq_done.borrow().iter().copied().collect();
    let mut effective_deq: HashSet<u64> = deq_done.borrow().iter().copied().collect();
    if crashed {
        // resolve reports the last *prepared* operation; a completed one
        // is already journalled, so the inserts are idempotent.
        match q.resolve(h0) {
            Resolved { op: Some(ResolvedOp::Enqueue(v)), resp: Some(QueueResp::Ok) } => {
                effective_enq.insert(v);
            }
            Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Value(v)) } => {
                effective_deq.insert(v);
            }
            _ => {}
        }
    }

    let remaining: Vec<u64> = q.snapshot_values();
    let remaining_set: HashSet<u64> = remaining.iter().copied().collect();
    prop_assert_eq!(remaining.len(), remaining_set.len(), "duplicate values in queue");
    for v in &effective_deq {
        prop_assert!(effective_enq.contains(v), "dequeued {v} never enqueued");
        prop_assert!(!remaining_set.contains(v), "{v} dequeued yet still present");
    }
    for v in &remaining_set {
        prop_assert!(effective_enq.contains(v), "queued {v} never enqueued");
    }
    let vanished: Vec<u64> = effective_enq
        .iter()
        .filter(|v| !remaining_set.contains(v) && !effective_deq.contains(v))
        .copied()
        .collect();
    prop_assert!(vanished.is_empty(), "effective enqueues vanished: {vanished:?}");

    let mut sorted = remaining.clone();
    sorted.sort_unstable();
    prop_assert_eq!(remaining, sorted, "FIFO order violated after crash");
    Ok(())
}

/// Concurrent replicated crash: every worker arms its own per-thread crash
/// countdown, so a crash can land in the appender mid-batch *or* in a
/// waiter parked on its announce flag — a parked waiter's lease probe is
/// an instrumented pool load precisely so that its countdown keeps
/// running while it waits (including through the stale-lease probe that a
/// dead appender's still-LIVE slot keeps failing). After every worker has
/// crashed, centralized recovery adopts the slots and value conservation
/// must hold across announced, half-appended, and parked operations.
fn check_replicated_concurrent_crash_case(
    seed: u64,
    adversary: WritebackAdversary,
    coalesce: bool,
    per_address: bool,
) -> Result<(), TestCaseError> {
    const THREADS: usize = 3;
    // Far more pairs than any countdown can survive: every worker crashes.
    const PAIRS: u64 = 400;
    let q = ReplicatedQueue::new(THREADS, 1024);
    q.pool().set_coalescing(coalesce);
    q.pool().set_per_address_drains(per_address);
    let hs: Vec<_> = (0..THREADS).map(|_| q.register_thread().unwrap()).collect();
    let enq_done: std::sync::Mutex<Vec<u64>> = Default::default();
    let deq_done: std::sync::Mutex<Vec<u64>> = Default::default();

    std::thread::scope(|s| {
        let q = &q;
        let enq_done = &enq_done;
        let deq_done = &deq_done;
        for (tid, &h) in hs.iter().enumerate() {
            s.spawn(move || {
                let crash_after =
                    20 + seed.wrapping_mul(2654435761).wrapping_add(tid as u64 * 97) % 300;
                q.pool().arm_crash_after(crash_after);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    for i in 0..PAIRS {
                        let v = ((tid as u64) << 32) | i;
                        if q.enqueue(h, v).is_err() {
                            break;
                        }
                        enq_done.lock().unwrap().push(v);
                        if let QueueResp::Value(x) = q.dequeue(h) {
                            deq_done.lock().unwrap().push(x);
                        }
                    }
                }));
                q.pool().disarm_crash();
                if let Err(p) = r {
                    assert!(p.downcast_ref::<CrashSignal>().is_some(), "non-crash panic");
                }
            });
        }
    });

    q.pool().crash(&adversary);
    let adopted = q.recover();
    q.rebuild_allocator();

    let mut effective_enq: HashSet<u64> = enq_done.lock().unwrap().iter().copied().collect();
    let mut effective_deq: HashSet<u64> = deq_done.lock().unwrap().iter().copied().collect();
    for &h in &adopted {
        match q.resolve(h) {
            Resolved { op: Some(ResolvedOp::Enqueue(v)), resp: Some(QueueResp::Ok) } => {
                effective_enq.insert(v);
            }
            Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Value(v)) } => {
                effective_deq.insert(v);
            }
            _ => {}
        }
    }
    let remaining: Vec<u64> = q.snapshot_values();
    let remaining_set: HashSet<u64> = remaining.iter().copied().collect();
    prop_assert_eq!(remaining.len(), remaining_set.len(), "duplicate values in queue");
    for v in &effective_deq {
        prop_assert!(effective_enq.contains(v), "dequeued {v} never enqueued");
        prop_assert!(!remaining_set.contains(v), "{v} dequeued yet still present");
    }
    for v in &remaining_set {
        prop_assert!(effective_enq.contains(v), "queued {v} never enqueued");
    }
    let vanished: Vec<u64> = effective_enq
        .iter()
        .filter(|v| !remaining_set.contains(v) && !effective_deq.contains(v))
        .copied()
        .collect();
    prop_assert!(vanished.is_empty(), "effective enqueues vanished: {vanished:?}");
    Ok(())
}

/// The CAS crash property: drive a chain of detectable CASes that each
/// expect the value installed by the previous one, crash after
/// `crash_after` pmem operations, and check that `read` and `resolve`
/// stay mutually consistent. Completed operations drain before returning,
/// so their effects are unconditionally durable; only the interrupted
/// operation's fate is left to the adversary, and `resolve` must report it
/// truthfully.
fn check_cas_crash_case(
    ops: usize,
    crash_after: u64,
    adversary: WritebackAdversary,
    coalesce: bool,
    per_address: bool,
) -> Result<(), TestCaseError> {
    let c = DetectableCas::new(1, 64);
    c.pool().set_coalescing(coalesce);
    c.pool().set_per_address_drains(per_address);
    let h0 = c.register_thread().unwrap();
    // Value installed by the last *completed* CAS (the "application
    // journal"), surviving the unwind.
    let committed = std::cell::Cell::new(0u64);
    let crashed = c.pool().crashes_within(crash_after, || {
        for i in 0..ops {
            let v = 1000 + i as u64;
            c.prep_cas(h0, committed.get(), v, i as u64);
            assert!(c.exec_cas(h0), "single-threaded CAS with a fresh read cannot fail");
            committed.set(v);
        }
    });
    let committed = committed.get();
    if !crashed {
        prop_assert_eq!(c.read(h0), committed);
        return Ok(());
    }
    c.pool().crash(&adversary);
    c.rebuild_allocator();
    let now = c.read(h0);
    match c.resolve(h0) {
        // The last announced CAS took effect: the value must show it.
        ResolvedCas { op: Some((_, v, _)), resp: Some(true) } => {
            prop_assert_eq!(now, v, "resolved-successful CAS not visible");
        }
        // Announced but never applied: the value is still what it expected.
        ResolvedCas { op: Some((e, _, _)), resp: None } => {
            prop_assert_eq!(now, e, "unapplied CAS must leave its expected value");
        }
        // No announce ever persisted, so no CAS can have completed (every
        // completed CAS persists its announce before returning).
        ResolvedCas { op: None, resp: None } => {
            prop_assert_eq!(committed, 0, "completed CAS lost its announce");
            prop_assert_eq!(now, 0, "effect without a persisted announce");
        }
        other => {
            return Err(TestCaseError::Fail(format!(
                "impossible resolution for a non-contended matching CAS: {other:?}"
            )));
        }
    }
    Ok(())
}

/// The universal-construction crash property: drive a script of detectable
/// stack operations through `Universal<StackSpec>`, crash after
/// `crash_after` pmem operations, and check that the surviving history is
/// exactly the completed prefix plus — per `resolve`'s verdict — the
/// interrupted operation.
fn check_universal_crash_case(
    script: &[bool], // true = Push, false = Pop
    crash_after: u64,
    adversary: WritebackAdversary,
    coalesce: bool,
    per_address: bool,
) -> Result<(), TestCaseError> {
    let u = Universal::new(StackSpec, 1, 64);
    u.pool().set_coalescing(coalesce);
    u.pool().set_per_address_drains(per_address);
    let h0 = u.register_thread().unwrap();
    let apply = |stack: &mut Vec<u64>, i: usize| match script[i] {
        true => stack.push(2000 + i as u64),
        false => {
            stack.pop();
        }
    };
    // Index of the next un-executed operation (the "application journal").
    let done = std::cell::Cell::new(0usize);
    let crashed = u.pool().crashes_within(crash_after, || {
        for (i, &push) in script.iter().enumerate() {
            let op = if push { StackOp::Push(2000 + i as u64) } else { StackOp::Pop };
            u.prep(h0, op, i as u64);
            let _ = u.exec(h0);
            done.set(i + 1);
        }
    });
    if crashed {
        u.pool().crash(&adversary);
        u.rebuild_allocator();
    }
    let done = done.get();
    let mut expected: Vec<u64> = Vec::new();
    for i in 0..done {
        apply(&mut expected, i);
    }
    if !crashed {
        prop_assert_eq!(u.state(), expected);
        return Ok(());
    }
    // Each completed exec drains its link before returning, so the
    // persisted history holds every completed operation; only the
    // interrupted one's fate is open, and resolve must report it.
    let in_flight_linked = match u.resolve(h0) {
        (Some((_, seq)), resp) if seq == done as u64 => resp.is_some(),
        // resolve reports an earlier (completed) announce, or none at all:
        // the interrupted op's announce never persisted, so its link —
        // which exec orders after the announce — cannot have either.
        _ => false,
    };
    if in_flight_linked {
        prop_assert!(done < script.len(), "all ops completed yet one resolved in-flight");
        apply(&mut expected, done);
    }
    prop_assert_eq!(u.state(), expected, "history != completed prefix (+ resolved in-flight)");
    Ok(())
}

/// A container that recycles its nodes through epoch reclamation, driven
/// by one slot for [`check_churned_crash_case`].
trait Recycling: Sized {
    /// Whether a removal takes the newest value rather than the oldest.
    const LIFO: bool;

    /// A container of `nodes` nodes and its one slot.
    fn build(nodes: u64) -> (Self, ThreadHandle);

    /// The pool it lives in.
    fn pmem(&self) -> &PmemPool;

    /// Inserts `v` (detectably if `det` and the container can); `false` if
    /// the pool was full and nothing happened.
    fn insert(&self, h: ThreadHandle, v: u64, det: bool) -> bool;

    /// Removes a value: `None` if refused with nothing done, `Some(None)`
    /// on an empty container.
    fn remove(&self, h: ThreadHandle, det: bool) -> Option<Option<u64>>;

    /// Recovery and the allocator rebuild after a crash.
    fn recover(&self);

    /// The values held, in removal order.
    fn values(&self) -> Vec<u64>;
}

impl Recycling for DssQueue {
    const LIFO: bool = false;

    fn build(nodes: u64) -> (Self, ThreadHandle) {
        let q = DssQueue::new(1, nodes);
        let h = q.register_thread().unwrap();
        (q, h)
    }

    fn pmem(&self) -> &PmemPool {
        self.pool()
    }

    fn insert(&self, h: ThreadHandle, v: u64, det: bool) -> bool {
        if !det {
            return self.enqueue(h, v).is_ok();
        }
        let prepared = self.prep_enqueue(h, v).is_ok();
        if prepared {
            self.exec_enqueue(h);
        }
        prepared
    }

    fn remove(&self, h: ThreadHandle, det: bool) -> Option<Option<u64>> {
        let resp = if det {
            self.prep_dequeue(h);
            self.exec_dequeue(h)
        } else {
            self.dequeue(h)
        };
        Some(match resp {
            QueueResp::Value(v) => Some(v),
            _ => None,
        })
    }

    fn recover(&self) {
        DssQueue::recover(self);
        self.rebuild_allocator();
    }

    fn values(&self) -> Vec<u64> {
        self.snapshot_values()
    }
}

impl Recycling for DssStack {
    const LIFO: bool = true;

    fn build(nodes: u64) -> (Self, ThreadHandle) {
        let s = DssStack::new(1, nodes);
        let h = s.register_thread().unwrap();
        (s, h)
    }

    fn pmem(&self) -> &PmemPool {
        self.pool()
    }

    fn insert(&self, h: ThreadHandle, v: u64, det: bool) -> bool {
        if !det {
            return self.push(h, v).is_ok();
        }
        let prepared = self.prep_push(h, v).is_ok();
        if prepared {
            self.exec_push(h);
        }
        prepared
    }

    fn remove(&self, h: ThreadHandle, det: bool) -> Option<Option<u64>> {
        let resp = if det {
            self.prep_pop(h);
            self.exec_pop(h)
        } else {
            self.pop(h)
        };
        Some(match resp {
            StackResp::Value(v) => Some(v),
            _ => None,
        })
    }

    fn recover(&self) {
        DssStack::recover(self);
        self.rebuild_allocator();
    }

    fn values(&self) -> Vec<u64> {
        self.snapshot_values()
    }
}

impl Recycling for DurableQueue {
    const LIFO: bool = false;

    fn build(nodes: u64) -> (Self, ThreadHandle) {
        let q = DurableQueue::new(1, nodes);
        let h = q.register_thread().unwrap();
        (q, h)
    }

    fn pmem(&self) -> &PmemPool {
        self.pool()
    }

    fn insert(&self, h: ThreadHandle, v: u64, _det: bool) -> bool {
        self.enqueue(h, v).is_ok()
    }

    fn remove(&self, h: ThreadHandle, _det: bool) -> Option<Option<u64>> {
        Some(match self.dequeue(h) {
            QueueResp::Value(v) => Some(v),
            _ => None,
        })
    }

    fn recover(&self) {
        DurableQueue::recover(self);
        self.rebuild_allocator();
    }

    fn values(&self) -> Vec<u64> {
        self.snapshot_values()
    }
}

impl Recycling for LogQueue {
    const LIFO: bool = false;

    fn build(nodes: u64) -> (Self, ThreadHandle) {
        let q = LogQueue::new(1, nodes);
        let h = q.register_thread().unwrap();
        (q, h)
    }

    fn pmem(&self) -> &PmemPool {
        self.pool()
    }

    fn insert(&self, h: ThreadHandle, v: u64, _det: bool) -> bool {
        self.enqueue(h, v).is_ok()
    }

    fn remove(&self, h: ThreadHandle, _det: bool) -> Option<Option<u64>> {
        match self.dequeue(h).ok()? {
            QueueResp::Value(v) => Some(Some(v)),
            _ => Some(None),
        }
    }

    fn recover(&self) {
        LogQueue::recover(self);
        self.rebuild_allocator();
    }

    fn values(&self) -> Vec<u64> {
        self.snapshot_values()
    }
}

/// The crash-after-churn property. `churn` plain insert/remove pairs on a
/// pool of `nodes` nodes recycle nodes through reclamation rounds, and can
/// leave the persisted root naming a node the container has left.
/// Then `script` runs — `(insert?, detectable?)` per operation — with a
/// crash armed `crash_after` pool operations in; the system crashes where
/// the countdown fired, or after the script if it did not. After recovery
/// the container holds exactly the values of the completed operations, in
/// order: every completed insert not removed survives, nothing is invented,
/// and only an interrupted operation may or may not have taken effect.
fn check_churned_crash_case<S: Recycling>(
    nodes: u64,
    churn: u64,
    script: &[(bool, bool)],
    crash_after: u64,
    adversary: &WritebackAdversary,
) -> Result<(), TestCaseError> {
    let name = std::any::type_name::<S>();
    let insert_into = |model: &mut VecDeque<u64>, v| {
        if S::LIFO {
            model.push_front(v);
        } else {
            model.push_back(v);
        }
    };
    let (s, h) = S::build(nodes);
    for v in 1..=churn {
        prop_assert!(s.insert(h, v, false), "churn insert {v} refused");
        prop_assert_eq!(s.remove(h, false), Some(Some(v)), "churn remove");
    }
    let mut model: VecDeque<u64> = VecDeque::new();
    // The operation in flight when the countdown fired: `Some(v)` for an
    // insert of `v`, `None` for a removal.
    let in_flight: Cell<Option<Option<u64>>> = Cell::new(None);
    let mut failure = None;
    s.pmem().crashes_within(crash_after, || {
        for (i, &(insert, det)) in script.iter().enumerate() {
            let v = 1000 + i as u64;
            in_flight.set(Some(insert.then_some(v)));
            if insert {
                if s.insert(h, v, det) {
                    insert_into(&mut model, v);
                }
            } else if let Some(got) = s.remove(h, det) {
                if got != model.pop_front() {
                    failure = Some(format!("{name}: op {i} removed {got:?} before the crash"));
                }
            }
            in_flight.set(None);
        }
    });
    if let Some(f) = failure {
        return Err(TestCaseError::Fail(f));
    }
    s.pmem().crash(adversary);
    s.recover();
    let mut allowed = vec![Vec::from(model.clone())];
    match in_flight.get() {
        None => {}
        Some(Some(v)) => {
            let mut with = model.clone();
            insert_into(&mut with, v);
            allowed.push(with.into());
        }
        Some(None) => allowed.push(model.iter().skip(1).copied().collect()),
    }
    let survivors = s.values();
    prop_assert!(
        allowed.contains(&survivors),
        "{name}: survivors {survivors:?}, expected one of {allowed:?} (in flight: {:?})",
        in_flight.get()
    );
    // The recovered container hands them out again, in order, refusing
    // no removal.
    let mut drained = Vec::new();
    loop {
        match s.remove(h, false) {
            Some(Some(v)) => drained.push(v),
            Some(None) => break,
            None => prop_assert!(false, "{name}: removal refused after draining {drained:?}"),
        }
    }
    prop_assert_eq!(drained, survivors, "{}: removal order after recovery", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each node-recycling container — the DSS queue, the durable and log
    /// queues, the DSS stack — churned on a small pool, then crashed
    /// somewhere in a later script: see [`check_churned_crash_case`].
    #[test]
    fn churned_pools_keep_every_completed_insert_across_a_crash(
        nodes in 2u64..7,
        churn in 0u64..40,
        script in prop::collection::vec((proptest::bool::ANY, proptest::bool::ANY), 1..16),
        crash_after in 1u64..400,
        adversary in arb_adversary(),
    ) {
        let (script, adv) = (script.as_slice(), &adversary);
        check_churned_crash_case::<DssQueue>(nodes, churn, script, crash_after, adv)?;
        check_churned_crash_case::<DurableQueue>(nodes, churn, script, crash_after, adv)?;
        check_churned_crash_case::<LogQueue>(nodes, churn, script, crash_after, adv)?;
        check_churned_crash_case::<DssStack>(nodes, churn, script, crash_after, adv)?;
    }

    /// Single-threaded script with a crash at an arbitrary pmem-op index:
    /// see [`check_crash_case`].
    #[test]
    fn crash_anywhere_never_loses_or_duplicates(
        script in prop::collection::vec(arb_op(), 1..25),
        crash_after in 1u64..600,
        adversary in arb_adversary(),
        granularity in arb_granularity(),
        coalesce in proptest::bool::ANY,
        per_address in proptest::bool::ANY,
    ) {
        check_crash_case(&script, crash_after, adversary, granularity, coalesce, per_address)?;
    }

    /// The CAS analogue of the queue property, over both coalescing modes:
    /// see [`check_cas_crash_case`].
    #[test]
    fn cas_crash_anywhere_resolves_consistently(
        ops in 1usize..16,
        crash_after in 1u64..300,
        adversary in arb_adversary(),
        coalesce in proptest::bool::ANY,
        per_address in proptest::bool::ANY,
    ) {
        check_cas_crash_case(ops, crash_after, adversary, coalesce, per_address)?;
    }

    /// The universal-construction analogue, with the drain-granularity
    /// axis armed: see [`check_universal_crash_case`].
    #[test]
    fn universal_crash_anywhere_resolves_consistently(
        script in prop::collection::vec(proptest::bool::ANY, 1..12),
        crash_after in 1u64..400,
        adversary in arb_adversary(),
        coalesce in proptest::bool::ANY,
        per_address in proptest::bool::ANY,
    ) {
        check_universal_crash_case(&script, crash_after, adversary, coalesce, per_address)?;
    }

    /// The replicated execution layer under the same single-threaded
    /// crash sweep — the victim is the leased appender: see
    /// [`check_replicated_crash_case`].
    #[test]
    fn replicated_crash_anywhere_never_loses_or_duplicates(
        script in prop::collection::vec(proptest::bool::ANY, 1..20),
        crash_after in 1u64..600,
        adversary in arb_adversary(),
        granularity in arb_granularity(),
        coalesce in proptest::bool::ANY,
        per_address in proptest::bool::ANY,
    ) {
        check_replicated_crash_case(
            &script, crash_after, adversary, granularity, coalesce, per_address,
        )?;
    }

    /// Without a crash, resolve always reports the last prepared operation
    /// with its true outcome, no matter what preceded it.
    #[test]
    fn resolve_tracks_last_prepared_op(
        script in prop::collection::vec(arb_op(), 1..30),
    ) {
        let q = DssQueue::new(1, 64);
        let h0 = q.register_thread().unwrap();
        let mut last: Option<Resolved> = None;
        for (i, op) in script.iter().enumerate() {
            let v = 1000 + i as u64;
            match op {
                Op::DetEnqueue => {
                    q.prep_enqueue(h0, v).unwrap();
                    q.exec_enqueue(h0);
                    last = Some(Resolved {
                        op: Some(ResolvedOp::Enqueue(v)),
                        resp: Some(QueueResp::Ok),
                    });
                }
                Op::DetDequeue => {
                    q.prep_dequeue(h0);
                    let resp = q.exec_dequeue(h0);
                    last = Some(Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(resp) });
                }
                // Plain ops must not disturb detection state (Axiom 4).
                Op::PlainEnqueue => {
                    q.enqueue(h0, v).unwrap();
                }
                Op::PlainDequeue => {
                    let _ = q.dequeue(h0);
                }
            }
            if let Some(expected) = last {
                prop_assert_eq!(q.resolve(h0), expected, "step {}", i);
            } else {
                prop_assert_eq!(q.resolve(h0), Resolved { op: None, resp: None });
            }
        }
    }
}

proptest! {
    // Concurrent cases spawn real threads (with parked waiters sleeping in
    // 50µs slices), so they cost milliseconds each; fewer cases, same
    // coverage per case of the appender/waiter crash interleavings.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Three replicated-queue workers, each with its own armed crash
    /// countdown: crashes land in appenders mid-batch and in waiters parked
    /// on their announce flags — see
    /// [`check_replicated_concurrent_crash_case`].
    #[test]
    fn replicated_concurrent_crash_conserves_values(
        seed in 0u64..1_000_000,
        adversary in arb_adversary(),
        coalesce in proptest::bool::ANY,
        per_address in proptest::bool::ANY,
    ) {
        check_replicated_concurrent_crash_case(seed, adversary, coalesce, per_address)?;
    }
}

/// The exact shrink recorded in `proptest_crash.proptest-regressions`: a
/// detectable/plain interleaving whose crash lands inside the sixth
/// operation's exec phase while the writeback adversary drops every
/// unflushed line. (The in-tree proptest stand-in does not replay the
/// regressions file, so the case is pinned here explicitly.)
#[test]
fn regression_det_plain_interleaving_crash_at_75() {
    use Op::*;
    let script = [
        DetEnqueue,
        PlainEnqueue,
        PlainEnqueue,
        PlainDequeue,
        PlainDequeue,
        DetEnqueue,
        PlainEnqueue,
        DetEnqueue,
    ];
    for (coalesce, per_address) in [(false, false), (true, false), (true, true)] {
        check_crash_case(
            &script,
            75,
            WritebackAdversary::All,
            FlushGranularity::Line,
            coalesce,
            per_address,
        )
        .unwrap_or_else(|e| {
            panic!("regression case (coalesce={coalesce} per_address={per_address}) failed: {e:?}")
        });
    }
}

/// Deterministic companion to the generated CAS cases: a three-CAS chain
/// swept over every crash point it can reach, with write-behind coalescing
/// ON under both drain granularities, against all three adversaries.
#[test]
fn cas_chain_all_crash_points_with_coalescing() {
    for adversary in [
        WritebackAdversary::None,
        WritebackAdversary::All,
        WritebackAdversary::Random { seed: 7, prob: 0.5 },
    ] {
        for per_address in [false, true] {
            for crash_after in 1..120 {
                check_cas_crash_case(3, crash_after, adversary.clone(), true, per_address)
                    .unwrap_or_else(|e| {
                        panic!(
                            "crash_after={crash_after} {adversary:?} \
                             per_address={per_address} failed: {e:?}"
                        )
                    });
            }
        }
    }
}

/// The universal construction swept over every crash point a push/pop
/// script can reach, with coalescing ON and per-address drains armed,
/// against all three adversaries. The whole-set run (`per_address=false`)
/// doubles as the baseline the per-address verdicts must agree with.
#[test]
fn universal_all_crash_points_with_per_address_drains() {
    let script = [true, true, false, true, false, false];
    for adversary in [
        WritebackAdversary::None,
        WritebackAdversary::All,
        WritebackAdversary::Random { seed: 11, prob: 0.5 },
    ] {
        for per_address in [false, true] {
            for crash_after in 1..200 {
                check_universal_crash_case(
                    &script,
                    crash_after,
                    adversary.clone(),
                    true,
                    per_address,
                )
                .unwrap_or_else(|e| {
                    panic!(
                        "crash_after={crash_after} {adversary:?} \
                             per_address={per_address} failed: {e:?}"
                    )
                });
            }
        }
    }
}

/// The replicated layer swept over every crash point a mixed script can
/// reach, across the coalesce × per-address grid, against the all-dropping
/// adversary: every ordering point of the appender — announce argument and
/// commit word, the batch's record persist, the committed-seq publish — is
/// hit deterministically.
#[test]
fn replicated_script_all_crash_points() {
    let script = [true, true, false, true, false, false, true, false];
    for (coalesce, per_address) in [(false, false), (true, false), (true, true)] {
        for crash_after in 1..300 {
            check_replicated_crash_case(
                &script,
                crash_after,
                WritebackAdversary::All,
                FlushGranularity::Line,
                coalesce,
                per_address,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "crash_after={crash_after} coalesce={coalesce} \
                         per_address={per_address} failed: {e:?}"
                )
            });
        }
    }
}

/// The same script as the recorded shrink, swept over every crash point it
/// can reach and both flush granularities, against the all-dropping
/// adversary. Broadens the pinned case so nearby crash points cannot
/// silently regress.
#[test]
fn regression_script_all_crash_points() {
    use Op::*;
    let script = [
        DetEnqueue,
        PlainEnqueue,
        PlainEnqueue,
        PlainDequeue,
        PlainDequeue,
        DetEnqueue,
        PlainEnqueue,
        DetEnqueue,
    ];
    for granularity in [FlushGranularity::Line, FlushGranularity::Word] {
        for (coalesce, per_address) in [(false, false), (true, false), (true, true)] {
            for crash_after in 1..300 {
                check_crash_case(
                    &script,
                    crash_after,
                    WritebackAdversary::All,
                    granularity,
                    coalesce,
                    per_address,
                )
                .unwrap_or_else(|e| {
                    panic!(
                        "crash_after={crash_after} {granularity:?} coalesce={coalesce} \
                             per_address={per_address} failed: {e:?}"
                    )
                });
            }
        }
    }
}
