//! Recording real executions as `D⟨T⟩` histories and machine-checking
//! them (experiment E6 — empirical evidence for Theorem 1: "the DSS queue
//! is lock-free and strictly linearizable with respect to D⟨queue⟩").
//!
//! Worker threads drive a structure through its detectable and plain
//! operations while a [`Recorder`] captures the invocations and responses
//! as operations of its *specification*; the resulting history is checked
//! under strict linearizability — with and without injected crashes. Each
//! recording driver exists once, generic over the structure, and takes a
//! [`Layer`]:
//!
//! * the queue layers record `D⟨queue⟩` histories (`Prep`, `Exec`,
//!   `Resolve`, `Plain`) checked against
//!   [`Detectable<QueueSpec>`](dss_spec::Detectable);
//! * the map records `Keyed<KvSpec>` histories — each detectable pair is
//!   one `(key, op)` operation whose invocation brackets prep and whose
//!   return follows exec, so a crash mid-pair leaves a pending operation
//!   the strict checker must place before the crash or drop, exactly
//!   `D⟨map⟩`'s Figure-2 alternatives — checked per key by
//!   P-compositionality ([`check_map_history`]).

use dss_checker::{
    check_fifo, check_history, check_partitioned, check_records, records_for, CheckOptions,
    CheckStats, Condition, History, Recorder, Violation,
};
use dss_core::{DetectableMap, DssQueue, Resolved, ResolvedOp};
use dss_pmem::{FlushGranularity, ThreadHandle, WritebackAdversary};
use dss_spec::types::{KvOp, KvResp, KvSpec, QueueOp, QueueResp, QueueSpec};
use dss_spec::{DetOp, DetResp, Detectable, Keyed};

use crate::crashsim::{dispatch, restart_survivors, rng, CrashTarget, Layer, QueueLayer};

/// The specification ops/responses a recorded queue history is made of.
pub type RecordedHistory = History<DetOp<QueueOp>, DetResp<QueueOp, QueueResp>>;

/// A recorded history of map operations, in the [`Keyed`]`<`[`KvSpec`]`>`
/// shape the per-key partitioned checker splits and verifies in full.
pub type MapHistory = History<(u64, KvOp), KvResp>;

/// A structure whose executions can be recorded: its history alphabet,
/// its pseudo-random workload, and how a recovered state is pinned into
/// the history.
pub(crate) trait RecordTarget: CrashTarget {
    type Op: Clone + Send;
    type Resp: Clone + Send;
    type Step: Copy + Send;
    /// Worker `tid`'s pseudo-random step plan.
    fn plan(tid: usize, ops: usize, seed: u64) -> Vec<Self::Step>;
    /// Runs and records one step; `seq` is the step's 1-based index (the
    /// §2.1 tag of a detectable map write).
    fn run_step(
        &self,
        rec: &Recorder<Self::Op, Self::Resp>,
        h: ThreadHandle,
        step: Self::Step,
        seq: u64,
    );
    /// Records the post-crash observations the checker must reconcile
    /// with the history before the crash.
    fn record_recovered(&self, rec: &Recorder<Self::Op, Self::Resp>, hs: &[ThreadHandle]);
}

fn resolved_to_resp(r: Resolved) -> DetResp<QueueOp, QueueResp> {
    let op = r.op.map(|o| match o {
        ResolvedOp::Enqueue(v) => (QueueOp::Enqueue(v), 0),
        ResolvedOp::Dequeue => (QueueOp::Dequeue, 0),
    });
    DetResp::Resolved(op, r.resp)
}

/// One pseudo-random step of a queue worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    DetEnqueue(u64),
    DetDequeue,
    PlainEnqueue(u64),
    PlainDequeue,
    Resolve,
}

impl<Q: QueueLayer> RecordTarget for Q {
    type Op = DetOp<QueueOp>;
    type Resp = DetResp<QueueOp, QueueResp>;
    type Step = Step;

    fn plan(tid: usize, ops: usize, seed: u64) -> Vec<Step> {
        let mut next = rng(tid, seed);
        (0..ops)
            .map(|i| {
                let v = ((tid as u64) << 32) | (i as u64 + 1);
                match next() % 5 {
                    0 => Step::DetEnqueue(v),
                    1 => Step::DetDequeue,
                    2 => Step::PlainEnqueue(v),
                    3 => Step::PlainDequeue,
                    _ => Step::Resolve,
                }
            })
            .collect()
    }

    fn run_step(
        &self,
        rec: &Recorder<Self::Op, Self::Resp>,
        h: ThreadHandle,
        step: Step,
        _seq: u64,
    ) {
        // Registration happens in slot order on the main thread, so the
        // slot doubles as the recorder's process id.
        let tid = h.slot();
        match step {
            Step::DetEnqueue(v) => {
                let id = rec.invoke(tid, DetOp::Prep { op: QueueOp::Enqueue(v), seq: 0 });
                self.prep_enqueue(h, v).unwrap();
                rec.ret(id, DetResp::Ack);
                let id = rec.invoke(tid, DetOp::Exec);
                self.exec_enqueue(h);
                rec.ret(id, DetResp::Ret(QueueResp::Ok));
            }
            Step::DetDequeue => {
                let id = rec.invoke(tid, DetOp::Prep { op: QueueOp::Dequeue, seq: 0 });
                self.prep_dequeue(h);
                rec.ret(id, DetResp::Ack);
                let id = rec.invoke(tid, DetOp::Exec);
                let resp = self.exec_dequeue(h);
                rec.ret(id, DetResp::Ret(resp));
            }
            // On a layer without a true plain path (the replicated layer:
            // every op announces and a later resolve reports it), the
            // plan's plain steps are honestly recorded as the prep/exec
            // pairs they are — recording them as `Plain` would claim
            // Axiom 4 isolation the layer does not provide, and the
            // checker would rightly reject the history at the next
            // resolve.
            Step::PlainEnqueue(v) if Q::PLAIN_IS_DETECTABLE => {
                self.run_step(rec, h, Step::DetEnqueue(v), 0);
            }
            Step::PlainDequeue if Q::PLAIN_IS_DETECTABLE => {
                self.run_step(rec, h, Step::DetDequeue, 0);
            }
            Step::PlainEnqueue(v) => {
                let id = rec.invoke(tid, DetOp::Plain(QueueOp::Enqueue(v)));
                self.enqueue(h, v).unwrap();
                rec.ret(id, DetResp::Ret(QueueResp::Ok));
            }
            Step::PlainDequeue => {
                let id = rec.invoke(tid, DetOp::Plain(QueueOp::Dequeue));
                let resp = self.dequeue(h);
                rec.ret(id, DetResp::Ret(resp));
            }
            Step::Resolve => {
                let id = rec.invoke(tid, DetOp::Resolve);
                let resp = resolved_to_resp(QueueLayer::resolve(self, h));
                rec.ret(id, resp);
            }
        }
    }

    /// Every thread resolves its interrupted operation.
    fn record_recovered(&self, rec: &Recorder<Self::Op, Self::Resp>, hs: &[ThreadHandle]) {
        for (tid, &h) in hs.iter().enumerate() {
            let id = rec.invoke(tid, DetOp::Resolve);
            let resp = resolved_to_resp(QueueLayer::resolve(self, h));
            rec.ret(id, resp);
        }
    }
}

/// Keys every recorded map execution draws from — deliberately few and
/// *shared* across threads, so per-key histories carry real cross-thread
/// interleavings.
const MAP_HISTORY_KEYS: u64 = 8;

/// One pseudo-random step of a map worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MapStep {
    DetPut(u64, u64),
    DetRemove(u64),
    Get(u64),
}

impl RecordTarget for DetectableMap {
    type Op = (u64, KvOp);
    type Resp = KvResp;
    type Step = MapStep;

    fn plan(tid: usize, ops: usize, seed: u64) -> Vec<MapStep> {
        let mut next = rng(tid, seed);
        (0..ops)
            .map(|i| {
                let key = next() % MAP_HISTORY_KEYS;
                let v = ((tid as u64) << 32) | (i as u64 + 1);
                match next() % 4 {
                    0 | 1 => MapStep::DetPut(key, v),
                    2 => MapStep::DetRemove(key),
                    _ => MapStep::Get(key),
                }
            })
            .collect()
    }

    fn run_step(
        &self,
        rec: &Recorder<(u64, KvOp), KvResp>,
        h: ThreadHandle,
        step: MapStep,
        seq: u64,
    ) {
        let tid = h.slot();
        match step {
            MapStep::DetPut(key, v) => {
                let id = rec.invoke(tid, (key, KvOp::Put(v)));
                self.prep_put(h, key, v, seq);
                let resp = self.exec_put(h);
                rec.ret(id, resp);
            }
            MapStep::DetRemove(key) => {
                let id = rec.invoke(tid, (key, KvOp::Remove));
                self.prep_remove(h, key, seq);
                let resp = self.exec_remove(h);
                rec.ret(id, resp);
            }
            MapStep::Get(key) => {
                let id = rec.invoke(tid, (key, KvOp::Get));
                let resp = self.get(h, key);
                rec.ret(id, resp);
            }
        }
    }

    /// Post-crash audit: an observer (a process id past the workers')
    /// reads every key, so the checker must find a linearization whose
    /// surviving effects are exactly these bindings.
    fn record_recovered(&self, rec: &Recorder<(u64, KvOp), KvResp>, hs: &[ThreadHandle]) {
        for key in 0..MAP_HISTORY_KEYS {
            let id = rec.invoke(hs.len(), (key, KvOp::Get));
            rec.ret(id, self.get(hs[0], key));
        }
    }
}

/// Records a crash-free concurrent execution on a queue `layer`.
///
/// # Panics
///
/// Panics on [`Layer::Map`], whose histories have another alphabet (see
/// [`record_map_execution`]).
pub fn record_execution(
    layer: Layer,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) -> RecordedHistory {
    dispatch!(layer, T => record_execution_on::<T>(threads, ops_per_thread, seed),
        map: panic!("{MAP_PANIC}"))
}

/// Records a crash-free concurrent map execution: detectable puts and
/// removes plus plain gets over a small shared key set.
pub fn record_map_execution(threads: usize, ops_per_thread: usize, seed: u64) -> MapHistory {
    record_execution_on::<DetectableMap>(threads, ops_per_thread, seed)
}

const MAP_PANIC: &str = "the map records Keyed<KvSpec> histories: use the record_map_* drivers";

fn record_execution_on<T: RecordTarget>(
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) -> History<T::Op, T::Resp> {
    let q = &T::build(threads, 64, 8, FlushGranularity::Line);
    let hs: Vec<ThreadHandle> = (0..threads).map(|_| q.register_thread().unwrap()).collect();
    let rec = Recorder::new();
    std::thread::scope(|scope| {
        for (tid, &h) in hs.iter().enumerate() {
            let rec = &rec;
            scope.spawn(move || {
                for (i, step) in T::plan(tid, ops_per_thread, seed).into_iter().enumerate() {
                    q.run_step(rec, h, step, i as u64 + 1);
                }
            });
        }
    });
    rec.into_history()
}

/// Records an execution on a queue `layer` in which every thread is
/// interrupted by a system-wide crash mid-run; after centralized
/// recovery, each thread resolves. On the replicated layer the seed-derived
/// crashes land inside batches and waiter park loops, and the recorded
/// resolves read results a dead lease holder wrote (or the committed log,
/// with the volatile replicas rebuilt by replay).
///
/// # Panics
///
/// Panics on [`Layer::Map`] (see [`record_map_crash_execution`]).
pub fn record_crash_execution(
    layer: Layer,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) -> RecordedHistory {
    dispatch!(layer, T => record_crash_execution_on::<T>(threads, None, ops_per_thread, seed,
        false, false), map: panic!("{MAP_PANIC}"))
}

/// Records a map execution in which every thread is interrupted by a
/// system-wide crash mid-run; after the restart protocol, an observer
/// reads every key, pinning the recovered bindings into the history the
/// strict checker must certify.
pub fn record_map_crash_execution(threads: usize, ops_per_thread: usize, seed: u64) -> MapHistory {
    record_crash_execution_on::<DetectableMap>(threads, None, ops_per_thread, seed, false, false)
}

/// Records an execution on a queue `layer` in which every thread crashes
/// mid-run but only `survivors` of them restart: each survivor recovers
/// its own slot independently (§3.3), then survivor 0 adopts every
/// remaining orphaned slot and resolves the dead threads' pending
/// operations on their behalf. The resolves for adopted slots are recorded
/// under the *original* process ids, matching the spec's view that the
/// adopter completes the dead thread's `D⟨queue⟩` session.
///
/// # Panics
///
/// Panics if `survivors` is zero or exceeds `threads`, and on
/// [`Layer::Map`] (see [`record_map_partial_recovery_execution`]).
pub fn record_partial_recovery_execution(
    layer: Layer,
    threads: usize,
    survivors: usize,
    ops_per_thread: usize,
    seed: u64,
    coalesce: bool,
    per_address: bool,
) -> RecordedHistory {
    assert!(survivors >= 1 && survivors <= threads, "need 1..=threads survivors");
    dispatch!(layer, T => record_crash_execution_on::<T>(threads, Some(survivors), ops_per_thread,
        seed, coalesce, per_address), map: panic!("{MAP_PANIC}"))
}

/// [`record_map_crash_execution`] with only `survivors` of the `threads`
/// workers restarting (§3.3): each survivor re-adopts its own registry
/// slot, then the first adopts every slot nobody came back for, and the
/// observer audit reads through the recovered state.
///
/// # Panics
///
/// Panics if `survivors` is zero or exceeds `threads`.
pub fn record_map_partial_recovery_execution(
    threads: usize,
    survivors: usize,
    ops_per_thread: usize,
    seed: u64,
    coalesce: bool,
    per_address: bool,
) -> MapHistory {
    assert!(survivors >= 1 && survivors <= threads, "need 1..=threads survivors");
    record_crash_execution_on::<DetectableMap>(
        threads,
        Some(survivors),
        ops_per_thread,
        seed,
        coalesce,
        per_address,
    )
}

/// The shared crash recorder: recorded workers crash at seed-derived
/// points, the pool crashes, recovery runs — centralized, or the §3.3
/// partial restart of `survivors` — and the recovered state is recorded.
fn record_crash_execution_on<T: RecordTarget>(
    threads: usize,
    survivors: Option<usize>,
    ops_per_thread: usize,
    seed: u64,
    coalesce: bool,
    per_address: bool,
) -> History<T::Op, T::Resp> {
    let q = &T::build(threads, 64, 8, FlushGranularity::Line);
    q.pool().set_coalescing(coalesce);
    q.pool().set_per_address_drains(per_address);
    let hs: Vec<ThreadHandle> = (0..threads).map(|_| q.register_thread().unwrap()).collect();
    let rec = Recorder::new();
    std::thread::scope(|scope| {
        for (tid, &h) in hs.iter().enumerate() {
            let rec = &rec;
            scope.spawn(move || {
                let crash_after = 5 + (seed.wrapping_add(tid as u64 * 31)) % 60;
                q.pool().crashes_within(crash_after, || {
                    for (i, step) in T::plan(tid, ops_per_thread, seed).into_iter().enumerate() {
                        q.run_step(rec, h, step, i as u64 + 1);
                    }
                });
            });
        }
    });
    rec.crash();
    q.pool().crash(&WritebackAdversary::Random { seed, prob: 0.5 });
    match survivors {
        None => {
            q.recover();
        }
        Some(s) => {
            restart_survivors(q, &hs, s).expect("own slot is orphaned after begin_recovery");
        }
    }
    q.rebuild_allocator();
    q.record_recovered(&rec, &hs);
    rec.into_history()
}

/// Checks a recorded history under `condition`.
///
/// # Errors
///
/// Propagates the checker's [`Violation`] — a real failure here means the
/// queue implementation (or the recording) violates Theorem 1.
pub fn check_recorded(history: &RecordedHistory, condition: Condition) -> Result<(), Violation> {
    // The checker needs the number of processes; derive it generously.
    let spec = Detectable::new(QueueSpec, 8);
    check_history(&spec, history, condition)
}

/// Checks a recorded history of any length under `condition` via the
/// segmented pipeline — no sampling, no truncation. Only a single window
/// (a run of transitively overlapping operations) is bounded, by
/// `options.max_window_ops`; phased workloads
/// ([`record_phased_execution`]) keep windows small by construction.
///
/// # Errors
///
/// The checker's [`Violation`], as [`check_recorded`].
pub fn check_recorded_full(
    history: &RecordedHistory,
    condition: Condition,
    options: &CheckOptions,
) -> Result<CheckStats, Violation> {
    let spec = Detectable::new(QueueSpec, 8);
    let records = records_for(history, condition)?;
    check_records(&spec, &records, options)
}

/// Checks a map history of any length by P-compositionality
/// ([`check_partitioned`]): split per key, project onto [`KvSpec`], and
/// run the segmented full-length check per partition — no sampling, no
/// truncation.
///
/// # Errors
///
/// The first failing partition's [`Violation`] (carrying the partition
/// key).
pub fn check_map_history(
    history: &MapHistory,
    condition: Condition,
    options: &CheckOptions,
) -> Result<CheckStats, Violation> {
    let records = records_for(history, condition)?;
    check_partitioned(&Keyed::new(KvSpec), &records, options)
}

/// A recorded history of the queue's *plain* operations only — the shape
/// the near-linear FIFO fast path understands.
pub type PlainHistory = History<QueueOp, QueueResp>;

/// Checks a plain queue history of any length: the FIFO fast path first
/// (near-linear, immune to overlapping-run length), falling back to the
/// segmented search when it cannot decide.
///
/// # Errors
///
/// The checker's [`Violation`] from whichever path produced the verdict.
pub fn check_plain(
    history: &PlainHistory,
    condition: Condition,
    options: &CheckOptions,
) -> Result<CheckStats, Violation> {
    let records = records_for(history, condition)?;
    check_fifo(&QueueSpec, &records).unwrap_or_else(|| check_records(&QueueSpec, &records, options))
}

/// Records a crash-free execution of a queue `layer`'s plain operations
/// at any scale. Each thread alternates enqueue/dequeue so with `prefill`
/// initial values the queue never empties (every dequeue observes a
/// value), and values are globally unique — exactly the regime the FIFO
/// fast path verifies in near-linear time. On the replicated layer every
/// operation goes through a lease holder's batch, so the check certifies
/// at full length that batching preserves `queue`'s sequential
/// specification.
///
/// # Panics
///
/// Panics on [`Layer::Map`], which has no queue operations.
pub fn record_plain_execution(
    layer: Layer,
    threads: usize,
    pairs_per_thread: usize,
    prefill: usize,
    seed: u64,
) -> PlainHistory {
    dispatch!(layer, T => record_plain_execution_on::<T>(threads, pairs_per_thread, prefill, seed),
        map: panic!("{MAP_PANIC}"))
}

fn record_plain_execution_on<Q: QueueLayer>(
    threads: usize,
    pairs_per_thread: usize,
    prefill: usize,
    seed: u64,
) -> PlainHistory {
    let q = &Q::build(threads + 1, 64, FlushGranularity::Line);
    let hs: Vec<ThreadHandle> = (0..=threads).map(|_| q.register_thread().unwrap()).collect();
    let rec = Recorder::new();
    for i in 0..prefill {
        let v = u64::MAX - i as u64; // distinct from worker values
        let id = rec.invoke(threads, QueueOp::Enqueue(v));
        q.enqueue(hs[threads], v).unwrap();
        rec.ret(id, QueueResp::Ok);
    }
    std::thread::scope(|scope| {
        for (tid, &h) in hs.iter().take(threads).enumerate() {
            let rec = &rec;
            scope.spawn(move || {
                for i in 0..pairs_per_thread {
                    let v = ((tid as u64) << 32) | (i as u64 + 1) | (seed << 56);
                    let id = rec.invoke(tid, QueueOp::Enqueue(v));
                    q.enqueue(h, v).unwrap();
                    rec.ret(id, QueueResp::Ok);
                    let id = rec.invoke(tid, QueueOp::Dequeue);
                    let resp = q.dequeue(h);
                    rec.ret(id, resp);
                }
            });
        }
    });
    rec.into_history()
}

/// Records a crash-free concurrent execution in *phases*: all threads
/// rendezvous at a barrier every `phase_len` steps. The quiescent instant
/// between phases is a guaranteed cut point, so the segmented checker's
/// windows stay bounded by `threads * phase_len` however long the run —
/// the recording discipline that makes full-length verification of
/// `D⟨queue⟩` histories tractable.
pub fn record_phased_execution(
    threads: usize,
    ops_per_thread: usize,
    phase_len: usize,
    seed: u64,
) -> RecordedHistory {
    assert!(phase_len > 0, "phase_len must be positive");
    let q = DssQueue::new(threads, 64);
    let hs: Vec<ThreadHandle> = (0..threads).map(|_| q.register_thread().unwrap()).collect();
    let rec = Recorder::new();
    let barrier = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        for (tid, &h) in hs.iter().enumerate() {
            let q = &q;
            let rec = &rec;
            let barrier = &barrier;
            scope.spawn(move || {
                for (i, step) in DssQueue::plan(tid, ops_per_thread, seed).into_iter().enumerate() {
                    q.run_step(rec, h, step, i as u64 + 1);
                    if (i + 1) % phase_len == 0 {
                        barrier.wait();
                    }
                }
            });
        }
    });
    rec.into_history()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_free_executions_are_linearizable() {
        for seed in 0..10 {
            let h = record_execution(Layer::Cas, 2, 5, seed);
            assert!(h.validate().is_ok());
            check_recorded(&h, Condition::Linearizability)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn crash_executions_are_strictly_linearizable() {
        for seed in 0..10 {
            let h = record_crash_execution(Layer::Cas, 2, 8, seed);
            assert!(h.validate().is_ok());
            check_recorded(&h, Condition::StrictLinearizability)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn partial_recovery_executions_are_strictly_linearizable() {
        for seed in 0..6 {
            for survivors in [1, 2] {
                let h = record_partial_recovery_execution(
                    Layer::Cas,
                    2,
                    survivors,
                    8,
                    seed,
                    false,
                    false,
                );
                assert!(h.validate().is_ok());
                check_recorded(&h, Condition::StrictLinearizability)
                    .unwrap_or_else(|e| panic!("seed {seed} survivors {survivors}: {e}"));
            }
        }
    }

    #[test]
    fn plain_executions_check_fully_at_scale() {
        // 2 threads * 2000 pairs = 8000 ops: far beyond the monolithic cap,
        // checked in full (no sampling) via the FIFO fast path.
        let h = record_plain_execution(Layer::Cas, 2, 2000, 4, 7);
        assert!(h.validate().is_ok());
        let stats = check_plain(&h, Condition::Linearizability, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(stats.ops, 2 * 2 * 2000 + 4);
        assert!(stats.fast_path, "distinct-value no-empty runs take the fast path");
    }

    #[test]
    fn phased_executions_check_fully_at_scale() {
        let h = record_phased_execution(3, 60, 5, 11);
        assert!(h.validate().is_ok());
        let stats = check_recorded_full(&h, Condition::Linearizability, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(stats.ops > dss_checker::MAX_OPS, "beyond the monolithic cap");
        assert!(stats.max_window <= 512);
    }

    #[test]
    fn full_check_agrees_with_monolithic_on_small_histories() {
        for seed in 0..10 {
            let h = record_execution(Layer::Cas, 2, 5, seed);
            let mono = check_recorded(&h, Condition::Linearizability).is_ok();
            let seg = check_recorded_full(&h, Condition::Linearizability, &CheckOptions::default())
                .is_ok();
            assert_eq!(mono, seg, "seed {seed}");
        }
    }

    #[test]
    fn strict_implies_weaker_conditions_hold_too() {
        let h = record_crash_execution(Layer::Cas, 2, 6, 3);
        assert!(check_recorded(&h, Condition::PersistentAtomicity).is_ok());
        assert!(check_recorded(&h, Condition::RecoverableLinearizability).is_ok());
    }

    #[test]
    fn a_corrupted_response_is_rejected() {
        // Sanity-check that the checker has teeth: tamper with a recorded
        // response and expect a violation.
        use dss_checker::Event;
        let h = record_execution(Layer::Cas, 2, 5, 1);
        let mut events: Vec<_> = h.events().to_vec();
        let tampered = events.iter_mut().rev().find_map(|e| match e {
            Event::Return { resp: DetResp::Ret(QueueResp::Value(v)), .. } => {
                *v = v.wrapping_add(1);
                Some(())
            }
            _ => None,
        });
        if tampered.is_none() {
            return; // this seed dequeued nothing; other tests cover it
        }
        let mut h2 = RecordedHistory::new();
        for e in events {
            match e {
                Event::Invoke { pid, op } => {
                    h2.invoke(pid, op);
                }
                Event::Return { of, resp } => h2.ret(of, resp),
                Event::Crash => h2.crash(),
            }
        }
        assert!(check_recorded(&h2, Condition::Linearizability).is_err());
    }

    #[test]
    fn crash_free_map_executions_are_linearizable_per_key() {
        for seed in 0..6 {
            let h = record_map_execution(3, 40, seed);
            assert!(h.validate().is_ok());
            let stats = check_map_history(&h, Condition::Linearizability, &CheckOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(stats.ops, 3 * 40, "every operation checked, no sampling");
            assert!(stats.partitions >= 2, "the shared key set splits into partitions");
        }
    }

    #[test]
    fn map_crash_executions_are_strictly_linearizable_per_key() {
        for seed in 0..6 {
            let h = record_map_crash_execution(3, 30, seed);
            assert!(h.validate().is_ok());
            check_map_history(&h, Condition::StrictLinearizability, &CheckOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn map_partial_recovery_executions_are_strictly_linearizable_per_key() {
        for seed in 0..4 {
            for survivors in [1, 2] {
                let h = record_map_partial_recovery_execution(3, survivors, 20, seed, false, false);
                assert!(h.validate().is_ok());
                check_map_history(&h, Condition::StrictLinearizability, &CheckOptions::default())
                    .unwrap_or_else(|e| panic!("seed {seed} survivors {survivors}: {e}"));
            }
        }
    }

    #[test]
    fn a_corrupted_map_response_is_pinned_to_its_partition() {
        // Tamper with one key's recorded response; the per-key split must
        // reject it *and* name that key's partition, leaving the other
        // keys' histories out of the blast radius.
        use dss_checker::Event;
        let h = record_map_execution(2, 60, 9);
        let mut events: Vec<_> = h.events().to_vec();
        let mut bad_key = None;
        for e in events.iter_mut().rev() {
            if let Event::Return { of, resp: KvResp::Value(v) } = e {
                // Only a Get is safe to poison unconditionally: a put's
                // previous-value response can alias another legal history.
                let key = match &h.events()[of.0] {
                    Event::Invoke { op: (k, KvOp::Get), .. } => *k,
                    _ => continue,
                };
                *v = v.wrapping_add(0xdead);
                bad_key = Some(key);
                break;
            }
        }
        let Some(bad_key) = bad_key else {
            return; // this seed read only absent keys; other tests cover it
        };
        let mut h2 = MapHistory::new();
        for e in events {
            match e {
                Event::Invoke { pid, op } => {
                    h2.invoke(pid, op);
                }
                Event::Return { of, resp } => h2.ret(of, resp),
                Event::Crash => h2.crash(),
            }
        }
        let err = check_map_history(&h2, Condition::Linearizability, &CheckOptions::default())
            .expect_err("a poisoned read must not check");
        match err {
            Violation::WindowNoLinearization { partition, .. } => {
                assert_eq!(partition.as_deref(), Some(format!("{bad_key}").as_str()));
            }
            other => panic!("expected a window violation, got {other}"),
        }
    }
}
