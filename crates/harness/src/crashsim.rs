//! Crash-point sweeps: experiment E4 (and E7's granularity/adversary
//! ablation).
//!
//! For every pmem-operation index `k` of a detectable operation, a fresh
//! structure runs the operation with a crash armed at `k`, the pool
//! crashes under a configurable writeback adversary, recovery runs
//! (centralized Figure 6 or independent §3.3), and `resolve`'s answer is
//! validated against what `D⟨T⟩` permits given the persisted state — the
//! executable version of the paper's Figure 2.
//!
//! Every driver here exists once and takes a [`Layer`]: the CAS-racing
//! [`DssQueue`], the log-fed [`ReplicatedQueue`], and the detectable hash
//! map [`DetectableMap`] are all `CrashTarget`s, so waiters killed while
//! parked, appender death around the committed-seq publish, and a map
//! install cut short go through the same Figure-2 validation. The map
//! recovers independently (§3.3): its "centralized" recovery is just the
//! registry's begin-recovery + adopt-orphans restart protocol and its
//! per-slot repair is nothing at all.
//!
//! [`partial_recovery_crash_run`] additionally exercises the §3.3 story
//! end to end: after a multi-threaded crash only a *subset* of threads
//! restarts; each survivor re-adopts its own registry slot and repairs its
//! own detectability word, and one adopter reclaims every remaining
//! orphaned slot (inheriting its EBR state) and resolves its pending op.
//!
//! [`multi_process_sweep`] is the same Figure-2 validation with a *real*
//! process boundary: a child process creates a **file-backed** pool, runs
//! the victim, and is SIGKILLed mid-operation; the parent then rebuilds
//! the structure from the pool file alone with its `attach` — no
//! in-process state survives, by construction — and runs the Figure-6
//! adopt-then-resolve recovery.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use dss_core::{
    DetectableCore, DetectableMap, DssQueue, QueueFull, ReplicatedQueue, Resolved, ResolvedMap,
    ResolvedOp,
};
use dss_pmem::{FlushGranularity, PmemPool, ThreadHandle, WritebackAdversary};
use dss_spec::types::{KvOp, KvResp, QueueResp};

/// Which execution layer (or object family) a driver runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Layer {
    /// The CAS-racing queue (the paper's baseline).
    #[default]
    Cas,
    /// The log-fed replicated queue (experiment E15).
    Replicated,
    /// The detectable hash map (experiment E16's structure).
    Map,
}

impl Layer {
    /// Inverse of [`fmt::Display`]: `cas`, `replicated` or `map`.
    ///
    /// # Errors
    ///
    /// Names the three spellings on any other name.
    pub fn parse(s: &str) -> Result<Layer, String> {
        match s {
            "cas" => Ok(Layer::Cas),
            "replicated" => Ok(Layer::Replicated),
            "map" => Ok(Layer::Map),
            _ => Err("expected cas|replicated|map".into()),
        }
    }

    /// Whether the layer executes through a lease holder (the replicated
    /// queue's appender), whose lease only becomes provably stale once the
    /// crash boundary is marked.
    pub fn is_leased(self) -> bool {
        self == Layer::Replicated
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Cas => "cas",
            Layer::Replicated => "replicated",
            Layer::Map => "map",
        })
    }
}

/// Runs `$body` with the type name `$T` bound to the structure `$layer`
/// selects — the one dispatch from a runtime [`Layer`] to the generic
/// drivers. The `map:` form substitutes its own expression for the map
/// (for queue-only drivers).
macro_rules! dispatch {
    ($layer:expr, $T:ident => $body:expr) => {
        dispatch!($layer, $T => $body, map: {
            type $T = dss_core::DetectableMap;
            $body
        })
    };
    ($layer:expr, $T:ident => $body:expr, map: $map:expr) => {
        match $layer {
            $crate::crashsim::Layer::Cas => {
                type $T = dss_core::DssQueue;
                $body
            }
            $crate::crashsim::Layer::Replicated => {
                type $T = dss_core::ReplicatedQueue;
                $body
            }
            $crate::crashsim::Layer::Map => $map,
        }
    };
}
pub(crate) use dispatch;

/// Which queue operation a sweep interrupts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VictimOp {
    /// `prep-enqueue(42)` + `exec-enqueue` on an empty queue.
    Enqueue,
    /// `prep-dequeue` + `exec-dequeue` on a queue holding one value.
    Dequeue,
    /// `prep-dequeue` + `exec-dequeue` on an empty queue.
    EmptyDequeue,
}

impl fmt::Display for VictimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VictimOp::Enqueue => "enqueue",
            VictimOp::Dequeue => "dequeue",
            VictimOp::EmptyDequeue => "empty-dequeue",
        };
        f.write_str(s)
    }
}

/// Which map operation a sweep interrupts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapVictimOp {
    /// `prep-put(7, 42)` + `exec-put` on an empty map (fresh key: the
    /// install allocates an entry node *and* a value node).
    Insert,
    /// `prep-put(7, 42)` + `exec-put` with `7 ↦ 7` prefilled (the install
    /// marks the incumbent superseded before swinging the entry's vptr).
    Update,
    /// `prep-remove(7)` + `exec-remove` with `7 ↦ 7` prefilled (the
    /// install swings the vptr to a tombstone value node).
    Remove,
    /// `prep-remove(7)` + `exec-remove` on an empty map (the trivial
    /// effect: removing an absent key is already done).
    RemoveAbsent,
}

impl fmt::Display for MapVictimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MapVictimOp::Insert => "insert",
            MapVictimOp::Update => "update",
            MapVictimOp::Remove => "remove",
            MapVictimOp::RemoveAbsent => "remove-absent",
        };
        f.write_str(s)
    }
}

/// Outcome distribution of one sweep.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Crash points swept (the operation's total pmem-op count).
    pub crash_points: u64,
    /// `resolve` returned `(⊥, ⊥)` — the prep never persisted
    /// (Figure 2d).
    pub not_prepared: u64,
    /// `resolve` returned `(op, ⊥)` — prepared, no effect (Figure 2c, or
    /// the left outcome of 2b).
    pub no_effect: u64,
    /// `resolve` returned `(op, r)` — prepared and took effect
    /// (Figure 2a, or the right outcome of 2b).
    pub effect: u64,
    /// Outcomes inconsistent with the persisted state (must be 0;
    /// anything else is an algorithm bug).
    pub violations: u64,
}

/// Configuration of a sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Spontaneous-writeback adversary applied at the crash.
    pub adversary: WritebackAdversary,
    /// Flush granularity of the pool (E7 ablation).
    pub granularity: FlushGranularity,
    /// Use the independent per-thread recovery (§3.3) instead of the
    /// centralized Figure 6 procedure.
    pub independent_recovery: bool,
    /// Run the victim with write-behind flush coalescing armed (E9); the
    /// crash then also drops whatever the pending sets still hold.
    pub coalesce: bool,
    /// Narrow the ordering drains to per-address dependency drains (E10);
    /// only meaningful together with `coalesce` — fence points then write
    /// back just the lines they order against, so the crash drops a wider
    /// pending set.
    pub per_address: bool,
    /// The structure under test. On the replicated layer the armed crash
    /// lands inside the appender's log batch (or a waiter's park loop),
    /// exercising lease recovery, half-applied batches, and replica
    /// rebuild by replay.
    pub layer: Layer,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            adversary: WritebackAdversary::None,
            granularity: FlushGranularity::Line,
            independent_recovery: false,
            coalesce: false,
            per_address: false,
            layer: Layer::Cas,
        }
    }
}

/// The queue surface of the two execution layers, forwarded to each
/// type's inherent methods. The slot API and the pool come from the
/// shared skeleton every layer dereferences to.
pub(crate) trait QueueLayer:
    Sync + Sized + Deref<Target = DetectableCore<PmemPool>>
{
    /// Whether this layer's `enqueue`/`dequeue` conveniences are really
    /// detectable prep/exec pairs. The CAS layer has a true plain path
    /// that leaves detection state alone (Axiom 4); the replicated layer
    /// has none — every operation announces and goes through the lease
    /// holder, so a later resolve reports it. Recorders must ask, or the
    /// recorded `D⟨queue⟩` history misrepresents the semantics.
    const PLAIN_IS_DETECTABLE: bool;
    fn build(threads: usize, nodes_per_thread: u64, granularity: FlushGranularity) -> Self;
    fn create_file(path: &Path, granularity: FlushGranularity) -> Self;
    fn attach_file(path: &Path) -> Self;
    fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull>;
    fn dequeue(&self, h: ThreadHandle) -> QueueResp;
    fn prep_enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull>;
    fn exec_enqueue(&self, h: ThreadHandle);
    fn prep_dequeue(&self, h: ThreadHandle);
    fn exec_dequeue(&self, h: ThreadHandle) -> QueueResp;
    fn resolve(&self, h: ThreadHandle) -> Resolved;
    fn snapshot_values(&self) -> Vec<u64>;
    fn recover(&self) -> Vec<ThreadHandle>;
    fn recover_one(&self, h: ThreadHandle);
    fn rebuild_allocator(&self);
}

macro_rules! impl_queue_layer {
    ($ty:ty, plain_is_detectable = $plain_det:literal) => {
        impl QueueLayer for $ty {
            const PLAIN_IS_DETECTABLE: bool = $plain_det;
            fn build(threads: usize, nodes: u64, granularity: FlushGranularity) -> Self {
                <$ty>::new_in(threads, nodes, granularity)
            }
            fn create_file(path: &Path, granularity: FlushGranularity) -> Self {
                <$ty>::create_with(path, 1, 8, granularity).expect("creating the pool")
            }
            fn attach_file(path: &Path) -> Self {
                <$ty>::attach(path).expect("attaching the dead process's pool file")
            }
            fn enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
                <$ty>::enqueue(self, h, val)
            }
            fn dequeue(&self, h: ThreadHandle) -> QueueResp {
                <$ty>::dequeue(self, h)
            }
            fn prep_enqueue(&self, h: ThreadHandle, val: u64) -> Result<(), QueueFull> {
                <$ty>::prep_enqueue(self, h, val)
            }
            fn exec_enqueue(&self, h: ThreadHandle) {
                <$ty>::exec_enqueue(self, h)
            }
            fn prep_dequeue(&self, h: ThreadHandle) {
                <$ty>::prep_dequeue(self, h)
            }
            fn exec_dequeue(&self, h: ThreadHandle) -> QueueResp {
                <$ty>::exec_dequeue(self, h)
            }
            fn resolve(&self, h: ThreadHandle) -> Resolved {
                <$ty>::resolve(self, h)
            }
            fn snapshot_values(&self) -> Vec<u64> {
                <$ty>::snapshot_values(self)
            }
            fn recover(&self) -> Vec<ThreadHandle> {
                <$ty>::recover(self)
            }
            fn recover_one(&self, h: ThreadHandle) {
                <$ty>::recover_one(self, h)
            }
            fn rebuild_allocator(&self) {
                <$ty>::rebuild_allocator(self)
            }
        }
    };
}

impl_queue_layer!(DssQueue, plain_is_detectable = false);
impl_queue_layer!(ReplicatedQueue, plain_is_detectable = true);

/// A structure the crash drivers can sweep, crash mid-workload, and
/// validate: everything a driver needs beyond the shared crash/recover
/// skeleton (also used by [`crate::record`]). The pool and the slot API
/// come from the detectability core every target dereferences to.
pub(crate) trait CrashTarget:
    Sync + Sized + Deref<Target = DetectableCore<PmemPool>>
{
    /// The operations a single-victim sweep interrupts.
    type Victim: Copy + fmt::Display + 'static;
    /// What `resolve` reports.
    type Resolution;
    /// One worker's surviving bookkeeping from a concurrent crash run.
    type Journal: Default + Send;
    /// Every sweep victim, in report order.
    const VICTIMS: &'static [Self::Victim];
    /// A fresh anonymous-pool instance. `buckets` sizes the map's initial
    /// table; the queues ignore it.
    fn build(threads: usize, nodes: u64, buckets: u64, granularity: FlushGranularity) -> Self;
    /// A fresh one-thread instance on a pool file (a multi-process victim).
    fn create_file(path: &Path, granularity: FlushGranularity) -> Self;
    /// The instance a dead process left in a pool file.
    fn attach_file(path: &Path) -> Self;
    fn resolve(&self, h: ThreadHandle) -> Self::Resolution;
    /// The centralized full-restart recovery; returns the adopted slots.
    fn recover(&self) -> Vec<ThreadHandle>;
    /// The independent per-slot repair of `h`'s detectability state.
    fn recover_one(&self, h: ThreadHandle);
    fn rebuild_allocator(&self);
    /// Brings a fresh instance into the state `op` expects.
    fn prefill(&self, h: ThreadHandle, op: Self::Victim);
    /// Runs the detectable pair `op` names.
    fn run_victim(&self, h: ThreadHandle, op: Self::Victim);
    /// Classifies `resolved` into `out` and counts a violation if it is
    /// inconsistent with the persisted state.
    fn classify(&self, op: Self::Victim, resolved: Self::Resolution, out: &mut SweepOutcome);
    /// Worker `tid`'s detectable workload, journaling confirmed effects;
    /// runs until its armed crash fires.
    fn work(&self, tid: usize, h: ThreadHandle, seed: u64, journal: &mut Self::Journal);
    /// Checks the recovered state against every worker's journal plus
    /// `resolve`'s verdict on its in-flight operation. Returns the number
    /// of surviving values (queued values, or live bindings).
    ///
    /// # Errors
    ///
    /// A description of the violated invariant.
    fn check_conservation(
        &self,
        hs: &[ThreadHandle],
        journals: &[Self::Journal],
    ) -> Result<usize, String>;
}

/// The value a sweep's dequeue victim finds prefilled.
const QUEUE_OLD: u64 = 7;
/// The value a sweep's enqueue victim writes.
const QUEUE_NEW: u64 = 42;

impl<Q: QueueLayer> CrashTarget for Q {
    type Victim = VictimOp;
    type Resolution = Resolved;
    /// Values the worker enqueued and values it dequeued.
    type Journal = (Vec<u64>, Vec<u64>);
    const VICTIMS: &'static [VictimOp] =
        &[VictimOp::Enqueue, VictimOp::Dequeue, VictimOp::EmptyDequeue];

    fn build(threads: usize, nodes: u64, _buckets: u64, granularity: FlushGranularity) -> Self {
        Q::build(threads, nodes, granularity)
    }
    fn create_file(path: &Path, granularity: FlushGranularity) -> Self {
        Q::create_file(path, granularity)
    }
    fn attach_file(path: &Path) -> Self {
        Q::attach_file(path)
    }
    fn resolve(&self, h: ThreadHandle) -> Resolved {
        QueueLayer::resolve(self, h)
    }
    fn recover(&self) -> Vec<ThreadHandle> {
        QueueLayer::recover(self)
    }
    fn recover_one(&self, h: ThreadHandle) {
        QueueLayer::recover_one(self, h)
    }
    fn rebuild_allocator(&self) {
        QueueLayer::rebuild_allocator(self)
    }

    fn prefill(&self, h: ThreadHandle, op: VictimOp) {
        if op == VictimOp::Dequeue {
            self.enqueue(h, QUEUE_OLD).unwrap();
        }
    }

    fn run_victim(&self, h: ThreadHandle, op: VictimOp) {
        match op {
            VictimOp::Enqueue => {
                self.prep_enqueue(h, QUEUE_NEW).unwrap();
                self.exec_enqueue(h);
            }
            VictimOp::Dequeue | VictimOp::EmptyDequeue => {
                self.prep_dequeue(h);
                let _ = self.exec_dequeue(h);
            }
        }
    }

    fn classify(&self, op: VictimOp, resolved: Resolved, out: &mut SweepOutcome) {
        let snapshot = self.snapshot_values();
        let consistent = match (op, resolved) {
            (_, Resolved { op: None, resp: None }) => {
                out.not_prepared += 1;
                // No prepared op: the victim op must not have taken effect.
                match op {
                    VictimOp::Enqueue => snapshot.is_empty(),
                    VictimOp::Dequeue => snapshot == [QUEUE_OLD],
                    VictimOp::EmptyDequeue => snapshot.is_empty(),
                }
            }
            (VictimOp::Enqueue, Resolved { op: Some(ResolvedOp::Enqueue(QUEUE_NEW)), resp }) => {
                match resp {
                    Some(QueueResp::Ok) => {
                        out.effect += 1;
                        snapshot == [QUEUE_NEW]
                    }
                    None => {
                        out.no_effect += 1;
                        snapshot.is_empty()
                    }
                    _ => false,
                }
            }
            (
                VictimOp::Dequeue,
                Resolved { op: Some(ResolvedOp::Enqueue(QUEUE_OLD)), resp: Some(QueueResp::Ok) },
            ) => {
                // The dequeue announce never persisted, so resolve correctly
                // reports the *prefill* enqueue. Only reachable on the
                // replicated layer, whose prefill is necessarily detectable
                // (no non-detectable path exists); the CAS-racing sweeps
                // prefill non-detectably and land in the (None, None) arm.
                out.not_prepared += 1;
                snapshot == [QUEUE_OLD]
            }
            (VictimOp::Dequeue, Resolved { op: Some(ResolvedOp::Dequeue), resp }) => match resp {
                Some(QueueResp::Value(QUEUE_OLD)) => {
                    out.effect += 1;
                    snapshot.is_empty()
                }
                None => {
                    out.no_effect += 1;
                    snapshot == [QUEUE_OLD]
                }
                _ => false,
            },
            (VictimOp::EmptyDequeue, Resolved { op: Some(ResolvedOp::Dequeue), resp }) => {
                match resp {
                    Some(QueueResp::Empty) => {
                        out.effect += 1;
                        snapshot.is_empty()
                    }
                    None => {
                        out.no_effect += 1;
                        snapshot.is_empty()
                    }
                    _ => false,
                }
            }
            _ => false,
        };
        if !consistent {
            out.violations += 1;
        }
    }

    fn work(&self, tid: usize, h: ThreadHandle, _seed: u64, journal: &mut Self::Journal) {
        let (enqueued, dequeued) = journal;
        for i in 1..u64::MAX {
            let v = ((tid as u64) << 32) | i;
            self.prep_enqueue(h, v).unwrap();
            self.exec_enqueue(h);
            enqueued.push(v);
            self.prep_dequeue(h);
            if let QueueResp::Value(x) = self.exec_dequeue(h) {
                dequeued.push(x);
            }
        }
    }

    /// Every effective enqueue's value is dequeued at most once and is
    /// otherwise still queued.
    fn check_conservation(
        &self,
        hs: &[ThreadHandle],
        journals: &[Self::Journal],
    ) -> Result<usize, String> {
        use std::collections::HashSet;

        // Resolution: complete each thread's bookkeeping using resolve. A
        // pre-crash handle still names its slot even after adoption, so
        // dead threads' announcements are readable here too.
        let mut effective_enqueues: HashSet<u64> = HashSet::new();
        let mut effective_dequeues: HashSet<u64> = HashSet::new();
        for (&h, (enqueued, dequeued)) in hs.iter().zip(journals.iter()) {
            effective_enqueues.extend(enqueued.iter().copied());
            effective_dequeues.extend(dequeued.iter().copied());
            match QueueLayer::resolve(self, h) {
                Resolved { op: Some(ResolvedOp::Enqueue(v)), resp: Some(QueueResp::Ok) } => {
                    effective_enqueues.insert(v);
                }
                Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(QueueResp::Value(v)) } => {
                    effective_dequeues.insert(v);
                }
                _ => {}
            }
        }

        let remaining: HashSet<u64> = self.snapshot_values().into_iter().collect();
        for v in &effective_dequeues {
            if !effective_enqueues.contains(v) {
                return Err(format!("dequeued value {v:#x} was never effectively enqueued"));
            }
            if remaining.contains(v) {
                return Err(format!("value {v:#x} both dequeued and still queued"));
            }
        }
        for v in &remaining {
            if !effective_enqueues.contains(v) {
                return Err(format!("queued value {v:#x} was never effectively enqueued"));
            }
        }
        for v in &effective_enqueues {
            if !remaining.contains(v) && !effective_dequeues.contains(v) {
                return Err(format!("effective enqueue {v:#x} vanished"));
            }
        }
        Ok(remaining.len())
    }
}

/// The key every single-victim map sweep operates on.
const MAP_KEY: u64 = 7;
/// The prefill value bound to [`MAP_KEY`] before update/remove victims.
const MAP_OLD: u64 = 7;
/// The value the insert/update victims write.
const MAP_NEW: u64 = 42;
/// The §2.1 sequence tag the victim's prep carries.
const MAP_SEQ: u64 = 1;
/// Number of keys each map worker cycles through (disjoint per thread, so
/// the post-crash bindings are exactly determined).
const MAP_KEYS_PER_THREAD: u64 = 8;

impl CrashTarget for DetectableMap {
    type Victim = MapVictimOp;
    type Resolution = ResolvedMap;
    /// Confirmed ops in order as `(key, binding-after)` (`None` =
    /// removed), and the op in flight at the crash as
    /// `(seq, key, binding-after)`.
    type Journal = (Vec<(u64, Option<u64>)>, Option<(u64, u64, Option<u64>)>);
    const VICTIMS: &'static [MapVictimOp] =
        &[MapVictimOp::Insert, MapVictimOp::Update, MapVictimOp::Remove, MapVictimOp::RemoveAbsent];

    fn build(threads: usize, nodes: u64, buckets: u64, granularity: FlushGranularity) -> Self {
        DetectableMap::new_in(threads, nodes, buckets, granularity)
    }
    fn create_file(path: &Path, granularity: FlushGranularity) -> Self {
        DetectableMap::create_with(path, 1, 8, 8, granularity).expect("creating the pool")
    }
    fn attach_file(path: &Path) -> Self {
        DetectableMap::attach(path).expect("attaching the dead process's pool file")
    }
    fn resolve(&self, h: ThreadHandle) -> ResolvedMap {
        DetectableMap::resolve(self, h)
    }
    /// The full-restart protocol: mark the boundary, adopt the orphaned
    /// slots. No repair happens — the map has none.
    fn recover(&self) -> Vec<ThreadHandle> {
        self.begin_recovery();
        self.adopt_orphans()
    }
    /// Nothing to repair: `resolve` answers from persisted state alone.
    fn recover_one(&self, _h: ThreadHandle) {}
    fn rebuild_allocator(&self) {
        DetectableMap::rebuild_allocator(self)
    }

    fn prefill(&self, h: ThreadHandle, op: MapVictimOp) {
        if matches!(op, MapVictimOp::Update | MapVictimOp::Remove) {
            let _ = self.put(h, MAP_KEY, MAP_OLD); // plain: leaves X alone (Axiom 4)
        }
    }

    fn run_victim(&self, h: ThreadHandle, op: MapVictimOp) {
        match op {
            MapVictimOp::Insert | MapVictimOp::Update => {
                self.prep_put(h, MAP_KEY, MAP_NEW, MAP_SEQ);
                let _ = self.exec_put(h);
            }
            MapVictimOp::Remove | MapVictimOp::RemoveAbsent => {
                self.prep_remove(h, MAP_KEY, MAP_SEQ);
                let _ = self.exec_remove(h);
            }
        }
    }

    fn classify(&self, op: MapVictimOp, resolved: ResolvedMap, out: &mut SweepOutcome) {
        let bound = self.snapshot().get(&MAP_KEY).copied();
        // The binding a no-effect (or not-prepared) outcome must leave.
        let old = match op {
            MapVictimOp::Update | MapVictimOp::Remove => Some(MAP_OLD),
            MapVictimOp::Insert | MapVictimOp::RemoveAbsent => None,
        };
        let expected_op = match op {
            MapVictimOp::Insert | MapVictimOp::Update => KvOp::Put(MAP_NEW),
            MapVictimOp::Remove | MapVictimOp::RemoveAbsent => KvOp::Remove,
        };
        let consistent = match resolved {
            ResolvedMap { op: None, resp: None } => {
                out.not_prepared += 1;
                bound == old
            }
            ResolvedMap { op: Some((MAP_KEY, vop, MAP_SEQ)), resp } if vop == expected_op => {
                match resp {
                    Some(KvResp::Ok) => {
                        out.effect += 1;
                        match op {
                            MapVictimOp::Insert | MapVictimOp::Update => bound == Some(MAP_NEW),
                            MapVictimOp::Remove | MapVictimOp::RemoveAbsent => bound.is_none(),
                        }
                    }
                    None => {
                        out.no_effect += 1;
                        bound == old
                    }
                    Some(_) => false,
                }
            }
            _ => false,
        };
        if !consistent {
            out.violations += 1;
        }
    }

    /// Detectable puts and removes over the worker's own key range.
    fn work(&self, tid: usize, h: ThreadHandle, seed: u64, journal: &mut Self::Journal) {
        let (confirmed, in_flight) = journal;
        let mut next = rng(tid, seed);
        for i in 1..u64::MAX {
            let key = ((tid as u64) << 32) | (next() % MAP_KEYS_PER_THREAD);
            if next().is_multiple_of(4) {
                *in_flight = Some((i, key, None));
                self.prep_remove(h, key, i);
                let _ = self.exec_remove(h);
                confirmed.push((key, None));
            } else {
                let v = ((tid as u64) << 32) | i;
                *in_flight = Some((i, key, Some(v)));
                self.prep_put(h, key, v, i);
                let _ = self.exec_put(h);
                confirmed.push((key, Some(v)));
            }
            *in_flight = None;
        }
    }

    /// The post-crash bindings are *exactly* the journals' expectation.
    /// Per-thread key ranges are disjoint and each thread's ops are
    /// sequential, so the final binding of every key is fully determined
    /// by the confirmed journal plus `resolve`'s verdict on the in-flight
    /// op.
    fn check_conservation(
        &self,
        hs: &[ThreadHandle],
        journals: &[Self::Journal],
    ) -> Result<usize, String> {
        use std::collections::BTreeMap;

        let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
        for (&h, (confirmed, in_flight)) in hs.iter().zip(journals.iter()) {
            let mut local: BTreeMap<u64, Option<u64>> = BTreeMap::new();
            for &(key, after) in confirmed {
                local.insert(key, after);
            }
            if let Some((seq, key, after)) = in_flight {
                // resolve reports the slot's last *persisted* prep; if that
                // is the in-flight op (matched by its unique seq tag), its
                // resp decides the key's fate. Otherwise the in-flight
                // announce never persisted, so the op cannot have taken
                // effect.
                let r = DetectableMap::resolve(self, h);
                match r.op {
                    Some((k2, _, s2)) if s2 == *seq && k2 == *key && r.resp.is_some() => {
                        local.insert(*key, *after);
                    }
                    _ => {}
                }
            }
            for (key, after) in local {
                if let Some(v) = after {
                    expected.insert(key, v);
                } else {
                    expected.remove(&key);
                }
            }
        }

        let snapshot = self.snapshot();
        if snapshot != expected {
            for (k, v) in &snapshot {
                match expected.get(k) {
                    Some(e) if e == v => {}
                    Some(e) => return Err(format!("key {k:#x}: bound to {v:#x}, expected {e:#x}")),
                    None => return Err(format!("key {k:#x}: bound to {v:#x}, expected absent")),
                }
            }
            for (k, e) in &expected {
                if !snapshot.contains_key(k) {
                    return Err(format!("key {k:#x}: absent, expected {e:#x}"));
                }
            }
            return Err("snapshot != expected (key sets differ)".into());
        }
        Ok(snapshot.len())
    }
}

/// A seeded xorshift stream, one per worker.
pub(crate) fn rng(tid: usize, seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(tid as u64 + 1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Sweeps every crash point of every victim operation of `config.layer`,
/// classifying each resolution and checking it against the persisted
/// state. Returns one `(victim, outcome)` row per operation.
pub fn sweep(config: &SweepConfig) -> Vec<(String, SweepOutcome)> {
    dispatch!(config.layer, T => sweep_on::<T>(config))
}

fn sweep_on<T: CrashTarget>(config: &SweepConfig) -> Vec<(String, SweepOutcome)> {
    T::VICTIMS
        .iter()
        .map(|&op| {
            let mut out = SweepOutcome::default();
            for k in 1.. {
                let q = T::build(1, 8, 8, config.granularity);
                if !sweep_point(&q, op, config, k, &mut out) {
                    break; // the operation completed before reaching k
                }
            }
            (op.to_string(), out)
        })
        .collect()
}

/// One crash point of a sweep on a fresh instance; returns whether the
/// armed crash fired (false ends the sweep).
fn sweep_point<T: CrashTarget>(
    q: &T,
    op: T::Victim,
    config: &SweepConfig,
    k: u64,
    out: &mut SweepOutcome,
) -> bool {
    let h0 = q.register_thread().unwrap();
    q.pool().set_coalescing(config.coalesce);
    q.pool().set_per_address_drains(config.per_address);
    q.prefill(h0, op);
    if !q.pool().crashes_within(k, || q.run_victim(h0, op)) {
        return false;
    }
    out.crash_points += 1;
    q.pool().crash(&config.adversary);
    if config.independent_recovery {
        // §3.3: the surviving thread repairs only its own slot — no
        // registry transition, no centralized phase. (On the replicated
        // layer, the boundary must still be marked so a dead appender's
        // lease becomes provably stale.)
        if config.layer.is_leased() {
            q.begin_recovery();
        }
        q.recover_one(h0);
    } else {
        q.recover();
    }
    q.rebuild_allocator();
    q.classify(op, q.resolve(h0), out);
    true
}

/// A multi-threaded crash test: `threads` workers run detectable
/// operations on `layer` (queue enqueue/dequeue pairs, or map puts and
/// removes over disjoint per-thread key ranges); each is armed to crash
/// after a pseudo-randomly chosen number of pmem operations; after all
/// have crashed, the pool crashes, full-restart recovery and resolution
/// run, and the conservation invariant is checked: on a queue, every
/// effective enqueue's value is dequeued at most once and is otherwise
/// still queued; on the map, every key's binding is exactly the last
/// confirmed write, amended by the in-flight op iff `resolve` reports it
/// took effect. On the replicated layer the armed crashes land inside
/// batches and waiter park loops (waiters step their countdowns through
/// the instrumented lease probe, so every worker still crashes).
///
/// Returns the number of surviving values (queued, or bound) on success.
///
/// # Errors
///
/// Returns a description of the violated invariant.
pub fn concurrent_crash_run(layer: Layer, threads: usize, seed: u64) -> Result<usize, String> {
    dispatch!(layer, T => crash_run::<T>(threads, None, seed))
}

/// Like [`concurrent_crash_run`], but only `survivors` of the `threads`
/// workers restart after the crash (§3.3 / the partial-recovery crash
/// mode):
///
/// 1. Each survivor marks the crash boundary (idempotent), re-adopts its
///    *own* registry slot, and repairs its own detectability word — no
///    centralized phase.
/// 2. Survivor 0 then plays adopter: `adopt_orphans` reclaims every dead
///    thread's slot (inheriting its EBR state) and the per-slot repair
///    resolves each slot's pending operation.
///
/// The conservation invariant is then checked over **all** threads'
/// bookkeeping, dead ones included — their announced ops are read through
/// the adopted slots. On the replicated layer a holder killed mid-batch whose
/// slot is never re-adopted by its own thread leaves a lease only the
/// survivors' staleness steal can reclaim.
///
/// # Errors
///
/// Returns a description of the violated invariant.
///
/// # Panics
///
/// Panics if `survivors` is zero or exceeds `threads`.
pub fn partial_recovery_crash_run(
    layer: Layer,
    threads: usize,
    survivors: usize,
    seed: u64,
) -> Result<usize, String> {
    assert!(survivors >= 1 && survivors <= threads, "need 1..=threads survivors");
    dispatch!(layer, T => crash_run::<T>(threads, Some(survivors), seed))
}

/// The shared crash run: workers crash at seed-derived points, the pool
/// crashes, recovery runs — centralized, or the §3.3 partial restart of
/// `survivors` — and the recovered state is checked against the journals.
fn crash_run<T: CrashTarget>(
    threads: usize,
    survivors: Option<usize>,
    seed: u64,
) -> Result<usize, String> {
    let q = T::build(threads, 256, 16, FlushGranularity::Line);
    let hs: Vec<ThreadHandle> = (0..threads).map(|_| q.register_thread().unwrap()).collect();
    let journals = run_workers_until_crash(&q, &hs, seed);
    q.pool().crash(&WritebackAdversary::Random { seed, prob: 0.5 });
    match survivors {
        // Full-restart recovery (adopts every slot).
        None => {
            q.recover();
        }
        Some(survivors) => {
            let adopted = restart_survivors(&q, &hs, survivors)?;
            if adopted != threads - survivors {
                return Err(format!("expected {} orphans, adopted {adopted}", threads - survivors));
            }
        }
    }
    q.rebuild_allocator();
    q.check_conservation(&hs, &journals)
}

/// The §3.3 partial restart: the first `survivors` of `hs` come back one
/// by one, each marking the boundary, re-adopting its own slot and
/// repairing it; then one of them adopts and repairs every slot nobody
/// came back for. Returns the number of slots so adopted.
pub(crate) fn restart_survivors<T: CrashTarget>(
    q: &T,
    hs: &[ThreadHandle],
    survivors: usize,
) -> Result<usize, String> {
    for h in hs.iter().take(survivors) {
        q.begin_recovery();
        let mine = q.adopt(h.slot()).map_err(|e| format!("re-adopting own slot: {e}"))?;
        q.recover_one(mine);
    }
    let adopted = q.adopt_orphans();
    for &h in &adopted {
        q.recover_one(h);
    }
    Ok(adopted.len())
}

/// Runs worker `tid`'s [`CrashTarget::work`] per handle until each hits
/// its pseudo-randomly armed crash point.
fn run_workers_until_crash<T: CrashTarget>(
    q: &T,
    hs: &[ThreadHandle],
    seed: u64,
) -> Vec<T::Journal> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = hs
            .iter()
            .enumerate()
            .map(|(tid, &h)| {
                scope.spawn(move || {
                    // Deterministic per-thread crash point derived from the seed.
                    let crash_after =
                        20 + (seed.wrapping_mul(2654435761).wrapping_add(tid as u64 * 97)) % 400;
                    let mut journal = T::Journal::default();
                    let crashed = q.pool().crashes_within(crash_after, || {
                        q.work(tid, h, seed, &mut journal);
                    });
                    assert!(crashed, "the workload only ends by crashing");
                    journal
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The argv sentinel that dispatches a binary into the child role of a
/// multi-process crash run. Binaries that call [`multi_process_sweep`]
/// with their own path must check for it **before** ordinary flag parsing
/// and hand the remaining arguments to [`multi_process_child`].
pub const MP_CHILD_FLAG: &str = "--mp-child";

/// The child (victim) side of a multi-process crash run: creates a
/// file-backed instance of the layer at the given path, runs the victim
/// operation with a crash armed after `k` pmem operations, and then
/// *parks* so the parent can SIGKILL it. Nothing is drained or handed over
/// on the way out — whatever the operation had not yet written back dies
/// with the process, which is the whole point.
///
/// `args` is the argv tail after [`MP_CHILD_FLAG`]:
/// `<pool-path> <op> <k> <granularity> <coalesce> <per-address> <layer>`,
/// where `<layer>` is a [`Layer`] name and `<op>` one of its victims.
///
/// Never returns: exits 0 after printing `DONE` when the operation
/// completes before reaching `k`, parks forever after printing `READY`
/// when the armed crash fired.
///
/// # Panics
///
/// Panics on malformed arguments or an I/O failure creating the pool.
pub fn multi_process_child(args: &[String]) -> ! {
    let [path, op, k, granularity, coalesce, per_address, layer] = args else {
        panic!(
            "{MP_CHILD_FLAG} <pool-path> <op> <k> <granularity> <coalesce> <per-address> <layer>"
        );
    };
    let k: u64 = k.parse().expect("crash index must be a u64");
    let granularity = FlushGranularity::parse(granularity).expect("the parent names a granularity");
    let layer = Layer::parse(layer).expect("the parent names a layer");
    let (path, coalesce, per_address) = (Path::new(path), coalesce == "on", per_address == "on");
    dispatch!(layer, T => multi_process_victim::<T>(path, op, k, granularity, coalesce,
        per_address))
}

fn multi_process_victim<T: CrashTarget>(
    path: &Path,
    op: &str,
    k: u64,
    granularity: FlushGranularity,
    coalesce: bool,
    per_address: bool,
) -> ! {
    let q = &T::create_file(path, granularity);
    let op = *T::VICTIMS
        .iter()
        .find(|v| v.to_string() == op)
        .unwrap_or_else(|| panic!("unknown victim op {op:?}"));
    q.pool().set_coalescing(coalesce);
    q.pool().set_per_address_drains(per_address);
    let h0 = q.register_thread().unwrap();
    q.prefill(h0, op);
    // The CrashSignal unwind is this process's expected exit path; keep
    // its panic report off the parent's terminal.
    std::panic::set_hook(Box::new(|_| {}));
    if !q.pool().crashes_within(k, || q.run_victim(h0, op)) {
        println!("DONE");
        std::io::stdout().flush().unwrap();
        std::process::exit(0);
    }
    println!("READY");
    std::io::stdout().flush().unwrap();
    // Park until the parent SIGKILLs us. The un-written-back tail of the
    // victim operation is still only in this process's DRAM; the kill, not
    // a simulated crash(), destroys it.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Removes the pool file on scope exit, kill paths included.
struct PoolFileGuard(PathBuf);

impl Drop for PoolFileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Sweeps every crash point of every victim of `config.layer` with a
/// **real process boundary**: for each `k`, `exe` (a binary handling
/// [`MP_CHILD_FLAG`], normally `std::env::current_exe()`) is spawned as a
/// child that creates a file-backed instance and runs the victim with a
/// crash armed at `k`; once the child reports the crash fired, the parent
/// SIGKILLs it, attaches the pool file from scratch, runs the Figure-6
/// adopt-then-resolve recovery, and validates `resolve`'s answer against
/// the persisted state. Returns one `(victim, outcome)` row per operation.
///
/// `config.granularity`, `config.coalesce`, `config.per_address` and
/// `config.layer` are forwarded to the child (the replicated layer's pool
/// is attached with its own `attach`, which also clears the dead
/// appender's lease); `config.adversary` and
/// `config.independent_recovery` are ignored — SIGKILL *is* the adversary
/// (nothing pending survives it, like [`WritebackAdversary::None`]), and
/// recovery is always the centralized attach-then-adopt path a fresh
/// process must take.
///
/// # Panics
///
/// Panics if a child cannot be spawned, exits abnormally, or leaves a
/// pool file the parent cannot attach; and on the first detectability
/// violation (`SweepOutcome::violations` is always 0 on return).
pub fn multi_process_sweep(config: &SweepConfig, exe: &Path) -> Vec<(String, SweepOutcome)> {
    dispatch!(config.layer, T => T::VICTIMS
        .iter()
        .map(|&op| (op.to_string(), multi_process_sweep_op::<T>(op, config, exe)))
        .collect())
}

fn multi_process_sweep_op<T: CrashTarget>(
    op: T::Victim,
    config: &SweepConfig,
    exe: &Path,
) -> SweepOutcome {
    let mut out = SweepOutcome::default();
    let onoff = |b| if b { "on" } else { "off" };
    for k in 1.. {
        let path = std::env::temp_dir().join(format!(
            "dss-mp-{}-{}-{op}-{k}.pool",
            config.layer,
            std::process::id()
        ));
        let _guard = PoolFileGuard(path.clone());
        let mut child = Command::new(exe)
            .arg(MP_CHILD_FLAG)
            .arg(&path)
            .arg(op.to_string())
            .arg(k.to_string())
            .arg(config.granularity.name())
            .arg(onoff(config.coalesce))
            .arg(onoff(config.per_address))
            .arg(config.layer.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawning the victim child process");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("child stdout is piped"))
            .read_line(&mut line)
            .expect("reading the child's handshake line");
        match line.trim() {
            "READY" => {
                // The armed crash fired; the child is parked. Kill it for
                // real — on Unix this is SIGKILL, no drop glue runs.
                child.kill().expect("killing the parked child");
                let _ = child.wait();
            }
            "DONE" => {
                // The operation completed before reaching k: past the last
                // crash point, the sweep is over.
                let _ = child.wait();
                break;
            }
            other => panic!("unexpected child handshake {other:?} (crashed early?)"),
        }
        out.crash_points += 1;
        // A fresh "process": nothing carried over but the file's path.
        let q = T::attach_file(&path);
        let adopted = q.recover();
        assert_eq!(adopted.len(), 1, "the dead process's slot must be orphaned");
        q.rebuild_allocator();
        q.classify(op, q.resolve(adopted[0]), &mut out);
        assert_eq!(out.violations, 0, "multi-process {op} crash at k={k} resolved inconsistently");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYERS: [Layer; 3] = [Layer::Cas, Layer::Replicated, Layer::Map];

    #[test]
    fn layer_names_round_trip() {
        for layer in LAYERS {
            assert_eq!(Layer::parse(&layer.to_string()), Ok(layer));
        }
        assert_eq!(Layer::parse("quantum"), Err("expected cas|replicated|map".into()));
    }

    #[test]
    fn sweeps_have_no_violations_under_default_config() {
        for layer in LAYERS {
            for (op, out) in sweep(&SweepConfig { layer, ..Default::default() }) {
                assert!(out.crash_points > 0, "{layer} {op}: no crash points?");
                assert_eq!(out.violations, 0, "{layer} {op}: {out:?}");
            }
        }
    }

    #[test]
    fn sweeps_have_no_violations_under_adversaries_and_granularities() {
        // Every crash point — appender death between the announce's
        // ordering points, before and after the batch persist and around
        // the committed-seq publish included — across flush modes and both
        // recovery styles.
        for layer in LAYERS {
            for adversary in
                [WritebackAdversary::All, WritebackAdversary::Random { seed: 5, prob: 0.3 }]
            {
                for granularity in [FlushGranularity::Line, FlushGranularity::Word] {
                    for independent_recovery in [false, true] {
                        for (coalesce, per_address) in [(false, false), (true, false), (true, true)]
                        {
                            let config = SweepConfig {
                                adversary: adversary.clone(),
                                granularity,
                                independent_recovery,
                                coalesce,
                                per_address,
                                layer,
                            };
                            for (op, out) in sweep(&config) {
                                assert_eq!(out.violations, 0, "{op} under {config:?}: {out:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sweeps_observe_every_outcome_class() {
        // Across all crash points of an enqueue (insert) with a permissive
        // adversary, every reachable Figure 2 class occurs at least once.
        for layer in LAYERS {
            let config =
                SweepConfig { adversary: WritebackAdversary::All, layer, ..Default::default() };
            let (op, out) = sweep(&config).swap_remove(0);
            assert!(out.not_prepared > 0, "{layer} {op}: {out:?}");
            assert!(out.effect > 0, "{layer} {op}: {out:?}");
            if layer == Layer::Map {
                assert!(out.no_effect > 0, "{layer} {op}: {out:?}");
            }
        }
    }

    #[test]
    fn concurrent_crash_runs_conserve_values() {
        for layer in LAYERS {
            for seed in 0..8 {
                concurrent_crash_run(layer, 3, seed)
                    .unwrap_or_else(|e| panic!("{layer} seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn partial_recovery_runs_conserve_values() {
        for layer in LAYERS {
            for seed in 0..4 {
                for survivors in [1, 2] {
                    partial_recovery_crash_run(layer, 3, survivors, seed).unwrap_or_else(|e| {
                        panic!("{layer} seed {seed} survivors {survivors}: {e}")
                    });
                }
            }
        }
    }
}
