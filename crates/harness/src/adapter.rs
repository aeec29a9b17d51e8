//! A single interface over every queue in the evaluation.
//!
//! Two axes select an implementation under test:
//!
//! * [`QueueKind`] — *which algorithm* (the queues of Figures 5a/5b);
//! * [`Backend`] — *which memory* ([`PmemPool`] simulator or
//!   [`DramPool`] plain atomics, experiment E8's ablation axis).
//!
//! [`QueueKind::build`] keeps the historical pmem-only behaviour;
//! [`QueueKind::build_on`] picks the backend explicitly.

use std::fmt::Debug;

use dss_baselines::{DurableQueue, LogQueue, MsQueue};
use dss_core::{DssQueue, ReplicatedQueue};
use dss_pmem::{DramPool, FlushGranularity, Memory, ObjectCore, PmemPool, ThreadHandle};
use dss_pmwcas::CasWithEffectQueue;
use dss_spec::types::QueueResp;

/// The queue implementations of the paper's Figures 5a and 5b.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum QueueKind {
    /// Michael–Scott queue (volatile; Figure 5a).
    Ms,
    /// DSS queue, operations applied non-detectably (Figure 5a).
    DssNonDetectable,
    /// DSS queue, operations applied detectably via prep/exec (both
    /// figures).
    DssDetectable,
    /// DSS queue under the replicated execution layer (E15): writes go
    /// through a leased appender into a durable op log; reads are served
    /// replica-locally from volatile log-fed replicas
    /// ([`QueueUnderTest::peek`]), with no flushes on the read path (a
    /// read does lock its replica's `Mutex`).
    DssReplicated,
    /// Friedman et al.'s durable queue (recoverable, not detectable).
    Durable,
    /// Friedman et al.'s log queue (detectable; Figure 5b).
    Log,
    /// General CASWithEffect queue over PMwCAS (Figure 5b).
    CweGeneral,
    /// Fast CASWithEffect queue over PMwCAS (Figure 5b).
    CweFast,
}

/// The memory backend a queue under test runs on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Backend {
    /// The crash-testable persistent-memory simulator ([`PmemPool`]).
    #[default]
    Pmem,
    /// Plain DRAM atomics ([`DramPool`]): no shadow state, no stats, and
    /// flush/fence are no-ops.
    Dram,
}

impl Backend {
    /// The label used in tables and flags (`pmem`/`dram`).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Pmem => "pmem",
            Backend::Dram => "dram",
        }
    }

    /// Parses a `--backend` flag value.
    ///
    /// # Panics
    ///
    /// Panics with a usage hint on anything but `pmem`/`dram`.
    pub fn parse(s: &str) -> Backend {
        match s {
            "pmem" => Backend::Pmem,
            "dram" => Backend::Dram,
            b => panic!("unknown backend {b} (pmem|dram)"),
        }
    }

    /// Both backends, in flag order.
    pub fn all() -> [Backend; 2] {
        [Backend::Pmem, Backend::Dram]
    }
}

impl QueueKind {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Ms => "MS queue",
            QueueKind::DssNonDetectable => "DSS queue non-detectable",
            QueueKind::DssDetectable => "DSS queue detectable",
            QueueKind::DssReplicated => "DSS queue replicated",
            QueueKind::Durable => "Durable queue",
            QueueKind::Log => "Log queue",
            QueueKind::CweGeneral => "General CASWithEffect queue",
            QueueKind::CweFast => "Fast CASWithEffect queue",
        }
    }

    /// Builds the queue for `nthreads` threads with `nodes_per_thread`
    /// pre-allocated nodes each, on the default [`Backend::Pmem`].
    pub fn build(self, nthreads: usize, nodes_per_thread: u64) -> Box<dyn QueueUnderTest> {
        self.build_on(Backend::Pmem, nthreads, nodes_per_thread)
    }

    /// Builds the queue on an explicit [`Backend`].
    pub fn build_on(
        self,
        backend: Backend,
        nthreads: usize,
        nodes_per_thread: u64,
    ) -> Box<dyn QueueUnderTest> {
        match backend {
            Backend::Pmem => self.build_in::<PmemPool>(nthreads, nodes_per_thread),
            Backend::Dram => self.build_in::<DramPool>(nthreads, nodes_per_thread),
        }
    }

    /// Builds the queue on a backend chosen at the type level.
    pub fn build_in<M: Memory>(
        self,
        nthreads: usize,
        nodes_per_thread: u64,
    ) -> Box<dyn QueueUnderTest> {
        match self {
            QueueKind::Ms => Box::new(MsQueue::<M>::new_in(nthreads, nodes_per_thread)),
            QueueKind::DssNonDetectable => Box::new(DssPlain(DssQueue::<M>::new_in(
                nthreads,
                nodes_per_thread,
                FlushGranularity::Line,
            ))),
            QueueKind::DssDetectable => Box::new(DssDet(DssQueue::<M>::new_in(
                nthreads,
                nodes_per_thread,
                FlushGranularity::Line,
            ))),
            QueueKind::DssReplicated => Box::new(DssRepl(ReplicatedQueue::<M>::new_in(
                nthreads,
                nodes_per_thread,
                FlushGranularity::Line,
            ))),
            QueueKind::Durable => Box::new(DurableQueue::<M>::new_in(nthreads, nodes_per_thread)),
            QueueKind::Log => Box::new(LogQueue::<M>::new_in(nthreads, nodes_per_thread)),
            QueueKind::CweGeneral => {
                Box::new(Cwe(CasWithEffectQueue::<M>::new_general_in(nthreads, nodes_per_thread)))
            }
            QueueKind::CweFast => {
                Box::new(Cwe(CasWithEffectQueue::<M>::new_fast_in(nthreads, nodes_per_thread)))
            }
        }
    }

    /// The queues of Figure 5a, in the paper's legend order.
    pub fn figure_5a() -> [QueueKind; 3] {
        [QueueKind::Ms, QueueKind::DssNonDetectable, QueueKind::DssDetectable]
    }

    /// The queues of Figure 5b, in the paper's legend order.
    pub fn figure_5b() -> [QueueKind; 4] {
        [QueueKind::DssDetectable, QueueKind::Log, QueueKind::CweFast, QueueKind::CweGeneral]
    }

    /// Every kind of the historical sweeps (E3/E9/E10 and the recorded
    /// tables keyed to them). [`DssReplicated`](Self::DssReplicated) is
    /// deliberately *not* here — it rides the contention benchmark
    /// ([`contention`](Self::contention)) so the older tables keep their
    /// row sets.
    pub fn all() -> [QueueKind; 7] {
        [
            QueueKind::Ms,
            QueueKind::DssNonDetectable,
            QueueKind::DssDetectable,
            QueueKind::Durable,
            QueueKind::Log,
            QueueKind::CweGeneral,
            QueueKind::CweFast,
        ]
    }

    /// The kinds of the contention benchmark: every historical kind plus
    /// the replicated execution layer, placed right after the CAS-racing
    /// detectable queue it is the alternative to.
    pub fn contention() -> [QueueKind; 8] {
        [
            QueueKind::Ms,
            QueueKind::DssNonDetectable,
            QueueKind::DssDetectable,
            QueueKind::DssReplicated,
            QueueKind::Durable,
            QueueKind::Log,
            QueueKind::CweGeneral,
            QueueKind::CweFast,
        ]
    }

    /// The kinds of the replication read-scaling benchmark (E15): the
    /// replicated layer against the CAS-racing detectable single instance
    /// whose reads walk the shared structure.
    pub fn replication() -> [QueueKind; 2] {
        [QueueKind::DssDetectable, QueueKind::DssReplicated]
    }

    /// Builds the queue with an explicit volatile replica count — the
    /// E15 replica axis of `benches/replication.rs`. Only
    /// [`DssReplicated`](Self::DssReplicated) has replicas (built on
    /// pmem); every other kind ignores the count and builds as
    /// [`build`](Self::build) would.
    pub fn build_with_replicas(
        self,
        nthreads: usize,
        nodes_per_thread: u64,
        nreplicas: usize,
    ) -> Box<dyn QueueUnderTest> {
        match self {
            QueueKind::DssReplicated => {
                Box::new(DssRepl(ReplicatedQueue::<PmemPool>::new_configured(
                    nthreads,
                    nodes_per_thread,
                    nreplicas.min(nthreads),
                    FlushGranularity::Line,
                )))
            }
            kind => kind.build(nthreads, nodes_per_thread),
        }
    }
}

/// A queue as the workload driver sees it: registration plus enqueue and
/// dequeue by [`ThreadHandle`], plus its memory backend as a `dyn`
/// [`Memory`] (flush penalty, coalescing, operation statistics) so a
/// driver never needs the concrete pool type.
///
/// Detectable implementations run their full prep/exec protocol inside
/// `enqueue`/`dequeue`, exactly as the paper's "detectable" series do.
pub trait QueueUnderTest: Send + Sync + Debug {
    /// Claims a thread slot from the queue's registry.
    ///
    /// # Panics
    ///
    /// Panics if all slots are taken (drivers size queues to their worker
    /// count and register each worker exactly once).
    fn register_thread(&self) -> ThreadHandle;

    /// Enqueues `val` on behalf of the handle's thread.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted (size the pools for the
    /// workload; the driver keeps queues short).
    fn enqueue(&self, h: ThreadHandle, val: u64);

    /// Dequeues on behalf of the handle's thread.
    fn dequeue(&self, h: ThreadHandle) -> QueueResp;

    /// Reads the front value without removing it — the E15 read probe.
    ///
    /// Only the kinds in [`QueueKind::replication`] implement it: the
    /// replicated layer answers from the caller's volatile replica after
    /// catching up to the visible seq under the replica's `Mutex`, and
    /// the CAS-racing detectable queue walks the shared persistent
    /// structure (the baseline a replica-local read is measured against).
    ///
    /// # Panics
    ///
    /// Panics for every other kind (the read-mix driver only runs the
    /// replication set).
    fn peek(&self, _h: ThreadHandle) -> Option<u64> {
        panic!("this queue kind has no read probe (peek)")
    }

    /// The queue's memory backend, backend-agnostically: the experiment
    /// knobs (flush penalty, the `--coalesce` and `--per-address` axes)
    /// and the operation counters (all-zero on uninstrumented backends)
    /// are [`Memory`] methods, no-ops on backends without a persistence
    /// domain.
    fn pool(&self) -> &dyn Memory;

    /// Enables or disables bounded exponential backoff in the queue's
    /// retry loops. The `--backoff` axis.
    fn set_backoff(&self, on: bool);
}

impl<M: Memory> QueueUnderTest for MsQueue<M> {
    fn register_thread(&self) -> ThreadHandle {
        ObjectCore::register_thread(self).expect("thread slots exhausted")
    }
    fn enqueue(&self, h: ThreadHandle, val: u64) {
        MsQueue::enqueue(self, h, val).expect("node pool exhausted");
    }
    fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        MsQueue::dequeue(self, h)
    }
    fn set_backoff(&self, on: bool) {
        ObjectCore::set_backoff(self, on);
    }
    fn pool(&self) -> &dyn Memory {
        ObjectCore::pool(self).as_ref()
    }
}

impl<M: Memory> QueueUnderTest for DurableQueue<M> {
    fn register_thread(&self) -> ThreadHandle {
        ObjectCore::register_thread(self).expect("thread slots exhausted")
    }
    fn enqueue(&self, h: ThreadHandle, val: u64) {
        DurableQueue::enqueue(self, h, val).expect("node pool exhausted");
    }
    fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        DurableQueue::dequeue(self, h)
    }
    fn set_backoff(&self, on: bool) {
        ObjectCore::set_backoff(self, on);
    }
    fn pool(&self) -> &dyn Memory {
        ObjectCore::pool(self).as_ref()
    }
}

impl<M: Memory> QueueUnderTest for LogQueue<M> {
    fn register_thread(&self) -> ThreadHandle {
        LogQueue::register_thread(self).expect("thread slots exhausted")
    }
    fn enqueue(&self, h: ThreadHandle, val: u64) {
        LogQueue::enqueue(self, h, val).expect("node pool exhausted");
    }
    fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        LogQueue::dequeue(self, h).expect("log pool exhausted")
    }
    fn set_backoff(&self, on: bool) {
        ObjectCore::set_backoff(self, on);
    }
    fn pool(&self) -> &dyn Memory {
        ObjectCore::pool(self).as_ref()
    }
}

/// DSS queue through the non-detectable fast path.
#[derive(Debug)]
struct DssPlain<M: Memory>(DssQueue<M>);

impl<M: Memory> QueueUnderTest for DssPlain<M> {
    fn register_thread(&self) -> ThreadHandle {
        self.0.register_thread().expect("thread slots exhausted")
    }
    fn enqueue(&self, h: ThreadHandle, val: u64) {
        self.0.enqueue(h, val).expect("node pool exhausted");
    }
    fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.0.dequeue(h)
    }
    fn set_backoff(&self, on: bool) {
        self.0.set_backoff(on);
    }
    fn pool(&self) -> &dyn Memory {
        self.0.pool().as_ref()
    }
}

/// DSS queue through the detectable prep/exec protocol.
#[derive(Debug)]
struct DssDet<M: Memory>(DssQueue<M>);

impl<M: Memory> QueueUnderTest for DssDet<M> {
    fn register_thread(&self) -> ThreadHandle {
        self.0.register_thread().expect("thread slots exhausted")
    }
    fn enqueue(&self, h: ThreadHandle, val: u64) {
        self.0.prep_enqueue(h, val).expect("node pool exhausted");
        self.0.exec_enqueue(h);
    }
    fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.0.prep_dequeue(h);
        self.0.exec_dequeue(h)
    }
    fn peek(&self, h: ThreadHandle) -> Option<u64> {
        self.0.peek_front(h)
    }
    fn set_backoff(&self, on: bool) {
        self.0.set_backoff(on);
    }
    fn pool(&self) -> &dyn Memory {
        self.0.pool().as_ref()
    }
}

/// DSS queue under the log-fed replicated execution layer (always
/// detectable: every write is announced, appended to the durable op log
/// by the leased appender, and replayed into the volatile replicas).
#[derive(Debug)]
struct DssRepl<M: Memory>(ReplicatedQueue<M>);

impl<M: Memory> QueueUnderTest for DssRepl<M> {
    fn register_thread(&self) -> ThreadHandle {
        self.0.register_thread().expect("thread slots exhausted")
    }
    fn enqueue(&self, h: ThreadHandle, val: u64) {
        self.0.prep_enqueue(h, val).expect("admission gate refused the enqueue");
        self.0.exec_enqueue(h);
    }
    fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.0.prep_dequeue(h);
        self.0.exec_dequeue(h)
    }
    fn peek(&self, h: ThreadHandle) -> Option<u64> {
        self.0.peek_front(h)
    }
    fn set_backoff(&self, on: bool) {
        self.0.set_backoff(on);
    }
    fn pool(&self) -> &dyn Memory {
        self.0.pool().as_ref()
    }
}

/// Either CASWithEffect variant (always detectable).
#[derive(Debug)]
struct Cwe<M: Memory>(CasWithEffectQueue<M>);

impl<M: Memory> QueueUnderTest for Cwe<M> {
    fn register_thread(&self) -> ThreadHandle {
        self.0.register_thread().expect("thread slots exhausted")
    }
    fn enqueue(&self, h: ThreadHandle, val: u64) {
        self.0.prep_enqueue(h, val).expect("node pool exhausted");
        self.0.exec_enqueue(h);
    }
    fn dequeue(&self, h: ThreadHandle) -> QueueResp {
        self.0.prep_dequeue(h);
        self.0.exec_dequeue(h)
    }
    fn set_backoff(&self, on: bool) {
        self.0.set_backoff(on);
    }
    fn pool(&self) -> &dyn Memory {
        self.0.pool().as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips() {
        for kind in QueueKind::all() {
            let q = kind.build(2, 32);
            let h0 = q.register_thread();
            let h1 = q.register_thread();
            q.enqueue(h0, 5);
            q.enqueue(h1, 6);
            assert_eq!(q.dequeue(h0), QueueResp::Value(5), "{}", kind.label());
            assert_eq!(q.dequeue(h1), QueueResp::Value(6), "{}", kind.label());
            assert_eq!(q.dequeue(h0), QueueResp::Empty, "{}", kind.label());
        }
    }

    #[test]
    fn every_kind_round_trips_on_dram() {
        for kind in QueueKind::all() {
            let q = kind.build_on(Backend::Dram, 2, 32);
            let h0 = q.register_thread();
            let h1 = q.register_thread();
            q.enqueue(h0, 5);
            q.enqueue(h1, 6);
            assert_eq!(q.dequeue(h0), QueueResp::Value(5), "{}", kind.label());
            assert_eq!(q.dequeue(h1), QueueResp::Value(6), "{}", kind.label());
            assert_eq!(q.dequeue(h0), QueueResp::Empty, "{}", kind.label());
            assert_eq!(q.pool().stats().total(), 0, "dram counts nothing: {}", kind.label());
        }
    }

    #[test]
    fn coalesce_and_backoff_axes_apply_to_every_kind() {
        for kind in QueueKind::all() {
            for backend in Backend::all() {
                let q = kind.build_on(backend, 2, 32);
                let h0 = q.register_thread();
                let h1 = q.register_thread();
                q.pool().set_coalescing(true);
                q.set_backoff(true);
                q.enqueue(h0, 5);
                assert_eq!(q.dequeue(h1), QueueResp::Value(5), "{}", kind.label());
                q.pool().set_coalescing(false);
                q.set_backoff(false);
            }
        }
    }

    #[test]
    fn coalescing_absorbs_flushes_where_durability_permits() {
        let measure = |kind: QueueKind, coalesce: bool, per_address: bool| {
            let q = kind.build(1, 32);
            let h0 = q.register_thread();
            q.pool().set_coalescing(coalesce);
            q.pool().set_per_address_drains(per_address);
            q.pool().reset_stats();
            for i in 0..32 {
                q.enqueue(h0, i);
                q.dequeue(h0);
            }
            let s = q.pool().stats();
            (s.flushes, s.flushes_coalesced)
        };
        // The durable queue's claim-word flush legitimately survives to
        // the next dequeue of the same line, so per-address coalescing
        // must absorb writebacks on this workload.
        let (flushes_off, coalesced_off) = measure(QueueKind::Durable, false, false);
        let (flushes_on, coalesced_on) = measure(QueueKind::Durable, true, true);
        assert_eq!(coalesced_off, 0);
        assert_eq!(flushes_on, flushes_off, "issued flushes are workload-determined");
        assert!(coalesced_on > 0, "some flushes must coalesce");
        // The DSS queue, by contrast, must coalesce *nothing* here: its
        // only same-line re-flush window was the X[tid] announce between
        // prep and exec, and detectability requires that announce to be
        // durable before prep returns (a crash that forgets a completed
        // prep makes resolve report the previous operation).
        let (_, dss_coalesced) = measure(QueueKind::DssDetectable, true, false);
        assert_eq!(dss_coalesced, 0, "a completed prep's announce may not stay pending");
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            QueueKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), QueueKind::all().len());
    }

    #[test]
    fn figure_sets_are_subsets_of_all() {
        for k in QueueKind::figure_5a().iter().chain(QueueKind::figure_5b().iter()) {
            assert!(QueueKind::all().contains(k));
        }
    }

    #[test]
    fn backend_labels_parse_back() {
        for b in Backend::all() {
            assert_eq!(Backend::parse(b.label()), b);
        }
    }
}
