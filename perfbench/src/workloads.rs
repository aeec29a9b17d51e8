//! The five workloads: set-up, one client step, post-run checks and the
//! recorded verify pass of each.
//!
//! Every call into `dss-core` goes through [`Probe::call`] under the name
//! of the layer and function it enters, so the traced run attributes time
//! to `queue/ops.rs`, `queue/replicated.rs`, `queue/recovery.rs` and
//! `map.rs` without any tracing inside the library.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dss_checker::{CheckOptions, Condition, Recorder, Violation};
use dss_core::{DetectableMap, DssQueue, QueueFull, ReplicatedQueue, Resolved, ResolvedOp};
use dss_harness::record::{check_map_history, check_plain, check_recorded_full};
use dss_pmem::{PmemPool, ThreadHandle, WritebackAdversary};
use dss_spec::types::{KvOp, KvResp, QueueOp, QueueResp};
use dss_spec::{DetOp, DetResp};

use crate::hist::Histogram;
use crate::probe::{Kind, Probe};

/// Spin iterations each flush pays (`PmemPool::set_flush_penalty`).
pub const FLUSH_PENALTY: u64 = 20;
/// Values both queue workloads prefill.
pub const QUEUE_PREFILL: usize = 16;
/// Keys the map workloads load and draw from.
pub const KEYS: u64 = 4096;
/// Level-0 buckets of the map: four keys per chain.
pub const BUCKETS: u64 = 1024;
/// Zipf skew of map key choice (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;
/// Length the recover workload's queue returns to after every cycle.
pub const RECOVER_LEN: usize = 4096;
/// Share of replicated-read iterations that are a `peek_front`.
pub const PEEK_PCT: u64 = 90;
/// Share of `kv-update-heavy` operations that are a `get` (YCSB-A).
pub const UPDATE_HEAVY_GET_PCT: u64 = 50;
/// Share of `kv-read-heavy` operations that are a `get` (YCSB-B).
pub const READ_HEAVY_GET_PCT: u64 = 95;

/// Node slots per queue-pair thread: the queue never holds more than
/// `QUEUE_PREFILL + 1` values, and reclamation recycles the rest.
const PAIR_NODES: u64 = 1024;
/// Live values the replicated queue admits per thread.
const REPLICATED_CAPACITY: u64 = 64;
/// Map op slots per thread. Each slot holds two nodes, so a thread owns
/// `4 · KEYS` nodes, while at most `KEYS` entries plus `KEYS` current
/// bindings plus a few pending ones are ever live across both threads:
/// live data never exhausts the pool. Only the timing of reclamation can
/// leave the free lists empty for a moment (see `prep_put_retrying`).
const MAP_SLOTS: u64 = 2 * KEYS;
/// Node slots per recover-queue thread: both together hold the queue plus
/// the nodes detectability words still reference.
const RECOVER_NODES: u64 = RECOVER_LEN as u64;

/// Counters one client keeps over a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Completed operations (see the binary's docs for what counts as one).
    pub ops: u64,
    /// Operations attempted, failed ones included.
    pub attempted: u64,
    /// Operations refused (`QueueFull`) or whose `resolve` verdict
    /// disagreed with what the client did.
    pub failed: u64,
    /// Wrong results: a run with any is not correct.
    pub violations: u64,
    /// Time spent on the simulated crash and on checks, excluded from the
    /// run time that `ops_per_s` divides by.
    pub excluded_ns: u64,
    /// Durations of simulated crashes (`PmemPool::crash`).
    pub crash: Histogram,
    /// Map puts retried because the node pool was momentarily exhausted
    /// (see `prep_put_retrying`).
    pub retries: u64,
}

impl Tally {
    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        self.excluded_ns += other.excluded_ns;
        self.crash.merge(&other.crash);
        self.retries += other.retries;
    }
}

/// What a recorded verify pass checked.
#[derive(Debug, Default)]
pub struct Verified {
    /// Operations in the checked history.
    pub ops_checked: u64,
    /// Failed checks: checker verdicts plus wrong results seen while
    /// recording.
    pub violations: u64,
    /// The checker's error, if any.
    pub error: Option<String>,
}

impl Verified {
    fn from(result: Result<dss_checker::CheckStats, Violation>, records: usize) -> Self {
        match result {
            Ok(stats) => Verified { ops_checked: stats.ops as u64, ..Verified::default() },
            Err(e) => Verified {
                ops_checked: records as u64,
                violations: 1,
                error: Some(format!("{e:?}")),
            },
        }
    }
}

/// One workload's structure and client loop.
pub trait Bench: Sync + Sized {
    /// Per-client state: its handle(s), generator and expectations.
    type Client: Send;
    /// Client threads.
    const CLIENTS: usize;
    /// Builds and loads the structure (the set-up `setup_s` times).
    fn setup(seed: u64) -> Self;
    /// Client `tid`'s state, generating inputs from `seed`.
    fn client(&self, tid: usize, seed: u64) -> Self::Client;
    /// Issues one iteration of the workload's mix.
    fn step<P: Probe>(&self, c: &mut Self::Client, p: &mut P, t: &mut Tally);
    /// The structure's pool.
    fn pool(&self) -> &PmemPool;
    /// Checks the structure after the run; returns the violations found.
    fn check(&self) -> u64 {
        0
    }
    /// A fresh structure driven by the same generator and seed for
    /// `ops_per_client` operations per client, recorded and checked.
    fn verify(seed: u64, ops_per_client: u64) -> Verified;
}

/// SplitMix64: one independent stream per (seed, client, purpose).
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64, tid: usize, purpose: u64) -> Self {
        let mut r = Rng(seed ^ (tid as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03) ^ purpose);
        r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Distinct values per client: a seed-derived tag, the client, a counter.
#[derive(Clone, Debug)]
struct Values {
    base: u64,
    n: u64,
}

impl Values {
    fn new(seed: u64, tid: usize) -> Self {
        let tag = Rng::new(seed, tid, 1).next() & 0xFFFF;
        Values { base: tag << 48 | (tid as u64) << 40, n: 0 }
    }

    fn next(&mut self) -> u64 {
        self.n += 1;
        self.base | self.n
    }
}

/// Zipf(θ) over ranks `0..n` by inverse CDF: weight of rank `r` is
/// `1 / (r + 1)^θ`, the rank is the key.
#[derive(Debug)]
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf(cdf)
    }

    fn sample(&self, u: f64) -> u64 {
        (self.0.partition_point(|&p| p <= u) as u64).min(self.0.len() as u64 - 1)
    }
}

/// The pool knobs every workload runs with: the flush penalty on, write-
/// behind coalescing and per-address drains off.
fn configure(pool: &PmemPool) {
    pool.set_flush_penalty(FLUSH_PENALTY);
    pool.set_coalescing(false);
    pool.set_per_address_drains(false);
}

/// Records one operation around `f`.
fn recorded<O: Clone, R: Clone>(
    rec: &Recorder<O, R>,
    pid: usize,
    op: O,
    f: impl FnOnce() -> R,
) -> R {
    let id = rec.invoke(pid, op);
    let r = f();
    rec.ret(id, r.clone());
    r
}

type DetHistory = Recorder<DetOp<QueueOp>, DetResp<QueueOp, QueueResp>>;

/// Applies an enqueue of `v` followed by a dequeue to a FIFO model of a
/// queue with one client; returns what the dequeue must return.
fn model_pair(model: &mut VecDeque<u64>, v: u64) -> QueueResp {
    model.push_back(v);
    QueueResp::Value(model.pop_front().expect("the model holds the prefill"))
}

fn prep(op: QueueOp) -> DetOp<QueueOp> {
    DetOp::Prep { op, seq: 0 }
}

// ---------------------------------------------------------------------------
// queue-pair
// ---------------------------------------------------------------------------

/// `DssQueue`, one client, alternating detectable enqueue/dequeue pairs.
#[derive(Debug)]
pub struct QueuePair {
    q: DssQueue,
    h: ThreadHandle,
    prefill: Vec<u64>,
}

/// The queue-pair client: with one client, every dequeue returns exactly
/// the value enqueued `QUEUE_PREFILL` pairs earlier.
#[derive(Debug)]
pub struct PairClient {
    h: ThreadHandle,
    values: Values,
    expect: VecDeque<u64>,
}

impl QueuePair {
    fn build(seed: u64) -> (DssQueue, ThreadHandle, Vec<u64>) {
        let q = DssQueue::new(1, PAIR_NODES);
        configure(q.pool());
        q.set_backoff(false);
        let h = q.register_thread().expect("a fresh queue has a free slot");
        let mut values = Values::new(seed, 1);
        let prefill: Vec<u64> = (0..QUEUE_PREFILL).map(|_| values.next()).collect();
        (q, h, prefill)
    }
}

impl Bench for QueuePair {
    type Client = PairClient;
    const CLIENTS: usize = 1;

    fn setup(seed: u64) -> Self {
        let (q, h, prefill) = Self::build(seed);
        for &v in &prefill {
            q.enqueue(h, v).expect("prefill fits a fresh pool");
        }
        QueuePair { q, h, prefill }
    }

    fn client(&self, _tid: usize, seed: u64) -> PairClient {
        PairClient { h: self.h, values: Values::new(seed, 0), expect: self.prefill.clone().into() }
    }

    fn step<P: Probe>(&self, c: &mut PairClient, p: &mut P, t: &mut Tally) {
        let (q, h, v) = (&self.q, c.h, c.values.next());
        let r = p.op(Kind::Pair, |p| {
            p.call("queue.prep_enqueue", || q.prep_enqueue(h, v))?;
            p.call("queue.exec_enqueue", || q.exec_enqueue(h));
            p.call("queue.prep_dequeue", || q.prep_dequeue(h));
            Ok::<_, QueueFull>(p.call("queue.exec_dequeue", || q.exec_dequeue(h)))
        });
        match r {
            Err(QueueFull) => {
                t.attempted += 1;
                t.failed += 1;
            }
            Ok(got) => {
                t.attempted += 2;
                t.ops += 2;
                t.violations += u64::from(got != model_pair(&mut c.expect, v));
            }
        }
    }

    fn pool(&self) -> &PmemPool {
        self.q.pool()
    }

    fn verify(seed: u64, ops_per_client: u64) -> Verified {
        let (q, h, prefill) = Self::build(seed);
        let rec = DetHistory::new();
        for &v in &prefill {
            recorded(&rec, 0, DetOp::Plain(QueueOp::Enqueue(v)), || {
                q.enqueue(h, v).expect("prefill fits a fresh pool");
                DetResp::Ret(QueueResp::Ok)
            });
        }
        let me = QueuePair { q, h, prefill };
        let (q, mut c) = (&me.q, me.client(0, seed));
        for _ in 0..ops_per_client / 2 {
            let v = c.values.next();
            let id = rec.invoke(0, prep(QueueOp::Enqueue(v)));
            if q.prep_enqueue(h, v).is_err() {
                break;
            }
            rec.ret(id, DetResp::Ack);
            recorded(&rec, 0, DetOp::Exec, || {
                q.exec_enqueue(h);
                DetResp::Ret(QueueResp::Ok)
            });
            recorded(&rec, 0, prep(QueueOp::Dequeue), || {
                q.prep_dequeue(h);
                DetResp::Ack
            });
            recorded(&rec, 0, DetOp::Exec, || DetResp::Ret(q.exec_dequeue(h)));
        }
        let history = rec.into_history();
        let records = history.events().len() / 2;
        let options = CheckOptions::default();
        Verified::from(check_recorded_full(&history, Condition::Linearizability, &options), records)
    }
}

// ---------------------------------------------------------------------------
// queue-replicated-read
// ---------------------------------------------------------------------------

/// `ReplicatedQueue` with two replicas, one client, 90% `peek_front`.
#[derive(Debug)]
pub struct ReplicatedRead {
    q: ReplicatedQueue,
    h: ThreadHandle,
    prefill: Vec<u64>,
}

/// The replicated-read client: with one client the queue's contents are
/// known, so every peek and dequeue is checked against a FIFO model.
#[derive(Debug)]
pub struct ReadClient {
    h: ThreadHandle,
    mix: Rng,
    values: Values,
    expect: VecDeque<u64>,
}

/// One replicated-read iteration, as the generator draws it.
enum ReadStep {
    Peek,
    Pair(u64),
}

impl ReadClient {
    fn next(&mut self) -> ReadStep {
        if self.mix.next() % 100 < PEEK_PCT {
            ReadStep::Peek
        } else {
            ReadStep::Pair(self.values.next())
        }
    }
}

impl ReplicatedRead {
    fn build(seed: u64) -> (ReplicatedQueue, ThreadHandle, Vec<u64>) {
        // Two slots for two replicas; the client reads from its slot's.
        let q = ReplicatedQueue::new(2, REPLICATED_CAPACITY);
        configure(q.pool());
        q.set_backoff(false);
        let h = q.register_thread().expect("a fresh queue has a free slot");
        let mut values = Values::new(seed, 1);
        let prefill = (0..QUEUE_PREFILL).map(|_| values.next()).collect();
        (q, h, prefill)
    }
}

impl Bench for ReplicatedRead {
    type Client = ReadClient;
    const CLIENTS: usize = 1;

    fn setup(seed: u64) -> Self {
        let (q, h, prefill) = Self::build(seed);
        for &v in &prefill {
            q.enqueue(h, v).expect("prefill fits the capacity");
        }
        ReplicatedRead { q, h, prefill }
    }

    fn client(&self, _tid: usize, seed: u64) -> ReadClient {
        ReadClient {
            h: self.h,
            mix: Rng::new(seed, 0, 2),
            values: Values::new(seed, 0),
            expect: self.prefill.clone().into(),
        }
    }

    fn step<P: Probe>(&self, c: &mut ReadClient, p: &mut P, t: &mut Tally) {
        let (q, h) = (&self.q, c.h);
        match c.next() {
            ReadStep::Peek => {
                let front =
                    p.op(Kind::Peek, |p| p.call("replicated.peek_front", || q.peek_front(h)));
                t.attempted += 1;
                t.ops += 1;
                t.violations += u64::from(front != c.expect.front().copied());
            }
            ReadStep::Pair(v) => {
                let r = p.op(Kind::Pair, |p| {
                    p.call("replicated.prep_enqueue", || q.prep_enqueue(h, v))?;
                    p.call("replicated.exec_enqueue", || q.exec_enqueue(h));
                    p.call("replicated.prep_dequeue", || q.prep_dequeue(h));
                    Ok::<_, QueueFull>(p.call("replicated.exec_dequeue", || q.exec_dequeue(h)))
                });
                match r {
                    Err(QueueFull) => {
                        t.attempted += 1;
                        t.failed += 1;
                    }
                    Ok(got) => {
                        t.attempted += 2;
                        t.ops += 2;
                        t.violations += u64::from(got != model_pair(&mut c.expect, v));
                    }
                }
            }
        }
    }

    fn pool(&self) -> &PmemPool {
        self.q.pool()
    }

    fn verify(seed: u64, ops_per_client: u64) -> Verified {
        let (q, h, prefill) = Self::build(seed);
        let rec = Recorder::new();
        for &v in &prefill {
            recorded(&rec, 0, QueueOp::Enqueue(v), || {
                q.enqueue(h, v).expect("prefill fits the capacity");
                QueueResp::Ok
            });
        }
        let me = ReplicatedRead { q, h, prefill };
        let (q, mut c) = (&me.q, me.client(0, seed));
        // Peeks have no operation in the queue specification: the model
        // checks them, and the FIFO checker the recorded pairs.
        let (mut done, mut bad_peeks) = (0, 0);
        while done < ops_per_client {
            match c.next() {
                ReadStep::Peek => {
                    bad_peeks += u64::from(q.peek_front(h) != c.expect.front().copied());
                    done += 1;
                }
                ReadStep::Pair(v) => {
                    let id = rec.invoke(0, QueueOp::Enqueue(v));
                    if q.prep_enqueue(h, v).is_err() {
                        break;
                    }
                    q.exec_enqueue(h);
                    rec.ret(id, QueueResp::Ok);
                    recorded(&rec, 0, QueueOp::Dequeue, || {
                        q.prep_dequeue(h);
                        q.exec_dequeue(h)
                    });
                    model_pair(&mut c.expect, v);
                    done += 2;
                }
            }
        }
        let history = rec.into_history();
        let records = history.events().len() / 2;
        let mut v = Verified::from(
            check_plain(&history, Condition::Linearizability, &CheckOptions::default()),
            records,
        );
        v.violations += bad_peeks;
        v
    }
}

// ---------------------------------------------------------------------------
// kv-update-heavy / kv-read-heavy
// ---------------------------------------------------------------------------

/// `DetectableMap` over `KEYS` loaded keys, two clients, Zipf key choice;
/// `READ_PCT`% of operations are plain gets, the rest detectable puts.
#[derive(Debug)]
pub struct Kv<const READ_PCT: u64> {
    m: DetectableMap,
    hs: [ThreadHandle; 2],
    zipf: Zipf,
}

/// A map client.
#[derive(Debug)]
pub struct KvClient {
    h: ThreadHandle,
    mix: Rng,
    values: Values,
    seq: u64,
}

/// One map operation, as the generator draws it.
enum KvStep {
    Get(u64),
    /// Key, value and the put's disambiguation tag.
    Put(u64, u64, u64),
}

impl<const READ_PCT: u64> Kv<READ_PCT> {
    /// A map with every key loaded: key `k` is put (plain) through client
    /// `k mod 2`'s handle, so each client's slot owns half the bindings,
    /// each load recorded when `rec` is given. One thread loads, so the
    /// set-up time does not depend on both CPUs being free.
    fn loaded(seed: u64, rec: Option<&Recorder<(u64, KvOp), KvResp>>) -> Self {
        let m = DetectableMap::new(2, MAP_SLOTS, BUCKETS);
        configure(m.pool());
        m.set_backoff(false);
        let hs = [0, 1].map(|_| m.register_thread().expect("two slots"));
        let mut values = Values::new(seed, 2);
        for key in 0..KEYS {
            let (tid, v) = (key as usize % 2, values.next());
            match rec {
                Some(rec) => recorded(rec, tid, (key, KvOp::Put(v)), || m.put(hs[tid], key, v)),
                None => m.put(hs[tid], key, v),
            };
        }
        Kv { m, hs, zipf: Zipf::new(KEYS, ZIPF_THETA) }
    }

    fn next(&self, c: &mut KvClient) -> KvStep {
        let key = self.zipf.sample(c.mix.unit());
        if c.mix.next() % 100 < READ_PCT {
            KvStep::Get(key)
        } else {
            c.seq += 1;
            KvStep::Put(key, c.values.next(), c.seq)
        }
    }
}

impl<const READ_PCT: u64> Bench for Kv<READ_PCT> {
    type Client = KvClient;
    const CLIENTS: usize = 2;

    fn setup(seed: u64) -> Self {
        Self::loaded(seed, None)
    }

    fn client(&self, tid: usize, seed: u64) -> KvClient {
        KvClient {
            h: self.hs[tid],
            mix: Rng::new(seed, tid, 3),
            values: Values::new(seed, tid),
            seq: 0,
        }
    }

    fn step<P: Probe>(&self, c: &mut KvClient, p: &mut P, t: &mut Tally) {
        let (m, h) = (&self.m, c.h);
        match self.next(c) {
            KvStep::Get(key) => {
                let got = p.op(Kind::Get, |p| p.call("map.get", || m.get(h, key)));
                // Every key is loaded and nothing removes one.
                t.violations += u64::from(!matches!(got, KvResp::Value(_)));
            }
            KvStep::Put(key, v, seq) => {
                let retries = &mut t.retries;
                let got = p.op(Kind::Put, |p| {
                    p.call("map.prep_put", || prep_put_retrying(m, h, (key, v, seq), retries));
                    p.call("map.exec_put", || m.exec_put(h))
                });
                t.violations += u64::from(got != KvResp::Ok);
            }
        }
        t.attempted += 1;
        t.ops += 1;
    }

    fn pool(&self) -> &PmemPool {
        self.m.pool()
    }

    /// `snapshot()` must agree with `get` on every key.
    fn check(&self) -> u64 {
        let snap = self.m.snapshot();
        let mut bad = (snap.len() as u64).abs_diff(KEYS);
        for key in 0..KEYS {
            let want = snap.get(&key).map_or(KvResp::Absent, |&v| KvResp::Value(v));
            bad += u64::from(self.m.get(self.hs[0], key) != want);
        }
        bad
    }

    fn verify(seed: u64, ops_per_client: u64) -> Verified {
        let rec = Recorder::new();
        let kv = Self::loaded(seed, Some(&rec));
        std::thread::scope(|s| {
            for tid in 0..2 {
                let (kv, rec) = (&kv, &rec);
                s.spawn(move || {
                    let mut c = kv.client(tid, seed);
                    for _ in 0..ops_per_client {
                        match kv.next(&mut c) {
                            KvStep::Get(key) => {
                                recorded(rec, tid, (key, KvOp::Get), || kv.m.get(c.h, key));
                            }
                            KvStep::Put(key, v, seq) => {
                                recorded(rec, tid, (key, KvOp::Put(v)), || {
                                    prep_put_retrying(&kv.m, c.h, (key, v, seq), &mut 0);
                                    kv.m.exec_put(c.h)
                                });
                            }
                        }
                    }
                });
            }
        });
        let history = rec.into_history();
        let records = history.events().len() / 2;
        Verified::from(
            check_map_history(&history, Condition::Linearizability, &CheckOptions::default()),
            records,
        )
    }
}

/// Retries of one map put before its exhaustion panic is let through.
const MAX_PUT_RETRIES: u64 = 1000;

/// `prep_put(key, value, seq)`, retried while the map's node pool is
/// momentarily exhausted, counting the retries in `retries`.
///
/// The map refills its free lists from the epoch reclaimer only once they
/// run dry, and the reclaimer must then see the other client unpinned
/// within a few dozen yields. On a shared host that client can be
/// descheduled while pinned, and the allocation panics before `prep_put`
/// has changed anything. Sleeping lets the other client move on. Any other
/// panic, or exhaustion that outlasts the retries, is passed on.
fn prep_put_retrying(
    m: &DetectableMap,
    h: ThreadHandle,
    (key, value, seq): (u64, u64, u64),
    retries: &mut u64,
) {
    for attempt in 0.. {
        match catch_unwind(AssertUnwindSafe(|| m.prep_put(h, key, value, seq))) {
            Ok(()) => return,
            Err(e) => {
                let msg = e
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| e.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or_default();
                if attempt == MAX_PUT_RETRIES || !msg.contains("node pool exhausted") {
                    resume_unwind(e);
                }
                *retries += 1;
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// YCSB-A: half gets, half detectable puts.
pub type KvUpdateHeavy = Kv<UPDATE_HEAVY_GET_PCT>;
/// YCSB-B: 95% gets, 5% detectable puts.
pub type KvReadHeavy = Kv<READ_HEAVY_GET_PCT>;

// ---------------------------------------------------------------------------
// recover
// ---------------------------------------------------------------------------

/// `DssQueue` of length `RECOVER_LEN` on two slots, driven through crash
/// and recovery cycles by one client.
#[derive(Debug)]
pub struct Recover {
    q: DssQueue,
    hs: [ThreadHandle; 2],
    prefill: Vec<u64>,
}

/// The recover client: both slots' handles (recovery hands out new ones)
/// and a FIFO model of the queue.
#[derive(Debug)]
pub struct RecoverClient {
    hs: [ThreadHandle; 2],
    values: Values,
    model: VecDeque<u64>,
}

/// What one cycle's client did before the crash.
struct CycleOps {
    enqueued: u64,
    dequeued: QueueResp,
    prepared: u64,
}

impl Recover {
    fn build(seed: u64) -> (DssQueue, [ThreadHandle; 2], Vec<u64>) {
        let q = DssQueue::new(2, RECOVER_NODES);
        configure(q.pool());
        q.set_backoff(false);
        let hs = [0, 1].map(|_| q.register_thread().expect("two slots"));
        let mut values = Values::new(seed, 2);
        let prefill = (0..RECOVER_LEN).map(|_| values.next()).collect();
        (q, hs, prefill)
    }

    /// Slot 0 enqueues, slot 1 dequeues, slot 0 prepares one more enqueue
    /// and stops there.
    fn cycle<P: Probe>(&self, c: &mut RecoverClient, p: &mut P) -> Result<CycleOps, QueueFull> {
        let (q, [h0, h1]) = (&self.q, c.hs);
        let (enqueued, prepared) = (c.values.next(), c.values.next());
        p.op(Kind::Cycle, |p| {
            p.call("queue.prep_enqueue", || q.prep_enqueue(h0, enqueued))?;
            p.call("queue.exec_enqueue", || q.exec_enqueue(h0));
            p.call("queue.prep_dequeue", || q.prep_dequeue(h1));
            let dequeued = p.call("queue.exec_dequeue", || q.exec_dequeue(h1));
            p.call("queue.prep_enqueue", || q.prep_enqueue(h0, prepared))?;
            Ok(CycleOps { enqueued, dequeued, prepared })
        })
    }

    fn recover<P: Probe>(&self, p: &mut P) -> (Vec<ThreadHandle>, [Resolved; 2]) {
        let q = &self.q;
        p.op(Kind::Recovery, |p| {
            let hs = p.call("queue.recover", || q.recover());
            p.call("queue.rebuild_allocator", || q.rebuild_allocator());
            let r0 = p.call("queue.resolve", || q.resolve(hs[0]));
            let r1 = p.call("queue.resolve", || q.resolve(hs[1]));
            (hs, [r0, r1])
        })
    }

    /// The verdicts `resolve` must give after a cycle: slot 0's prepared
    /// enqueue did not take effect, slot 1's dequeue did.
    fn expected(ops: &CycleOps) -> [Resolved; 2] {
        [
            Resolved { op: Some(ResolvedOp::Enqueue(ops.prepared)), resp: None },
            Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(ops.dequeued) },
        ]
    }
}

impl Bench for Recover {
    type Client = RecoverClient;
    const CLIENTS: usize = 1;

    fn setup(seed: u64) -> Self {
        let (q, hs, prefill) = Self::build(seed);
        for &v in &prefill {
            q.enqueue(hs[0], v).expect("prefill fits the node pool");
        }
        Recover { q, hs, prefill }
    }

    fn client(&self, _tid: usize, seed: u64) -> RecoverClient {
        RecoverClient {
            hs: self.hs,
            values: Values::new(seed, 0),
            model: self.prefill.clone().into(),
        }
    }

    fn step<P: Probe>(&self, c: &mut RecoverClient, p: &mut P, t: &mut Tally) {
        t.attempted += 1;
        let ops = match self.cycle(c, p) {
            Ok(ops) => ops,
            Err(QueueFull) => {
                // Nothing to recover from: abandon the cycle uncrashed. A
                // refused second prep leaves the pair applied.
                t.failed += 1;
                return;
            }
        };
        t.violations += u64::from(ops.dequeued != model_pair(&mut c.model, ops.enqueued));

        let crash = Instant::now();
        self.q.pool().crash(&WritebackAdversary::None);
        let crash_ns = crash.elapsed().as_nanos() as u64;
        t.crash.record(crash_ns);

        let (hs, got) = self.recover(p);
        t.ops += 1;
        t.failed += u64::from(got != Self::expected(&ops));

        let check = Instant::now();
        match hs[..] {
            [h0, h1] => c.hs = [h0, h1],
            _ => t.violations += 1,
        }
        t.violations += u64::from(self.q.snapshot_values().len() != RECOVER_LEN);
        t.excluded_ns += crash_ns + check.elapsed().as_nanos() as u64;
    }

    fn pool(&self) -> &PmemPool {
        self.q.pool()
    }

    fn verify(seed: u64, ops_per_client: u64) -> Verified {
        let (q, hs, prefill) = Self::build(seed);
        let rec = DetHistory::new();
        for &v in &prefill {
            recorded(&rec, 0, DetOp::Plain(QueueOp::Enqueue(v)), || {
                q.enqueue(hs[0], v).expect("prefill fits the node pool");
                DetResp::Ret(QueueResp::Ok)
            });
        }
        let me = Recover { q, hs, prefill };
        let mut c = me.client(0, seed);
        let mut timer = crate::probe::Timer::default();
        let mut violations = 0;
        // Seven recorded operations per cycle.
        for _ in 0..ops_per_client / 7 {
            let Ok(ops) = me.cycle(&mut c, &mut timer) else { break };
            for (pid, op, resp) in [
                (0, prep(QueueOp::Enqueue(ops.enqueued)), DetResp::Ack),
                (0, DetOp::Exec, DetResp::Ret(QueueResp::Ok)),
                (1, prep(QueueOp::Dequeue), DetResp::Ack),
                (1, DetOp::Exec, DetResp::Ret(ops.dequeued)),
                (0, prep(QueueOp::Enqueue(ops.prepared)), DetResp::Ack),
            ] {
                // One client: recording after the fact keeps real-time order.
                recorded(&rec, pid, op, || resp);
            }
            me.q.pool().crash(&WritebackAdversary::None);
            rec.crash();
            let (hs, got) = me.recover(&mut timer);
            for (pid, r) in got.into_iter().enumerate() {
                let op = r.op.map(|o| match o {
                    ResolvedOp::Enqueue(v) => (QueueOp::Enqueue(v), 0),
                    ResolvedOp::Dequeue => (QueueOp::Dequeue, 0),
                });
                recorded(&rec, pid, DetOp::Resolve, || DetResp::Resolved(op, r.resp));
            }
            match hs[..] {
                [h0, h1] => c.hs = [h0, h1],
                _ => violations += 1,
            }
        }
        let history = rec.into_history();
        let records = history.events().len() / 2;
        let options = CheckOptions::default();
        let mut v = Verified::from(
            check_recorded_full(&history, Condition::StrictLinearizability, &options),
            records,
        );
        v.violations += violations;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustion_is_retried_then_passed_on() {
        // Four nodes, all live after two fresh keys: nothing is reclaimable,
        // so every retry meets the same exhaustion.
        let m = DetectableMap::new(1, 2, 4);
        let h = m.register_thread().expect("one slot");
        m.put(h, 0, 10);
        m.put(h, 1, 11);
        let mut retries = 0;
        let r =
            catch_unwind(AssertUnwindSafe(|| prep_put_retrying(&m, h, (0, 12, 1), &mut retries)));
        assert!(r.is_err(), "lasting exhaustion is passed on");
        assert_eq!(retries, MAX_PUT_RETRIES);
        assert_eq!(m.get(h, 0), KvResp::Value(10), "the failed puts changed nothing");
    }
}
