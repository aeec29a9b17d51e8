//! The repository's benchmark: five seeded workloads over `dss-core` and
//! `dss-pmem`, end-to-end metrics from an untraced timed run and per-layer
//! metrics from a traced run. The `dss-perfbench` binary's docs list the
//! workloads, the metrics, their units and bounds.
//!
//! [`run`] executes one workload: the set-up, repeated and timed (its
//! median is `setup_s`), then either the timed run or an untraced run
//! followed by a traced one, then the post-run checks and a recorded verify
//! pass on a fresh structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod probe;
mod workloads;

pub use probe::Span;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dss_pmem::{FlushGranularity, PAddr, PmemPool, StatsSnapshot, WORDS_PER_LINE};

use crate::hist::Histogram;
use crate::probe::{Kind, KindHists, Probe, SpanStats, Timer, Tracer};
use crate::workloads::{Bench, Tally};

/// The end-to-end metrics (name, unit), reported by an untraced run.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("ops_per_s", "ops/s"), ("lat_p50_us", "us")];

/// The per-layer metrics (name, unit), reported by a traced run. The
/// headline operation's p99 is among them: on this benchmark's hosts it
/// does not repeat closely enough between runs to carry a bound.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("lat_p99_us", "us"),
    ("client.self_pct", "%"),
    ("core.prep_pct", "%"),
    ("core.exec_pct", "%"),
    ("core.read_pct", "%"),
    ("core.recovery_pct", "%"),
    ("core.prep_us.p50", "us"),
    ("core.prep_us.p99", "us"),
    ("core.exec_us.p50", "us"),
    ("core.exec_us.p99", "us"),
    ("pmem.flushes_per_op", "count"),
    ("pmem.fences_per_op", "count"),
    ("pmem.loads_per_op", "count"),
    ("pmem.stores_per_op", "count"),
    ("pmem.cas_per_op", "count"),
    ("pmem.cas_fail_ratio", "ratio"),
    ("pmem.flush_ns", "ns"),
    ("pmem.flush_ns_penalty0", "ns"),
    ("pmem.capacity_words", "count"),
    ("trace.overhead_pct", "%"),
    ("verify.ops_checked", "count"),
    ("verify.violations", "count"),
    ("ops_failed_share", "ratio"),
];

/// Set-up repetitions never exceed this.
const SETUP_MAX_REPS: u32 = 2000;
/// A timed run is cut into windows this long.
const WINDOW: Duration = Duration::from_millis(100);
/// The end-to-end metrics come from the fastest windows: `ops_per_s` is
/// the window rate that this share of windows beats, `lat_p50_us` the
/// window median that this share of windows undercuts. Load from outside
/// the process only ever slows a window (a busy neighbour on a shared core
/// slowed every call of `queue-replicated-read` by some 35%), so the fast
/// side of the windows measures the code, and the rest measures the host.
const FAST_SHARE: f64 = 0.1;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `DssQueue`, one client, detectable enqueue/dequeue pairs.
    QueuePair,
    /// `ReplicatedQueue`, one client, 90% replica-local peeks.
    QueueReplicatedRead,
    /// `DetectableMap`, two clients, YCSB-A.
    KvUpdateHeavy,
    /// `DetectableMap`, two clients, YCSB-B.
    KvReadHeavy,
    /// `DssQueue` crash/recovery cycles.
    Recover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::QueuePair,
        Workload::QueueReplicatedRead,
        Workload::KvUpdateHeavy,
        Workload::KvReadHeavy,
        Workload::Recover,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueuePair => "queue-pair",
            Workload::QueueReplicatedRead => "queue-replicated-read",
            Workload::KvUpdateHeavy => "kv-update-heavy",
            Workload::KvReadHeavy => "kv-read-heavy",
            Workload::Recover => "recover",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The operation whose latency `lat_p50_us` and `lat_p99_us` report.
    fn headline(self) -> Kind {
        match self {
            Workload::QueuePair => Kind::Pair,
            Workload::QueueReplicatedRead => Kind::Pair,
            Workload::KvUpdateHeavy => Kind::Put,
            Workload::KvReadHeavy => Kind::Get,
            Workload::Recover => Kind::Recovery,
        }
    }

    fn constants(self) -> String {
        use workloads::*;
        match self {
            Workload::QueuePair => format!("clients=1 prefill={QUEUE_PREFILL}"),
            Workload::QueueReplicatedRead => {
                format!("clients=1 replicas=2 prefill={QUEUE_PREFILL} peek_pct={PEEK_PCT}")
            }
            Workload::KvUpdateHeavy | Workload::KvReadHeavy => format!(
                "clients=2 keys={KEYS} buckets={BUCKETS} zipf_theta={ZIPF_THETA} get_pct={}",
                if self == Workload::KvUpdateHeavy {
                    UPDATE_HEAVY_GET_PCT
                } else {
                    READ_HEAVY_GET_PCT
                }
            ),
            Workload::Recover => {
                format!("clients=1 slots=2 length={RECOVER_LEN} adversary=none")
            }
        }
    }
}

/// How long the measured part of a run lasts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Wall-clock seconds.
    Seconds(f64),
    /// Attempted operations, split evenly over the clients.
    Ops(u64),
}

impl Budget {
    fn halved(self) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            Budget::Ops(n) => Budget::Ops((n / 2).max(1)),
        }
    }
}

/// Everything about a run except the workload, seed and trace switch.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The measured part: the timed run, or untraced plus traced halves.
    pub budget: Budget,
    /// Operations per client in the recorded verify pass.
    pub verify_ops: u64,
    /// Set-up is repeated at least this often and at least this long, so
    /// its median is steady even when one set-up takes microseconds.
    pub setup_min: (u32, Duration),
    /// Flushes timed per flush-cost calibration.
    pub calibration_flushes: u64,
}

impl Plan {
    /// The plan the command line runs: `seconds` of measurement.
    pub fn timed(seconds: f64) -> Self {
        Plan {
            budget: Budget::Seconds(seconds),
            verify_ops: 20_000,
            setup_min: (5, Duration::from_secs(1)),
            calibration_flushes: 1_000_000,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one [`run`].
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Operations completed in the measured part.
    pub ops: u64,
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations refused (`QueueFull`) or whose `resolve` verdict
    /// disagreed with what the client did.
    pub failed: u64,
    /// Wrong results anywhere in the run, checks and verify pass included.
    pub violations: u64,
    /// Raw spans kept by the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.violations == 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn absorb(&mut self, t: &Tally) {
        self.ops += t.ops;
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.violations += t.violations;
    }

    fn line(&mut self, s: String) {
        self.lines.push(format!("# {s}"));
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        let (_, unit) = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .expect("every reported metric is declared");
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Runs workload `w` from `seed`: set-up, then the timed run (`trace`
/// false) or an untraced and a traced run (`trace` true), then checks.
pub fn run(w: Workload, seed: u64, plan: &Plan, trace: bool) -> Outcome {
    match w {
        Workload::QueuePair => drive::<workloads::QueuePair>(w, seed, plan, trace),
        Workload::QueueReplicatedRead => drive::<workloads::ReplicatedRead>(w, seed, plan, trace),
        Workload::KvUpdateHeavy => drive::<workloads::KvUpdateHeavy>(w, seed, plan, trace),
        Workload::KvReadHeavy => drive::<workloads::KvReadHeavy>(w, seed, plan, trace),
        Workload::Recover => drive::<workloads::Recover>(w, seed, plan, trace),
    }
}

fn drive<B: Bench>(w: Workload, seed: u64, plan: &Plan, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    out.line(format!(
        "dss-perfbench workload={} seed={seed} budget={:?} trace={}",
        w.name(),
        plan.budget,
        u8::from(trace)
    ));
    out.line(format!(
        "host cpus={} os={} arch={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::OS,
        std::env::consts::ARCH
    ));
    out.line(format!(
        "constants {} flush_penalty_spins={} coalescing=off per_address_drains=off backoff=off \
         loop=closed",
        w.constants(),
        workloads::FLUSH_PENALTY
    ));
    let flush_ns = [workloads::FLUSH_PENALTY, 0].map(|p| flush_ns(p, plan.calibration_flushes));
    out.line(format!(
        "pmem.flush_ns penalty{}={:.2} penalty0={:.2} ({} flushes each, line-granular pool)",
        workloads::FLUSH_PENALTY,
        flush_ns[0],
        flush_ns[1],
        plan.calibration_flushes
    ));

    let mut setups = Vec::new();
    let began = Instant::now();
    let mut bench = None;
    let (min_reps, min_time) = plan.setup_min;
    while setups.len() < min_reps as usize
        || (began.elapsed() < min_time && setups.len() < SETUP_MAX_REPS as usize)
    {
        let t = Instant::now();
        let b = B::setup(seed);
        setups.push(t.elapsed().as_secs_f64());
        // The previous instance is dropped outside the timed region.
        drop(bench.replace(b));
    }
    let bench = bench.expect("set-up ran at least once");
    let setup_s = quantile(&mut setups, 0.5);
    out.line(format!("setup_s={setup_s:.6} (median of {} set-ups)", setups.len()));
    let mut clients: Vec<B::Client> = (0..B::CLIENTS).map(|t| bench.client(t, seed)).collect();

    if trace {
        let plain = measure(&bench, &mut clients, plan.budget.halved(), |_| Timer::default());
        report_run(&mut out, "untraced run", &plain);
        out.metric("lat_p99_us", plain.lat.get(w.headline()).percentile(99.0) / 1e3);
        let epoch = Instant::now();
        let traced = measure(&bench, &mut clients, plan.budget.halved(), |t| Tracer::new(epoch, t));
        report_run(&mut out, "traced run", &traced);
        out.metric("trace.overhead_pct", (1.0 - traced.ops_per_s() / plain.ops_per_s()) * 100.0);
        out.absorb(&plain.tally);
        out.absorb(&traced.tally);
        let mut spans: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for p in traced.probes {
            for (name, s) in p.spans {
                let agg = spans.entry(name).or_default();
                agg.dur.merge(&s.dur);
                agg.self_ns += s.self_ns;
                agg.root = s.root;
            }
            out.spans.extend(p.kept);
        }
        layer_metrics(&mut out, &spans);
        pmem_metrics(&mut out, &plain.pmem, plain.tally.ops, bench.pool());
        out.metric("pmem.flush_ns", flush_ns[0]);
        out.metric("pmem.flush_ns_penalty0", flush_ns[1]);
        out.metric("ops_failed_share", out.failed as f64 / out.attempted.max(1) as f64);
    } else {
        let timed = measure(&bench, &mut clients, plan.budget, |_| Timer::default());
        report_run(&mut out, "timed run", &timed);
        pmem_line(&mut out, &timed.pmem, timed.tally.ops, bench.pool());
        out.metric("setup_s", setup_s);
        out.metric("ops_per_s", timed.ops_per_s());
        out.metric("lat_p50_us", timed.p50_us(w.headline()));
        out.absorb(&timed.tally);
    }

    let post = bench.check();
    out.line(format!("post-run check violations={post}"));
    out.violations += post;
    drop(bench);
    let verified = B::verify(seed, plan.verify_ops);
    out.line(format!(
        "verify ops_checked={} violations={}{}",
        verified.ops_checked,
        verified.violations,
        verified.error.as_deref().map(|e| format!(" error={e}")).unwrap_or_default()
    ));
    out.violations += verified.violations;
    if trace {
        out.metric("verify.ops_checked", verified.ops_checked as f64);
        out.metric("verify.violations", verified.violations as f64);
    }
    out.line(format!(
        "attempted={} failed={} violations={} correct={}",
        out.attempted,
        out.failed,
        out.violations,
        out.correct()
    ));
    out
}

/// What one measured run produced.
struct Measured<P> {
    probes: Vec<P>,
    tally: Tally,
    /// Per window: latencies, and the clients' rates summed.
    windows: Vec<(KindHists, f64)>,
    /// Every latency of the run.
    lat: KindHists,
    seconds: f64,
    pmem: StatsSnapshot,
}

impl<P> Measured<P> {
    /// The clients' summed rate in the fast windows (see [`FAST_SHARE`]).
    fn ops_per_s(&self) -> f64 {
        let mut v: Vec<f64> = self.windows.iter().map(|(_, rate)| *rate).collect();
        quantile(&mut v, 1.0 - FAST_SHARE)
    }

    /// `kind`'s median latency in the fast windows (see [`FAST_SHARE`]),
    /// in µs.
    fn p50_us(&self, kind: Kind) -> f64 {
        let mut v: Vec<f64> = self
            .windows
            .iter()
            .map(|(lat, _)| lat.get(kind).percentile(50.0) / 1e3)
            .filter(|v| v.is_finite())
            .collect();
        quantile(&mut v, FAST_SHARE)
    }
}

/// Runs every client in its own thread, closed loop, until the budget is
/// spent, cutting a timed budget into [`WINDOW`]s. A client's rate in a
/// window is its completed operations over the window's length less the
/// time it spent outside the workload's calls (simulated crashes, checks).
fn measure<B: Bench, P: Probe + Send>(
    bench: &B,
    clients: &mut [B::Client],
    budget: Budget,
    probe: impl Fn(usize) -> P + Sync,
) -> Measured<P> {
    let before = bench.pool().stats();
    let barrier = Barrier::new(clients.len());
    let (quota, windows) = match budget {
        Budget::Ops(n) => (n.div_ceil(clients.len() as u64).max(1), 1),
        Budget::Seconds(secs) => (u64::MAX, ((secs / WINDOW.as_secs_f64()).round() as u32).max(1)),
    };
    type Window = (KindHists, u64, f64);
    let results: Vec<(P, Tally, Vec<Window>, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(tid, c)| {
                let (barrier, probe) = (&barrier, &probe);
                s.spawn(move || {
                    let mut p = probe(tid);
                    let mut t = Tally::default();
                    let mut wins: Vec<Window> = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = match budget {
                        Budget::Seconds(secs) => Some(start + Duration::from_secs_f64(secs)),
                        Budget::Ops(_) => None,
                    };
                    let (mut from, mut ops, mut excluded) = (start, 0, 0);
                    loop {
                        bench.step(c, &mut p, &mut t);
                        let now = p.last_end();
                        let done = match deadline {
                            Some(d) => now >= d,
                            None => t.attempted >= quota,
                        };
                        let boundary = start + WINDOW * (wins.len() as u32 + 1);
                        if done || (now >= boundary && wins.len() as u32 + 1 < windows) {
                            let busy = (now - from).as_secs_f64()
                                - (t.excluded_ns - excluded) as f64 / 1e9;
                            wins.push((p.take_lat(), t.ops - ops, busy));
                            (from, ops, excluded) = (now, t.ops, t.excluded_ns);
                        }
                        if done {
                            break;
                        }
                    }
                    let ran = (p.last_end() - start).as_secs_f64();
                    (p, t, wins, ran)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let pmem = bench.pool().stats().since(&before);
    let mut m = Measured {
        probes: Vec::new(),
        tally: Tally::default(),
        windows: Vec::new(),
        lat: KindHists::default(),
        seconds: 0.0,
        pmem,
    };
    for (p, t, wins, ran) in results {
        for (i, (lat, ops, busy)) in wins.into_iter().enumerate() {
            if m.windows.len() == i {
                m.windows.push((KindHists::default(), 0.0));
            }
            m.lat.merge(&lat);
            m.windows[i].0.merge(&lat);
            m.windows[i].1 += ops as f64 / busy;
        }
        m.seconds = m.seconds.max(ran);
        m.tally.merge(&t);
        m.probes.push(p);
    }
    m
}

fn report_run<P>(out: &mut Outcome, what: &str, m: &Measured<P>) {
    let t = &m.tally;
    out.line(format!(
        "{what}: {:.3} s in {} windows, ops={} attempted={} failed={} violations={} \
         ops_per_s={:.1} (fast windows)",
        m.seconds,
        m.windows.len(),
        t.ops,
        t.attempted,
        t.failed,
        t.violations,
        m.ops_per_s()
    ));
    let mut rates: Vec<f64> = m.windows.iter().map(|(_, r)| *r).collect();
    out.line(format!(
        "  ops_per_s over windows: min={:.0} p10={:.0} median={:.0} p90={:.0} max={:.0}",
        quantile(&mut rates, 0.0),
        quantile(&mut rates, 0.1),
        quantile(&mut rates, 0.5),
        quantile(&mut rates, 0.9),
        quantile(&mut rates, 1.0)
    ));
    for kind in Kind::ALL {
        let h = m.lat.get(kind);
        if h.count() > 0 {
            let name = kind.name();
            out.line(format!(
                "  {name}_p50_us={:.4} (fast windows) whole run {}",
                m.p50_us(kind),
                h.summary()
            ));
        }
    }
    if t.crash.count() > 0 {
        out.line(format!("  pmem.crash_us (simulator, excluded) {}", t.crash.summary()));
    }
    if t.retries > 0 {
        out.line(format!("  map puts retried after node-pool exhaustion: {}", t.retries));
    }
}

/// Per-operation pool counters, in the order of [`PER_LAYER`].
fn pmem_per_op(s: &StatsSnapshot, ops: u64) -> [(&'static str, f64); 6] {
    let per = |n: u64| n as f64 / ops.max(1) as f64;
    let cas = s.cas_ok + s.cas_fail;
    [
        ("pmem.flushes_per_op", per(s.flushes)),
        ("pmem.fences_per_op", per(s.fences)),
        ("pmem.loads_per_op", per(s.loads)),
        ("pmem.stores_per_op", per(s.stores)),
        ("pmem.cas_per_op", per(cas)),
        ("pmem.cas_fail_ratio", s.cas_fail as f64 / cas.max(1) as f64),
    ]
}

fn pmem_line(out: &mut Outcome, s: &StatsSnapshot, ops: u64, pool: &PmemPool) {
    let counts: Vec<String> =
        pmem_per_op(s, ops).iter().map(|(n, v)| format!("{n}={v:.3}")).collect();
    out.line(format!("{} pmem.capacity_words={}", counts.join(" "), pool.capacity()));
}

fn pmem_metrics(out: &mut Outcome, s: &StatsSnapshot, ops: u64, pool: &PmemPool) {
    pmem_line(out, s, ops, pool);
    for (name, v) in pmem_per_op(s, ops) {
        out.metric(name, v);
    }
    out.metric("pmem.capacity_words", pool.capacity() as f64);
}

/// What a layer call does, from the function it enters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Prep,
    Exec,
    Read,
    Recovery,
}

fn role(span: &str) -> Option<Role> {
    let function = span.split_once('.').map_or(span, |(_, f)| f);
    match function {
        f if f.starts_with("prep_") => Some(Role::Prep),
        f if f.starts_with("exec_") => Some(Role::Exec),
        "get" | "peek_front" => Some(Role::Read),
        "recover" | "rebuild_allocator" | "resolve" => Some(Role::Recovery),
        _ => None,
    }
}

/// Per-layer metrics from the traced run's span aggregates, plus a report
/// line per span name. Self times of all spans must add up to the root
/// spans' total duration; a gap over 1% is a violation of the tracer.
fn layer_metrics(out: &mut Outcome, spans: &BTreeMap<&'static str, SpanStats>) {
    let root_ns: u128 = spans.values().filter(|s| s.root).map(|s| s.dur.sum_ns()).sum();
    let pct = |ns: u128| ns as f64 / root_ns.max(1) as f64 * 100.0;
    for (name, s) in spans {
        out.line(format!(
            "span {name}: {} self={:.2}% of root time",
            s.dur.summary(),
            pct(s.self_ns)
        ));
    }
    let all_self: u128 = spans.values().map(|s| s.self_ns).sum();
    let gap = pct(all_self.abs_diff(root_ns));
    out.line(format!("span self times cover {:.4}% of root time (gap {gap:.4}%)", pct(all_self)));
    if gap > 1.0 {
        out.violations += 1;
    }
    let calls = |want: Role| {
        spans.iter().filter(move |(n, s)| !s.root && role(n) == Some(want)).map(|(_, s)| s)
    };
    let self_pct = |want: Role| pct(calls(want).map(|s| s.self_ns).sum());
    out.metric("client.self_pct", pct(spans.values().filter(|s| s.root).map(|s| s.self_ns).sum()));
    out.metric("core.prep_pct", self_pct(Role::Prep));
    out.metric("core.exec_pct", self_pct(Role::Exec));
    out.metric("core.read_pct", self_pct(Role::Read));
    out.metric("core.recovery_pct", self_pct(Role::Recovery));
    for (want, p50, p99) in [
        (Role::Prep, "core.prep_us.p50", "core.prep_us.p99"),
        (Role::Exec, "core.exec_us.p50", "core.exec_us.p99"),
    ] {
        let mut h = Histogram::new();
        for s in calls(want) {
            h.merge(&s.dur);
        }
        out.metric(p50, h.percentile(50.0) / 1e3);
        out.metric(p99, h.percentile(99.0) / 1e3);
    }
}

/// Median cost of one `PmemPool::flush` on a private line-granular pool,
/// in nanoseconds, over ten batches of `flushes / 10`.
fn flush_ns(penalty: u64, flushes: u64) -> f64 {
    const LINES: u64 = 512;
    let pool =
        PmemPool::with_granularity(((LINES + 1) * WORDS_PER_LINE) as usize, FlushGranularity::Line);
    pool.set_flush_penalty(penalty);
    let batch = (flushes / 10).max(1);
    let mut per_flush: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            for i in 0..batch {
                pool.flush(PAddr::from_index((1 + i % LINES) * WORDS_PER_LINE));
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    quantile(&mut per_flush, 0.5)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`), interpolated linearly between the two
/// nearest values in sorted order; NaN for no values.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else { return f64::NAN };
    let pos = q * last as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(&hi) => v[lo] + (hi - v[lo]) * frac,
        None => v[lo],
    }
}

/// Writes the kept raw spans as JSON lines: operation id, span index within
/// the operation, parent index, name, start and end in ns since the traced
/// run began.
///
/// # Errors
///
/// Any I/O error creating or writing `path`.
pub fn write_trace(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut index = 0;
    for s in spans {
        index = if s.parent.is_none() { 0 } else { index + 1 };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"op\": {}, \"span\": {index}, \"parent\": {parent}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_sorted_values() {
        let mut v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 0.1), 1.4);
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(quantile(&mut [2.0, 1.0], 0.5), 1.5);
        assert_eq!(quantile(&mut [7.0], 0.9), 7.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }
}
