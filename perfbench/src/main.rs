//! `dss-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload from one seed. The seed makes every input: the
//! operation mix, the keys and the values. Everything else is a constant of
//! the code and is printed in the report header: client threads (at most
//! two), the flush penalty (20 spin iterations), and the pool knobs
//! (write-behind coalescing, per-address drains and backoff all off).
//! Clients run a closed loop, as library callers do: each issues its next
//! operation when the previous one returns.
//!
//! Before measuring, the run times one `PmemPool::flush` (the flush cost in
//! nanoseconds) and builds and loads the workload's structure repeatedly,
//! at least 5 times and for at least 1 s, keeping the last instance. With
//! `--trace 0` the workload then runs untraced for `--seconds` (default 10)
//! and the result line carries the end-to-end metrics. With `--trace 1` it
//! runs untraced for half the time and traced for the other half; the
//! result line carries the per-layer metrics and the raw spans of one
//! operation in 64 go to `perfbench/trace.jsonl`. Either way the run then
//! checks its outputs and replays the workload's generator on a fresh
//! structure for 20 000 operations per client, recording the history and
//! machine-checking it.
//! Report lines start with `#`; the last line is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! The exit code is 0 when every output was correct, 1 when one was not and
//! 2 for a bad command line.
//!
//! # Workloads
//!
//! | name | set-up | clients | mix | why |
//! |---|---|---|---|---|
//! | `queue-pair` | `DssQueue`, prefill 16 | 1 | detectable enqueue (`prep_enqueue`+`exec_enqueue`) then detectable dequeue | The paper's §4 / Fig. 5 pair: the queue's Fig. 3–4 path and pmem's flush path, bypassing the map, replicas and recovery. One client repeats within a few percent, where two spread widely run to run; every dequeue is checked against the value enqueued 16 pairs earlier. |
//! | `queue-replicated-read` | `ReplicatedQueue`, 2 replicas, prefill 16 | 1 | 90% `peek_front`, 10% detectable pairs | Replica-local DRAM reads next to leased log appends: the lease/appender protocol, replica catch-up and checkpoints, bypassing the CAS-racing queue and the map. With two clients, one waiting on the other's lease, `ops_per_s` spread 34% across ten seeds while other tenants loaded the host; one client also lets every peek and dequeue be checked against a FIFO model. |
//! | `kv-update-heavy` | `DetectableMap`, 4096 keys in 1024 buckets, keys ≡ `t` (mod 2) loaded with plain `put` through client `t`'s handle, from one thread | 2 | YCSB-A: 50% `get`, 50% detectable put, Zipf θ = 0.99 | The map's write path (pending sweep, allocation, announce, install, flushes) does most of the work, with reads alongside. |
//! | `kv-read-heavy` | as `kv-update-heavy` | 2 | YCSB-B: 95% `get`, 5% detectable put | The same map read mostly, on hot keys writers also touch: a write-path change that moves cost onto readers shows here. |
//! | `recover` | `DssQueue`, 2 slots, length 4096 | 1 | slot 0 enqueues, slot 1 dequeues, slot 0 prepares one more enqueue; `crash(WritebackAdversary::None)`; `recover`, `rebuild_allocator`, `resolve` on both slots | What a user pays after a crash (Fig. 6), bypassing every hot path. The adversary discards every unflushed write. After each cycle both verdicts and the length 4096 are checked. |
//!
//! A map put whose node allocation meets a momentarily empty pool (the map
//! reclaims only once its free lists run dry, and needs the other client
//! unpinned then) is retried after 100 µs; report lines count the retries.
//!
//! One operation, for `ops_per_s` and `attempted`: a detectable prep+exec,
//! a `get` or a `peek_front` (so a pair is two), and in `recover` one whole
//! crash–recovery cycle. `recover` divides by its run time less the
//! simulated crash and the checks, which are the simulator's cost and the
//! benchmark's, not the user's.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | name | unit | better | bound | what |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | 25% | median time to build and load the workload's structure |
//! | `ops_per_s` | ops/s | higher | 25% | operations per second, summed over clients, in the fast windows |
//! | `lat_p50_us` | µs | lower | 25% | median latency of the workload's headline operation, in the fast windows |
//!
//! The headline operation is the pair on `queue-pair` and
//! `queue-replicated-read`, the detectable put on `kv-update-heavy`, `get`
//! on `kv-read-heavy`, and recovery (`recover` + `rebuild_allocator` + both
//! `resolve`s, the crash itself excluded) on `recover`. A replica-local
//! `peek_front` takes some 55 ns, near a clock read's cost, and with two
//! clients its median moved by up to 2× while other tenants loaded the
//! host; its cost shows in `peek_p50_us` and the per-layer `core.read_pct`.
//!
//! The timed run is cut into 100 ms windows, and both metrics come from
//! the fast side of them: `ops_per_s` is the 90th percentile of the window
//! rates and `lat_p50_us` the 10th percentile of the window medians. Load
//! from outside the process only slows a window, never speeds one up: on
//! the two-vCPU shared host this benchmark was built on, a busy process
//! beside `queue-replicated-read` slowed every call, peeks and clock reads
//! included, by some 35%, and in one batch of ten runs a third of the runs
//! read a pair median 25% above the rest. Taken over whole runs or as the
//! median of 1 s windows, such figures measure the neighbours; the fast
//! windows measure the code, and a change to the code moves every window.
//! The headline p99 spread up to 23% between runs (recovery, `get`), so it
//! is reported without a bound, as the per-layer metric `lat_p99_us`.
//!
//! Report lines give the spread of the window rates and, for every
//! operation kind a workload issues, its fast-window p50 (`pair_p50_us`,
//! `get_p50_us`, `peek_p50_us`, `recovery_p50_us`, …) and the whole run's
//! sample count, p50, p99 and highest percentile with at least ten samples
//! beyond it. Failed operations are the result line's `failed` count.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Spans are recorded from this benchmark's own code around each call into
//! `dss-core`; the library itself is not instrumented. Each operation is a
//! root span (`op.put`, `op.recovery`, …) whose children are the calls it
//! made (`map.prep_put`, `queue.rebuild_allocator`, …); report lines give
//! every span name's latency distribution and self-time share. The metrics
//! group calls by role, and each should move the end-to-end metrics named:
//!
//! | name | unit | what | should move |
//! |---|---|---|---|
//! | `lat_p99_us` | µs | the headline operation's p99 over the whole untraced half | the same as `lat_p50_us` |
//! | `client.self_pct` | % | root spans' self time (the benchmark's own code between calls, two clock reads included) as a share of root time | nothing |
//! | `core.prep_pct`, `core.prep_us.p50`, `core.prep_us.p99` | %, µs | `prep_*` calls (`map.rs` `prep_put`, `queue/ops.rs` and `queue/replicated.rs` `prep_enqueue`/`prep_dequeue`) | `lat_*` and `ops_per_s` on `kv-update-heavy` (less on `kv-read-heavy`), `queue-pair` |
//! | `core.exec_pct`, `core.exec_us.p50`, `core.exec_us.p99` | %, µs | `exec_*` calls; on `queue-replicated-read` the leased log append | `lat_*` and `ops_per_s` on `queue-pair`, `queue-replicated-read`, `kv-update-heavy` |
//! | `core.read_pct` | % | `map.get` and `replicated.peek_front` | `lat_*` on `kv-read-heavy`; `ops_per_s` on `queue-replicated-read` |
//! | `core.recovery_pct` | % | `queue/recovery.rs` `recover`, `rebuild_allocator` and `resolve` | `lat_*` on `recover` |
//! | `pmem.flushes_per_op`, `pmem.fences_per_op`, `pmem.loads_per_op`, `pmem.stores_per_op`, `pmem.cas_per_op` | count | `PmemPool::stats()` deltas over the untraced half, per operation | `ops_per_s` and `lat_*` on the write workloads |
//! | `pmem.cas_fail_ratio` | ratio | failed CAS over all CAS | `ops_per_s` on the map workloads |
//! | `pmem.flush_ns`, `pmem.flush_ns_penalty0` | ns | one `PmemPool::flush` on a private pool at penalty 20 and 0, median of 10 batches of 100 000 | all write latencies (the modelled flush cost in nanoseconds) |
//! | `pmem.capacity_words` | count | words the structure's pool holds | nothing (space) |
//! | `trace.overhead_pct` | % | untraced over traced `ops_per_s`, less one | nothing: the tracer's cost |
//! | `verify.ops_checked`, `verify.violations` | count | size and outcome of the recorded verify pass | nothing; violations must be 0 |
//! | `ops_failed_share` | ratio | failed over attempted operations | nothing; must be 0 |
//!
//! Report lines also give the simulated crash's duration on `recover`
//! (`pmem.crash_us`, excluded from every metric above) and the check that
//! the self times of all spans add up to the root spans' duration within 1%.

use std::process::ExitCode;

use dss_perfbench::{run, write_trace, Plan, Workload};

const USAGE: &str = "usage: dss-perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("not one of {}", names.join(", ")))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(args.workload, args.seed, &Plan::timed(args.seconds), args.trace);
    for line in &out.lines {
        println!("{line}");
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace.jsonl");
        match write_trace(&out.spans, &path) {
            Ok(()) => println!("# wrote {} spans to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
