#!/usr/bin/env bash
# Repository CI gate. Run from the workspace root; exits non-zero on the
# first failure. The build environment is fully offline — everything here
# works without network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> perfbench's own tests (unit tests + workloads.rs)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> rustdoc gate (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> E3 flush-count golden (E3-E3f: queue pairs, binding ops, stack, replicated queue, recovery, coalescing absorption)"
# Single-threaded and deterministic: a diff is a changed pool-operation
# sequence, never an interleaving, so the step needs no retry loop.
cargo run -q -p dss-harness --release --bin flush_counts | diff -u results/flush_counts.txt -

echo "==> fig5a smoke (both backends, minimal sizes)"
cargo run -q -p dss-harness --release --bin fig5a -- \
    --threads 1 --ms 20 --repeats 1 \
    --backend pmem --backend dram >/dev/null

echo "==> contention bench smoke (2 threads, coalesce/per-address/backoff grid, both backends)"
cargo bench -q -p dss-bench --bench contention -- \
    --threads 2 --ms 20 --repeats 1 --backend pmem --backend dram >/dev/null

echo "==> contention bench smoke (per-address drains at a realistic penalty)"
cargo bench -q -p dss-bench --bench contention -- \
    --threads 2 --ms 20 --repeats 1 --penalty 200 >/dev/null

echo "==> bench flag refusal (a misspelled flag fails the run)"
# cargo appends --bench to a harness = false target's argv; the target
# accepts that one and refuses every argument it does not read.
if cargo bench -q -p dss-bench --bench contention -- --thread 2 >/dev/null 2>&1; then
    echo "contention accepted the misspelled --thread" >&2
    exit 1
fi

echo "==> multi-process smoke (SIGKILLed victims, parent attaches the pool file)"
cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --multi-process on >/dev/null

# Re-runs a recorded crash-matrix invocation and diffs its output byte for
# byte against results/crash_matrix_<name>.txt. The checked-histories
# window columns depend on how the recorded threads interleave, so a
# mismatching run is retried four times before the diff fails the gate.
golden() {
    local name=$1
    shift
    local out
    out=$(mktemp)
    for _ in 1 2 3 4 5; do
        timeout 300 cargo run -q -p dss-harness --release --bin crash_matrix -- "$@" >"$out"
        if cmp -s "results/crash_matrix_$name.txt" "$out"; then
            rm -f "$out"
            return 0
        fi
    done
    diff -u "results/crash_matrix_$name.txt" "$out"
    rm -f "$out"
    return 1
}

echo "==> crash-matrix golden diffs (every layer, every recorded mode)"
golden default
golden word_random --granularity word --adversary random --seed 7
golden partial_recovery --partial-recovery on
golden replicated --layer replicated
golden replicated_partial_recovery --layer replicated --partial-recovery on
golden replicated_multi_process --layer replicated --multi-process on
golden map --layer map
golden map_partial_recovery --layer map --partial-recovery on
golden map_multi_process --layer map --multi-process on

echo "==> replication read-scaling smoke (replica-local reads vs single instance, E15 gate)"
# The gate self-tiers by host parallelism: >=4 CPUs demand 1.5x at 4
# threads, 2-3 CPUs parity-within-noise at the top of the sweep, 1 CPU
# skips (replica-local reads cannot scale without parallelism). The
# sweep must include a 4-thread point for the >=4-CPU tier.
timeout 300 cargo bench -q -p dss-bench --bench replication -- \
    --threads 4 --ms 30 --repeats 2 --assert-read-scaling >/dev/null
rm -f crates/bench/BENCH_replication.json

echo "==> YCSB kv smoke (read-heavy vs update-heavy on the detectable map, E16 gate)"
# The gate self-tiers by host parallelism: >=4 CPUs demand the read-heavy
# Zipfian mix beat the update-heavy mix 1.2x at 4 threads (plain reads
# skip the flush path); smaller hosts demand at-least-parity within noise
# at the top of the sweep.
timeout 300 cargo bench -q -p dss-bench --bench kv -- \
    --threads 4 --ms 30 --repeats 2 --keys 256 --assert-kv-mix >/dev/null
rm -f crates/bench/BENCH_kv.json

echo "==> perfbench smoke (every workload, timed run + verified history)"
# perfbench exits non-zero when any output of the run was incorrect.
for workload in queue-pair queue-replicated-read kv-update-heavy kv-read-heavy recover; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 >/dev/null
done

echo "==> checker equivalence gate (segmented/streaming/FIFO vs monolithic oracle)"
timeout 120 cargo test -q -p dss-checker --test checker_equivalence
timeout 120 cargo test -q -p dss-harness --test seeded_violations

echo "==> full-length checking smoke (>=10k ops through the partitioned pipeline)"
timeout 60 cargo run -q -p dss-harness --release --bin check_histories -- \
    --mode partitioned >/dev/null

echo "CI green."
