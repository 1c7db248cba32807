#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and runs
# the thread-pool, coalition-engine, kernel, secure-aggregation, native-SV
# and observability suites. These are the places real data races could
# hide: the chunked ParallelFor, the engine's parallel utility scoring +
# sharded CachingUtility, parallel coalition retraining, and the sharded
# metrics / thread-local span machinery in src/obs. The compute kernels
# and mask expansion run on their caller's thread; their suites and
# bench_kernels --quick run here because the round engine's pool workers
# call them concurrently, one scratch buffer per owner.
# test_fault and a reduced test_chaos sweep run the full faulted
# protocol (fault injection, recovery, view changes) under TSan too.
# test_sig_cache, test_merkle and bench_chain_throughput --quick cover
# the sharded, mutex-guarded signature-verify cache that every miner
# shares. The chain layer runs a proposal's validations in parallel on
# the session pool, each miner re-executing against its own state while
# the contract host, its verify cache and the contracts' shared utility
# memo are shared: test_consensus (pooled validation under duplicate,
# reorder and slow faults) and test_adversary (tampering and griefing
# miners in whole coordinator sessions) cover that here.
# Since the telemetry-plane PR it also covers the HTTP exporter (scrape
# threads racing a live coordinator round) and the round ledger's
# coordinator wiring, plus the snapshot-vs-Reset stress in test_metrics.
# Since the parallel round engine PR it also covers the owner fan-out
# (test_round_engine: concurrent train/mask/payload against the
# allocation-free ParallelFor), dropout recovery in pooled sessions
# (test_dropout_recovery; test_shamir for the sharing it relies on) and
# bench_e2e_rounds, whose 5 pairs of pool-1-vs-pool-N training-heavy
# sessions run the whole protocol both ways.
# Since the byzantine-hardening PR it also covers the Feldman share
# verification (test_vss, batched ModPow under a pool) and the full
# accusation/slashing path under a multi-thread pool (test_byzantine),
# where slash transactions race the owner fan-out.
# Since the durable-persistence PR it also covers kill/restart recovery
# (test_resume, reduced to the multi-thread-pool cases): the block-log
# commit sink and checkpoint writes interleave with the hot owner
# fan-out, and the resumed session must still be bit-identical.
# The reduced suites are picked by --gtest_filter; every pattern of a
# filter must select at least one test, so a renamed test fails this
# script instead of silently dropping out of it.
#
# Usage: scripts/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBCFL_SANITIZE=thread \
  -DBCFL_BUILD_BENCHMARKS=ON \
  -DBCFL_BUILD_EXAMPLES=OFF

cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target test_thread_pool test_coalition_engine test_utility \
  test_kernels test_secureagg test_native_sv \
  test_metrics test_tracer test_http_exporter test_round_ledger \
  test_fault test_chaos \
  test_round_engine test_shamir test_vss test_dropout_recovery \
  test_byzantine test_sig_cache test_merkle test_resume test_consensus \
  test_adversary bench_kernels \
  bench_chain_throughput bench_e2e_rounds

# halt_on_error: fail the script on the first race instead of limping on.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

# Runs gtest binary $1 on --gtest_filter $2. gtest passes a filter that
# selects nothing, so each ':'-separated pattern must list a test first.
run_filtered() {
  local binary="$1" filter="$2" pattern listed
  local -a patterns
  IFS=':' read -ra patterns <<< "$filter"
  for pattern in "${patterns[@]}"; do
    listed="$("$binary" --gtest_list_tests --gtest_filter="$pattern")"
    if ! grep -q '^  ' <<< "$listed"; then
      echo "tsan_check: '$pattern' selects no test in $binary" >&2
      exit 1
    fi
  done
  "$binary" --gtest_filter="$filter"
}

"$BUILD_DIR/tests/test_thread_pool"
"$BUILD_DIR/tests/test_coalition_engine"
"$BUILD_DIR/tests/test_utility"
"$BUILD_DIR/tests/test_kernels"
"$BUILD_DIR/tests/test_secureagg"
"$BUILD_DIR/tests/test_native_sv"
"$BUILD_DIR/tests/test_metrics"
"$BUILD_DIR/tests/test_tracer"
"$BUILD_DIR/tests/test_http_exporter"
"$BUILD_DIR/tests/test_round_ledger"
"$BUILD_DIR/tests/test_fault"
"$BUILD_DIR/tests/test_round_engine"
"$BUILD_DIR/tests/test_shamir"
"$BUILD_DIR/tests/test_vss"
"$BUILD_DIR/tests/test_dropout_recovery"
# Byzantine coordinator rounds under TSan: slash transactions landing
# during recovery while the round engine's owner fan-out is hot.
run_filtered "$BUILD_DIR/tests/test_byzantine" \
  'PoolSizes/SlashEqualsCrashTest.BadShareForgerDuringRecovery/Pool3:ByzantineTest.MixedByzantinePlanIsPoolSizeInvariant'
"$BUILD_DIR/tests/test_sig_cache"
"$BUILD_DIR/tests/test_merkle"
# Pooled proposal validation: each miner's own state, the shared host.
"$BUILD_DIR/tests/test_consensus"
"$BUILD_DIR/tests/test_adversary"
# Kill/restart under TSan, reduced to the multi-thread-pool cases where
# checkpoint/block-log writes race the owner fan-out.
run_filtered "$BUILD_DIR/tests/test_resume" \
  'ResumeTest.Pool3KillMidSessionResumesBitIdentical:ResumeTest.ResumeSurvivesFaultsBesidesTheKill'
# Chaos under TSan: full faulted protocol runs (coordinator + consensus
# + recovery) with a reduced sweep — TSan is ~10x slower per seed.
BCFL_CHAOS_SEEDS="${BCFL_CHAOS_SEEDS:-2}" "$BUILD_DIR/tests/test_chaos"

# The benches write BENCH_*.json; keep them out of the tree.
TSAN_TMP="$(mktemp -d)"
trap 'rm -rf "$TSAN_TMP"' EXIT
BENCH_KERNELS="$(cd "$BUILD_DIR" && pwd)/bench/bench_kernels"
(cd "$TSAN_TMP" && "$BENCH_KERNELS" --quick)
BENCH_CHAIN="$(cd "$BUILD_DIR" && pwd)/bench/bench_chain_throughput"
(cd "$TSAN_TMP" && "$BENCH_CHAIN" --quick)
BENCH_E2E="$(cd "$BUILD_DIR" && pwd)/bench/bench_e2e_rounds"
(cd "$TSAN_TMP" && "$BENCH_E2E")

echo "TSan: all clean"
