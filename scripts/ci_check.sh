#!/usr/bin/env bash
# One-shot CI gate: configure with warnings as errors (-DBCFL_WERROR=ON),
# build, run the full ctest suite, then run a small end-to-end bcfl_sim
# session and assert the observability artifacts it emits are valid —
# metrics.json parses and carries the expected per-round counters,
# trace.json parses as Chrome trace_event, and every phase key of the
# round ledger is a metrics.json histogram whose sum covers the ledgered
# time.
# A telemetry stage gates the fresh quick chain bench against the
# committed BENCH_chain.json baseline with tools/bench_diff (and proves
# the gate bites on an injected 2x regression), then runs the
# bench_table1_runtime --quick obs-overhead gate (<3%, bit-identical SV).
# A round engine stage runs bench_e2e_rounds: on the training-heavy
# shape the pool-1 and pool-N sessions must be identical, and on >= 4
# pool threads pool N must be >= 2x faster; the fresh numbers are gated
# against the committed BENCH_e2e.json baseline with tools/bench_diff.
# (Pool-size invariance across shapes and faults, and the frozen session
# vectors, are ctest's.)
# A chaos stage follows: one faulted session whose executed fault
# schedule must land in metrics.json, then a BCFL_CHAOS_SEEDS-wide
# random-fault sweep (default 200) in which every seed must converge —
# bcfl_sim exits non-zero on any failed or hung round — while writing a
# per-round JSONL protocol ledger that must parse end to end.
# A byzantine stage closes it out: hand-written plans covering every
# misbehavior kind (forged recovery share, equivocating submit, poisoned
# update) must produce exactly the expected on-chain slash schedule with
# the offender's reward burned, and a BCFL_CHAOS_SEEDS-wide byzantine-mix
# sweep must converge on every seed while the shared ledger records the
# slashes and accusations.
# A crash-restart stage kills a session mid-run and resumes it from its
# state dir, bit-identical to an uninterrupted run.
# Right after ctest, an AddressSanitizer stage rebuilds the suites that
# drive in-place block execution and its undo-journal rollback
# (proposals, validations, failed transactions and commits, byzantine
# leaders, replay on resume, block-log recovery), the immutable
# transaction type (signing, moves, the parts constructor and every tx
# decoder), and the compute kernels, masking and coalition engine with
# their reused scratch buffers, SHA-256 (whose SHA-NI path loads 16
# bytes at a time straight from callers' buffers), and the byte codec
# with its callers that decode whole checkpoints and setup params (whose
# bulk vector and matrix paths copy straight out of and into callers'
# buffers), the contract-state record helpers with the reward records,
# the verified share reveal of dropout recovery, and the round ledger's
# resume truncation, with
# -DBCFL_SANITIZE=address in their own build dir (<build-dir>-asan), so a
# dangling journal entry, a use-after-rollback, a use-after-move or a
# scratch or codec overrun fails CI.
# An UndefinedBehaviorSanitizer stage then rebuilds everything with
# -DBCFL_SANITIZE=undefined in <build-dir>-ubsan and runs the whole ctest
# suite with UBSAN_OPTIONS=halt_on_error=1, so any undefined behaviour
# (a null pointer handed to memcpy, a misaligned load, signed overflow)
# fails CI.
# The smoke session's metrics.json must name the SHA-256 compressor that
# produced its timings ("sha256_path": "sha_ni" or "scalar").
#
# Usage: scripts/ci_check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
ROUNDS=2
CHAOS_SEEDS="${BCFL_CHAOS_SEEDS:-200}"

cmake -B "$BUILD_DIR" -S . -DBCFL_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# AddressSanitizer stage: in-place execution means every trial execution
# writes the live state and undoes it from the journal; ASan checks those
# paths, the transaction type's moves and decoders, the kernels'
# and masking's reused scratch buffers, SHA-256's whole-block reads from
# callers' buffers, and the byte codec's whole-array copies (test_bytes,
# test_matrix, and the checkpoint and setup-params decoders), for
# use-after-free and out-of-bounds access. Every contract-state record is
# written and read through core/state_keys (test_state_keys, and the
# reward records in test_reward), every share reveal goes through
# ShamirSecretSharing::RevealVerified (test_dropout_recovery), and a
# resumed ledger truncates its file in place (test_round_ledger).
ASAN_DIR="${BUILD_DIR}-asan"
ASAN_SUITES=(test_state_contract test_consensus test_adversary test_byzantine
             test_resume test_block_log test_transaction_block test_merkle
             test_sig_cache test_serialization_fuzz test_blockchain
             test_fl_contract test_slash_contract test_kernels test_matrix
             test_logreg test_secureagg test_edge_cases test_native_sv
             test_coalition_engine test_round_engine test_sha256 test_bytes
             test_checkpoint test_params test_reward test_dropout_recovery
             test_state_keys test_round_ledger)
cmake -B "$ASAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBCFL_SANITIZE=address \
  -DBCFL_BUILD_BENCHMARKS=OFF \
  -DBCFL_BUILD_EXAMPLES=OFF
cmake --build "$ASAN_DIR" -j "$(nproc)" --target "${ASAN_SUITES[@]}"
for SUITE in "${ASAN_SUITES[@]}"; do
  ASAN_OPTIONS="halt_on_error=1:detect_stack_use_after_return=1" \
    "$ASAN_DIR/tests/$SUITE"
done
echo "ASan: ${#ASAN_SUITES[@]} suites clean"

# UndefinedBehaviorSanitizer stage: the whole ctest suite, halting on the
# first report.
UBSAN_DIR="${BUILD_DIR}-ubsan"
cmake -B "$UBSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBCFL_SANITIZE=undefined \
  -DBCFL_BUILD_BENCHMARKS=OFF \
  -DBCFL_BUILD_EXAMPLES=OFF
cmake --build "$UBSAN_DIR" -j "$(nproc)"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$UBSAN_DIR" --output-on-failure -j "$(nproc)"
echo "UBSan: ctest suite clean"

# End-to-end smoke: a tiny session must finish and export artifacts.
ARTIFACT_DIR="$(mktemp -d)"
trap 'rm -rf "$ARTIFACT_DIR"' EXIT
# --metrics-port 0 exercises the Prometheus exporter's bind/serve/stop
# path on an ephemeral port; --ledger-out adds the per-round ledger.
"$BUILD_DIR/tools/bcfl_sim" \
  --owners 6 --miners 3 --rounds "$ROUNDS" --groups 3 --instances 800 \
  --metrics-port 0 \
  --metrics-out "$ARTIFACT_DIR/metrics.json" \
  --trace-out "$ARTIFACT_DIR/trace.json" \
  --ledger-out "$ARTIFACT_DIR/ledger.jsonl"

# Kernel-equivalence smoke: bench_kernels exits non-zero unless every
# optimized kernel (GEMM, row softmax, fused softmax step, batched
# ChaCha20 and mask expansion) is bit-identical to its reference path,
# and it drops BENCH_kernels.json in the working directory.
BENCH_KERNELS="$(cd "$BUILD_DIR" && pwd)/bench/bench_kernels"
(cd "$ARTIFACT_DIR" && "$BENCH_KERNELS" --quick)

# Chain-equivalence smoke: bench_chain_throughput exits non-zero unless
# the Montgomery Schnorr path agrees with the seed reference verifier.
# It drops BENCH_chain.json in the working directory.
BENCH_CHAIN="$(cd "$BUILD_DIR" && pwd)/bench/bench_chain_throughput"
(cd "$ARTIFACT_DIR" && "$BENCH_CHAIN" --quick)

# Round engine equivalence smoke: bench_e2e_rounds exits non-zero unless
# the training-heavy session is bit-identical for pool sizes 1 and N.
# It drops BENCH_e2e.json in the working directory.
BENCH_E2E="$(cd "$BUILD_DIR" && pwd)/bench/bench_e2e_rounds"
(cd "$ARTIFACT_DIR" && "$BENCH_E2E")

if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR" "$ROUNDS" <<'EOF'
import json
import sys

artifact_dir, rounds = sys.argv[1], int(sys.argv[2])

metrics = json.load(open(f"{artifact_dir}/metrics.json"))
counters = metrics["counters"]
assert counters["fl.rounds"] == rounds, counters
assert counters["contract.round_evals"] > 0, counters
assert counters["chain.block.committed"] > 0, counters
assert counters["shapley.coalitions_scored"] > 0, counters
assert "fl.round_accuracy" in metrics["gauges"], metrics["gauges"]
histograms = metrics["histograms"]
assert histograms["span.chain.block_commit_us"]["count"] > 0

ledger = [json.loads(line)
          for line in open(f"{artifact_dir}/ledger.jsonl") if line.strip()]
assert len(ledger) == rounds, f"{len(ledger)} ledger records, want {rounds}"
for record in ledger:
    for phase in ("span.fl.train_us", "span.fl.owner_fanout_us",
                  "span.fl.tx_admission_us", "span.fl.local_update_us",
                  "span.fl.eval_us", "secureagg.mask_us",
                  "span.chain.block_commit_us",
                  "span.contract.round_eval_us"):
        assert record["phase_us"][phase] > 0, record["phase_us"]
    assert len(record["sv"]) == 6, record["sv"]
    assert len(record["sv_volatility"]) == 6, record["sv_volatility"]
    assert 0.0 <= record["sig_cache_hit_rate"] <= 1.0, record
assert ledger[-1]["round"] == rounds - 1, ledger[-1]

# The ledger and /metrics agree: each phase key is a histogram and each
# record holds that histogram's growth during its round, so the records
# together hold at most the histogram's sum (setup-time spans and the
# time after a record is written fall outside every record). Values are
# printed with %.6f, hence the rounding allowance.
ledgered = {}
for record in ledger:
    for phase, us in record["phase_us"].items():
        ledgered[phase] = ledgered.get(phase, 0.0) + us
for phase, total in ledgered.items():
    assert phase in histograms, f"ledger phase {phase} is not a histogram"
    assert total <= histograms[phase]["sum"] + 1e-6 * len(ledger), \
        (phase, total, histograms[phase]["sum"])

trace = json.load(open(f"{artifact_dir}/trace.json"))
categories = {event["cat"] for event in trace["traceEvents"]}
expected = {"chain", "secureagg", "fl", "shapley", "contract"}
assert expected <= categories, f"missing categories: {expected - categories}"

kernels = json.load(open(f"{artifact_dir}/BENCH_kernels.json"))
assert kernels["all_equivalent"] is True, kernels["equivalence"]
missing = {"gemm", "softmax_rows", "fused_step", "chacha20_batched"} \
    - set(kernels["equivalence"])
assert not missing, f"missing equivalence checks: {missing}"
assert kernels["kernel_path"] in {"scalar", "avx2"}, kernels

chain = json.load(open(f"{artifact_dir}/BENCH_chain.json"))
assert chain["all_equivalent"] is True, chain["equivalence"]
missing = {"schnorr_reference"} - set(chain["equivalence"])
assert not missing, f"missing chain equivalence checks: {missing}"
speedup = chain["schnorr_verify"]["speedup"]
assert speedup >= 4.0, \
    f"schnorr verify speedup {speedup:.2f}x below the 4x floor"

e2e = json.load(open(f"{artifact_dir}/BENCH_e2e.json"))
assert e2e["all_equivalent"] is True, e2e["equivalence"]
missing = {"pool_size_invariant"} - set(e2e["equivalence"])
assert not missing, f"missing e2e equivalence checks: {missing}"
e2e_speedup = e2e["training_heavy"]["speedup"]
if e2e["pool_threads"] >= 4:
    # The fan-out pays only where training dominates the round and the
    # cores exist to run it: the >= 2x floor applies to the
    # training-heavy shape on >= 4 pool threads.
    assert e2e_speedup >= 2.0, \
        f"round engine speedup {e2e_speedup:.2f}x below the 2x floor"
assert metrics["round_engine_pool_threads"] >= 1, metrics
assert metrics["sha256_path"] in {"sha_ni", "scalar"}, metrics

print(f"artifacts OK: {len(counters)} counters, "
      f"{len(trace['traceEvents'])} spans, categories {sorted(categories)}, "
      f"{len(ledger)} ledger records over {len(ledgered)} histograms, "
      f"kernel path {kernels['kernel_path']}, "
      f"sha256 path {metrics['sha256_path']}, "
      f"{speedup:.0f}x schnorr verify, "
      f"{e2e_speedup:.2f}x training-heavy fan-out")
EOF
else
  # No python3: fall back to grep-level checks so the gate still bites.
  grep -q '"fl.rounds":'"$ROUNDS" "$ARTIFACT_DIR/metrics.json"
  grep -q '"traceEvents"' "$ARTIFACT_DIR/trace.json"
  grep -q '"phase_us"' "$ARTIFACT_DIR/ledger.jsonl"
  grep -Eq '"sha256_path":"(sha_ni|scalar)"' "$ARTIFACT_DIR/metrics.json"
  grep -q '"all_equivalent":true' "$ARTIFACT_DIR/BENCH_kernels.json"
  grep -q '"all_equivalent":true' "$ARTIFACT_DIR/BENCH_chain.json"
  echo "artifacts OK (python3 unavailable; grep-level validation only)"
fi

# Telemetry gate, part 1: the fresh quick chain bench must not regress
# against the committed baseline. Only robust metrics gate here — the
# equivalence booleans (exact) and the Schnorr verify speedup with a
# generous tolerance, since quick reps on shared CI hardware are noisy.
BENCH_DIFF="$(cd "$BUILD_DIR" && pwd)/tools/bench_diff"
"$BENCH_DIFF" \
  --baseline BENCH_chain.json \
  --candidate "$ARTIFACT_DIR/BENCH_chain.json" \
  --metrics equivalence,all_equivalent,schnorr_verify.speedup \
  --tolerance schnorr_verify.speedup=0.95 \
  --out "$ARTIFACT_DIR/bench_diff_chain.json"

# Round engine gate: the fresh quick e2e bench must not regress against
# the committed BENCH_e2e.json baseline. The equivalence booleans gate
# exactly; the training-heavy fan-out speedup gates with a generous
# tolerance — it is a wall-clock ratio and quick reps on shared CI
# hardware are noisy.
"$BENCH_DIFF" \
  --baseline BENCH_e2e.json \
  --candidate "$ARTIFACT_DIR/BENCH_e2e.json" \
  --metrics equivalence,all_equivalent,training_heavy.speedup \
  --tolerance training_heavy.speedup=0.5 \
  --out "$ARTIFACT_DIR/bench_diff_e2e.json"

# Telemetry gate, part 2: the gate must bite. A doctored baseline copy
# with the verify speedup halved and an equivalence bit flipped has to
# make bench_diff exit non-zero, or the regression gate is decorative.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR" <<'EOF'
import json
import sys

bench = json.load(open("BENCH_chain.json"))
bench["schnorr_verify"]["speedup"] /= 2.0
bench["all_equivalent"] = False
json.dump(bench, open(f"{sys.argv[1]}/BENCH_chain_regressed.json", "w"))
EOF
  if "$BENCH_DIFF" \
      --baseline BENCH_chain.json \
      --candidate "$ARTIFACT_DIR/BENCH_chain_regressed.json" \
      --metrics equivalence,all_equivalent,schnorr_verify.speedup \
      --tolerance schnorr_verify.speedup=0.25 \
      --quiet --out "$ARTIFACT_DIR/bench_diff_regressed.json"; then
    echo "bench_diff failed to flag an injected 2x regression" >&2
    exit 1
  fi
  echo "bench_diff gate bites: injected 2x regression flagged"
fi

# Telemetry gate, part 3: observability must be effectively free.
# bench_table1_runtime --quick interleaves obs-on/obs-off Shapley
# evaluations (m=9, serial engine) and exits non-zero if the histogram
# overhead exceeds 3% or the SV outputs are not bit-identical.
BENCH_TABLE1="$(cd "$BUILD_DIR" && pwd)/bench/bench_table1_runtime"
(cd "$ARTIFACT_DIR" && "$BENCH_TABLE1" --quick)

# Chaos smoke, part 1: a hand-written fault plan (owner dropout, miner
# crash + re-admission, slow links) must converge and export the
# executed fault schedule into metrics.json.
"$BUILD_DIR/tools/bcfl_sim" \
  --owners 6 --miners 5 --rounds 4 --groups 2 --instances 600 --sigma 0 \
  --fault-plan "crash owner 2 @1; crash miner 3 @1; recover miner 3 @3; slow miner 0 @0..2 +5000us" \
  --metrics-out "$ARTIFACT_DIR/chaos_metrics.json" --trace-out -

if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR" <<'EOF'
import json
import sys

metrics = json.load(open(f"{sys.argv[1]}/chaos_metrics.json"))
counters = metrics["counters"]
assert counters["fl.dropouts_detected"] == 1, counters
assert counters["fl.recoveries"] == 1, counters
assert counters["chain.consensus.view_changes"] >= 1, counters
assert counters["chain.consensus.catchups"] >= 1, counters

plan = metrics["fault_plan"]
schedule = metrics["fault_schedule"]
assert len(plan) == 4, plan
assert any("crash owner 2" in entry["event"] for entry in schedule), schedule
assert any("recover" in entry["event"] for entry in schedule), schedule
assert all("round" in entry for entry in schedule), schedule
print(f"chaos artifacts OK: {len(schedule)} executed fault events")
EOF
else
  grep -q '"fault_schedule"' "$ARTIFACT_DIR/chaos_metrics.json"
  grep -q 'crash owner 2' "$ARTIFACT_DIR/chaos_metrics.json"
fi

# Chaos smoke, part 2: every random fault plan in the sweep must
# converge (bcfl_sim exits non-zero on a failed or hung seed). The
# sweep writes one shared protocol ledger covering every seed's rounds.
"$BUILD_DIR/tools/bcfl_sim" \
  --owners 6 --miners 5 --rounds 3 --groups 2 --instances 400 --sigma 0 \
  --chaos-sweep "$CHAOS_SEEDS" --fault-seed 0 \
  --metrics-out - --trace-out - \
  --ledger-out "$ARTIFACT_DIR/chaos_ledger.jsonl"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR" "$CHAOS_SEEDS" <<'EOF'
import json
import sys

artifact_dir, seeds = sys.argv[1], int(sys.argv[2])
records = [json.loads(line)
           for line in open(f"{artifact_dir}/chaos_ledger.jsonl")
           if line.strip()]
assert len(records) == 3 * seeds, \
    f"{len(records)} chaos ledger records, want {3 * seeds}"
for record in records:
    assert record["phase_us"]["span.chain.block_commit_us"] > 0, record
    assert len(record["sv"]) == 6, record
faulted = sum(1 for r in records if r["fault_events"])
dropped = sum(len(r["dropouts"]) for r in records)
if seeds >= 50:
    # A wide random sweep must actually exercise the fault machinery.
    assert faulted > 0 and dropped > 0, (faulted, dropped)
print(f"chaos ledger OK: {len(records)} records, {faulted} faulted "
      f"rounds, {dropped} dropouts")
EOF
else
  grep -q '"phase_us"' "$ARTIFACT_DIR/chaos_ledger.jsonl"
fi

# Byzantine smoke, part 1: hand-written misbehavior plans must produce
# exactly the asserted slash schedule. Session A: a forged recovery
# share is attributed via its Feldman commitment while a genuine crash
# is recovered in the same round. Session B: an equivocating submitter
# and a (masked) poisoned update caught by the norm gate. Both sessions
# must retire the offenders and burn their pending reward.
"$BUILD_DIR/tools/bcfl_sim" \
  --owners 6 --miners 5 --rounds 3 --groups 2 --instances 400 --sigma 0 \
  --norm-bound 5 --reward 1000000 \
  --fault-plan "crash owner 1 @1; bad-share owner 3 @1" \
  --metrics-out "$ARTIFACT_DIR/byz_badshare_metrics.json" --trace-out -
"$BUILD_DIR/tools/bcfl_sim" \
  --owners 6 --miners 5 --rounds 3 --groups 2 --instances 400 --sigma 0 \
  --norm-bound 5 --reward 1000000 \
  --fault-plan "equivocate-submit owner 2 @1; poison-update owner 4 @2 *50" \
  --metrics-out "$ARTIFACT_DIR/byz_mixed_metrics.json" --trace-out -

if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR" <<'EOF'
import json
import sys

artifact_dir = sys.argv[1]

bad = json.load(open(f"{artifact_dir}/byz_badshare_metrics.json"))
assert bad["slashed_at"] == {"3": 1}, bad["slashed_at"]
assert bad["slash_transactions"] == 1, bad["slash_transactions"]
assert bad["reward_burned"] > 0, bad["reward_burned"]

mixed = json.load(open(f"{artifact_dir}/byz_mixed_metrics.json"))
assert mixed["slashed_at"] == {"2": 1, "4": 2}, mixed["slashed_at"]
assert mixed["slash_transactions"] == 2, mixed["slash_transactions"]
assert mixed["reward_burned"] > 0, mixed["reward_burned"]
print("byzantine slash schedules OK: "
      f"bad-share {bad['slashed_at']}, mixed {mixed['slashed_at']}")
EOF
else
  grep -q '"slashed_at":{"3":1}' "$ARTIFACT_DIR/byz_badshare_metrics.json"
  grep -q '"slash_transactions":2' "$ARTIFACT_DIR/byz_mixed_metrics.json"
fi

# Byzantine smoke, part 2: every random byzantine-mix plan in the sweep
# must converge (a slashed offender degrades the round to the honest
# survivors instead of stalling it), and the shared ledger must record
# the convictions a wide sweep is guaranteed to produce.
"$BUILD_DIR/tools/bcfl_sim" \
  --owners 6 --miners 5 --rounds 3 --groups 2 --instances 400 --sigma 0 \
  --norm-bound 5 \
  --chaos-sweep "$CHAOS_SEEDS" --chaos-byzantine 0.4 --fault-seed 0 \
  --metrics-out - --trace-out - \
  --ledger-out "$ARTIFACT_DIR/byz_ledger.jsonl"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR" "$CHAOS_SEEDS" <<'EOF'
import json
import sys

artifact_dir, seeds = sys.argv[1], int(sys.argv[2])
records = [json.loads(line)
           for line in open(f"{artifact_dir}/byz_ledger.jsonl")
           if line.strip()]
assert len(records) == 3 * seeds, \
    f"{len(records)} byzantine ledger records, want {3 * seeds}"
slashes = sum(len(r["slashed"]) for r in records)
accusations = sum(r["accusations"] for r in records)
assert accusations >= slashes, (accusations, slashes)
if seeds >= 50:
    # A wide byzantine sweep must actually convict someone.
    assert slashes > 0, "no slashes across the byzantine sweep"
print(f"byzantine ledger OK: {len(records)} records, {slashes} slashes, "
      f"{accusations} accusations")
EOF
else
  grep -q '"slashed"' "$ARTIFACT_DIR/byz_ledger.jsonl"
fi

# Crash-restart stage (PR 10): a session killed mid-run by a `kill` fault
# and resumed from its durable state dir must finish bit-identical to the
# same session run uninterrupted — per-round SV, global weights, chain tip
# and the per-round ledger (modulo wall-clock phase timings). Also asserts
# the chain persisted through O(1) block-log appends and that the resume
# replayed logged blocks.
BASE_DIR="$ARTIFACT_DIR/restart_base"
CRASH_DIR="$ARTIFACT_DIR/restart_crash"
RESTART_ARGS=(--owners 5 --miners 3 --rounds 4 --groups 2 --instances 400
              --seed 7 --trace-out -
              --fault-plan "crash owner 4 @1; kill @2")

# Uninterrupted baseline: same plan, kill disarmed.
"$BUILD_DIR/tools/bcfl_sim" "${RESTART_ARGS[@]}" \
  --ignore-kill-faults --state-dir "$BASE_DIR" \
  --metrics-out "$BASE_DIR.metrics.json" \
  --ledger-out "$BASE_DIR.ledger.jsonl"

# Killed run: the kill fault must take the process down with exit 77.
set +e
"$BUILD_DIR/tools/bcfl_sim" "${RESTART_ARGS[@]}" \
  --state-dir "$CRASH_DIR" \
  --metrics-out "$CRASH_DIR.metrics.json" \
  --ledger-out "$CRASH_DIR.ledger.jsonl"
KILL_EXIT=$?
set -e
if [ "$KILL_EXIT" -ne 77 ]; then
  echo "crash-restart: kill run exited $KILL_EXIT, want 77" >&2
  exit 1
fi

# Resume: picks the session up from the state dir and finishes it.
"$BUILD_DIR/tools/bcfl_sim" "${RESTART_ARGS[@]}" \
  --resume --state-dir "$CRASH_DIR" \
  --metrics-out "$CRASH_DIR.metrics.json" \
  --ledger-out "$CRASH_DIR.ledger.jsonl"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$BASE_DIR" "$CRASH_DIR" <<'EOF'
import json
import sys

base_dir, crash_dir = sys.argv[1], sys.argv[2]

base = json.load(open(f"{base_dir}.metrics.json"))
resumed = json.load(open(f"{crash_dir}.metrics.json"))

# Bit-identity: the session summary digests SV/weights/accuracy doubles
# and the chain tip; a single flipped bit anywhere diverges the digests.
assert base["session_summary"] == resumed["session_summary"], (
    "resumed session diverged from the uninterrupted baseline:\n"
    f"  base    {base['session_summary']}\n"
    f"  resumed {resumed['session_summary']}")

# The ledger must match record for record modulo wall-clock phase
# timings (everything deterministic: SV, volatility, rosters, faults).
def ledger(path):
    out = []
    for line in open(path):
        record = json.loads(line)
        record.pop("phase_us", None)
        out.append(record)
    return out
base_ledger = ledger(f"{base_dir}.ledger.jsonl")
crash_ledger = ledger(f"{crash_dir}.ledger.jsonl")
assert base_ledger == crash_ledger, "ledgers diverge"
assert len(crash_ledger) == 4, len(crash_ledger)

# Durability ran through the O(1) append path.
counters = resumed["counters"]
assert counters.get("chain.blocklog.appends", 0) > 0, counters
assert counters.get("core.checkpoints_written", 0) > 0, counters
assert counters.get("core.resume.blocks_replayed", 0) > 0, counters

print(f"crash-restart OK: kill @2 -> resume matched the baseline across "
      f"{len(crash_ledger)} ledger records, "
      f"{counters['core.resume.blocks_replayed']:.0f} blocks replayed")
EOF
else
  grep -q '"session_summary"' "$CRASH_DIR.metrics.json"
fi

echo "CI check: all green"
