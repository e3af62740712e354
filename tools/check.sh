#!/usr/bin/env bash
# Tier-1 verification plus the sanitizer gates.
#
#   1. regular build + full ctest suite (the ROADMAP tier-1 command);
#   2. CLI validation: ppcd must reject --loops=0 and --loops beyond the
#      hardware threads (without --oversubscribe-loops) with clear errors,
#      and ppcd / ppc_loadgen must refuse any flag they do not read
#      (a retired flag like --engine=on, or a misspelling) with exit 2;
#   3. the same suite built with -DPPC_DISABLE_SIMD=ON — the scalar-only
#      escape hatch must stay green AND produce identical verdicts (the
#      parity/equivalence tests run in both builds, so a divergence between
#      the SIMD and scalar index kernels fails here);
#   4. AddressSanitizer and UndefinedBehaviorSanitizer builds
#      (PPC_SANITIZE=address / undefined) of the full ctest suite, both
#      with halt_on_error=1 — the memory-safety gate for the wire decoder,
#      the snapshot readers, and every fuzz test;
#   5. a ThreadSanitizer build (PPC_SANITIZE=thread) of the concurrency
#      tests — sharded_test, runtime_test, parallel_batch_test,
#      batch_times_test (per-shard mutexes and ThreadPool fan-out), the
#      network ingest pair wire_fuzz_test / server_e2e_test (event loop
#      threads vs client threads, including the SO_REUSEPORT multi-loop
#      fixtures), durability_test (snapshot save/restore and full daemon
#      restarts), apbf_test and conformance_test (sharded backends),
#      adnet_extra_test (DetectorPool evict racing offer_batch),
#      tiered_pool_test (the mutex-serialized tiered pool), enforce_test
#      (the EnforcingSink loopback e2e: event loop vs client thread with
#      the reputation ledger in the offer path), and replication_test (the
#      warm-standby fault-injection harness: primary event loop vs
#      replication source session threads vs the follower pump,
#      reconnecting through chaos-proxy faults) — so every PR touching the
#      parallel ingestion paths gets a race check.
#
# Usage: tools/check.sh [--tsan-only]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 2)
TSAN_ONLY=0
[[ "${1:-}" == "--tsan-only" ]] && TSAN_ONLY=1

TSAN_TESTS=(sharded_test runtime_test parallel_batch_test batch_times_test
            wire_fuzz_test server_e2e_test durability_test apbf_test
            conformance_test adnet_extra_test tiered_pool_test enforce_test
            replication_test)

if [[ "$TSAN_ONLY" == 0 ]]; then
  echo "== tier-1: build + ctest =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")

  echo "== cli gate: ppcd rejects bad --loops values and unknown flags =="
  # `|| true` inside $(...): ppcd exiting nonzero is the EXPECTED outcome
  # here and must not trip set -e / pipefail — the assertions below are on
  # the exit status (checked via if) and the error text.
  if ./build/tools/ppcd --loops=0 --listen=127.0.0.1:0 2>/dev/null; then
    echo "FAIL: ppcd accepted --loops=0"; exit 1
  fi
  OUT=$(./build/tools/ppcd --loops=0 --listen=127.0.0.1:0 2>&1 || true)
  echo "$OUT" | grep -q "loops=0 is invalid" \
    || { echo "FAIL: --loops=0 error message missing"; exit 1; }
  OVER=$(( $(nproc) + 1 ))
  if ./build/tools/ppcd --loops="$OVER" --listen=127.0.0.1:0 2>/dev/null; then
    echo "FAIL: ppcd accepted --loops=$OVER without --oversubscribe-loops"
    exit 1
  fi
  OUT=$(./build/tools/ppcd --loops="$OVER" --listen=127.0.0.1:0 2>&1 || true)
  echo "$OUT" | grep -q "exceeds the .* hardware thread" \
    || { echo "FAIL: oversubscription error message missing"; exit 1; }
  # Unknown flags: the retired --engine and a misspelling, on both tools.
  # Exit status must be exactly 2 and the error must name the flag.
  for cmd in "./build/tools/ppcd --listen=127.0.0.1:0 --engine=on" \
             "./build/tools/ppcd --listen=127.0.0.1:0 --shard=4" \
             "./build/tools/ppc_loadgen --engine=on" \
             "./build/tools/ppc_loadgen --clickz=10"; do
    RC=0
    OUT=$($cmd 2>&1) || RC=$?
    BAD=${cmd##* --}
    BAD=${BAD%%=*}
    if [[ "$RC" != 2 ]] || ! echo "$OUT" | grep -q "unknown flag --$BAD"; then
      echo "FAIL: '$cmd' exited $RC without naming --$BAD: $OUT"; exit 1
    fi
  done

  echo "== tier-1 (scalar): -DPPC_DISABLE_SIMD=ON build + ctest =="
  cmake -B build-nosimd -S . -DPPC_DISABLE_SIMD=ON \
    -DPPC_BUILD_BENCH=OFF -DPPC_BUILD_EXAMPLES=OFF
  cmake --build build-nosimd -j "$JOBS"
  (cd build-nosimd && ctest --output-on-failure -j "$JOBS")

  for san in address undefined; do
    echo "== sanitizer gate: PPC_SANITIZE=$san build + ctest =="
    cmake -B "build-$san" -S . -DPPC_SANITIZE="$san" \
      -DPPC_BUILD_BENCH=OFF -DPPC_BUILD_EXAMPLES=OFF
    cmake --build "build-$san" -j "$JOBS"
    (cd "build-$san" &&
      ASAN_OPTIONS=halt_on_error=1 \
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --output-on-failure -j "$JOBS")
  done
fi

echo "== race gate: TSan build of the concurrency tests =="
cmake -B build-tsan -S . -DPPC_SANITIZE=thread \
  -DPPC_BUILD_BENCH=OFF -DPPC_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
for t in "${TSAN_TESTS[@]}"; do
  echo "-- $t (tsan)"
  ./build-tsan/tests/"$t"
done
echo "check.sh: all gates passed"
