#!/usr/bin/env bash
# Sanitizer suites (docs/ROBUSTNESS.md):
#
#   1. ASan+UBSan: builds a side tree with -DSATTN_SANITIZE=address,undefined
#      (CMakeLists.txt adds float-cast-overflow, which GCC leaves out of
#      `undefined`) and runs the full ctest suite; any report fails the run.
#      That includes telemetry_test's JsonFuzz.* (seeded mutations of a
#      telemetry NDJSON line through the JSON parser).
#  1b. The kernel-heavy suites again under ASan+UBSan, once per SIMD
#      backend: simd_kernel_test, attention_test, sparse_kernel_test,
#      block_sparse_test, sampling_test (Stage-1 reads K through
#      mk::KvView), core_test (matmul_nt scores through dotn on widened
#      rows), baselines_test (the LSH projections do too), runtime_test's
#      ChunkedPrefill and Decode suites (chunks run in place; decode scores
#      each key through dotn on its widened query row), engine_test's
#      RaggedBatch parity (whole sweeps and lone sequences split into row
#      blocks), SegmentedFill parity (prompt rows
#      synthesized in pool blocks into cache pages) and EnginePrefix.*
#      (published pages read back by row keys equal flash over the filled
#      prompt; where synthesis happens), chaos_engine_test, kv_page_test (incl.
#      the chain hash's PrefixChain.* and the PrefixCacheFuzz.* page-size
#      fuzz) and audit_test.
#   2. TSan: builds a second side tree with -DSATTN_SANITIZE=thread and runs
#      the concurrency-heavy binaries — core_test, sparse_kernel_test,
#      sampling_test, obs_test, scheduler_test, accounting_test, engine_test,
#      chaos_engine_test, telemetry_test, audit_test, and kv_page_test —
#      since the thread pool, the kernels and Stage-1 scoring that run on it,
#      the span collector, metrics registry, resource accountant,
#      serving-engine intake, telemetry rings/publisher, and the KV page
#      arena are written from concurrent threads.
#
# Usage: check_sanitizers.sh [repo-root] [build-dir] [tsan-build-dir]
# Opt-in ctest entry: configure with -DSATTN_SANITIZER_CTEST=ON.
set -eu

root="${1:-.}"
build="${2:-$root/build-sanitize}"
build_tsan="${3:-$root/build-tsan}"

# ---- 1. ASan + UBSan over the full tier-1 suite ----------------------------

cmake -B "$build" -S "$root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSATTN_SANITIZE=address,undefined >/dev/null
cmake --build "$build" -j "$(nproc)" >/dev/null

# halt_on_error so a UBSan report is a test failure, not a log line.
export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# The sanitizer tree would recurse into this script if the opt-in ctest
# entry is ON there; it never is (fresh configure above), but exclude it
# defensively alongside the docs check, which is sanitizer-independent.
ctest --test-dir "$build" -j "$(nproc)" --output-on-failure \
  -E "^(check_docs|check_sanitizers)$"

echo "sanitizer suite passed: address,undefined"

# ---- 1b. Both SIMD backends under ASan+UBSan -------------------------------
#
# The ctest pass above runs whatever backend the host dispatches (AVX2 on
# most x86 machines). Re-run the kernel-heavy suites with the scalar
# backend pinned via SATTN_FORCE_SCALAR, then once more with dispatch
# explicitly enabled, so unaligned loads / tail handling in BOTH tables of
# core/simd.h stay sanitizer-clean (docs/PERFORMANCE.md).
for mode in 1 0; do
  SATTN_FORCE_SCALAR="$mode" "$build/tests/simd_kernel_test"
  SATTN_FORCE_SCALAR="$mode" "$build/tests/attention_test"
  SATTN_FORCE_SCALAR="$mode" "$build/tests/sparse_kernel_test"
  SATTN_FORCE_SCALAR="$mode" "$build/tests/block_sparse_test"
  # Stage-1 reads K through mk::KvView: planning a chunk in place (flat or
  # paged) must equal planning the materialized chunk on both backends.
  SATTN_FORCE_SCALAR="$mode" "$build/tests/sampling_test"
  # matmul_nt and the HashSparse / HyperAttention projections widen their
  # rows once and score through dotn: every entry equals the row dot
  # (MatmulNT.EqualsRowDotsBitExact), tails included, on both backends.
  SATTN_FORCE_SCALAR="$mode" "$build/tests/core_test"
  SATTN_FORCE_SCALAR="$mode" "$build/tests/baselines_test"
  # Chunked prefill runs each chunk in place (flash and SampleAttention over
  # mk::KvView::of(in)): bit-identical to materialized chunks on both backends.
  # Decode scores every key through a single-row dotn on the query row
  # widened once per step (Decode.WeightsAreSoftmaxOfScaledRowDotsBitExact).
  SATTN_FORCE_SCALAR="$mode" "$build/tests/runtime_test" \
    --gtest_filter='ChunkedPrefill.*:Decode.*'
  # Ragged-batch parity must hold bit-exactly on both backends, including
  # RaggedBatch.LoneSequenceSplitIntoRowBlocksMatchesItsKernelBitExact: a
  # lone sequence's row blocks run on several workers at once.
  # SegmentedFill.*: prompt rows synthesized in pool blocks, K/V straight
  # into cache pages, equal the serial fill, float for float.
  # EnginePrefix.*: every published page, read back by its row keys, holds
  # the filled rows and flash's outputs over the whole prompt, bit for bit;
  # and synthesis waits for a request's first chunk.
  SATTN_FORCE_SCALAR="$mode" "$build/tests/engine_test" \
    --gtest_filter='RaggedBatch.*:SegmentedFill.*:EnginePrefix.*'
  # Chaos harness: eviction-compacted caches must keep the sweep
  # bit-identical to the direct kernels on either backend, and the storm
  # invariants are backend-independent.
  SATTN_FORCE_SCALAR="$mode" "$build/tests/chaos_engine_test"
  # Paged KV: flat-vs-paged kernel parity and the prefix-attach replay must
  # be bit-exact on both backends (the page table only changes addressing,
  # never arithmetic) — also over random page sizes and prefix splits
  # (PrefixCacheFuzz.RandomPageSizesAndPrefixSplitsAttachBitIdentical). The
  # chain hash's loads go through memcpy at any alignment and its tail path
  # takes odd head dims (PrefixChain.OneBitFlipChangesItsPageAndEveryLaterChainOnly).
  SATTN_FORCE_SCALAR="$mode" "$build/tests/kv_page_test"
  # Quality auditor: the offline-parity pin (rate 1.0 == metrics/cra.h) must
  # hold on both backends — the audit's ground-truth score rows go through
  # the same dispatched kernels.
  SATTN_FORCE_SCALAR="$mode" "$build/tests/audit_test" --gtest_filter='-*Overhead*'
done

echo "sanitizer suite passed: simd backends (SATTN_FORCE_SCALAR=1 and dispatch)"

# ---- 2. ThreadSanitizer over the thread-hammering tests --------------------

cmake -B "$build_tsan" -S "$root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSATTN_SANITIZE=thread >/dev/null
cmake --build "$build_tsan" -j "$(nproc)" \
  --target core_test --target sparse_kernel_test --target sampling_test \
  --target obs_test --target scheduler_test --target accounting_test \
  --target engine_test --target chaos_engine_test --target telemetry_test \
  --target audit_test --target kv_page_test >/dev/null

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

# Thread pool: work claiming and the completion handshake, hammered by
# ThreadPool.BackToBackShortLoopsAreRaceFree (src/core/thread_pool.h).
"$build_tsan/tests/core_test"
# Sparse kernel tiles and Stage-1 score batches run on the pool; each task
# writes only its own rows and tallies.
"$build_tsan/tests/sparse_kernel_test"
"$build_tsan/tests/sampling_test"
# The disabled-mode overhead smoke test is a wall-time comparison; it skips
# itself under sanitizers, but filter it anyway so the TSan log stays about
# races, not timing.
"$build_tsan/tests/obs_test"
"$build_tsan/tests/scheduler_test"
"$build_tsan/tests/accounting_test" --gtest_filter='-*Overhead*'
# Serving engine: concurrent submitters against the intake lock, the loop
# thread, the ragged sweep's pool workers writing one sequence's row
# blocks concurrently (RaggedBatch.LoneSequenceSplitIntoRowBlocks...), and
# admission's prompt fill writing row blocks from the pool
# (SegmentedFill.ParallelRowBlocksEqualTheSerialFill).
"$build_tsan/tests/engine_test"
# Chaos harness: fault storms with racing submitters/cancellers, the
# watchdog's heartbeat atomics, and forced drains (docs/ROBUSTNESS.md,
# "Lifecycle, overload & chaos").
"$build_tsan/tests/chaos_engine_test"
# Telemetry plane: SPSC rings fed by submitters + the engine loop while the
# publisher thread drains, plus the metrics-registry gauges it publishes.
# The enabled-vs-disabled overhead bound itself runs in the plain-build
# ctest suite (TelemetryOverheadTest, RUN_SERIAL) — under TSan it would
# only measure the sanitizer, so it is filtered here like the accounting
# one (and would GTEST_SKIP itself anyway).
"$build_tsan/tests/telemetry_test" --gtest_filter='-*Overhead*'
# Quality auditor: ragged-sweep pool workers call audit_chunk concurrently
# against the shared per-head scorecard mutex while the engine loop records
# decode audits (obs/audit.h, "Thread safety").
"$build_tsan/tests/audit_test" --gtest_filter='-*Overhead*'
# KV page arena: alloc/retain/release/publish/lookup race from many threads
# against the arena mutex; ConcurrentAllocReleaseIsClean is the dedicated
# hammer (src/runtime/kv_page.h, "Thread safety"). The engine's synthesis
# writes each page-sized row block of a request's private cache pages from
# its own pool task (engine_test's EnginePrefix.* and SegmentedFill.*,
# in the engine_test run above).
"$build_tsan/tests/kv_page_test"

echo "sanitizer suite passed: thread (core_test, sparse_kernel_test, sampling_test, obs_test, scheduler_test, accounting_test, engine_test, chaos_engine_test, telemetry_test, audit_test, kv_page_test)"
