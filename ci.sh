#!/usr/bin/env bash
# CI entry point. Stages:
#
#   lint       tools/lint.py over the tree (mutex wrappers, discarded
#              Status, include style, header guards, [[nodiscard]]
#              ratchet) plus its own unit tests — fails the run before
#              anything is compiled
#   format     clang-format --dry-run -Werror over the source tree
#              (skipped with a notice when clang-format is not installed)
#   tidy       clang-tidy (.clang-tidy: bugprone-*, concurrency-*,
#              performance-*) over src/ — advisory: findings print but
#              do not fail CI yet; skipped when clang-tidy is missing
#   build+test the tier-1 verify line (cmake + ctest). Under clang the
#              build also enforces -Werror=thread-safety (the
#              TRINIT_GUARDED_BY annotations become a hard gate).
#   metrics scrape  pipe a query + `.metrics prom` through trinit_shell
#              and validate the exposition with tools/promcheck.py
#   snapshot   save a binary snapshot of a TSV-built engine, reload it,
#              and re-run the query checks (bench_p4's gates: answers
#              and work counters byte-identical, zero index rebuilds)
#   bench smoke  every microbenchmark once, minimal measuring time
#   release perf P1/P2/P3/P4 exhibits plus the E1 answer-quality gate
#              in an -O2 build; each bench enforces its own invariants
#              (byte-identical answers, work saved, NDCG@5 held)
#   bench gate fresh work counters vs the committed BENCH_*.json; fails
#              on any >10% regression in probes/pulls/decodes
#   sanitize   (only with --sanitize) a second build dir under
#              -fsanitize=address,undefined running the full ctest suite
#   tsan       (only with --tsan) a third build dir under
#              -fsanitize=thread running the full ctest suite, including
#              the contended stress tests (tests/integration/
#              contended_stress_test.cc) written to exhaust the locking
#              model in docs/CONCURRENCY.md
#
# Usage: ./ci.sh [--sanitize] [--tsan] [build_dir]
set -euo pipefail

SANITIZE=0
TSAN=0
BUILD_DIR="build"
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
ROOT="$(cd "$(dirname "$0")" && pwd)"

echo "== lint (tools/lint.py + self-tests) =="
python3 "$ROOT/tools/lint_test.py" 2>&1 | tail -n 1
python3 "$ROOT/tools/lint.py" --root "$ROOT"

echo "== format check =="
if command -v clang-format > /dev/null 2>&1; then
  # shellcheck disable=SC2046  # word-splitting the file list is the point
  clang-format --dry-run -Werror \
    $(find "$ROOT/src" "$ROOT/tests" "$ROOT/bench" "$ROOT/examples" \
        -name '*.h' -o -name '*.cc' -o -name '*.cpp')
  echo "format OK"
else
  echo "clang-format not installed; skipping (style still enforced on"
  echo "machines that have it — see .clang-format)"
fi

echo "== configure =="
cmake -B "$BUILD_DIR" -S "$ROOT"

echo "== build =="
cmake --build "$BUILD_DIR" -j

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== metrics scrape (.metrics prom through tools/promcheck.py) =="
# One query then a registry scrape: the exposition must parse as valid
# Prometheus text (HELP/TYPE per family, cumulative le-ordered buckets
# ending in +Inf == _count). Guards the .metrics surface end to end.
# --min-metrics pins the registry surface: every family registered in
# core::EngineMetrics is printed (docs/OBSERVABILITY.md), so a family
# dropped by accident fails here; raise it when adding one.
printf '?x bornIn Germania\n.metrics prom\n.quit\n' \
  | "$BUILD_DIR/examples/trinit_shell" \
  | python3 "$ROOT/tools/promcheck.py" --min-metrics 30

echo "== clang-tidy (advisory) =="
if command -v clang-tidy > /dev/null 2>&1; then
  # Advisory for now: print findings without failing the run. The check
  # set lives in .clang-tidy (bugprone-*, concurrency-*, performance-*);
  # compile_commands.json comes from the configure above.
  # shellcheck disable=SC2046
  clang-tidy -p "$BUILD_DIR" \
    $(find "$ROOT/src" -name '*.cc') || true
else
  echo "clang-tidy not installed; skipping (see .clang-tidy for the"
  echo "check set enforced on machines that have it)"
fi

echo "== snapshot round-trip (save, reload, re-run query checks) =="
# bench_p4 exits non-zero unless the snapshot-loaded engine answers the
# query mix byte-identically to the TSV-built engine with identical
# work counters and zero index rebuilds. The JSON written here is a
# scratch copy; the gated one comes from the release build below.
"$BUILD_DIR/bench/bench_p4_coldstart" --counters-only \
  "$BUILD_DIR/BENCH_P4_roundtrip.json"

echo "== bench smoke =="
# Keep CI honest about the hot path without paying for a full bench run:
# every microbenchmark once, minimal measuring time.
if [ -x "$BUILD_DIR/bench/bench_m1_micro" ]; then
  "$BUILD_DIR/bench/bench_m1_micro" \
    --benchmark_min_time=0.01 --benchmark_repetitions=1
else
  echo "bench_m1_micro not built (google-benchmark missing); skipping"
fi

echo "== release perf (P1: lazy streaming; P2: planned join; P3: serving cache; P4: snapshot cold start; E1: answer quality) =="
# Optimized build for the latency exhibits — the perf trajectory is
# tracked in BENCH_P1/P2/P3.json. Each bench exits non-zero if its
# optimization stops saving work or answers diverge. The JSONs are
# written counters-only: wall-times are machine-local noise, the work
# counters are what cross-machine comparisons can trust (latencies
# still print to stdout). Fresh JSONs land in the release dir first so
# the bench gate below can diff them against the committed baselines.
RELEASE_DIR="${BUILD_DIR}-release"
cmake -B "$RELEASE_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" \
  -DTRINIT_BUILD_TESTS=OFF -DTRINIT_BUILD_EXAMPLES=OFF
cmake --build "$RELEASE_DIR" -j --target bench_p1_latency \
  --target bench_p2_join --target bench_p3_serving \
  --target bench_p4_coldstart --target bench_e1_ndcg
"$RELEASE_DIR/bench/bench_p1_latency" --counters-only "$RELEASE_DIR/BENCH_P1.json"
"$RELEASE_DIR/bench/bench_p2_join" --counters-only "$RELEASE_DIR/BENCH_P2.json"
"$RELEASE_DIR/bench/bench_p3_serving" --counters-only "$RELEASE_DIR/BENCH_P3.json"
"$RELEASE_DIR/bench/bench_p4_coldstart" --counters-only "$RELEASE_DIR/BENCH_P4.json"
# E1 exits non-zero when TriniT's NDCG@5 falls below 1.5x the next best
# system or more than 0.01 below its pinned value: deleting hot-path
# code must not cost answer quality. Its JSON holds quality metrics only.
"$RELEASE_DIR/bench/bench_e1_ndcg" "$RELEASE_DIR/BENCH_E1.json"
cp "$RELEASE_DIR/BENCH_E1.json" "$ROOT/BENCH_E1.json"

echo "== bench gate (fresh counters vs committed baselines) =="
python3 "$ROOT/bench/check_regression.py" \
  "$ROOT/BENCH_P1.json" "$RELEASE_DIR/BENCH_P1.json" \
  "$ROOT/BENCH_P2.json" "$RELEASE_DIR/BENCH_P2.json" \
  "$ROOT/BENCH_P3.json" "$RELEASE_DIR/BENCH_P3.json" \
  "$ROOT/BENCH_P4.json" "$RELEASE_DIR/BENCH_P4.json"
# Promote fresh counters to the working tree only when they are not
# worse than the baselines (strict tolerance-0 pass). Promoting
# within-tolerance regressions would let the 10% gate ratchet backwards
# one small regression at a time; a PR that intentionally trades
# counters away must update the committed BENCH_*.json by hand.
for p in P1 P2 P3 P4; do
  if python3 "$ROOT/bench/check_regression.py" --tolerance 0 \
      "$ROOT/BENCH_$p.json" "$RELEASE_DIR/BENCH_$p.json" > /dev/null; then
    cp "$RELEASE_DIR/BENCH_$p.json" "$ROOT/BENCH_$p.json"
  else
    echo "BENCH_$p.json: fresh counters within tolerance but worse than" \
         "baseline; NOT promoted (update the committed file deliberately" \
         "if the regression is intended)"
  fi
done

if [ "$SANITIZE" -eq 1 ]; then
  echo "== sanitize (asan+ubsan ctest) =="
  SAN_DIR="${BUILD_DIR}-sanitize"
  SAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"
  cmake -B "$SAN_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" \
    -DTRINIT_BUILD_BENCHES=OFF -DTRINIT_BUILD_EXAMPLES=OFF
  cmake --build "$SAN_DIR" -j
  ctest --test-dir "$SAN_DIR" --output-on-failure -j "$(nproc)"
fi

if [ "$TSAN" -eq 1 ]; then
  echo "== tsan (-fsanitize=thread ctest) =="
  TSAN_DIR="${BUILD_DIR}-tsan"
  TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1 -g"
  cmake -B "$TSAN_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
    -DTRINIT_BUILD_BENCHES=OFF -DTRINIT_BUILD_EXAMPLES=OFF
  cmake --build "$TSAN_DIR" -j
  # halt_on_error: a single race fails the run loudly instead of
  # scrolling past; second_deadlock_stack gives both sides of any
  # lock-order report.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)"
fi

echo "CI OK"
