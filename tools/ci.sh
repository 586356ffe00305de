#!/usr/bin/env bash
# CI driver: tier-1 suite, sanitizer jobs over the property-test gate, and
# the static-analysis jobs (fdlsp-lint, clang-tidy).
#
#   tools/ci.sh            # tier-1 (full suite, RelWithDebInfo)
#   tools/ci.sh asan       # ASan+UBSan build, proptest-labeled suite
#                          # plus the alloc, repair, engine and golden
#                          # suites
#   tools/ci.sh tsan       # TSan build, the same selection, plus a
#                          # repeat stress of the threaded suites
#   tools/ci.sh faults     # fault-injection gate: faulttest-labeled suite,
#                          # plain and under ASan+UBSan
#   tools/ci.sh soak       # continuous-operation gate: soaktest-labeled
#                          # suite, plain (full streams) and under
#                          # ASan+UBSan (capped via FDLSP_SOAK_EVENTS)
#   tools/ci.sh lint       # fdlsp-lint over src/ (determinism/isolation)
#   tools/ci.sh tidy       # clang-tidy (skipped when not installed)
#   tools/ci.sh bench      # Release build + micro suites (capped min-time;
#                          # writes BENCH_coloring.json, BENCH_sim.json)
#   tools/ci.sh bench-compare  # fresh bench run diffed against the
#                          # committed baselines with a tolerance band
#   tools/ci.sh all        # every job in sequence
#
# The proptest label selects the fdlsp_verify-based fuzzing suites — the
# regression gate every perf/refactor PR must keep green (see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-tier1}"

run_tier1() {
  echo "=== tier-1: build + full test suite ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j "$(nproc)"
}

run_sanitizer() {  # $1 = preset name (asan-ubsan | tsan)
  local preset="$1"
  echo "=== ${preset}: build + proptest suite ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j
  ctest --test-dir "build-${preset}" -L proptest --output-on-failure \
    -j "$(nproc)"
  # The zero-alloc gate also runs under the sanitizer build: the counting
  # operator new hooks are compiled out there (support/alloc_audit.h), so
  # this verifies the GTEST_SKIP seam and keeps the fixture itself
  # sanitizer-clean.
  ctest --test-dir "build-${preset}" -R '^engine_alloc_test$' \
    --output-on-failure
  # The repair suites join nodes, which once made transfer_coloring query
  # the old graph for nodes it does not have. Release builds read past
  # Graph::offsets_ silently; only these Debug builds, where FDLSP_ASSERT
  # is live, catch such a read.
  ctest --test-dir "build-${preset}" -R '^(repair_test|dist_repair_test)$' \
    --output-on-failure
  # The engine and golden suites drive pooled shards 1/3/16 — DistMIS,
  # randomized and distributed repair sets, and the reliable decorator's
  # per-node transport vectors — so both run under each sanitizer too.
  ctest --test-dir "build-${preset}" -R '^(sync_engine_test|sync_golden_test)$' \
    --output-on-failure
}

run_tsan_stress() {
  echo "=== tsan: repeat stress of the threaded suites ==="
  # Pooled sync rounds read every shard's previous-round outbox while each
  # worker fills its own; a race there needs an unlucky interleaving, so
  # the suites that drive pooled rounds repeat on every core. The filter
  # leaves out the async golden run: single-threaded, it cannot race, and
  # it is most of dist_mis_test's time under TSan.
  GTEST_FILTER='-DistMisGolden.AsyncRunsMatchPins' \
    ctest --test-dir build-tsan -R '^(engine_parallel_test|dist_mis_test)$' \
    --repeat until-fail:20 --output-on-failure -j "$(nproc)"
}

run_faults() {
  echo "=== faults: fault-injection suite (plain + ASan+UBSan) ==="
  # The faulttest label includes the correlated-loss sweep (Gilbert–Elliott
  # bursts, PRR matrix, region outages) judged by the burst-quiescence and
  # failure-detector oracles; the replay smoke below additionally pins the
  # burst --faults= grammar and the oracle CLI path end to end.
  local burst_smoke=(--family=grid --n=12 --density=0.5 --seed=5
    --scheduler=distMIS --faults=drop=0.05,bp=0.2,bq=0.25,bloss=0.9,regions=1)
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j
  ctest --test-dir build -L faulttest --output-on-failure -j "$(nproc)"
  ./build/examples/replay "${burst_smoke[@]}"
  # Negative smoke: replay rejects flags it does not read, so a stale
  # --tuning=fixed must fail loudly instead of replaying the adaptive run.
  if ./build/examples/replay "${burst_smoke[@]}" --tuning=fixed; then
    echo "replay accepted the unknown flag --tuning"
    return 1
  fi
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j
  ctest --test-dir build-asan-ubsan -L faulttest --output-on-failure \
    -j "$(nproc)"
  ./build-asan-ubsan/examples/replay "${burst_smoke[@]}"
}

run_soak() {
  echo "=== soak: continuous-operation suite (plain + ASan+UBSan) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j
  ctest --test-dir build -L soaktest --output-on-failure -j "$(nproc)"
  # Sanitizer instrumentation makes long streams slow; cap the per-test
  # event count so the gate stays minutes, not hours.
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j
  FDLSP_SOAK_EVENTS="${FDLSP_SOAK_EVENTS:-200}" \
    ctest --test-dir build-asan-ubsan -L soaktest --output-on-failure \
    -j "$(nproc)"
}

run_lint() {
  echo "=== lint: fdlsp-lint --project over src/ ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j --target fdlsp-lint
  # Machine-readable reports first (for the CI artifact upload), then the
  # human-readable gate run. Project mode adds the include-layer DAG check
  # on top of the per-file rules.
  local status=0
  ./build/tools/fdlsp-lint --project --format=sarif src/ \
    > build/lint-report.sarif || status=$?
  [ "${status}" -le 1 ] || { echo "fdlsp-lint failed to run"; return 2; }
  ./build/tools/fdlsp-lint --project --format=json src/ \
    > build/lint-report.json || true
  ./build/tools/fdlsp-lint --project src/
}

run_tidy() {
  echo "=== clang-tidy: static analysis over src/ ==="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    # The minimal toolchain image ships without clang-tidy; the GitHub
    # workflow installs it, so the job still gates PRs.
    echo "clang-tidy not installed; skipping"
    return 0
  fi
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  git ls-files 'src/**/*.cpp' 'tools/**/*.cpp' |
    xargs -P "$(nproc)" -n 4 clang-tidy -p build --quiet
}

run_bench() {
  echo "=== bench: Release build + micro suites ==="
  # Capped min-time keeps the smoke fast in CI; local perf work can raise it
  # (FDLSP_BENCH_MIN_TIME=0.1 or more) for steadier numbers.
  FDLSP_BENCH_MIN_TIME="${FDLSP_BENCH_MIN_TIME:-0.05}" tools/bench_smoke.sh
}

run_bench_compare() {
  echo "=== bench-compare: fresh run vs committed baselines ==="
  # The comparator guards its own malformed-input handling; a hardening
  # regression there fails the gate before any benchmark runs.
  python3 tools/bench_compare.py --self-test
  # Save the committed baselines aside (bench_smoke.sh overwrites them),
  # run fresh, then diff with the tolerance band.
  local stash
  stash="$(mktemp -d)"
  cp BENCH_coloring.json BENCH_sim.json BENCH_soak.json "${stash}/"
  FDLSP_BENCH_MIN_TIME="${FDLSP_BENCH_MIN_TIME:-0.05}" tools/bench_smoke.sh
  local status=0
  python3 tools/bench_compare.py "${stash}/BENCH_coloring.json" \
    BENCH_coloring.json || status=1
  python3 tools/bench_compare.py "${stash}/BENCH_sim.json" \
    BENCH_sim.json || status=1
  python3 tools/bench_compare.py "${stash}/BENCH_soak.json" \
    BENCH_soak.json || status=1
  # Restore the committed baselines: the gate compares, it does not rebase.
  cp "${stash}/BENCH_coloring.json" "${stash}/BENCH_sim.json" \
    "${stash}/BENCH_soak.json" .
  rm -rf "${stash}"
  return "${status}"
}

case "${jobs}" in
  tier1) run_tier1 ;;
  asan) run_sanitizer asan-ubsan ;;
  tsan)
    run_sanitizer tsan
    run_tsan_stress
    ;;
  faults) run_faults ;;
  soak) run_soak ;;
  lint) run_lint ;;
  tidy) run_tidy ;;
  bench) run_bench ;;
  bench-compare) run_bench_compare ;;
  all)
    run_lint
    run_tier1
    run_sanitizer asan-ubsan
    run_sanitizer tsan
    run_tsan_stress
    run_faults
    run_soak
    run_tidy
    run_bench
    ;;
  *)
    echo "usage: tools/ci.sh" \
      "[tier1|asan|tsan|faults|soak|lint|tidy|bench|bench-compare|all]" >&2
    exit 2
    ;;
esac
echo "=== ci.sh: ${jobs} OK ==="
