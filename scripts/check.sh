#!/usr/bin/env bash
# One-shot correctness gate: runs every enforcement layer the repo has.
#
#   scripts/check.sh            # full matrix (four builds; slow but total)
#   scripts/check.sh --quick    # Werror build + tests + lint only
#   scripts/check.sh --chaos    # only the sanitized chaos soak (stage 6)
#   scripts/check.sh --perf     # only the end-to-end benchmark (stage 11)
#
# Any other argument, or more than one, prints the usage and exits 2
# before anything is built.
#
# Stages (each is a fresh build tree under build-check/):
#   1. werror  — RelWithDebInfo + RETRI_WERROR=ON, full build, full ctest
#                (which includes `ctest -L repro`: the paper's claims over
#                their named sweeps at the registry defaults, and the table
#                binaries' shape checks)
#   2. lint    — retri_lint over the tree (all three engines)
#   3. graph   — retri_lint --graph check: include-graph layering + cycle
#                rules over src/ (also part of --quick)
#   4. tidy    — RETRI_TIDY=ON build (curated .clang-tidy, warnings fatal);
#                SKIPPED with a notice when clang-tidy is not installed
#   5. asan    — RETRI_SANITIZE=address build + full ctest (repro included)
#   6. chaos   — short randomized fault-injection soak (retri_chaos) under
#                the asan build, plus `ctest -L chaos`; also runnable alone
#                via `scripts/check.sh --chaos`
#   7. obs     — observability gate under the werror build: `ctest -L obs`
#                (metrics/span/export suites + retri_trace CLI smoke) plus
#                a --jobs 1 vs --jobs 8 retri_trace artifact diff (the
#                Perfetto JSON must be byte-identical)
#   8. selector — selector-zoo gate under the werror build: `ctest -L
#                selector` (policy statistics, permutation injectivity, the
#                attacker model) plus a short
#                attacker soak: `retri_bench --sweep selectors` at --jobs 1
#                vs --jobs 8 must emit byte-identical artifacts
#   9. cache   — memo-store gate under the werror build: the store and
#                memo suites of `ctest -L runner` (ServeCacheTest: restart
#                reads, CRC and key checks, crash points, ENOSPC; MemoTest:
#                a sweep and a chaos soak given a store, per-cell commits)
#                plus one short sweep run three times — uncached,
#                cold `--cache` at --jobs 1, warm `--cache` at --jobs 4: the
#                three artifacts must be byte-identical and the warm run
#                must report 0 simulated cells
#  10. tsan    — RETRI_SANITIZE=thread build + `ctest -L runner` (the
#                concurrency suite, memo store included; TSan on the
#                single-threaded sim buys nothing but runtime, so the repro
#                sweeps and table binaries do not run here)
#  11. perf    — opt-in via `scripts/check.sh --perf`: perfbench's own
#                self-test, then both BENCHMARK.json workloads (paper_star5,
#                hidden16) at --seed 0 --seconds 30, untraced and traced.
#                Every run must exit 0 and report "correct": true on its
#                last line (fingerprint digests, census and conservation
#                checks). No timing is gated here; perfbench builds its own
#                tree under .bench_build/ and the stage writes no tracked
#                file.
#
# Exits nonzero on the first failing stage and always prints the per-stage
# summary. Parallelism: JOBS env var, default nproc.

set -u
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
QUICK=0
CHAOS_ONLY=0
PERF=0
case "$#:${1:-}" in
  0:) ;;
  1:--quick) QUICK=1 ;;
  1:--chaos) CHAOS_ONLY=1 ;;
  1:--perf) PERF=1 ;;
  *)
    echo "usage: scripts/check.sh [--quick | --chaos | --perf]" >&2
    exit 2
    ;;
esac

declare -a STAGE_NAMES=() STAGE_RESULTS=()
FAILED=0

note() { printf '\n==== %s ====\n' "$*"; }

summary() {
  printf '\n==== check.sh summary ====\n'
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-10s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
  done
}

# record NAME RESULT
record() { STAGE_NAMES+=("$1"); STAGE_RESULTS+=("$2"); }

# run_stage NAME CMD... — runs CMD, records PASS/FAIL, exits on failure.
run_stage() {
  local name="$1"; shift
  note "stage: $name"
  if "$@"; then
    record "$name" PASS
  else
    record "$name" "FAIL (exit $?)"
    FAILED=1
    summary
    exit 1
  fi
}

build_dir() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null && cmake --build "$dir" -j "$JOBS"
}

# --- chaos soak (shared by the asan stage and --chaos) ----------------------
# Runs the seeded fault-injection soak against a sanitized build: every
# trial's conservation invariants must hold and the --jobs 1 vs --jobs 8
# artifacts must be byte-identical (deterministic sharding).
chaos_soak() {
  local build="$1"
  build_dir "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_SANITIZE=address &&
  "$build/tools/chaos/retri_chaos" --seeds 25 --seconds 3 --jobs 1 \
    --out "$build/chaos-j1.json" &&
  "$build/tools/chaos/retri_chaos" --seeds 25 --seconds 3 --jobs 8 \
    --out "$build/chaos-j8.json" &&
  cmp "$build/chaos-j1.json" "$build/chaos-j8.json" &&
  ctest --test-dir "$build" --output-on-failure -L chaos -j "$JOBS"
}

if [[ "$CHAOS_ONLY" == 1 ]]; then
  chaos_only_stage() { chaos_soak build-check/asan; }
  run_stage chaos chaos_only_stage
  summary
  exit "$FAILED"
fi

# --- end-to-end benchmark (opt-in: --perf) ----------------------------------
# Correctness only: timing is compared parent-vs-change on the calibrated
# perfbench metrics (BENCHMARK.json bounds), not against a committed number.
if [[ "$PERF" == 1 ]]; then
  # perf_run ARGS... — one perfbench run; passes when it exits 0 and the
  # last line of its stdout, the JSON result, says "correct": true.
  perf_run() {
    local out
    out="$(python3 perfbench/run.py "$@")" ||
      { printf '%s\n' "$out"; return 1; }
    printf '%s\n' "$out"
    [[ "${out##*$'\n'}" == *'"correct": true'* ]]
  }
  perf_stage() {
    python3 perfbench/run.py --self-test || return 1
    local workload trace
    for workload in paper_star5 hidden16; do
      for trace in 0 1; do
        perf_run --workload "$workload" --seed 0 --seconds 30 \
          --trace "$trace" || return 1
      done
    done
  }
  run_stage perf perf_stage
  summary
  exit "$FAILED"
fi

# --- 1. Werror build + full test suite -------------------------------------
werror_stage() {
  build_dir build-check/werror -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_WERROR=ON &&
  ctest --test-dir build-check/werror --output-on-failure -j "$JOBS"
}
run_stage werror werror_stage

# --- 2. invariant linter ----------------------------------------------------
lint_stage() { ./build-check/werror/tools/lint/retri_lint --root . ; }
run_stage lint lint_stage

# --- 3. include-graph layering ----------------------------------------------
# Same binary, graph engine only: the declared layer order and the no-cycle
# invariant over src/ modules. Cheap enough to live in --quick.
graph_stage() {
  ./build-check/werror/tools/lint/retri_lint --root . --graph check
}
run_stage graph graph_stage

if [[ "$QUICK" == 1 ]]; then
  summary
  exit "$FAILED"
fi

# --- 4. clang-tidy (gated on availability) ----------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  tidy_stage() {
    build_dir build-check/tidy -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRETRI_TIDY=ON
  }
  run_stage tidy tidy_stage
else
  note "stage: tidy — clang-tidy not installed, skipping"
  record tidy SKIP
fi

# --- 5. AddressSanitizer build + full test suite ----------------------------
asan_stage() {
  build_dir build-check/asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_SANITIZE=address &&
  ctest --test-dir build-check/asan --output-on-failure -j "$JOBS"
}
run_stage asan asan_stage

# --- 6. chaos soak under the asan build -------------------------------------
chaos_stage() { chaos_soak build-check/asan; }
run_stage chaos chaos_stage

# --- 7. observability gate ---------------------------------------------------
# ctest -L obs already ran inside the full werror/asan suites; this stage
# re-selects it explicitly and then checks the retri_trace determinism
# contract: --jobs only shards the batch, so the Perfetto artifact must be
# byte-identical across worker counts.
obs_stage() {
  ctest --test-dir build-check/werror --output-on-failure -L obs -j "$JOBS" &&
  ./build-check/werror/tools/trace/retri_trace --senders 4 --seconds 2 \
    --trials 4 --jobs 1 --trial 1 --out build-check/werror/trace-j1.json &&
  ./build-check/werror/tools/trace/retri_trace --senders 4 --seconds 2 \
    --trials 4 --jobs 8 --trial 1 --out build-check/werror/trace-j8.json &&
  cmp build-check/werror/trace-j1.json build-check/werror/trace-j8.json
}
run_stage obs obs_stage

# --- 8. selector-zoo gate -----------------------------------------------------
# ctest -L selector covers the policy properties and the attacker model;
# the soak then drives the full selector x attacker sweep through
# retri_bench twice — sweep sharding must not leak into the artifact, so
# the --jobs 1 and --jobs 8 bytes must match exactly.
selector_stage() {
  ctest --test-dir build-check/werror --output-on-failure -L selector \
    -j "$JOBS" &&
  ./build-check/werror/bench/retri_bench --sweep selectors --trials 1 \
    --seconds 1 --jobs 1 --out build-check/werror/selectors-j1.json &&
  ./build-check/werror/bench/retri_bench --sweep selectors --trials 1 \
    --seconds 1 --jobs 8 --out build-check/werror/selectors-j8.json &&
  cmp build-check/werror/selectors-j1.json \
    build-check/werror/selectors-j8.json
}
run_stage selector selector_stage

# --- 9. memo-store gate -------------------------------------------------------
# Unit suites for the cache/memo layers, then the end-to-end contract
# of `retri_bench --cache`: memoization only skips work, so an uncached run,
# a cold cached run and a warm cached run at another --jobs value must emit
# the same bytes, and the warm run must simulate nothing.
cache_stage() {
  local dir=build-check/werror/cache-stage
  local bench=./build-check/werror/bench/retri_bench
  local flags=(--sweep fig4 --trials 2 --seconds 2)
  rm -rf "$dir" && mkdir -p "$dir" &&
  ctest --test-dir build-check/werror --output-on-failure -L runner \
    -R '^(ServeCache|MemoTest)' --no-tests=error -j "$JOBS" &&
  "$bench" "${flags[@]}" --jobs 4 --out "$dir/uncached.json" >/dev/null &&
  "$bench" "${flags[@]}" --jobs 1 --cache "$dir/store" \
    --out "$dir/cold.json" >/dev/null &&
  "$bench" "${flags[@]}" --jobs 4 --cache "$dir/store" \
    --out "$dir/warm.json" >/dev/null 2>"$dir/warm.log" &&
  cmp "$dir/uncached.json" "$dir/cold.json" &&
  cmp "$dir/uncached.json" "$dir/warm.json" &&
  grep -q ' 0 simulated$' "$dir/warm.log"
}
run_stage cache cache_stage

# --- 10. ThreadSanitizer build + runner concurrency suite --------------------
tsan_stage() {
  build_dir build-check/tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_SANITIZE=thread &&
  ctest --test-dir build-check/tsan --output-on-failure -L runner -j "$JOBS"
}
run_stage tsan tsan_stage

summary
exit "$FAILED"
