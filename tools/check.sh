#!/usr/bin/env bash
# Full correctness gate (see DESIGN.md, "Correctness tooling"):
#
#   stage 1  lint    eadrl_lint over src/ tests/ bench/ tools/ examples/
#   stage 2  werror  zero-warning build of the whole tree (-Werror is the
#                    default; EADRL_WERROR=OFF is the escape hatch)
#   stage 3  trace   smoke: example_quickstart --trace, then eadrl_trace_check
#                    validates the exported Chrome trace (shape + span names)
#   stage 4  serve   smoke: eadrl_serve replays Poisson traffic against the
#                    serving layer (clean run + validated trace), then an
#                    oversubscribed run that must shed (--expect-shed), then
#                    a run with more tenants than the session cap (LRU
#                    evictions, recreated sessions)
#   stage 5  slo     smoke: a deliberately overloaded eadrl_serve run with a
#                    sub-millisecond SLO must breach (--expect-slo-breach)
#                    and export the breach count, and its exported
#                    Prometheus/JSON metric snapshots must validate under
#                    eadrl_metrics_check
#   stage 6  perfbench  the repository benchmark's serve and train
#                    workloads, each untraced and traced, at 3 s: its output
#                    checks (serve == serial replay, identical retraining and
#                    traced forecasts, exactly-once completion, EA-DRL's
#                    online step cheaper than DEMSC's, the manifest's metric
#                    names) gate every library change, the train runs on the
#                    paper-default training path in production configuration
#   stage 7  wthread clang -Wthread-safety analysis over the EADRL_GUARDED_BY
#                    annotations (skipped with a note when clang++ is not
#                    installed; eadrl_lint's guarded-by rules still gate)
#   stage 8  tsan    tier-1 suite under ThreadSanitizer, EADRL_THREADS=N,
#                    with the runtime lock-order tracker forced on
#                    (EADRL_LOCKDEP=1) so lockdep sees sanitizer-grade
#                    interleavings
#   stage 9  asan    tier-1 suite under AddressSanitizer
#   stage 10 nochecks  tier-1 suite under AddressSanitizer with the contract
#                    layer compiled out (EADRL_CHECKS=OFF), the configuration
#                    production serving and the repository benchmark build;
#                    tests that assert a library contract fires skip there
#   stage 11 ubsan   tier-1 suite under UndefinedBehaviorSanitizer
#                    (-fno-sanitize-recover=all: any UB aborts the test)
#
# Each stage reports wall-clock seconds; the summary at the end shows all of
# them. Exit is nonzero on the first failing stage.
#
# Usage: tools/check.sh [threads]
#   threads: EADRL_THREADS for the sanitizer test runs (default 4).
set -euo pipefail

THREADS="${1:-4}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

STAGE_NAMES=()
STAGE_SECONDS=()

run_stage() {
  local name="$1"
  shift
  echo
  echo "==== stage: $name ===="
  local start
  start=$(date +%s)
  "$@"
  local end
  end=$(date +%s)
  STAGE_NAMES+=("$name")
  STAGE_SECONDS+=("$((end - start))")
  echo "==== stage $name passed in $((end - start))s ===="
}

stage_lint() {
  cmake -B "$SRC_DIR/build-gate" -S "$SRC_DIR"
  cmake --build "$SRC_DIR/build-gate" -j "$JOBS" --target eadrl_lint
  "$SRC_DIR/build-gate/tools/lint/eadrl_lint" --root "$SRC_DIR"
}

stage_werror() {
  # EADRL_WERROR defaults ON, so this is simply "the tree builds".
  cmake --build "$SRC_DIR/build-gate" -j "$JOBS"
}

stage_trace_smoke() {
  # End-to-end tracing smoke: run the quickstart with --trace and validate
  # the export with eadrl_trace_check (well-formed Chrome trace JSON, every
  # span name registered in src/obs/spans.def, no dangling parent ids).
  local trace_dir
  trace_dir="$(mktemp -d)"
  "$SRC_DIR/build-gate/examples/example_quickstart" \
    --trace "$trace_dir/trace.json"
  "$SRC_DIR/build-gate/tools/eadrl_trace_check" "$trace_dir/trace.json"
  # set -e aborts the script on failure above, so only a clean pass needs
  # the cleanup (a failing run leaves the trace behind for inspection).
  rm -rf "$trace_dir"
}

stage_serve_smoke() {
  # Serving-layer smoke (see DESIGN.md, "Serving layer"). Run 1: a short
  # Poisson replay must complete with zero failed requests and its Chrome
  # trace must validate (serve_* spans are registered in spans.def; the
  # closing TTL sweep adds serve_evict spans to the serve_session,
  # admission, wave and request ones). Run 2:
  # an oversubscribed replay against tiny queue/in-flight bounds must
  # exercise admission control — --expect-shed makes a shed-free run the
  # failure. Run 3: 64 tenants under a 16-session cap drive the LRU path;
  # the replay recreates each evicted session and must exit 0.
  local serve_dir
  serve_dir="$(mktemp -d)"
  "$SRC_DIR/build-gate/tools/eadrl_serve" \
    --tenants 64 --requests 1500 --qps 30000 --episodes 2 \
    --threads "$THREADS" --ttl 0.001 --trace "$serve_dir/serve_trace.json"
  "$SRC_DIR/build-gate/tools/eadrl_trace_check" "$serve_dir/serve_trace.json"
  "$SRC_DIR/build-gate/tools/eadrl_serve" \
    --tenants 64 --requests 1500 --qps 300000 --episodes 2 \
    --threads "$THREADS" --max-queue 32 --max-inflight 48 --expect-shed
  "$SRC_DIR/build-gate/tools/eadrl_serve" \
    --tenants 64 --max-sessions 16 --shards 4 --requests 600 --qps 20000 \
    --episodes 2 --threads 4
  rm -rf "$serve_dir"
}

stage_slo_smoke() {
  # Live-observability smoke (see DESIGN.md, "Live serving observability").
  # An oversubscribed replay with a 10 us latency SLO must breach: the run
  # exits nonzero unless a breach edge fired (--expect-slo-breach), the
  # exported Prometheus snapshot must count at least one predict_latency
  # breach, and both exporter formats must validate — the Prometheus
  # snapshot against the exposition grammar (with the SLO series present)
  # and a JSON snapshot against the eadrl-metrics schema (with the windowed
  # serve stats present).
  local slo_dir
  slo_dir="$(mktemp -d)"
  "$SRC_DIR/build-gate/tools/eadrl_serve" \
    --tenants 64 --requests 1500 --qps 300000 --episodes 2 \
    --threads "$THREADS" --max-queue 32 --max-inflight 48 \
    --slo-latency-ms 0.01 --slo-target 0.999 --expect-slo-breach \
    --export-metrics "$slo_dir/metrics.prom" --export-interval 0.2 \
    --tenant-top 5
  grep -Eq '^eadrl_slo_breaches_total\{objective="predict_latency"\} [1-9]' \
    "$slo_dir/metrics.prom"
  "$SRC_DIR/build-gate/tools/eadrl_metrics_check" \
    --require eadrl_slo_burn_rate --require eadrl_serve_window_predict_qps \
    "$slo_dir/metrics.prom"
  "$SRC_DIR/build-gate/tools/eadrl_serve" \
    --tenants 16 --requests 400 --qps 50000 --episodes 2 \
    --threads "$THREADS" --slo-latency-ms 50 \
    --export-metrics "$slo_dir/metrics.json" --export-interval 0.2
  "$SRC_DIR/build-gate/tools/eadrl_metrics_check" \
    --require window_predict_qps --require slo "$slo_dir/metrics.json"
  rm -rf "$slo_dir"
}

stage_perfbench() {
  # Repository-benchmark smoke (see perfbench/README.md): perfbench/run.py
  # builds the library from src/ in its own Release configuration (into the
  # gitignored .bench_build/ by default) and exits nonzero when any of the
  # benchmark's output checks fails or its result line's metrics are not
  # exactly BENCHMARK.json's. One untraced and one traced run of each
  # workload: serve (~10 s each once built) trains briefly and serially;
  # train (~30 s each) trains at the paper's defaults with contracts
  # compiled out, so kernel and training-loop changes are gated by its
  # checks: every retraining deploys identical forecasts, the traced
  # training deploys the untraced forecasts, and
  # eadrl_step_us < demsc_step_us.
  local workload trace
  for workload in serve train; do
    for trace in 0 1; do
      python3 "$SRC_DIR/perfbench/run.py" --workload "$workload" --seed 1 \
        --seconds 3 --trace "$trace"
    done
  done
}

stage_thread_safety() {
  # Static lock analysis, compiler half: build libeadrl under clang with
  # -Wthread-safety, which checks the EADRL_GUARDED_BY/REQUIRES annotations
  # structurally (the gcc tier-1 build compiles them to nothing). Optional
  # because the baked toolchain is gcc; skipping is a note, not a failure —
  # eadrl_lint's guarded-by/lock-order rules gate in stage 1 regardless.
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not installed; skipping -Wthread-safety analysis" \
      "(eadrl_lint covers the guarded-by rules)"
    return 0
  fi
  local dir="$SRC_DIR/build-wthread"
  cmake -B "$dir" -S "$SRC_DIR" \
    -DCMAKE_CXX_COMPILER=clang++ -DEADRL_THREAD_SAFETY=ON
  cmake --build "$dir" -j "$JOBS" --target eadrl
}

# Usage: stage_sanitizer mode [build-dir-suffix [extra cmake args...]]
stage_sanitizer() {
  local mode="$1"
  local dir="$SRC_DIR/build-${2:-$mode}"
  shift $(($# < 2 ? $# : 2))
  cmake -B "$dir" -S "$SRC_DIR" \
    -DEADRL_SANITIZE="$mode" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j "$JOBS"
  # EADRL_LOCKDEP=1 forces the runtime lock-order tracker on (its default,
  # but explicit here so a developer's EADRL_LOCKDEP=0 environment cannot
  # silently weaken the gate) — under TSan this pairs lockdep's cycle
  # detection with sanitizer-grade interleavings.
  (cd "$dir" && EADRL_THREADS="$THREADS" EADRL_LOCKDEP=1 \
    ctest --output-on-failure -j 4)
}

run_stage lint stage_lint
run_stage werror stage_werror
run_stage trace stage_trace_smoke
run_stage serve stage_serve_smoke
run_stage slo stage_slo_smoke
run_stage perfbench stage_perfbench
run_stage wthread stage_thread_safety
run_stage tsan stage_sanitizer thread
run_stage asan stage_sanitizer address
run_stage nochecks stage_sanitizer address nochecks -DEADRL_CHECKS=OFF
run_stage ubsan stage_sanitizer undefined

echo
echo "==== all stages passed ===="
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-9s %ss\n' "${STAGE_NAMES[$i]}" "${STAGE_SECONDS[$i]}"
done
echo "tier-1 suite is clean under TSan, ASan (contracts on and off) and UBSan" \
  "(EADRL_THREADS=$THREADS)"
