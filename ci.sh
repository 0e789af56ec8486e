#!/bin/sh
# Continuous-integration entry point: build, run the full test suite,
# then smoke-test the serving runtime end to end through the CLI.
set -eu

cd "$(dirname "$0")"

if [ -f .ocamlformat ]; then
  echo "== dune build @fmt =="
  dune build @fmt
fi

echo "== dune build (warnings as errors) =="
# A forced rebuild so warnings cached away by incremental builds resurface;
# any compiler warning fails the stage.
build_log="${TMPDIR:-/tmp}/mikpoly_ci_build.log"
dune build --force 2>&1 | tee "$build_log"
if grep -q "Warning" "$build_log"; then
  echo "build emitted warnings (treated as errors)"
  exit 1
fi
rm -f "$build_log"

echo "== dune runtest =="
dune runtest

echo "== serving smoke test =="
dune exec bin/mikpoly_cli.exe -- serve --quick

echo "== profiling smoke test =="
trace_out="${TMPDIR:-/tmp}/mikpoly_ci_trace.json"
dune exec bin/mikpoly_cli.exe -- profile serve --quick --trace-out "$trace_out"
test -s "$trace_out"
dune exec bin/mikpoly_cli.exe -- validate-trace "$trace_out"
rm -f "$trace_out"

echo "== multicore smoke test =="
# The same serving and profiling paths at --jobs 4, which asks for 4
# worker domains and gets at most the host's core count: exercises the
# parallel search, the concurrent precompile fan-out and the domain-safe
# tracer; validate-trace checks the merged per-domain span buffers still
# export a loadable Chrome trace.
dune exec bin/mikpoly_cli.exe -- serve --quick --jobs 4
trace_out="${TMPDIR:-/tmp}/mikpoly_ci_trace_j4.json"
dune exec bin/mikpoly_cli.exe -- profile serve --quick --jobs 4 --trace-out "$trace_out"
test -s "$trace_out"
dune exec bin/mikpoly_cli.exe -- validate-trace "$trace_out"
rm -f "$trace_out"
# A count far above the core count is clamped, not an error, and prints
# what --jobs 1 prints.
jobs_1="${TMPDIR:-/tmp}/mikpoly_ci_jobs_1"
jobs_1000="${TMPDIR:-/tmp}/mikpoly_ci_jobs_1000"
dune exec bin/mikpoly_cli.exe -- serve --quick --csv --jobs 1 > "$jobs_1"
dune exec bin/mikpoly_cli.exe -- serve --quick --csv --jobs 1000 > "$jobs_1000"
cmp "$jobs_1" "$jobs_1000"
rm -f "$jobs_1" "$jobs_1000"

# Subsystem smoke tests share one shape: run the subcommand (a gated
# subcommand's exit code asserts every acceptance gate), require a
# non-empty report carrying every expected verdict, then rerun it under
# 1 and under 4 worker domains and require byte-identical reports. The
# reports hold only simulated quantities, so any difference across
# --jobs counts (auto, 1 and 4) is a determinism bug. These runs are the
# only producer of the subsystem reports.
#   check_report SINK VERDICTS SUBCOMMAND ARGS...
# SINK is "out" for subcommands writing their JSON report via --out, or
# "stdout" to compare what the subcommand prints.
report() {
  sink=$1
  file=$2
  shift 2
  if [ "$sink" = stdout ]; then
    dune exec bin/mikpoly_cli.exe -- "$@" > "$file"
  else
    dune exec bin/mikpoly_cli.exe -- "$@" --out "$file"
  fi
}
check_report() {
  sink=$1
  verdicts=$2
  shift 2
  report_a="${TMPDIR:-/tmp}/mikpoly_ci_report_a"
  report_b="${TMPDIR:-/tmp}/mikpoly_ci_report_b"
  report "$sink" "$report_a" "$@"
  test -s "$report_a"
  for verdict in $verdicts; do
    grep -q "$verdict" "$report_a"
  done
  report "$sink" "$report_b" "$@" --jobs 1
  cmp "$report_a" "$report_b"
  report "$sink" "$report_b" "$@" --jobs 4
  cmp "$report_a" "$report_b"
  rm -f "$report_a" "$report_b"
}

echo "== serve determinism =="
# The single-tenant scheduler's CSV table: byte-identical across --jobs
# counts, like the fleet and hetero reports below. Each batcher runs;
# --cache 1 holds fewer programs than a step's distinct shapes, so every
# step evicts between the per-shape cache probes. A --max-batch far above
# the trace length must cost the parallel runs no more precompile work
# than the trace can use. The deep-queue runs hold hundreds of requests in
# each replica's queue (2 000 requests at several times capacity), so every
# batcher admits, and the SLO-aware one sheds, from a deep queue. The last
# two are the steady regime: 8 replicas under capacity, where the event
# pick chooses among many replicas' cached wake-ups on every event.
check_report stdout "" serve --quick --csv
check_report stdout "" serve --quick --csv --batcher timeout
check_report stdout "" serve --quick --csv --batcher slo
check_report stdout "" serve --quick --csv --cache 1
check_report stdout "" serve --quick --csv --max-batch 65536
for batcher in greedy timeout slo; do
  check_report stdout "" serve --quick --csv --bucket exact --replicas 2 \
    --requests 2000 --rate 5000 --batcher "$batcher"
done
for batcher in greedy timeout; do
  check_report stdout "" serve --quick --csv --replicas 8 --requests 4000 \
    --rate 400 --batcher "$batcher"
done

echo "== experiment determinism =="
# The experiments whose CSV tables hold only simulated quantities, run
# back to back in one process: byte-identical across --jobs counts. fig7,
# npu_e2e and case_study lean on the device simulator: the NPU operator
# and end-to-end runs, and the A100 Figure-15 timelines from Trace.record.
check_report stdout "" run serving resilience adaptation ablations fig10 \
  tab5 fusion fleet hetero fig7 npu_e2e case_study --quick --csv

echo "== adapt smoke test =="
# The online-adaptation loop end to end on a tiny GEMM trace: compile,
# observe residuals, inject drift, refit every 16 observations,
# invalidate and recompile. The saved calibration profile must be a
# non-empty versioned artifact.
profile_out="${TMPDIR:-/tmp}/mikpoly_ci_profile.cal"
dune exec bin/mikpoly_cli.exe -- adapt --quick --seed 7 --save "$profile_out"
test -s "$profile_out"
head -1 "$profile_out" | grep -q "mikpoly-calibration"
rm -f "$profile_out"
# With no drift on the NPU the subcommand still exits 0 (the schedule
# refits whether or not the device drifted), and its report is
# byte-identical across --jobs counts.
check_report stdout "" adapt --quick --seed 7 --npu --severity 0
# Serving with the adaptation loop attached must run clean too, on both
# devices.
dune exec bin/mikpoly_cli.exe -- serve --quick --adapt
dune exec bin/mikpoly_cli.exe -- serve --quick --adapt --npu

echo "== chaos smoke test =="
# The seeded fault-injection A/B end to end: the subcommand exits
# non-zero unless faults were injected, no request was lost silently,
# resilience strictly beats the unprotected arm, and the degradation
# ladder serves every request from a corrupted kernel store.
check_report out '"silent_losses":0' chaos --quick --seed 7

echo "== graph smoke test =="
# Whole-model graph serving end to end: rewrite passes, memory planning,
# pipelined compile/execute and the whole-graph vs per-op serving A/B.
# The subcommand exits non-zero if any acceptance gate fails.
check_report out '"gates_ok":true' graph --quick

echo "== fleet smoke test =="
# Multi-tenant fleet serving end to end: weighted fair queueing,
# shape-aware coalescing, the learned warm store and the autoscaler
# on the heavy-tail multi-tenant trace. The subcommand exits non-zero
# if any acceptance gate fails. The full-size run is the serving
# oracle's too.
check_report out '"gates_ok":true' fleet --quick
check_report out '"gates_ok":true' fleet

echo "== rank smoke test =="
# The learned candidate ranker, an offline experiment: harvest
# observations from the drifted device via the compiler's observer hook,
# train on both fingerprints, and evaluate held-out ranking quality vs
# calibrated Eq. 2 and the GPU->NPU warm start. The subcommand exits
# non-zero if any acceptance gate fails.
check_report out '"gates_ok":true' rank --quick

echo "== hetero smoke test =="
# Heterogeneous mixed GPU+NPU fleet end to end: device-class kernel
# stores, deadline-aware cost-model routing, the per-class circuit
# breaker with trip-drain and half-open probes, hedged dispatch and the
# brown-out ladder, against equal-PE single-backend fleets and the
# chaos failover A/B. The subcommand exits non-zero if any acceptance
# gate fails. The full-size run is the serving oracle's too.
check_report out '"gates_ok":true "silent_losses":0' hetero --quick
check_report out '"gates_ok":true "silent_losses":0' hetero

echo "== store safety =="
# fleet --store tunes and writes a store only when the path is missing.
# An existing store it cannot use (here the NPU's, on the GPU fleet) is
# left byte-identical while the fleet serves in safe mode and says why
# on one stderr line.
store="${TMPDIR:-/tmp}/mikpoly_ci_npu.store"
store_copy="${TMPDIR:-/tmp}/mikpoly_ci_npu.store.orig"
store_err="${TMPDIR:-/tmp}/mikpoly_ci_store_err"
store_report="${TMPDIR:-/tmp}/mikpoly_ci_store_report"
rm -f "$store"
dune exec bin/mikpoly_cli.exe -- offline --npu --save "$store" > /dev/null
cp "$store" "$store_copy"
dune exec bin/mikpoly_cli.exe -- fleet --quick --store "$store" \
  --out "$store_report" > /dev/null 2> "$store_err"
test "$(wc -l < "$store_err")" -eq 1
grep -q "safe mode" "$store_err"
cmp "$store" "$store_copy"
rm -f "$store" "$store_copy" "$store_err" "$store_report"
# A FIFO or a directory at the store path is an unusable store too: it is
# never opened (a FIFO would block the load), the fleet serves in safe
# mode, and the node is left as it was with no tempfile beside it.
store_fifo="${TMPDIR:-/tmp}/mikpoly_ci_store_fifo"
store_dir="${TMPDIR:-/tmp}/mikpoly_ci_store_dir"
rm -rf "$store_fifo" "$store_dir"
mkfifo "$store_fifo"
mkdir "$store_dir"
for node in "$store_fifo" "$store_dir"; do
  timeout 60 ./_build/default/bin/mikpoly_cli.exe fleet --quick \
    --store "$node" --out "$store_report" > /dev/null 2> "$store_err"
  test "$(wc -l < "$store_err")" -eq 1
  grep -q "safe mode" "$store_err"
  test ! -e "$node.tmp"
done
test -p "$store_fifo"
test -d "$store_dir"
rm -rf "$store_fifo" "$store_dir" "$store_err" "$store_report"

echo "== bad input =="
# Bad flag values and unwritable output paths are usage errors: each
# must exit 2 with exactly one line on stderr, never an uncaught
# exception.
# With $usage_timeout set (say, "timeout 60"), a run that hangs is killed
# and fails the check instead of stalling the stage.
usage_timeout=
expect_usage_error() {
  err="${TMPDIR:-/tmp}/mikpoly_ci_usage_err"
  status=0
  $usage_timeout ./_build/default/bin/mikpoly_cli.exe "$@" > /dev/null 2> "$err" || status=$?
  if [ "$status" -ne 2 ] || [ "$(wc -l < "$err")" -ne 1 ]; then
    echo "expected exit 2 and one stderr line (got $status) from: $*"
    cat "$err"
    exit 1
  fi
  rm -f "$err"
}
missing=/nonexistent/d/x
dune build bin/mikpoly_cli.exe
expect_usage_error compile -m 0 -n 4 -k 4
expect_usage_error compile -m 1099511627776 -n 1099511627776 -k 4096
expect_usage_error compile -m 4096 -n 4096 -k 4611686018427387903
expect_usage_error compile -m 4096 -n 4096 -k 4611686018427387903 --npu
expect_usage_error patterns -m 0 -n 4
expect_usage_error patterns -m 4 -n 0
expect_usage_error verify --count 0
for sub in graph fleet hetero chaos rank; do
  expect_usage_error "$sub" --quick --out "$missing"
done
expect_usage_error adapt --quick --save "$missing"
expect_usage_error offline --save "$missing"
# An artifact write never replaces what is not a regular file, and
# leaves no tempfile behind.
scratch_dir="${TMPDIR:-/tmp}/mikpoly_ci_save_dir"
scratch_fifo="${TMPDIR:-/tmp}/mikpoly_ci_save_fifo"
rm -rf "$scratch_dir" "$scratch_fifo" "$scratch_dir.tmp" "$scratch_fifo.tmp"
mkdir "$scratch_dir"
mkfifo "$scratch_fifo"
expect_usage_error offline --save "$scratch_dir"
expect_usage_error offline --save "$scratch_fifo"
test -d "$scratch_dir"
test -p "$scratch_fifo"
test ! -e "$scratch_dir.tmp"
test ! -e "$scratch_fifo.tmp"
rm -rf "$scratch_dir" "$scratch_fifo"
expect_usage_error fleet --quick --store "$missing"
expect_usage_error profile serve --quick --trace-out "$missing"
# A report or trace path is checked before the run, so a FIFO there is
# refused at once and never opened (opening it would block until a
# reader came).
out_fifo="${TMPDIR:-/tmp}/mikpoly_ci_out_fifo"
rm -f "$out_fifo" "$out_fifo.tmp"
mkfifo "$out_fifo"
usage_timeout="timeout 60"
for sub in graph fleet hetero chaos rank; do
  expect_usage_error "$sub" --quick --out "$out_fifo"
done
expect_usage_error profile serve --quick --trace-out "$out_fifo"
usage_timeout=
test -p "$out_fifo"
test ! -e "$out_fifo.tmp"
rm -f "$out_fifo"
expect_usage_error serve --quick --window=nan
expect_usage_error serve --quick --rate=inf
expect_usage_error serve --quick --batcher timeout --window=inf
expect_usage_error adapt --quick --severity=nan
expect_usage_error serve --quick --replicas abc
expect_usage_error compile -m x -n 4 -k 4
expect_usage_error serve --seed -1
expect_usage_error run serving --quick --adapt

echo "== parallel-win =="
# The parallel-polymerization acceptance gate. It runs last: on a host
# with few cores it can fail at any commit (jobs=4 need not outrun
# jobs=1), and its failure must not hide the stages above. The bench
# itself exits non-zero when its gate fails: on a multicore host,
# batched search at jobs=4 must outrun jobs=1 (speedup_vs_jobs1 > 1.0)
# without degrading at jobs=8; on a single-core host (where a speedup is physically
# impossible and effective_jobs clamps every level to one worker) the
# batch machinery must stay within 10% of plain sequential. Either way
# the programs must be byte-identical across job counts. The greps
# re-assert the recorded verdicts on the artifact. The analytic-pruning
# counts (546 scored vs 14 385 unpruned, identical programs) and the
# jobs-invariance of every program and tally are checked by test_core's
# "Table-3 pruning oracle pinned" and "search jobs-invariant" cases in
# the dune runtest stage above.
dune exec bench/main.exe -- --quick
test -s BENCH_parallel.json
grep -q '"passed":true' BENCH_parallel.json
if grep -q '"programs_identical":false' BENCH_parallel.json; then
  echo "parallel-win: programs diverged across job counts"
  exit 1
fi

echo "CI OK"
