#!/usr/bin/env bash
# bench.sh — run the repository's hot-path benchmarks and record the
# perf trajectory.
#
# Emits standard `go test -bench` output (benchstat-compatible: pipe two
# runs' saved outputs into `benchstat old.txt new.txt`) and writes a
# BENCH_<n>.json summary next to the repo root so successive PRs can
# track ns/op and allocs/op over time. The summary's "host" entry names
# the machine the numbers came from (nproc, Go version, CPU model).
#
# Usage:
#   scripts/bench.sh                       # default: 1s benchtime, 1 count
#   PKGS=. scripts/bench.sh -cpuprofile out.prof  # also record a CPU profile
#   BENCHTIME=3s COUNT=5 scripts/bench.sh
#   BENCH_OUT=BENCH_3.json scripts/bench.sh
#   PKGS=./internal/fleet FILTER='BenchmarkCoordinatorTick$' scripts/bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."

CPUPROFILE=""
while [ $# -gt 0 ]; do
  case "$1" in
    -cpuprofile)
      [ $# -ge 2 ] || { echo "bench.sh: -cpuprofile needs a path" >&2; exit 2; }
      CPUPROFILE="$2"
      shift 2
      ;;
    *)
      echo "bench.sh: unknown argument $1 (supported: -cpuprofile <path>)" >&2
      exit 2
      ;;
  esac
done

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
# Default to BENCH_<max+1>.json so a rerun never clobbers a previous PR's
# committed snapshot and the trajectory stays ordered.
if [ -z "${BENCH_OUT:-}" ]; then
  max=0
  for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n="${f#BENCH_}"
    n="${n%.json}"
    case "$n" in *[!0-9]*) continue ;; esac
    [ "$n" -gt "$max" ] && max="$n"
  done
  BENCH_OUT="BENCH_$((max + 1)).json"
fi
FILTER="${FILTER:-BenchmarkNNForward$|BenchmarkNNForwardSmall$|BenchmarkNNForwardBatch$|BenchmarkNNTrainStepBatched$|BenchmarkPERSample$|BenchmarkFeatureTracker$|BenchmarkReplayNever$|BenchmarkReplayNeverSerial$|BenchmarkControllerObserveEvent$|BenchmarkControllerObserveBatch$|BenchmarkControllerRecommendSerial$|BenchmarkControllerRecommendParallel$|BenchmarkControllerTick$|BenchmarkRLDecide$|BenchmarkLearnerProcess$|BenchmarkDQNTrainEpoch$|BenchmarkLearnerEpoch$|BenchmarkCoordinatorTick$|BenchmarkFig3CostBenefit$|BenchmarkScenarioCompile$}"
# The packages holding the benchmarks: the root module's serving and
# research benches, the learner-shape network bench, the online learner's
# retrain epoch, the fleet's coordinator bench, and the scenario compile
# bench.
PKGS="${PKGS:-. ./internal/nn ./internal/lifecycle ./internal/fleet ./internal/scenario}"
case "$PKGS" in
  *" "*) [ -z "$CPUPROFILE" ] || { echo "bench.sh: -cpuprofile profiles one package; set PKGS to it" >&2; exit 2; } ;;
esac

txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT

go test -run '^$' -bench "$FILTER" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
  ${CPUPROFILE:+-cpuprofile "$CPUPROFILE"} $PKGS | tee "$txt"

# Convert "BenchmarkX-8  N  T ns/op  B B/op  A allocs/op [extra metrics]"
# lines into a JSON summary. With COUNT>1 the fastest run of each
# benchmark wins: the snapshot records the code's speed, not whichever
# host-contention phase a single run happened to land in (allocs and
# B/op ride along from the winning run — they barely vary).
host="nproc=$(nproc 2>/dev/null || echo ?) $(go env GOVERSION)"
awk -v out="$BENCH_OUT" -v host="$host" '
/^cpu: / && cpu == "" { cpu = substr($0, 6) }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    t = ""
    for (i = 2; i < NF; i++)
        if ($(i+1) == "ns/op") t = $i
    if (t == "" || ((name in ns) && t + 0 >= ns[name] + 0)) next
    ns[name] = t
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "B/op")      bytes[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
        if ($(i+1) == "ns/sample") persample[name] = $i
        if ($(i+1) == "ns/event")  persample[name] = $i
    }
    if (!(name in order)) { order[name] = ++n; names[n] = name }
}
END {
    printf "{\n" > out
    gsub(/"/, "", cpu)
    printf "  \"host\": \"%s cpu=%s\"%s\n", host, cpu, (n > 0 ? "," : "") >> out
    for (i = 1; i <= n; i++) {
        name = names[i]
        printf "  \"%s\": {\"ns_per_op\": %s", name, ns[name] >> out
        if (name in persample) printf ", \"ns_per_sample\": %s", persample[name] >> out
        if (name in bytes)     printf ", \"bytes_per_op\": %s", bytes[name] >> out
        if (name in allocs)    printf ", \"allocs_per_op\": %s", allocs[name] >> out
        printf "}%s\n", (i < n ? "," : "") >> out
    }
    printf "}\n" >> out
}
' "$txt"

echo "wrote $BENCH_OUT"
