#!/usr/bin/env bash
# Static-analysis gate, the local mirror of CI's static-analysis job:
#
#   1. uerlvet (cmd/uerlvet) over the whole module — the repo's own
#      go/analysis-style suite checking the //uerl: contract surface:
#      determinism, hotpath allocations, concurrency (Decider coverage,
#      guarded-by/restrict-to fields), floating-point reduction order,
#      plus shadow/unusedwrite/nilness. Must be clean.
#   2. A self-check that uerlvet still *fails* on every analyzer's
#      testdata fixtures — if an analyzer silently stops firing, the
#      clean ./... run above would pass vacuously.
#   3. govulncheck, when installed (CI installs it; locally optional).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== uerlvet ./... =="
go run ./cmd/uerlvet ./...

echo "== uerlvet guardrail layer (explicit pass) =="
# The budget ledger must stay a declared-deterministic package: telemetry
# time only, no wall clock. A dedicated pass keeps the guard layer
# covered even if the module-wide invocation above is ever narrowed, and
# the marker grep fails loudly if someone drops the declaration (which
# would silently exempt internal/guard from the determinism analyzers).
go run ./cmd/uerlvet ./internal/guard ./internal/evalx .
if ! grep -q '^//uerl:deterministic' internal/guard/guard.go; then
  echo "lint: internal/guard lost its //uerl:deterministic package marker" >&2
  exit 1
fi

echo "== uerlvet scenario harness (explicit pass) =="
# The scenario harness promises byte-identical summaries across runs and
# GOMAXPROCS values, so the whole package must stay declared
# deterministic — telemetry time and forked spec-seeded RNGs only. The
# grep fails loudly if the declaration is dropped, which would silently
# exempt the compiler/runner from the determinism analyzers.
go run ./cmd/uerlvet ./internal/scenario
if ! grep -q '^//uerl:deterministic' internal/scenario/spec.go; then
  echo "lint: internal/scenario lost its //uerl:deterministic package marker" >&2
  exit 1
fi

echo "== uerlvet fleet serving layer (explicit pass) =="
# The distributed serving layer promises a byte-identical decision
# stream for a given seed + fault schedule at any GOMAXPROCS, so the
# coordinator/transport/journal package must stay declared deterministic
# — telemetry time and seed-forked RNGs only, no wall clock in failover
# or backoff decisions. The grep fails loudly if the declaration is
# dropped, which would silently exempt internal/fleet from the
# determinism analyzers.
go run ./cmd/uerlvet ./internal/fleet
if ! grep -q '^//uerl:deterministic' internal/fleet/coordinator.go; then
  echo "lint: internal/fleet lost its //uerl:deterministic package marker" >&2
  exit 1
fi

echo "== no fused multiply-adds in internal/nn's unfused kernels (arm64) =="
# The Go spec lets a compiler fuse x*y+z into one FMA, and the arm64
# backend does unless the product is written float64(x*y). internal/nn's
# scalar kernels must keep multiply and add separately rounded (they are
# bit-identical to the amd64 VMULPD/VADDPD stream), so any FMADDD/FMSUBD/
# FNMADDD/FNMSUBD in the arm64 assembly fails the lint — except in the
# KernelFast functions that call math.FMA on purpose.
fused="$(GOARCH=arm64 go build -gcflags=-S ./internal/nn 2>&1 | awk '
  / STEXT/ { fn = $1 }
  /\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/ &&
    fn !~ /^repro\/internal\/nn\.(fmaAxpy|fmaAxpy2|fwdLayerFast)$/ { n[fn]++ }
  END { for (f in n) print n[f], f }')"
if [ -n "$fused" ]; then
  echo "lint: fused multiply-adds in internal/nn's arm64 build (write products as float64(a*b)):" >&2
  echo "$fused" >&2
  exit 1
fi

echo "== KernelReference only identifies legacy artifacts =="
# Everything trains under nn.KernelFast. nn.KernelReference stays defined
# (internal/nn/kernel.go) so LoadModel (model.go) accepts artifacts stamped
# with it; tests may name it, nothing else may.
refs="$(grep -rl --include='*.go' --exclude='*_test.go' 'KernelReference' . |
  grep -vxE '\./(internal/nn/kernel\.go|model\.go)' || true)"
if [ -n "$refs" ]; then
  echo "lint: KernelReference outside internal/nn/kernel.go and model.go:" >&2
  echo "$refs" >&2
  exit 1
fi

echo "== uerlvet fixture self-check (each must produce findings) =="
fixtures=(
  internal/analysis/determinism/testdata/src/det
  internal/analysis/hotpath/testdata/src/hot
  internal/analysis/concurrency/testdata/src/conc
  internal/analysis/fpreduce/testdata/src/fpr
  internal/analysis/vetextra/testdata/src/shadowfix
  internal/analysis/vetextra/testdata/src/unusedfix
  internal/analysis/vetextra/testdata/src/nilfix
)
for d in "${fixtures[@]}"; do
  if go run ./cmd/uerlvet "./$d" >/dev/null 2>&1; then
    echo "lint: expected uerlvet findings in $d, got none — analyzer gone dark?" >&2
    exit 1
  fi
done

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
  govulncheck ./...
else
  echo "govulncheck not installed; skipping (CI installs and runs it)"
fi

echo "lint: OK"
