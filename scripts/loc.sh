#!/usr/bin/env bash
# Line-count gate, run by CI's static-analysis job: fails when non-test Go
# grows past CEILING. It counts the way ROADMAP.md reports the module's
# size: every .go file that is not a _test.go file, benchmark/ included,
# testdata/ and the benchmark's build output (.bench_build/) excluded.
#
# A change that adds code raises CEILING in the same diff, so the growth
# is reviewed as an edit of this file; a change that deletes code lowers
# it to the new count.
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=20414

n="$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' |
  xargs cat | wc -l)"
echo "non-test Go: $n lines (ceiling $CEILING)"
if [ "$n" -gt "$CEILING" ]; then
  echo "loc: non-test Go is $n lines, over the ceiling of $CEILING; delete code or raise CEILING in scripts/loc.sh" >&2
  exit 1
fi
