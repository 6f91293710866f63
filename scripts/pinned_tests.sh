#!/usr/bin/env bash
# scripts/pinned_tests.sh — run tests pinned by name, and fail unless every
# one of them ran.
#
#   scripts/pinned_tests.sh [go test flags...] PKG PATTERN
#
# PATTERN is the `go test -run` pattern, a '|'-separated list of top-level
# test names (a name may carry ^ and $ anchors). `go test -run` passes when
# its pattern matches nothing, so a test renamed or deleted from under a
# pinned list would drop out of it unnoticed. This script runs the list
# with `go test -json` and fails when go test fails or when a listed test
# did not run. A listed test that skipped is printed with its skip message
# but does not fail the run: some tests skip by design (a documented timing
# skip, an alloc guard under -race). Needs jq.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 [go test flags...] PKG PATTERN" >&2
  exit 2
fi
pattern=${*: -1}
pkg=${*: -2:1}
flags=("${@:1:$#-2}")

events=$(mktemp)
trap 'rm -f "$events"' EXIT
status=0
go test -json "${flags[@]}" -run "$pattern" "$pkg" >"$events" || status=$?

if [ "$status" -ne 0 ]; then
  # Everything go test said, as `go test -v` would have said it.
  jq -rj 'select(.Output != null) | .Output' "$events"
else
  # The package's own lines: PASS and the ok summary.
  jq -rj 'select(.Output != null and .Test == null) | .Output' "$events"
fi

# One "<action> <test>" line per finished run of a top-level test.
finished=$(jq -r 'select(.Test != null and (.Test | contains("/") | not))
  | select(.Action == "pass" or .Action == "fail" or .Action == "skip")
  | "\(.Action) \(.Test)"' "$events")

missing=0
IFS='|' read -ra names <<<"$pattern"
for name in "${names[@]}"; do
  name=${name#^}
  name=${name%$}
  runs=$(awk -v n="$name" '$2 == n' <<<"$finished" | wc -l)
  skips=$(awk -v n="$name" '$1 == "skip" && $2 == n' <<<"$finished" | wc -l)
  if [ "$runs" -eq 0 ]; then
    echo "pinned test $name did not run in $pkg" >&2
    missing=1
  elif [ "$skips" -gt 0 ]; then
    echo "pinned test $name skipped in $skips of $runs runs:"
    jq -rj --arg n "$name" 'select(.Test == $n and .Action == "output")
      | select(.Output | test("^=== (RUN|PAUSE|CONT)") | not) | .Output' "$events"
  fi
done

if [ "$status" -ne 0 ]; then
  exit "$status"
fi
exit "$missing"
