#!/usr/bin/env sh
# Fails if any bench JSON dump carries a failed self-check.
#
# The bench binaries verify their own results (fast path vs pivotal
# parity, loaded-vs-built joins, facade-vs-templated ids, the churn
# panel's quiesce_matches_rebuild) and write the verdicts into the JSON
# they emit — by design the verdict is written
# even when the binary then exits nonzero, so a stale or inspected
# artifact still tells the truth. This script is the CI-side net: it
# scans every given file (or bench_*.json in the current directory) for
# a self-check field that is false and exits 1 listing the offenders.
# `oversubscribed` is informational (threads > cores), not a self-check,
# and is ignored.
#
# Engine-scaling dumps additionally have a *presence* requirement: the
# net panel's `net_matches_inprocess` verdict must exist. A refactor that
# silently drops the panel would otherwise pass the false-scan (nothing
# false in a field that is not there) while its identity check quietly
# stops running.
#
# Usage: check_bench_parity.sh [file.json ...]

set -u

files="$*"
if [ -z "$files" ]; then
  files=$(ls bench_*.json 2>/dev/null)
fi
if [ -z "$files" ]; then
  echo "check_bench_parity: no bench JSON files found" >&2
  exit 1
fi

status=0
for f in $files; do
  if [ ! -r "$f" ]; then
    echo "check_bench_parity: cannot read $f" >&2
    status=1
    continue
  fi
  bad=$(grep -oE '"(parity|[a-z_]*self_check[a-z_]*|[a-z_]*matches[a-z_]*|[a-z_]*identical[a-z_]*)": *false' "$f")
  if [ -n "$bad" ]; then
    echo "check_bench_parity: $f reports a failed self-check:" >&2
    echo "$bad" | sed 's/^/  /' >&2
    status=1
    continue
  fi
  case "$f" in
    *engine_scaling*)
      if ! grep -q '"net_matches_inprocess":' "$f"; then
        echo "check_bench_parity: $f is missing the net panel verdict (net_matches_inprocess)" >&2
        status=1
        continue
      fi
      ;;
  esac
  echo "check_bench_parity: $f ok"
done
exit $status
