#!/usr/bin/env sh
# Runs bench_throughput and appends one labelled JSON line per record to
# BENCH_throughput.json, building the cross-PR throughput trajectory the
# ROADMAP tracks. Each line is the bench's own record plus a "label" (git
# short SHA by default) and the machine's core count.
#
#   scripts/bench_trajectory.sh [bench-binary] [label] [output-file]
#
# Environment: THREADS (default 4), QUERIES (default 256), MODE (default
# all — includes the `repeat` zipfian cold/warm AnswerCache mode, the
# `strategy` non-rewriting-handle mode, the `mutate` mode, whose line
# records read QPS while a writer thread mutates the EDB through the
# service's write seam, and the `serve` open-loop wire mode: requests
# arrive at a fixed rate RATE (default 1000/s) over real TCP connections
# to an in-process MagicServer, and the line records p50/p95/p99
# latency measured from each request's *scheduled* arrival, so queueing
# delay counts). MODE=eval_large runs the standalone million-fact
# single-stream fixpoint mode; LARGE_FACTS (default 1000000) sets its
# EDB size. Run from the repository root.
#
# The output file only ever grows by complete, validated records: the
# bench writes to a temp file, complete records are labelled into a
# staging file (a line that doesn't terminate in `}` — a bench crash
# mid-print — is dropped with a warning), the staging file is checked
# line-by-line as JSON, and only then appended to the output in one step.
# A bench failure still fails this script, but it can never leave a
# partial line corrupting the trajectory.
set -eu

BIN=${1:-./build/bench_throughput}
LABEL=${2:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabelled)}
OUT=${3:-BENCH_throughput.json}
CORES=$(nproc 2>/dev/null || echo 1)

TMP=$(mktemp)
STAGE=$(mktemp)
trap 'rm -f "$TMP" "$STAGE"' EXIT

# Run to a temp file first, capturing the exit status (a pipe into
# `while read` would swallow it under POSIX sh; dying here would drop the
# records a partial run did complete).
bench_status=0
"$BIN" --threads "${THREADS:-4}" --queries "${QUERIES:-256}" \
       --mode "${MODE:-all}" --rate "${RATE:-1000}" \
       --large-facts "${LARGE_FACTS:-1000000}" > "$TMP" || bench_status=$?

while IFS= read -r line; do
  case $line in
    '{'*'}')
      printf '{"label":"%s","cores":%s,%s\n' "$LABEL" "$CORES" "${line#\{}" \
        >> "$STAGE"
      ;;
    *)
      printf 'bench_trajectory: dropping partial record: %s\n' "$line" >&2
      ;;
  esac
done < "$TMP"

# Every staged line must parse as JSON before it may reach $OUT.
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys
for n, line in enumerate(open(sys.argv[1]), 1):
    try:
        json.loads(line)
    except ValueError as e:
        raise SystemExit(f"bench_trajectory: bad JSON on staged line {n}: {e}")' "$STAGE"
fi

# One atomic append of the whole validated staging file.
cat "$STAGE" >> "$OUT"

tail -n 5 "$OUT"
exit "$bench_status"
