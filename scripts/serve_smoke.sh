#!/usr/bin/env sh
# End-to-end smoke test of the wire surface: starts `magicdb serve` on an
# ephemeral port, drives it with magicdb-cli (PREPARE / QUERY / APPLY /
# STREAM / STATS / METRICS), checks row counts before and after a live
# write, validates the Prometheus text exposition and the JSON stats
# document, then sends SIGTERM and asserts a clean shutdown. Exercises the
# same binary+protocol pairing a user deploys, not the in-process test
# server.
#
#   scripts/serve_smoke.sh [magicdb-binary] [cli-binary]
#
# Exits non-zero (with the failing step on stderr) on any mismatch; CI
# runs this on the Release leg after ctest.
set -eu

MAGICDB=${1:-./build/magicdb}
CLI=${2:-./build/magicdb-cli}

WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  printf 'serve_smoke: FAIL: %s\n' "$1" >&2
  [ -f "$WORK/serve.log" ] && sed 's/^/serve_smoke:   serve| /' \
    "$WORK/serve.log" >&2
  exit 1
}

cat > "$WORK/ancestor.dl" <<'EOF'
par(c0, c1).
par(c1, c2).
par(c2, c3).
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
EOF

# Port 0 binds an ephemeral port; the server prints the endpoint it chose.
"$MAGICDB" serve --port 0 --stats "$WORK/ancestor.dl" > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!

PORT=
tries=0
while [ -z "$PORT" ]; do
  PORT=$(sed -n 's/^magicdb serve listening on [^:]*:\([0-9][0-9]*\)$/\1/p' \
         "$WORK/serve.log" 2>/dev/null || true)
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
  tries=$((tries + 1))
  [ "$tries" -gt 100 ] && fail "server never printed its endpoint"
  sleep 0.1
done
printf 'serve_smoke: serving on port %s\n' "$PORT"

run() { "$CLI" --port "$PORT" "$@" 2>> "$WORK/cli.err"; }

# PREPARE round-trips (forms are per-session, so the prepared form dies
# with this connection; the reply fields are what we check here).
"$CLI" --port "$PORT" prepare anc "anc(c0, Y)" \
  2> "$WORK/prepare.head" > /dev/null || fail "prepare rejected"
grep -q 'adornment=bf' "$WORK/prepare.head" \
  || fail "prepare reply missing the adornment"

# One-shot QUERY (PREPARE + QUERY on one connection): anc(c0, Y) over a
# 4-node chain has 3 answers.
rows=$(run query "anc(c0, Y)" | wc -l)
[ "$rows" -eq 3 ] || fail "expected 3 rows before the write, got $rows"

# A request probes the AnswerCache once, so that one cold query on the
# fresh server reads as one request-level miss in the STATS summary (the
# head line, which the cli prints on stderr).
"$CLI" --port "$PORT" stats 2> "$WORK/cold.head" > /dev/null \
  || fail "stats rejected"
grep -q '0 hit(s), 1 miss(es)' "$WORK/cold.head" \
  || fail "one cold query did not read as exactly one AnswerCache miss"

# A repeated variable restricts the answers to the diagonal: the chain is
# acyclic, so anc(X, X) has none (the six anc pairs are not answers).
rows=$(run query "anc(X, X)" | wc -l)
[ "$rows" -eq 0 ] || fail "expected 0 rows for anc(X, X), got $rows"

# A base-predicate query compiles to a selection form like any other:
# par(c0, Y) has one row, and a repeat on a new connection is served from
# the AnswerCache (the cli prints the head line on stderr).
rows=$(run query "par(c0, Y)" | wc -l)
[ "$rows" -eq 1 ] || fail "expected 1 row for par(c0, Y), got $rows"
"$CLI" --port "$PORT" query "par(c0, Y)" 2> "$WORK/par.head" > /dev/null \
  || fail "repeated par(c0, Y) query rejected"
grep -q 'cached=1' "$WORK/par.head" \
  || fail "repeated par(c0, Y) was not served from the AnswerCache"

# A non-ground compound goal argument is refused: projecting f(X) as a
# free column would also return answers that do not unify with it.
if run query "anc(f(X), Y)" > /dev/null; then
  fail "query anc(f(X), Y) was accepted"
fi

# APPLY extends the chain; the next read must see the new edge (the new
# version is published before APPLY replies: no stale cache serve).
printf '+par(c3, c4).\n' | run apply > /dev/null || fail "apply rejected"
rows=$(run query "anc(c0, Y)" | wc -l)
[ "$rows" -eq 4 ] || fail "expected 4 rows after the write, got $rows"

# A row limit truncates and still exits 0 (truncation is a success).
rows=$(run query "anc(c0, Y)" limit=2 | wc -l) \
  || fail "limit=2 query exited non-zero"
[ "$rows" -eq 2 ] || fail "expected 2 limited rows, got $rows"

# STREAM delivers the same answers incrementally.
rows=$(run stream "anc(c0, Y)" | wc -l)
[ "$rows" -eq 4 ] || fail "expected 4 streamed rows, got $rows"

# STATS returns the JSON summary payload.
run stats | grep -q '{' || fail "stats payload missing"

# A profiled QUERY appends %-prefixed per-rule fixpoint profile lines.
# A cold seed: cache-served answers carry no profile (nothing evaluated).
run query "anc(c1, Y)" profile=1 > "$WORK/profiled.out" \
  || fail "profile=1 query rejected"
grep -q '^% .*evals=' "$WORK/profiled.out" \
  || fail "profile=1 reply missing the per-rule profile lines"

# METRICS scrapes the registry as Prometheus text exposition: typed
# metric families, counter totals, at least one latency histogram with
# cumulative le= buckets, and the per-rule fixpoint profile counters.
run metrics > "$WORK/metrics.prom" || fail "metrics scrape rejected"
grep -q '^# TYPE magicdb_queries_served counter' "$WORK/metrics.prom" \
  || fail "metrics exposition missing typed counter families"
grep -q '^magicdb_queries_served_total ' "$WORK/metrics.prom" \
  || fail "metrics exposition missing the served-queries counter"
grep -q '^# TYPE magicdb_form_latency_ns histogram' "$WORK/metrics.prom" \
  || fail "metrics exposition missing the form latency histogram type"
grep -q 'magicdb_form_latency_ns_bucket{.*le="' "$WORK/metrics.prom" \
  || fail "metrics exposition missing cumulative histogram buckets"
grep -q 'le="+Inf"' "$WORK/metrics.prom" \
  || fail "metrics exposition missing the +Inf bucket"
grep -q '^magicdb_rule_evals_total{' "$WORK/metrics.prom" \
  || fail "metrics exposition missing per-rule profile counters"

# METRICS json (and the STATS payload) must be one well-formed JSON
# document: the registry walk, with the per-form latency histograms and the
# per-rule fixpoint profile cells, plus each form's rule texts.
run metrics json > "$WORK/metrics.json" || fail "metrics json rejected"
grep -o '"magicdb_form_latency_ns":{[^]]*]' "$WORK/metrics.json" \
  | grep -q '"stage":"eval"' \
  || fail "metrics json missing the per-form eval latency histograms"
grep -q '"magicdb_rule_evals":{[^]]*"cells":\[{"labels":' "$WORK/metrics.json" \
  || fail "metrics json missing the fixpoint profile cells"
sed -n 's/.*"forms":\(\[.*\]\),"slow_queries".*/\1/p' "$WORK/metrics.json" \
  | grep -q '"rules":\["' \
  || fail "metrics json missing the per-form rule texts"
if command -v python3 > /dev/null 2>&1; then
  python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
    "$WORK/metrics.json" || fail "metrics json does not parse"
  run stats > "$WORK/stats.json"
  python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
    "$WORK/stats.json" || fail "stats json does not parse"
fi

# A new predicate through the wire must be frozen out, naming the culprit.
if printf '+brand_new_rel(a, b).\n' | run apply > /dev/null; then
  fail "apply of an unknown predicate was accepted"
fi
grep -q 'brand_new_rel' "$WORK/cli.err" \
  || fail "freeze diagnostic does not name the predicate"

# SIGTERM: stop accepting, drain sessions, join, print the marker.
kill -TERM "$SERVER_PID"
status=0
wait "$SERVER_PID" || status=$?
SERVER_PID=
[ "$status" -eq 0 ] || fail "server exited $status on SIGTERM"
grep -qx 'magicdb serve: clean shutdown' "$WORK/serve.log" \
  || fail "missing clean-shutdown marker"

printf 'serve_smoke: PASS\n'
