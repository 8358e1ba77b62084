#!/bin/sh
# Smoke-test `dvafs serve` (see "Serve smoke" in .github/workflows/ci.yml):
# pipe the scripted request batch (ci/serve_requests.jsonl) through one
# persistent multi-worker server session and require every served scenario
# rendering to be byte-identical to the file `dvafs run --format json --out`
# writes for the same scenario — the serve determinism contract, checked at
# the shipped-binary level rather than in-process. The same batch is served
# once more at --threads 1, and its predict replies (the 40-sample vgg16
# one spans three sample chunks that idle workers share) must be
# byte-identical to the multi-worker session's. Wall time is gated by the
# `serve` line in ci/scenario_budgets.txt (generous by design: it catches
# order-of-magnitude regressions, not scheduler noise).
set -eu

BIN="${DVAFS_BIN:-target/release/dvafs}"
REQUESTS="ci/serve_requests.jsonl"
BUDGET="$(awk '$1 == "serve" { print $2 }' ci/scenario_budgets.txt)"
: "${BUDGET:?no serve line in ci/scenario_budgets.txt}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The reference renderings, straight from the one-shot CLI path.
"$BIN" run fig2 table1 table3 --fast --threads 1 --format json \
  --out "$tmp/expected" > /dev/null

start=$(date +%s)
"$BIN" serve --threads 3 --queue 4 < "$REQUESTS" > "$tmp/replies.jsonl"
elapsed=$(( $(date +%s) - start ))

fail=0

replies=$(wc -l < "$tmp/replies.jsonl")
requests=$(grep -c . "$REQUESTS")
if [ "$replies" -ne "$requests" ]; then
  echo "serve: $requests requests but $replies replies" >&2
  fail=1
fi

# The scripted batch contains no error cases, so every reply must be ok.
bad=$(jq -r 'select(.ok != true) | .id' "$tmp/replies.jsonl")
if [ -n "$bad" ]; then
  echo "serve: reply id(s) $bad reported ok=false" >&2
  fail=1
fi

# Predict replies do not depend on the worker count: the serial session's
# lines are the multi-worker session's, byte for byte.
"$BIN" serve --threads 1 --queue 4 < "$REQUESTS" > "$tmp/serial.jsonl"
grep '"op":"predict"' "$tmp/replies.jsonl" > "$tmp/predict_threads3.jsonl" || true
grep '"op":"predict"' "$tmp/serial.jsonl" > "$tmp/predict_threads1.jsonl" || true
predicts=$(grep -c '"op":"predict"' "$REQUESTS")
if [ "$(wc -l < "$tmp/predict_threads3.jsonl")" -ne "$predicts" ]; then
  echo "serve: expected $predicts predict replies" >&2
  fail=1
elif cmp -s "$tmp/predict_threads1.jsonl" "$tmp/predict_threads3.jsonl"; then
  echo "serve: predict replies identical at --threads 1 and 3"
else
  echo "serve: predict replies DIFFER between --threads 1 and 3" >&2
  diff "$tmp/predict_threads1.jsonl" "$tmp/predict_threads3.jsonl" >&2 || true
  fail=1
fi

# Byte-level equivalence per scenario: the reply's "output" string (jq -j:
# raw, no trailing newline — renderings are newline-free at the end) against
# the file the CLI wrote.
for id in fig2 table1 table3; do
  jq -j "select(.scenario == \"$id\") | .output" "$tmp/replies.jsonl" \
    > "$tmp/served_$id.json"
  if cmp -s "$tmp/served_$id.json" "$tmp/expected/$id.json"; then
    echo "serve: $id matches dvafs run byte-for-byte"
  else
    echo "serve: $id DIFFERS from dvafs run" >&2
    diff "$tmp/expected/$id.json" "$tmp/served_$id.json" >&2 || true
    fail=1
  fi
done

echo "serve: batch took ${elapsed}s (budget ${BUDGET}s)"
if [ "$elapsed" -gt "$BUDGET" ]; then
  echo "serve: blew its ${BUDGET}s budget (${elapsed}s)" >&2
  fail=1
fi
exit "$fail"
