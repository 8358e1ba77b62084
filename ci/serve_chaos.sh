#!/bin/sh
# Chaos smoke for `dvafs serve` (see "Serve chaos smoke" in
# .github/workflows/ci.yml): replay the scripted request batch through a
# multi-worker server session with a fixed fault plan — one injected
# worker panic and one oversized request line, both mid-stream — and
# require the fault-isolation contract at the shipped-binary level:
#
#   * the process survives and answers every request, in order;
#   * the two faulted requests get the exact well-formed error replies;
#   * every non-faulted reply is byte-identical to a clean run of the
#     same batch (fault isolation never perturbs its neighbours).
#
# Wall time is gated by the `serve_chaos` line in ci/scenario_budgets.txt
# (generous by design: order-of-magnitude regressions, not noise).
set -eu

BIN="${DVAFS_BIN:-target/release/dvafs}"
REQUESTS="ci/serve_requests.jsonl"
# seq 2 is the table1 run (panics in the worker), seq 4 the lenet5
# predict (its request line arrives oversized). seq 5 is the 40-sample
# vgg16 predict, whose chunks idle workers share, and seq 6 the shutdown —
# it must still drain and reply with the full served count either way.
PLAN="panic@2,oversize@4"
BUDGET="$(awk '$1 == "serve_chaos" { print $2 }' ci/scenario_budgets.txt)"
: "${BUDGET:?no serve_chaos line in ci/scenario_budgets.txt}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The clean baseline: same batch, same schedule, no faults.
"$BIN" serve --threads 3 --queue 4 < "$REQUESTS" > "$tmp/clean.jsonl"

start=$(date +%s)
"$BIN" serve --threads 3 --queue 4 --fault-plan "$PLAN" \
  < "$REQUESTS" > "$tmp/chaos.jsonl" 2> "$tmp/chaos.stderr"
elapsed=$(( $(date +%s) - start ))

fail=0

requests=$(grep -c . "$REQUESTS")
replies=$(wc -l < "$tmp/chaos.jsonl")
if [ "$replies" -ne "$requests" ]; then
  echo "serve_chaos: $requests requests but $replies replies" >&2
  fail=1
fi

# The faulted replies, pinned byte-for-byte (1-based lines 3 and 5).
expect_panic='{"id":2,"ok":false,"error":"internal: injected fault: panic at request 2"}'
expect_oversize='{"id":4,"ok":false,"error":"request line exceeds 65536 bytes (line drained, not buffered)"}'
if [ "$(sed -n '3p' "$tmp/chaos.jsonl")" = "$expect_panic" ]; then
  echo "serve_chaos: injected panic contained to request 2"
else
  echo "serve_chaos: unexpected reply to panicked request 2:" >&2
  sed -n '3p' "$tmp/chaos.jsonl" >&2
  fail=1
fi
if [ "$(sed -n '5p' "$tmp/chaos.jsonl")" = "$expect_oversize" ]; then
  echo "serve_chaos: oversized request 4 rejected without buffering"
else
  echo "serve_chaos: unexpected reply to oversized request 4:" >&2
  sed -n '5p' "$tmp/chaos.jsonl" >&2
  fail=1
fi

# Non-faulted replies must be byte-identical to the clean run.
sed '3d;5d' "$tmp/clean.jsonl" > "$tmp/clean_rest.jsonl"
sed '3d;5d' "$tmp/chaos.jsonl" > "$tmp/chaos_rest.jsonl"
if cmp -s "$tmp/clean_rest.jsonl" "$tmp/chaos_rest.jsonl"; then
  echo "serve_chaos: non-faulted replies byte-identical to clean run"
else
  echo "serve_chaos: non-faulted replies DIFFER from clean run" >&2
  diff "$tmp/clean_rest.jsonl" "$tmp/chaos_rest.jsonl" >&2 || true
  fail=1
fi

# The fault-injection banner must be loud (stderr), never silent.
if ! grep -q "FAULT INJECTION ACTIVE" "$tmp/chaos.stderr"; then
  echo "serve_chaos: missing fault-injection banner on stderr" >&2
  fail=1
fi

echo "serve_chaos: batch took ${elapsed}s (budget ${BUDGET}s)"
if [ "$elapsed" -gt "$BUDGET" ]; then
  echo "serve_chaos: blew its ${BUDGET}s budget (${elapsed}s)" >&2
  fail=1
fi
exit "$fail"
