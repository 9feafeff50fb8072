#!/usr/bin/env bash
# Concurrency stress of the batched serving reactor (run from the repo
# root, after `dune build`): train a tiny checkpoint, serve it with
# micro-batching, arm a Slow model fault through CACHEBOX_FAULT, then
# slam the daemon with `cachebox loadgen` — N concurrent pipelined
# clients mixing valid inferences, malformed lines and deliberately slow
# senders. loadgen itself asserts zero dropped, duplicated or reordered
# replies and reconciles the shed count against the daemon's stats; this
# script additionally checks the clean-shutdown drain (daemon exits,
# socket file removed) and that a post-shutdown connect is refused.
set -euo pipefail

CB=${CB:-./_build/default/bin/cachebox.exe}
WORK=$(mktemp -d)
SOCK="$WORK/cachebox.sock"
CKPT="$WORK/load.ckpt"
SERVE_PID=

cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "serve_load: FAIL: $*" >&2
  exit 1
}

wait_ready() {
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  fail "daemon socket $SOCK never appeared"
}

echo "== train a tiny checkpoint"
"$CB" train --benchmarks 1 --epochs 1 --trace-len 4000 --checkpoint "$CKPT"

echo "== serve with micro-batching and an armed Slow fault"
# slow:0.05@4x3 stalls the forward pass 50 ms on three occasions starting
# at the 4th model call — batches behind a stalled forward must still all
# be answered, in order.
CACHEBOX_FAULT="slow:0.05@4x3" "$CB" serve --socket "$SOCK" --checkpoint "$CKPT" \
  --batch-max 16 --queue-depth 64 &
SERVE_PID=$!
wait_ready

echo "== stress: 12 pipelined clients, mixed valid/malformed, then drain"
"$CB" loadgen --socket "$SOCK" -n 12 -r 24 --invalid-every 6 --shutdown-after \
  || fail "loadgen reported dropped/duplicated/misaccounted replies"

echo "== clean shutdown: daemon exits and removes its socket"
wait "$SERVE_PID" || fail "daemon exited non-zero after drain"
SERVE_PID=
[ ! -S "$SOCK" ] || fail "socket file survived shutdown"
if "$CB" call --socket "$SOCK" '{"op": "health"}' >/dev/null 2>&1; then
  fail "daemon still answering after shutdown"
fi

echo "serve_load: OK"
