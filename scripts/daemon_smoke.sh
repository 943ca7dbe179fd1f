#!/usr/bin/env bash
# Loopback smoke test for tempofaird: start the daemon on an ephemeral TCP
# port, push a generated workload through tempofair_client (chunked, with a
# live watch), and shut the daemon down cleanly.  Exercises the full
# socket -> frame -> engine -> result path the way a production client would.
#
# Usage: scripts/daemon_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

tmpdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
  if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -TERM "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$tmpdir"
}
trap cleanup EXIT

"$BUILD/tools/tempofair-sim" generate --out "$tmpdir/jobs.csv" \
  --workload "poisson:n=2000,load=0.9,seed=3"

# --port 0 binds an ephemeral port and prints it on stdout.
"$BUILD/tools/tempofaird" --port 0 --quiet > "$tmpdir/port.txt" &
daemon_pid=$!

port=""
for _ in $(seq 1 100); do
  port="$(cat "$tmpdir/port.txt" 2>/dev/null || true)"
  [[ -n "$port" ]] && break
  sleep 0.05
done
if [[ -z "$port" ]]; then
  echo "daemon_smoke: daemon never printed its port" >&2
  exit 1
fi
echo "daemon_smoke: daemon on port $port (pid $daemon_pid)"

"$BUILD/tools/tempofair_client" \
  --port "$port" --tenant smoke --instance "$tmpdir/jobs.csv" \
  --policy rr --no-trace --chunk 300 --k 2 --watch --show-stats \
  | tee "$tmpdir/client.out"

grep -q "l2" "$tmpdir/client.out" || {
  echo "daemon_smoke: client output missing flow stats" >&2
  exit 1
}

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""
echo "daemon_smoke: OK"
