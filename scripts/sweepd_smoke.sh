#!/usr/bin/env bash
# sweepd end-to-end smoke: boots the sweep service on an ephemeral port
# and drives the whole contract from outside the process — submit a
# scenario, stream every ladder point over SSE, resubmit the identical
# spec and require the byte-identical result document from the cache
# with "cached": true, then scrape the hit counter off /metrics.
set -euo pipefail
cd "$(dirname "$0")/.."

. scripts/procs.sh

tmp=$(mktemp -d)
cleanup() {
    local status=$?
    stop_tracked || status=1
    rm -rf "$tmp"
    exit "$status"
}
trap cleanup EXIT

go build -o "$tmp/sweepd" ./cmd/sweepd
go build -o "$tmp/sweepctl" ./cmd/sweepctl

cat > "$tmp/spec.json" <<'EOF'
{
  "name": "smoke",
  "topology": {"kind": "array", "n": 4},
  "pattern": {"kind": "uniform"},
  "loads": [0.3, 0.5, 0.6],
  "horizon": 400,
  "warmup": 100,
  "replicas": 2,
  "seed": 9
}
EOF

"$tmp/sweepd" -addr 127.0.0.1:0 -cache-dir "$tmp/cache" > "$tmp/sweepd.log" 2>&1 &
pid=$!
track "$pid"
for _ in $(seq 100); do
    grep -q 'listening on' "$tmp/sweepd.log" && break
    kill -0 "$pid" 2>/dev/null || { echo "sweepd died:"; cat "$tmp/sweepd.log"; exit 1; }
    sleep 0.1
done
addr=$(sed -n 's/^sweepd: listening on \([^ ]*\).*/\1/p' "$tmp/sweepd.log")
[ -n "$addr" ] || { echo "no listen address in sweepd log"; cat "$tmp/sweepd.log"; exit 1; }
base="http://$addr"
echo "sweepd up at $base"

# 1. Submit and stream: the SSE feed must deliver every ladder point
# exactly once (3 loads -> 3 point frames) and finish with "done".
"$tmp/sweepctl" submit -addr "$base" -engine slotted -stream "$tmp/spec.json" | tee "$tmp/first.out"
grep -q '^cached: false$' "$tmp/first.out"
points=$(grep -c '^point: ' "$tmp/first.out")
[ "$points" -eq 3 ] || { echo "streamed $points points, want 3"; exit 1; }
grep -q '^done: ' "$tmp/first.out"
id=$(sed -n 's/^id: //p' "$tmp/first.out")

# 2. The completed job's result document, as the server recorded it.
curl -fsS "$base/v1/sweeps/$id" > "$tmp/status.json"

# 3. Resubmit the identical spec: must answer from the cache, instantly,
# with the byte-identical result document.
"$tmp/sweepctl" submit -addr "$base" -engine slotted "$tmp/spec.json" > "$tmp/second.out"
grep -q '^cached: true$' "$tmp/second.out"

python3 - "$tmp/status.json" "$tmp/second.out" <<'EOF'
import sys

# Both documents embed the result verbatim as their last JSON field, so
# the raw bytes after `"result":` (minus the closing envelope brace) are
# exactly what the server stored — extract and compare byte-for-byte.
def raw_result(body):
    marker = '"result":'
    i = body.index(marker) + len(marker)
    return body.strip()[i:-1]

status = open(sys.argv[1]).read()
# second.out: "key: ...\ncached: true\n<result doc>"
cached_doc = open(sys.argv[2]).read().strip().splitlines()[-1]
first_doc = raw_result(status)
if first_doc != cached_doc:
    print("cached result NOT byte-identical to the original:")
    print(" first:", first_doc[:200])
    print("cached:", cached_doc[:200])
    sys.exit(1)
print("cached result is byte-identical (%d bytes)" % len(cached_doc))
EOF

# 4. The cache hit is visible on /metrics.
curl -fsS "$base/metrics" | grep -q '^sweepd_cache_hits_total 1$' || {
    echo "cache hit counter not incremented:"; curl -fsS "$base/metrics"; exit 1; }
curl -fsS "$base/metrics" | grep -q '^sweepd_jobs_completed_total 1$'
curl -fsS "$base/healthz" | grep -q '"status":"ok"'

echo "sweepd smoke: OK"
