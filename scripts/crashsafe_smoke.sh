#!/usr/bin/env bash
# Crash-safety end-to-end smoke, run under the race detector: boots the
# durable sweep service (front end + separate worker process sharing a
# journal directory), kill -9's the worker while it is computing ladder
# point 2 of 3, starts a fresh worker, and requires
#
#   - the orphaned job to be requeued with retry=1 and resumed from its
#     journaled checkpoint (not restarted from scratch silently — the
#     journal must show the crash);
#   - the client's SSE stream (connected to the surviving front end) to
#     still deliver every point exactly once and finish "done";
#   - the final result document to be BYTE-IDENTICAL to an uninterrupted
#     run of the same spec in a separate journal directory;
#   - a SIGTERM'd worker to drain gracefully and exit 0.
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

go build -race -o "$tmp/sweepd" ./cmd/sweepd
go build -race -o "$tmp/sweepctl" ./cmd/sweepctl

# Three ladder points, sized so one point takes long enough under -race
# to reliably land the kill mid-point-2, but the whole smoke stays fast.
cat > "$tmp/spec.json" <<'EOF'
{
  "name": "crashsafe",
  "topology": {"kind": "array", "n": 4},
  "pattern": {"kind": "uniform"},
  "loads": [0.25, 0.45, 0.6],
  "horizon": 200000,
  "warmup": 1000,
  "replicas": 2,
  "seed": 11
}
EOF

# start_server boots sweepd in this shell (so the EXIT trap can stop it)
# and sets server_addr to its listen address.
start_server() { # dir logfile extra-args...
    local dir=$1 log=$2; shift 2
    "$tmp/sweepd" -addr 127.0.0.1:0 -dir "$dir" "$@" > "$log" 2>&1 &
    local pid=$!
    track "$pid"
    server_addr=""
    for _ in $(seq 100); do
        server_addr=$(sed -n 's/^sweepd: listening on \([^ ]*\).*/\1/p' "$log")
        [ -n "$server_addr" ] && return 0
        kill -0 "$pid" 2>/dev/null || { echo "sweepd died:"; cat "$log"; exit 1; }
        sleep 0.1
    done
    echo "sweepd never reported its address:"; cat "$log"; exit 1
}

# --- Reference: the same spec, uninterrupted, in its own journal dir.
start_server "$tmp/ref" "$tmp/ref.log" -workers 1
ref_addr=$server_addr
"$tmp/sweepctl" submit -addr "http://$ref_addr" -engine slotted -stream "$tmp/spec.json" > "$tmp/ref.out"
grep -q '^done: ' "$tmp/ref.out" || { echo "reference run did not finish"; cat "$tmp/ref.out"; exit 1; }
key=$(sed -n 's/^key: //p' "$tmp/ref.out")
[ -n "$key" ] || { echo "no cache key in reference output"; exit 1; }

# --- Crash run: front end only; the sweep runs in a worker process.
start_server "$tmp/data" "$tmp/front.log" -workers 0 -lease-ttl 1s -backoff 100ms
base="http://$server_addr"
"$tmp/sweepd" -worker -dir "$tmp/data" -lease-ttl 1s -backoff 100ms > "$tmp/worker1.log" 2>&1 &
w1=$!
track "$w1"
disown "$w1" # keep bash's job control from reporting the deliberate kill -9

"$tmp/sweepctl" submit -addr "$base" -engine slotted -stream "$tmp/spec.json" > "$tmp/crash.out" 2>"$tmp/crash.err" &
client=$!
track "$client"

# Wait for ladder point 1's journal record — the worker is now inside
# point 2 — then kill -9 the worker, leaving a stale lease and a torn run.
journal="$tmp/data/jobs/job-1/journal.jsonl"
for _ in $(seq 600); do
    [ -f "$journal" ] && grep -q '"t":"point"' "$journal" && break
    sleep 0.05
done
grep -q '"t":"point"' "$journal" || { echo "no point record appeared"; cat "$tmp/worker1.log"; exit 1; }
kill -9 "$w1"
echo "worker $w1 killed -9 mid-point-2"

# A fresh worker must steal the stale lease, requeue with retry=1, and
# resume the job from its checkpoint.
"$tmp/sweepd" -worker -dir "$tmp/data" -lease-ttl 1s -backoff 100ms > "$tmp/worker2.log" 2>&1 &
w2=$!
track "$w2"

for _ in $(seq 1200); do
    kill -0 "$client" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$client" 2>/dev/null; then
    echo "client stream never finished"; cat "$tmp/crash.out" "$tmp/worker2.log"; exit 1
fi
wait "$client" || { echo "client stream failed:"; cat "$tmp/crash.out" "$tmp/crash.err"; exit 1; }

# The crash left its durable trace: a requeue record with retry=1.
grep -q '"t":"queued"' "$journal"
grep -q '"retry":1' "$journal" || { echo "no retry=1 requeue record:"; cat "$journal"; exit 1; }

# The surviving SSE stream delivered every point exactly once.
points=$(grep -c '^point: ' "$tmp/crash.out")
[ "$points" -eq 3 ] || { echo "streamed $points points, want 3"; cat "$tmp/crash.out"; exit 1; }
grep -q '^done: ' "$tmp/crash.out"

# Byte-identity: the crash-resumed result document equals the
# uninterrupted run's, bit for bit.
python3 - "$tmp/ref/cache/${key:0:2}/$key.json" "$tmp/data/cache/${key:0:2}/$key.json" <<'EOF'
import sys
ref = open(sys.argv[1], "rb").read()
got = open(sys.argv[2], "rb").read()
if ref != got:
    print("crash-resumed document NOT byte-identical to uninterrupted run:")
    print("  ref: %d bytes, got: %d bytes" % (len(ref), len(got)))
    for i, (a, b) in enumerate(zip(ref, got)):
        if a != b:
            print("  first difference at byte %d: %r vs %r" % (i, ref[max(0,i-30):i+30], got[max(0,i-30):i+30]))
            break
    sys.exit(1)
print("crash-resumed result is byte-identical (%d bytes)" % len(got))
EOF

# Graceful drain: SIGTERM the surviving worker; it must exit 0.
kill -TERM "$w2"
wait "$w2" || { echo "drained worker exited nonzero"; cat "$tmp/worker2.log"; exit 1; }
grep -q 'worker drained' "$tmp/worker2.log"

# The journal-derived gauges agree: nothing queued, nothing running.
curl -fsS "$base/metrics" > "$tmp/metrics.out"
grep -q '^sweepd_queue_depth 0$' "$tmp/metrics.out"
grep -q '^sweepd_running_jobs 0$' "$tmp/metrics.out"
grep -q '^sweepd_active_leases 0$' "$tmp/metrics.out"

echo "crashsafe smoke: OK"
