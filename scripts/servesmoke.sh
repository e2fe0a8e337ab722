#!/bin/sh
# Serve smoke test: boot `comb serve` on a loopback port, push one spec
# document through `comb submit`, prove the result hash is stable across
# a resubmission (persistent-store hit), and scrape /metrics, where
# `-retain 1` must have evicted the first job and left none in flight.
# POSIX sh + stdlib only; run by scripts/verify.sh and the CI serve job.
set -e
cd "$(dirname "$0")/.."

BIN=${COMB_BIN:-/tmp/comb-servesmoke}
go build -o "$BIN" ./cmd/comb

tmp=$(mktemp -d)
port=${COMB_SMOKE_PORT:-18423}
addr="http://127.0.0.1:$port"

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp" "$BIN"
}
trap cleanup EXIT

cat > "$tmp/point.json" <<'EOF'
{"specVersion": 1, "method": "polling", "system": "ideal",
 "polling": {"PollInterval": 1000, "WorkTotal": 5000000}}
EOF

"$BIN" serve -addr "127.0.0.1:$port" -cache-dir "$tmp/cache" \
    -jobs-dir "$tmp/jobs" -retain 1 -quiet &
pid=$!

# Wait for the listener.
up=0
i=0
while [ "$i" -lt 50 ]; do
    if "$BIN" metrics -addr "$addr" >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ "$up" -ne 1 ]; then
    echo "servesmoke: server did not come up on $addr"
    exit 1
fi

out1=$("$BIN" submit -addr "$addr" -spec "$tmp/point.json" 2>/dev/null)
hash1=$(echo "$out1" | awk '/^result hash/ {print $3}')
src1=$(echo "$out1" | awk '/^source/ {print $2}')
if [ -z "$hash1" ]; then
    echo "servesmoke: no result hash in submit output:"
    echo "$out1"
    exit 1
fi

out2=$("$BIN" submit -addr "$addr" -spec "$tmp/point.json" 2>/dev/null)
hash2=$(echo "$out2" | awk '/^result hash/ {print $3}')
src2=$(echo "$out2" | awk '/^source/ {print $2}')

if [ "$hash1" != "$hash2" ]; then
    echo "servesmoke: hash drifted across resubmission: $hash1 != $hash2"
    exit 1
fi
if [ "$src1" != "run" ] || [ "$src2" != "cache" ]; then
    echo "servesmoke: sources were $src1/$src2, want run/cache"
    exit 1
fi

metrics=$("$BIN" metrics -addr "$addr")
for want in 'comb_serve_requests_total' \
    'comb_serve_job_source_total{source="run"}' \
    'comb_serve_job_source_total{source="cache"}'; do
    if ! echo "$metrics" | grep -qF "$want"; then
        echo "servesmoke: /metrics missing $want"
        exit 1
    fi
done

# Eviction runs just after a job's terminal state is published, so poll
# briefly for the bookkeeping to settle: the second job is held, the
# first evicted, and nothing is queued or running.
settled=0
i=0
while [ "$i" -lt 50 ]; do
    metrics=$("$BIN" metrics -addr "$addr")
    if echo "$metrics" | grep -qx 'comb_serve_jobs_evicted_total 1' &&
        echo "$metrics" | grep -qx 'comb_serve_inflight_jobs 0'; then
        settled=1
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ "$settled" -ne 1 ]; then
    echo "servesmoke: /metrics never showed 1 eviction and 0 inflight jobs:"
    echo "$metrics" | grep -E '^comb_serve_(jobs_evicted_total|inflight_jobs) '
    exit 1
fi

# Per-job artifacts landed on disk, the evicted job's included.
if [ "$(ls "$tmp"/jobs/*/job.json 2>/dev/null | wc -l)" -ne 2 ]; then
    echo "servesmoke: want 2 per-job artifacts under $tmp/jobs:"
    ls -R "$tmp/jobs"
    exit 1
fi

echo "servesmoke: OK (hash $hash1, sources $src1 then $src2)"
