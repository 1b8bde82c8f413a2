#!/bin/sh
# Smoke test of the replayd observability endpoints: boot a backup with
# -http, scrape /metrics and /healthz, and fail on any non-200 response
# or a /metrics body with no replay_* series. No primary is involved —
# an idle, listening backup must already serve everything. The backup
# is given no directories, so it runs over a scratch directory; once it
# is stopped that directory must be gone.
set -eu

BIN="${TMPDIR:-/tmp}/replayd-smoke-$$"
LOG="${TMPDIR:-/tmp}/replayd-smoke-$$.log"
go build -o "$BIN" ./cmd/replayd

"$BIN" backup -listen 127.0.0.1:17070 -http 127.0.0.1:19090 -workers 2 >"$LOG" 2>&1 &
PID=$!
cleanup() {
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    rm -f "$BIN" "$LOG"
}
trap cleanup EXIT INT TERM

fetch() {
    # curl or wget, whichever the runner has.
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -q -O - "$1"
    fi
}

# Wait for the HTTP listener (the process prints its address once up).
up=""
for _ in $(seq 1 50); do
    if fetch http://127.0.0.1:19090/healthz >/dev/null 2>&1; then
        up=1
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "replayd exited during startup:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$up" ]; then
    echo "observability endpoint never came up:" >&2
    cat "$LOG" >&2
    exit 1
fi

health=$(fetch http://127.0.0.1:19090/healthz)
echo "$health" | grep -q '"healthy": true' || {
    echo "unhealthy /healthz: $health" >&2
    exit 1
}

metrics=$(fetch http://127.0.0.1:19090/metrics)
echo "$metrics" | grep -q '^replay_' || {
    echo "/metrics has no replay_* series:" >&2
    echo "$metrics" >&2
    exit 1
}
echo "$metrics" | grep -q '^# TYPE replay_commit_seconds histogram' || {
    echo "/metrics missing the commit latency histogram" >&2
    exit 1
}
for series in replay_arena_bytes_total memtable_arenas_recycled_total; do
    echo "$metrics" | grep -q "^$series " || {
        echo "/metrics missing the replay-memory series $series" >&2
        exit 1
    }
done

fetch http://127.0.0.1:19090/varz | grep -q '"health"' || {
    echo "/varz missing health document" >&2
    exit 1
}

# The startup line names the scratch spool; SIGTERM must take the whole
# scratch directory with it.
scratch=$(sed -n 's|.* spool \(.*\)/spool (sync=.*|\1|p' "$LOG" | head -n 1)
if [ -z "$scratch" ] || [ ! -d "$scratch" ]; then
    echo "backup did not report a live scratch directory:" >&2
    cat "$LOG" >&2
    exit 1
fi
kill "$PID"
wait "$PID" 2>/dev/null || true
if [ -e "$scratch" ]; then
    echo "scratch directory $scratch outlived the backup" >&2
    exit 1
fi

echo "obsrv smoke: ok"
