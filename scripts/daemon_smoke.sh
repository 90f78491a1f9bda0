#!/usr/bin/env bash
# Daemon smoke: build deadd + deadload + deadprof, start the daemon with
# a temporary persistent cache, run a load burst against it, run one E19
# ineffectuality experiment through the experiment endpoint, warm-start a
# second process from the daemon's cache over HTTP, SIGTERM the daemon,
# and assert (1) E19 dispatches and returns a non-error result, (2) a
# remote warm start that rebuilt nothing (facts-kind misses == 0, remote
# hits recorded, no profile built), (3) a zero exit after graceful
# drain, and (4) a
# non-zero artifact disk-write count in the final metrics dump — proving
# the artifacts reached the disk tier, by write-through or at drain.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${DEADD_ADDR:-127.0.0.1:7391}"
BUDGET="${DEADD_BUDGET:-60000}"
REQUESTS="${DEADLOAD_N:-12}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/deadd" ./cmd/deadd
go build -o "$WORK/deadload" ./cmd/deadload
go build -o "$WORK/deadprof" ./cmd/deadprof

"$WORK/deadd" -addr "$ADDR" -n "$BUDGET" -cache-dir "$WORK/cache" \
    >"$WORK/deadd.out" 2>"$WORK/deadd.err" &
DEADD_PID=$!

# Wait for readiness (the daemon binds before serving, so this is quick).
ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.2
done
if [ "$ready" != 1 ]; then
    echo "daemon_smoke: deadd never became ready" >&2
    cat "$WORK/deadd.err" >&2
    kill "$DEADD_PID" 2>/dev/null || true
    exit 1
fi

"$WORK/deadload" -addr "http://$ADDR" -n "$REQUESTS" -c 4 -seed 3 -strict

# Ineffectuality experiment over the real process boundary: E19 must
# dispatch through the daemon's experiment endpoint and come back with a
# rendered result, not an error.
e19="$(curl -fsS -X POST -d '{"id":"e19"}' "http://$ADDR/v1/experiment")"
if ! echo "$e19" | grep -q '"e19"'; then
    echo "daemon_smoke: E19 response missing experiment id:" >&2
    echo "$e19" >&2
    exit 1
fi
if echo "$e19" | grep -q '"error"'; then
    echo "daemon_smoke: E19 returned an error:" >&2
    echo "$e19" >&2
    exit 1
fi

# Remote warm start: the E19 request above left the daemon holding every
# benchmark's default facts, gzip's among them. Run deadprof as a second
# process with the daemon as its remote artifact tier and the same budget
# (facts keys include it). deadprof reads only facts, so they must arrive
# over HTTP — zero facts-kind builds, at least one remote hit — and no
# profile may be built.
"$WORK/deadprof" -bench gzip -n "$BUDGET" -remote-cache "http://$ADDR" \
    -artifacts >"$WORK/deadprof.out" 2>"$WORK/deadprof.err"
facts_block="$(sed -n '/"facts": {/,/}/p' "$WORK/deadprof.err")"
if ! echo "$facts_block" | grep -q '"misses": 0'; then
    echo "daemon_smoke: remote warm start rebuilt the facts:" >&2
    cat "$WORK/deadprof.err" >&2
    exit 1
fi
if ! echo "$facts_block" | grep -Eq '"remote_hits": [1-9]'; then
    echo "daemon_smoke: remote warm start recorded no remote hits:" >&2
    cat "$WORK/deadprof.err" >&2
    exit 1
fi
if sed -n '/"profile": {/,/}/p' "$WORK/deadprof.err" | grep -Eq '"misses": [1-9]'; then
    echo "daemon_smoke: remote warm start built a profile:" >&2
    cat "$WORK/deadprof.err" >&2
    exit 1
fi

kill -TERM "$DEADD_PID"
status=0
wait "$DEADD_PID" || status=$?
if [ "$status" != 0 ]; then
    echo "daemon_smoke: deadd exited $status after SIGTERM, want 0" >&2
    cat "$WORK/deadd.err" >&2
    exit 1
fi

# The final dump must record artifact disk writes (write-through during
# the run, plus any the drain retried).
if ! grep -Eq '"disk_writes": *[1-9]' "$WORK/deadd.out"; then
    echo "daemon_smoke: no artifact disk writes in the final metrics dump:" >&2
    cat "$WORK/deadd.out" >&2
    exit 1
fi

echo "daemon_smoke: OK (E19 via daemon, remote warm start, exit 0 after drain, disk writes recorded)"
