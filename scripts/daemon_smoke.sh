#!/usr/bin/env bash
# Daemon smoke: build deadd + deadload + deadprof + experiments, start
# the daemon with a temporary persistent cache, run a load burst against
# it, run one E19 ineffectuality experiment through the experiment
# endpoint twice, warm-start second processes from the daemon's cache
# over HTTP, SIGTERM the daemon, and assert (1) E19 dispatches and
# returns a non-error result, and its repeat returns the same bytes from
# the artifact store, (2) remote warm starts that rebuilt nothing
# (deadprof: facts-kind misses == 0, remote hits recorded, no profile
# built; experiments -only e19: one experiment remote hit and no miss of
# any kind), (3) a zero exit after graceful
# drain, and (4) that the drain persisted exactly the one artifact whose
# write-through an injected artifact.disk fault dropped: the daemon runs
# with FAULTS=artifact.disk:transient:1:1, so its first disk write fails,
# and the final metrics dump must read one injected fault and one more
# disk write than /metricz read just before SIGTERM.
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
go build -o "$WORK/experiments" ./cmd/experiments

FAULTS=artifact.disk:transient:1:1 \
    "$WORK/deadd" -addr "$ADDR" -n "$BUDGET" -cache-dir "$WORK/cache" \
    >"$WORK/deadd.out" 2>"$WORK/deadd.err" &
DEADD_PID=$!
# A failed check exits with the daemon still running; stop it on the way
# out (after the SIGTERM below it has already exited).
trap 'kill "$DEADD_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

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

# A repeated experiment is served from the artifact store: the second E19
# body equals the first byte for byte, and between the two requests the
# store's "experiment" kind reads one more hit (from memory) and no more
# misses. experiment_count reads one of its counters from a compact
# /metricz body, skipping the run section's phase of the same name.
experiment_count() {
    sed 's/.*"artifacts":{"kinds"://' | grep -o '"experiment":{[^}]*}' | grep -o "\"$1\":[0-9]*" | cut -d: -f2 || true
}
m1="$(curl -fsS "http://$ADDR/metricz")"
e19_again="$(curl -fsS -X POST -d '{"id":"e19"}' "http://$ADDR/v1/experiment")"
m2="$(curl -fsS "http://$ADDR/metricz")"
if [ "$e19_again" != "$e19" ]; then
    echo "daemon_smoke: the repeated E19 body differs from the first:" >&2
    printf '%s\n%s\n' "$e19" "$e19_again" >&2
    exit 1
fi
hits1="$(echo "$m1" | experiment_count hits)"
hits2="$(echo "$m2" | experiment_count hits)"
misses1="$(echo "$m1" | experiment_count misses)"
misses2="$(echo "$m2" | experiment_count misses)"
if [ -z "$hits1" ] || [ -z "$misses1" ] || [ "$hits2" != $((hits1 + 1)) ] || [ "$misses2" != "$misses1" ]; then
    echo "daemon_smoke: repeated E19 moved experiment hits '$hits1' -> '$hits2' and misses '$misses1' -> '$misses2', want one more hit and the same misses:" >&2
    echo "$m2" >&2
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

# Remote experiments: the daemon holds E19 whole, so a second process
# with the daemon as its remote tier fetches the experiment itself, one
# remote hit, and builds or looks up nothing below it.
"$WORK/experiments" -only e19 -n "$BUDGET" -remote-cache "http://$ADDR" -json \
    >"$WORK/experiments.out" 2>"$WORK/experiments.err"
kinds="$(sed -n '/^    "kinds": {/,/^    }/p' "$WORK/experiments.out")"
if ! echo "$kinds" | sed -n '/"experiment": {/,/}/p' | grep -q '"remote_hits": 1$' ||
    echo "$kinds" | grep -Eq '"misses": [1-9]'; then
    echo "daemon_smoke: remote E19 did not arrive whole from the daemon:" >&2
    cat "$WORK/experiments.out" "$WORK/experiments.err" >&2
    exit 1
fi

# disk_writes sums the per-kind "disk_writes" fields of a metrics JSON
# document (a kind with none omits the field).
disk_writes() {
    grep -Eo '"disk_writes": *[0-9]+' | awk -F: '{n += $2} END {print n + 0}'
}
before="$(curl -fsS "http://$ADDR/metricz" | disk_writes)"

kill -TERM "$DEADD_PID"
status=0
wait "$DEADD_PID" || status=$?
if [ "$status" != 0 ]; then
    echo "daemon_smoke: deadd exited $status after SIGTERM, want 0" >&2
    cat "$WORK/deadd.err" >&2
    exit 1
fi

# The one injected disk fault dropped one write-through; the drain must
# have written exactly that artifact.
if ! grep -Eq '"faults_injected\.artifact\.disk\.transient": *1,?$' "$WORK/deadd.out"; then
    echo "daemon_smoke: want exactly one injected artifact.disk fault in the final metrics dump:" >&2
    cat "$WORK/deadd.out" >&2
    exit 1
fi
after="$(disk_writes <"$WORK/deadd.out")"
if [ "$after" != $((before + 1)) ]; then
    echo "daemon_smoke: drain raised disk writes from $before to $after, want $((before + 1)):" >&2
    cat "$WORK/deadd.out" >&2
    exit 1
fi

echo "daemon_smoke: OK (E19 via daemon, repeat served from the store, remote warm starts of facts and of E19, exit 0 after drain, drain persisted the dropped write-through)"
