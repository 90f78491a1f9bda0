#!/usr/bin/env bash
# CLI exit-code smoke: build the command-line tools once and check the
# exit codes a script relies on to tell a usage error from a failed run.
# Every tool exits 2 when a flag or the environment is wrong, before any
# work starts; 1 when its run failed; and experiments exits 3 when some
# experiments failed and the others were still reported.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for tool in experiments deadsim deadprof predsweep deadd deadload; do
    go build -o "$WORK/$tool" "./cmd/$tool"
done

failures=0

# expect WANT TOOL ARGS...: run TOOL with ARGS and compare its exit code
# with WANT; its stdout and stderr land in $WORK/out and $WORK/err.
expect() {
    local want="$1" tool="$2" got=0
    shift 2
    "$WORK/$tool" "$@" >"$WORK/out" 2>"$WORK/err" || got=$?
    if [ "$got" != "$want" ]; then
        echo "cli_smoke: $tool $* exited $got, want $want" >&2
        cat "$WORK/err" >&2
        failures=$((failures + 1))
    fi
}

# A budget below one instruction is a usage error in every workspace tool.
for tool in experiments deadsim deadprof predsweep deadd; do
    expect 2 "$tool" -n 0
done
# So are an unknown benchmark and an unknown predsweep mode.
for tool in deadsim deadprof predsweep; do
    expect 2 "$tool" -bench nonesuch
done
expect 2 predsweep -mode nonesuch
# The load generator needs at least one connection.
expect 2 deadload -c 0

# One failed experiment drops no other: the first simulation fails, so
# E9 fails, while E1, which simulates nothing, prints its table, and the
# run exits 3 (partial).
export FAULTS=core.simulate:permanent:1:1
expect 3 experiments -only e1,e9 -n 20000 -j 1
unset FAULTS
if ! sed -n '/^=== E1:/,/^=== E9/p' "$WORK/out" | grep -q '^MEAN'; then
    echo "cli_smoke: E1 did not print its table beside E9's failure:" >&2
    cat "$WORK/out" >&2
    failures=$((failures + 1))
fi
if ! grep -q '^=== E9: FAILED' "$WORK/out"; then
    echo "cli_smoke: E9 was not reported as FAILED:" >&2
    cat "$WORK/out" >&2
    failures=$((failures + 1))
fi

if [ "$failures" != 0 ]; then
    echo "cli_smoke: $failures check(s) failed" >&2
    exit 1
fi
echo "cli_smoke: OK (usage errors exit 2, a partial experiment run exits 3 and keeps E1)"
