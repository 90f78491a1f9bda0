#!/usr/bin/env bash
# CLI smoke: build the command-line tools once and check the exit codes
# a script relies on to tell a usage error from a failed run. Every tool
# exits 2 when a flag or the environment is wrong, before any work
# starts; 1 when its run failed; and experiments exits 3 when some
# experiments failed and the others were still reported. Then a warm
# experiments rerun over a -cache-dir prints what the cold run printed
# and reads its 21 experiment entries and nothing else. Last, with the
# experiment, machine and predeval entries deleted, a rerun still prints
# those tables and reads its 11 profiles from disk, so the profile decoder
# runs on real binaries.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for tool in experiments deadsim deadprof predsweep deadd deadload; do
    go build -o "$WORK/$tool" "./cmd/$tool"
done
export PATH="$WORK:$PATH"

failures=0

# expect WANT CMD ARGS...: run CMD (a tool built above, or a wrapper such
# as timeout) with ARGS and compare its exit code with WANT; its stdout
# and stderr land in $WORK/out and $WORK/err.
expect() {
    local want="$1" cmd="$2" got=0
    shift 2
    "$cmd" "$@" >"$WORK/out" 2>"$WORK/err" || got=$?
    if [ "$got" != "$want" ]; then
        echo "cli_smoke: $cmd $* exited $got, want $want" >&2
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
# The load generator needs at least one connection, and a burst or a
# timeout below zero means nothing.
expect 2 deadload -c 0
expect 2 deadload -burst -1
expect 2 deadload -timeout -1s
# So does a negative daemon queue or deadline. A daemon that accepted one
# would serve until timeout killed it (exit 124), so the check fails
# instead of hanging.
for args in "-queue -1" "-request-timeout -1s" "-max-timeout -1s" "-drain-timeout -1s"; do
    # shellcheck disable=SC2086 # split "-flag value" into two words
    expect 2 timeout 5 deadd -addr 127.0.0.1:0 $args
done

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

# A warm rerun is one lookup per experiment: over the tier a cold run
# filled, experiments prints the same tables (the "(N.Ns)" wall stamps
# aside), and its -json artifacts read 21 experiment disk hits, no build
# of any kind and no lookup of any other kind.
tier="$WORK/tier"
stamps() { sed -E 's/ \([0-9.]+s\)$//' "$1"; }
expect 0 experiments -n 20000 -j 1 -cache-dir "$tier"
cp "$WORK/out" "$WORK/cold.out"
expect 0 experiments -n 20000 -j 1 -cache-dir "$tier"
if ! diff <(stamps "$WORK/cold.out") <(stamps "$WORK/out") >"$WORK/diff"; then
    echo "cli_smoke: the warm experiments run printed other tables than the cold run:" >&2
    cat "$WORK/diff" >&2
    failures=$((failures + 1))
fi
expect 0 experiments -n 20000 -j 1 -cache-dir "$tier" -json
# The -json "kinds" object, one line per field at a fixed indentation.
kinds="$(sed -n '/^    "kinds": {/,/^    }/p' "$WORK/out")"
if [ "$(echo "$kinds" | grep -Ec '^      "[a-z]+": \{')" != 1 ] ||
    ! echo "$kinds" | grep -q '^      "experiment": {' ||
    echo "$kinds" | grep -Eq '"misses": [1-9]' ||
    ! echo "$kinds" | grep -q '"disk_hits": 21$'; then
    echo "cli_smoke: the warm -json run read more than its 21 experiment entries:" >&2
    echo "$kinds" >&2
    failures=$((failures + 1))
fi

# A profile warm start: with the experiment, machine and predeval entries
# deleted, a rerun rebuilds every table from the profile (and facts)
# entries the cold run wrote. It prints the cold run's tables, and its
# -json artifacts read 11 profile disk hits and no profile miss. Each run
# writes the deleted entries back, so each starts from a fresh deletion.
lower() { rm -rf "$tier/experiment" "$tier/machine" "$tier/predeval"; }
lower
expect 0 experiments -n 20000 -j 1 -cache-dir "$tier"
if ! diff <(stamps "$WORK/cold.out") <(stamps "$WORK/out") >"$WORK/diff"; then
    echo "cli_smoke: the run from decoded profiles printed other tables than the cold run:" >&2
    cat "$WORK/diff" >&2
    failures=$((failures + 1))
fi
lower
expect 0 experiments -n 20000 -j 1 -cache-dir "$tier" -json
profile="$(sed -n '/^      "profile": {/,/^      }/p' "$WORK/out")"
if [ -z "$profile" ] ||
    echo "$profile" | grep -Eq '"misses": [1-9]' ||
    ! echo "$profile" | grep -Eq '"disk_hits": 11,?$'; then
    echo "cli_smoke: the run from decoded profiles did not read its 11 profiles from disk:" >&2
    echo "$profile" >&2
    failures=$((failures + 1))
fi

if [ "$failures" != 0 ]; then
    echo "cli_smoke: $failures check(s) failed" >&2
    exit 1
fi
echo "cli_smoke: OK (usage errors exit 2, a partial experiment run exits 3 and keeps E1, a warm rerun reads 21 experiment entries, a rerun without them decodes 11 profiles)"
