#!/bin/sh
# End-to-end smoke test for the serving stack: build sfcserve, sfcload and
# sfcsim, start the server on an ephemeral port, drive a closed-loop burst
# whose small request grid forces repeat traffic, and assert that
#   - /healthz comes up,
#   - coalescing + the result cache serve at least half the requests
#     without a backend run (sfcload -min-hit-rate 0.5 exits nonzero
#     otherwise),
#   - a /v1/sweep grid shares replay streams: W workloads x M mems pay
#     exactly W functional passes (the /v1/stats replay_materialized
#     counter moves by W, not W*M),
#   - idle-cycle elision is live end to end: a stall-heavy pointer-chase run
#     must advance the /v1/stats cycles_elided counter,
#   - sfcsim -json names and times a run as /v1/run does: the same request
#     through the server reports the same config and cycles,
#   - SIGTERM drains cleanly (server exits 0 and prints its shutdown line).
# Run via `make serve-smoke`; part of `make ci`.
set -eu

TMP=$(mktemp -d)
SRV_PID=
cleanup() {
    if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
        kill -KILL "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building binaries"
go build -o "$TMP/sfcserve" ./cmd/sfcserve
go build -o "$TMP/sfcload" ./cmd/sfcload
go build -o "$TMP/sfcsim" ./cmd/sfcsim

# Port 0 picks a free port; the server publishes the bound address via
# -addr-file (written atomically), which we poll instead of racing a log.
"$TMP/sfcserve" -addr 127.0.0.1:0 -addr-file "$TMP/addr" \
    -workers 2 -queue 8 -drain 30s >"$TMP/server.log" 2>&1 &
SRV_PID=$!

i=0
while [ ! -s "$TMP/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: server never published its address" >&2
        cat "$TMP/server.log" >&2
        exit 1
    fi
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
        echo "serve-smoke: server exited during startup" >&2
        cat "$TMP/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$TMP/addr")
echo "serve-smoke: server up at $ADDR"

# 40 requests over a 2-workload grid: 2 backend runs suffice, everything
# else must come from the cache or coalesce onto an in-flight run.
"$TMP/sfcload" -addr "$ADDR" -c 4 -n 40 -insts 2000 \
    -workloads gzip,mcf -min-hit-rate 0.5

# Sweep reuse: a 6-point grid (3 workloads x 2 memory subsystems) at a
# fresh budget must materialize exactly 3 reference streams — one
# functional pass per workload, shared by every configuration.
M0=$("$TMP/sfcload" -addr "$ADDR" -stats | awk '$1=="replay_materialized"{print $2}')
"$TMP/sfcload" -addr "$ADDR" -sweep -insts 3000 \
    -workloads gzip,mcf,swim -mems mdtsfc,lsq >"$TMP/sweep.out"
M1=$("$TMP/sfcload" -addr "$ADDR" -stats | awk '$1=="replay_materialized"{print $2}')
if [ "$((M1 - M0))" -ne 3 ]; then
    echo "serve-smoke: 6-point sweep materialized $((M1 - M0)) streams, want 3 (one per workload)" >&2
    cat "$TMP/sweep.out" >&2
    exit 1
fi
echo "serve-smoke: sweep reuse OK (6-point grid, 3 functional passes)"

# Idle-cycle elision surfaces in /v1/stats: the pointer chase spends most of
# its cycles with the whole machine quiescent behind one L2 miss, so a single
# run must move the cycles_elided counter (and the key itself must exist —
# an empty awk result fails the -z check).
E0=$("$TMP/sfcload" -addr "$ADDR" -stats | awk '$1=="cycles_elided"{print $2}')
if [ -z "$E0" ]; then
    echo "serve-smoke: /v1/stats is missing cycles_elided" >&2
    exit 1
fi
"$TMP/sfcload" -addr "$ADDR" -c 1 -n 1 -insts 3000 \
    -workloads ptrchase >"$TMP/elide.out"
E1=$("$TMP/sfcload" -addr "$ADDR" -stats | awk '$1=="cycles_elided"{print $2}')
if [ "$E1" -le "$E0" ]; then
    echo "serve-smoke: cycles_elided stuck at $E1 after a pointer-chase run" >&2
    cat "$TMP/elide.out" >&2
    exit 1
fi
echo "serve-smoke: elision OK ($((E1 - E0)) cycles elided by the pointer chase)"

# sfcsim's flags name a /v1/run request: the server's answer to the same
# request (a one-point canonical sweep) must carry the same config name and
# cycle count. $1 is the extra sfcsim flags, $2 the same axes for sfcload.
same_as_server() {
    "$TMP/sfcsim" -json -config aggressive -insts 2000 $1 gzip >"$TMP/cli.json"
    "$TMP/sfcload" -addr "$ADDR" -sweep -canonical -insts 2000 \
        -workloads gzip -configs aggressive $2 >"$TMP/srv.json"
    for f in config cycles; do
        CLI=$(grep -o "\"$f\":[^,]*" "$TMP/cli.json" | head -n 1)
        SRV=$(head -n 1 "$TMP/srv.json" | grep -o "\"$f\":[^,]*" | head -n 1)
        if [ -z "$CLI" ] || [ "$CLI" != "$SRV" ]; then
            echo "serve-smoke: sfcsim -json${1:+ $1} reports $CLI, /v1/run reports $SRV" >&2
            exit 1
        fi
    done
    echo "serve-smoke: sfcsim matches /v1/run ($CLI, $(grep -o '"config":"[^"]*"' "$TMP/cli.json"))"
}
same_as_server "" ""
same_as_server "-mem lsq -pred enf" "-mems lsq -preds enf"

echo "serve-smoke: sending SIGTERM"
kill -TERM "$SRV_PID"
STATUS=0
wait "$SRV_PID" || STATUS=$?
SRV_PID=
if [ "$STATUS" -ne 0 ]; then
    echo "serve-smoke: server exited $STATUS on SIGTERM" >&2
    cat "$TMP/server.log" >&2
    exit 1
fi
if ! grep -q "clean shutdown" "$TMP/server.log"; then
    echo "serve-smoke: server log missing clean-shutdown line" >&2
    cat "$TMP/server.log" >&2
    exit 1
fi
echo "serve-smoke: PASS (clean drain)"
