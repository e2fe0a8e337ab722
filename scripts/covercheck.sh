#!/bin/sh
# Coverage ratchet for the correctness-critical packages: the oracle
# layers (invariant, scenario, selfcheck) and the fault injector the
# oracles lean on.  Each floor sits just under the coverage measured
# when the ratchet was installed — the check only ever fails when
# coverage REGRESSES, and a PR that meaningfully raises coverage should
# raise the floor with it (that is the ratchet).
#
# Floors are statement coverage from `go test -cover`, per package.
set -e
cd "$(dirname "$0")/.."

# package floor%  (measured at install time: 67.5 84.3 51.7 89.0;
# sweep/strategy/stats added with the strategy layer at 67.7 95.5 99.2;
# sim/cluster added with the parallel engine at 92.4 82.1, which also
# lifted invariant to 89.8 (partitioned-checker suite) — the window
# scheduler and partitioned fabric are correctness-critical and must
# stay directly unit-tested, not just exercised through the facade;
# mpi added with the N-rank communicator at 87.6 — the tree collectives
# and nonblocking-collective state machine back every multi-rank method;
# transport added at 97.1 with the endpoint core the five transports
# share — their protocols and record recycling are tested in the
# package itself; sim, mpi, cluster and faultinject raised to just
# under 94.5 (96.3 with more than one P), 92.5, 87.0 and 86.3 when the
# one wait primitive, sim.Cond, replaced sim.Event and the code only
# tests called went)
floors='
comb/internal/mpi 91
comb/internal/transport 94
comb/internal/invariant 85
comb/internal/faultinject 85
comb/internal/selfcheck 50
comb/internal/scenario 85
comb/internal/sweep 65
comb/internal/strategy 90
comb/internal/stats 95
comb/internal/sim 94
comb/internal/cluster 86
'

pkgs=$(echo "$floors" | awk 'NF {print $1}')

echo "==> go test -cover (ratcheted packages)"
out=$(go test -cover $pkgs)
echo "$out"

fail=0
echo "$floors" | while read -r pkg floor; do
    [ -z "$pkg" ] && continue
    pct=$(echo "$out" | awk -v p="$pkg" '$2 == p {
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
    }')
    if [ -z "$pct" ]; then
        echo "covercheck: no coverage reported for $pkg"
        exit 1
    fi
    if awk -v got="$pct" -v want="$floor" 'BEGIN { exit !(got < want) }'; then
        echo "covercheck: $pkg coverage ${pct}% fell below the ${floor}% floor"
        exit 1
    fi
    echo "covercheck: $pkg ${pct}% >= ${floor}%"
done || fail=1

if [ "$fail" -ne 0 ]; then
    echo "covercheck: FAIL — coverage regressed; add tests or (only for"
    echo "covercheck: deliberate removals) lower the floor in this script"
    exit 1
fi
echo "covercheck: OK"
