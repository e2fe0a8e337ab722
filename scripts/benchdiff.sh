#!/bin/sh
# Benchmark regression guard.
#
#   scripts/benchdiff.sh record   # rewrite BENCH_baseline.json from a fresh run
#   scripts/benchdiff.sh          # run the same benchmarks, flag regressions
#
# The baseline records, per benchmark, the minimum ns/op and the minimum
# allocs/op over -count runs ({"name": {"ns_op": N, "allocs_op": M}}).
# A benchmark fails the check when it is more than BENCH_TOLERANCE
# (default 20%) slower than its committed ns/op, or when its allocs/op
# exceeds the baseline by more than 0.5%.  The tiny slack absorbs
# runtime-internal jitter (goroutine stack growth, map rehash timing
# drift a figure run by a handful of allocs out of thousands); a real
# hot-path regression adds at least one allocation per simulated message,
# which lands percent-level or worse and still trips the gate.  The
# strictly-zero guarantees live in internal/perf, whose AllocsPerRun
# tests pin the core paths at exactly 0 allocs/op.  Faster results and
# new benchmarks are reported but never fail; run `record` on a quiet
# machine to refresh the baseline after intentional performance changes.
#
# ns/op wall-clock noise on shared runners is real, so treat a time
# failure as "look here", not proof; an allocs/op failure past the slack
# is proof.  Exception: the BenchmarkServe* pair crosses real HTTP, so
# its allocs/op jitters a few percent with connection handling; those
# two baselines are committed with ~8% headroom above the observed min
# instead of the exact value (keep that headroom when re-recording).
# BENCH_FILTER narrows the benchmark regex (default: the per-figure set,
# which covers the whole sweep->runner->sim stack, the serve
# hot/cold-cache service benchmarks, the DESNodes serial-vs-parallel
# engine pairs, and the multi-rank Collov/Halo method benchmarks; the parallel DESNodes baselines are machine-shaped —
# re-record on the target host, single-core runners make parallel look
# slower than serial and that is expected, the gate only guards drift
# against each benchmark's own committed number).
#
# The two Portals packet chains of internal/perf are gated too.  Their op
# is one packet, so they run a fixed 100,000 packets (about 400
# messages): at that count a message's own allocations round to 0
# allocs/op, and the gate fails on any allocation per packet.  Their
# ns/op baselines carry headroom like the serve pair's: a min over 5
# runs of ~0.1 s each still spread twofold over repeated runs on a
# shared host, so each is committed at the slowest such min seen over 8
# `record` runs (re-record the same way).
#
# The chains also report the event queue's work per packet: events,
# heap pushes, slot arms and the re-keys among them (events/pkt,
# pushes/pkt, arms/pkt, rekeys/pkt).  These are exact, like allocs/op:
# the rig runs the same packets every time, so no noise reaches them.
# The baseline records them next to allocs_op (events_pkt, pushes_pkt,
# arms_pkt, rekeys_pkt); the check fails on any rise ("MORE") and lists
# any fall ("fewer"), which a `record` then takes in.
set -e
cd "$(dirname "$0")/.."

BASELINE=BENCH_baseline.json
TOLERANCE="${BENCH_TOLERANCE:-20}"
FILTER="${BENCH_FILTER:-^Benchmark(Fig|Serve|DESNodes|Collov|Halo)}"
BENCHTIME="${BENCH_TIME:-1x}"
COUNT="${BENCH_COUNT:-5}"

run_benches() {
    go test -run '^$' -bench "$FILTER" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . 2>&1
    go test -run '^$' -bench '^BenchmarkPortalsPacketChain' -benchmem -benchtime 100000x -count "$COUNT" ./internal/perf 2>&1
}

# bench_to_json <raw `go test -bench -benchmem` output>
#   -> {"name": {"ns_op": N, "allocs_op": M[, "events_pkt": E, ...]}, ...}
# The minimum over -count runs is the standard noise-robust estimator:
# scheduler or neighbour interference only ever slows a run down (and
# allocs/op is deterministic, so its min is just the value).  A work
# counter takes its maximum over the runs, so a run that did more work
# cannot hide behind one that did less.
bench_to_json() {
    awk '
        /^Benchmark/ && $4 == "ns/op" {
            name = $1
            sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
            if (!(name in ns) || $3 + 0 < ns[name] + 0) ns[name] = $3
            for (i = 5; i < NF; i++) {
                unit = $(i + 1)
                if (unit == "allocs/op" && (!(name in al) || $i + 0 < al[name] + 0))
                    al[name] = $i
                if (unit ~ /^(events|pushes|arms|rekeys)\/pkt$/) {
                    key = unit
                    sub(/\//, "_", key)
                    if (!((name, key) in ct)) keys[name] = keys[name] " " key
                    if (!((name, key) in ct) || $i + 0 > ct[name, key] + 0) ct[name, key] = $i
                }
            }
            if (!(name in seen)) { seen[name] = 1; order[n++] = name }
        }
        END {
            printf "{\n"
            for (i = 0; i < n; i++) {
                name = order[i]
                printf "  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s", \
                    name, ns[name], (name in al ? al[name] : 0)
                k = split(keys[name], ks, " ")
                for (j = 1; j <= k; j++)
                    printf ", \"%s\": %s", ks[j], ct[name, ks[j]]
                printf "}%s\n", (i < n-1 ? "," : "")
            }
            printf "}\n"
        }'
}

case "${1:-check}" in
record)
    echo "==> recording baseline ($FILTER, benchtime $BENCHTIME)" >&2
    run_benches | tee /dev/stderr | bench_to_json > "$BASELINE"
    echo "==> wrote $BASELINE" >&2
    ;;
check)
    [ -f "$BASELINE" ] || { echo "benchdiff: no $BASELINE; run '$0 record' first" >&2; exit 2; }
    echo "==> running benchmarks ($FILTER, benchtime $BENCHTIME)" >&2
    run_benches | bench_to_json > /tmp/bench_current.$$
    awk -v tol="$TOLERANCE" '
        # parse(line): "name": {"key": value, ...} -> pname, pkv[key], pkeys
        function parse(line,    body, kv, n, i, f) {
            if (!match(line, /"[^"]+": \{[^}]*\}/)) return 0
            body = substr(line, RSTART, RLENGTH)
            pname = body
            sub(/": \{.*/, "", pname)
            sub(/^"/, "", pname)
            sub(/^"[^"]+": \{/, "", body)
            sub(/\}$/, "", body)
            split("", pkv)
            pkeys = ""
            n = split(body, kv, /, /)
            for (i = 1; i <= n; i++) {
                split(kv[i], f, /": /)
                sub(/^"/, "", f[1])
                pkv[f[1]] = f[2]
                if (f[1] != "ns_op" && f[1] != "allocs_op") pkeys = pkeys " " f[1]
            }
            return 1
        }
        FNR == NR {
            if (parse($0)) {
                bns[pname] = pkv["ns_op"]; bal[pname] = pkv["allocs_op"]; bkeys[pname] = pkeys
                for (k in pkv) bct[pname, k] = pkv[k]
            }
            next
        }
        {
            if (parse($0)) {
                cns[pname] = pkv["ns_op"]; cal[pname] = pkv["allocs_op"]
                for (k in pkv) cct[pname, k] = pkv[k]
            }
        }
        END {
            bad = 0
            for (name in cns) {
                if (!(name in bns)) {
                    printf "NEW      %-50s %12.0f ns/op %6d allocs/op (no baseline)\n", name, cns[name], cal[name]
                    continue
                }
                delta = (cns[name] - bns[name]) / bns[name] * 100
                status = "ok"
                if (delta > tol) { status = "SLOWER"; bad++ }
                else if (delta < -tol) status = "faster"
                if (cal[name] + 0 > (bal[name] + 0) * 1.005) { status = "ALLOCS"; bad++ }
                printf "%-8s %-50s %12.0f -> %12.0f ns/op (%+.1f%%)  %d -> %d allocs/op\n", \
                    status, name, bns[name], cns[name], delta, bal[name], cal[name]
                # Work counters are exact: any rise fails, any fall is listed.
                k = split(bkeys[name], ks, " ")
                for (j = 1; j <= k; j++) {
                    key = ks[j]
                    if (!((name, key) in cct)) {
                        printf "MORE     %-50s %s no longer reported\n", name, key
                        bad++
                    } else if (cct[name, key] + 0 > bct[name, key] + 0) {
                        printf "MORE     %-50s %s %s -> %s\n", name, key, bct[name, key], cct[name, key]
                        bad++
                    } else if (cct[name, key] + 0 < bct[name, key] + 0)
                        printf "fewer    %-50s %s %s -> %s\n", name, key, bct[name, key], cct[name, key]
                }
            }
            for (name in bns)
                if (!(name in cns))
                    printf "GONE     %-50s (in baseline, not run)\n", name
            if (bad) {
                printf "\nbenchdiff: %d regression(s) (>%d%% ns/op, >0.5%% allocs/op or more work per packet)\n", bad, tol
                exit 1
            }
            print "\nbenchdiff: OK"
        }' "$BASELINE" /tmp/bench_current.$$ || rc=$?
    rm -f /tmp/bench_current.$$
    exit "${rc:-0}"
    ;;
*)
    echo "usage: $0 [record|check]" >&2
    exit 2
    ;;
esac
