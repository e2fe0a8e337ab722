#!/bin/sh
# Full verification recipe: tier-1 (build + test) plus vet and the race
# detector.  Make-free on purpose — this is everything CI or a reviewer
# needs to run.
set -e
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test ./...

echo "==> perfbench module: vet + test"
# perfbench/ is its own module (replace comb => ../), so ./... above
# skips it, although it builds on runpipe, method, obs and platform.
(cd perfbench && go vet ./... && go test ./...)

echo "==> go test -race ./..."
go test -race ./...

echo "==> synctest virtual-time suites"
# The build-tagged runner/serve timeout-and-retry tests on the virtual
# clock; plain `go test ./...` skips these files entirely.
GOEXPERIMENT=synctest go test ./internal/runner ./internal/serve

echo "==> coverage ratchet"
sh scripts/covercheck.sh

echo "==> examples"
# Every example must run to completion, not just build: they are the
# documented entry points into the facade.
for ex in examples/*/; do
    echo "$ex"
    go run "./$ex" >/dev/null
done

echo "==> comb methods smoke"
# The CLI must list every built-in method through the registry.
go build -o /tmp/comb-verify ./cmd/comb
methods=$(/tmp/comb-verify methods)
echo "$methods"
for m in polling pww pingpong netperf collov halo; do
    if ! echo "$methods" | grep -q "^$m "; then
        echo "verify: method $m missing from 'comb methods'"
        exit 1
    fi
done
echo "==> comb selfcheck -pack all"
# The scenario oracle: every committed pack across every registered
# method × transport, zero relation violations.
/tmp/comb-verify selfcheck -pack all
rm -f /tmp/comb-verify

echo "==> comb serve smoke"
# End-to-end: serve on loopback, submit a spec, stable hash, /metrics.
sh scripts/servesmoke.sh

echo "verify: OK"
