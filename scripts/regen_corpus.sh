#!/bin/sh
# Re-bless the committed "no simulated result changed" corpus.
#
# TestCorpus (tier-1) reruns every case in testdata/corpus.json: every
# scenario-pack cell, every quick-axis figure point, the multi-node grid
# on every transport on both engines, seeded SMP polling and polling
# under jitter, loss and a shared backplane.  It demands each case's
# result hash and work counters (sim.events, sim.windows, packets,
# messages, collective stages), printing one line per key that moved.
# A change that moves a hash must say why; a performance change may
# lower a work counter and lists each one it lowered.
#
#   scripts/regen_corpus.sh        # rewrite testdata/corpus.json
#   git diff testdata/corpus.json  # review every changed entry
#
# Bless on amd64, like the golden figure CSVs: other architectures may
# fuse floating-point operations differently.
set -e
cd "$(dirname "$0")/.."

arch=$(go env GOARCH)
if [ "$arch" != amd64 ]; then
	echo "regen_corpus: bless on amd64, not $arch" >&2
	exit 1
fi

go test -count=1 -run '^TestCorpus$' . -args -bless-corpus

echo
echo "regen_corpus: testdata/corpus.json rewritten; review with 'git diff testdata/corpus.json'"
