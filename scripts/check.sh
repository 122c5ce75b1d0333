#!/bin/sh
# check.sh — the repository's full verification gate.
#
# Runs the tier-1 verify (build + tests) plus gofmt, go vet, the
# profbench benchmark module's vet and short tests, the
# repo-specific dtaintlint rules (determinism + nil-safe obs handles +
# versioned serialization + no hard-coded vocabulary names + no
# string-keyed identity over interned SSE nodes), the
# vocabulary spec check (the embedded default must parse, validate,
# compile, and cover every finding class), a race-enabled test pass (so the parallel
# bottom-up scheduler and the fleet orchestrator are always
# race-checked), the screening-corpus precision/recall gate, a small
# cold-then-warm corpus pass (warm re-scan must be faster, replay its
# summaries entirely from the store, and report identical findings), and
# the dtaintd smoke test. Invoked by `make check`; keep CI and local
# runs on this single path. The diff gate re-scans a vendor re-release
# differentially and fails when the replay skip rate drops (the counters
# are exact for the generated pair, so the threshold is deterministic).
set -eu

cd "$(dirname "$0")/.."

echo ">> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:"
	echo "$unformatted"
	exit 1
fi

echo ">> go build ./..."
go build ./...

echo ">> go vet ./..."
go vet ./...

# profbench is a module of its own, so the root ./... skips it; vet and
# test it here so an internal API change cannot break the benchmark
# harness unnoticed.
echo ">> profbench: go vet ./... && go test -short ./..."
(cd profbench && go vet ./... && go test -short ./...)

echo ">> dtaintlint ."
go run ./cmd/dtaintlint .

echo ">> vocabcheck (embedded default vocabulary)"
go run ./scripts/vocabcheck internal/vocab/default.json
go run ./scripts/vocabcheck

echo ">> go test -race ./..."
go test -race ./...

echo ">> benchtab -screen (precision/recall gate)"
go run ./cmd/benchtab -screen -min-precision 1 -min-recall 1 -bench-out off

echo ">> benchtab -corpus (cold/warm summary-store gate)"
go run ./cmd/benchtab -corpus -corpus-scale 0.05 -min-corpus-speedup 2 -min-corpus-hits 1 -bench-out off

echo ">> benchtab -diff (differential re-scan skip-rate gate)"
go run ./cmd/benchtab -diff -diff-scale 0.25 -min-diff-skip 0.6 -bench-out off

echo ">> scripts/smoke.sh"
./scripts/smoke.sh

echo "check: OK"
