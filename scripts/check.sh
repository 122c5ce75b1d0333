#!/bin/sh
# check.sh — the repository's full verification gate.
#
# Runs the tier-1 verify (build + tests) plus gofmt, go vet, the
# profbench benchmark module's vet, short tests and full-size
# store-traffic test, the
# repo-specific dtaintlint rules (determinism + nil-safe obs handles +
# versioned serialization + no hard-coded vocabulary names + no
# string-keyed identity over interned SSE nodes), the
# vocabulary spec check (the embedded default must parse, validate,
# compile, and cover every finding class), a run of every program under
# examples/ (each must exit 0), a race-enabled test pass (so the parallel
# bottom-up scheduler and the fleet orchestrator are always
# race-checked), short fuzzes of the summary-store decoder (blobs read
# back from disk are untrusted input), of the firmware container scanner
# and its root-filesystem parser (the image bytes dtaintd accepts over
# HTTP), of the FWELF parser, the CFG builder behind it and the whole
# per-binary analysis after both (binaries come from unpacked firmware),
# of the vocabulary parser (dtaintd parses uploaded specs) and of
# dtaintd's scan and diff upload handlers (Content-Type and body are
# per-request input), the
# screening-corpus precision/recall gate, a small
# cold-then-warm corpus pass (warm re-scan must be faster, replay its
# summaries entirely from the store, and report identical findings), and
# the dtaintd smoke test. Invoked by `make check`; keep CI and local
# runs on this single path. The diff gate re-scans a vendor re-release
# differentially and fails when the replay skip rate drops (the counters
# are exact for the generated pair, so the threshold is deterministic).
# benchtab only prints tables and gates; the one tool that writes a
# BENCH_*.json performance record is profbench's -profile mode.
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

# The full-size store-traffic test pins, at the benchmark's own size,
# which units replay from the summary store and which execute (a few
# seconds; -short skips it above).
echo ">> profbench: full-size TestWorkloadTraffic"
(cd profbench && go test -run TestWorkloadTraffic ./...)

echo ">> dtaintlint ."
go run ./cmd/dtaintlint .

echo ">> vocabcheck (embedded default vocabulary)"
go run ./scripts/vocabcheck internal/vocab/default.json
go run ./scripts/vocabcheck

# The examples are deliverables: run each one, not just build it.
echo ">> examples (each must exit 0)"
for ex in examples/*/; do
	echo "   ${ex%/}"
	go run "./${ex%/}" >/dev/null
done

echo ">> go test -race ./..."
go test -race ./...

echo ">> fuzz the summary-store decoder (disk input)"
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/sumstore

# The firmware container is what dtaintd accepts over HTTP: the scanner
# that finds it at any offset and the rootfs parser behind it.
# Minimization is capped as for the fuzzes below, so minimizing one new
# input cannot take the run's budget.
echo ">> fuzz the firmware container scanner (dtaintd upload input)"
go test -run '^$' -fuzz '^FuzzScan$' -fuzztime 10s -fuzzminimizetime 1s ./internal/firmware

echo ">> fuzz the firmware rootfs parser (dtaintd upload input)"
go test -run '^$' -fuzz '^FuzzParseFS$' -fuzztime 10s -fuzzminimizetime 1s ./internal/firmware

# FuzzBuild's seed is a corpus binary; minimization is capped so one
# new input that size cannot take the whole budget.
echo ">> fuzz the FWELF parser (firmware input)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 1s ./internal/image

echo ">> fuzz the CFG builder on parsed binaries"
go test -run '^$' -fuzz '^FuzzBuild$' -fuzztime 10s -fuzzminimizetime 1s ./internal/cfg

# Screening binaries seed it: a study image analyzes at about one exec/s.
echo ">> fuzz the whole per-binary analysis on parsed binaries"
go test -run '^$' -fuzz '^FuzzAnalyzeBinary$' -fuzztime 10s -fuzzminimizetime 1s ./internal/dataflow

# The seed is the 6 KB default spec, and minimizing each new input that
# size can take the fuzzer's whole budget, so minimization is capped.
echo ">> fuzz the vocabulary parser (dtaintd upload input)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 1s ./internal/vocab

# Minimization is capped as for FuzzParse: uncapped, minimizing one new
# input can stall the run for most of its budget.
echo ">> fuzz the dtaintd upload accept path (per-request input)"
go test -run '^$' -fuzz '^FuzzUploadRequest$' -fuzztime 10s -fuzzminimizetime 1s ./cmd/dtaintd

echo ">> benchtab -screen (precision/recall gate)"
go run ./cmd/benchtab -screen -min-precision 1 -min-recall 1

echo ">> benchtab -corpus (cold/warm summary-store gate)"
go run ./cmd/benchtab -corpus -corpus-scale 0.05 -min-corpus-speedup 2 -min-corpus-hits 1

echo ">> benchtab -diff (differential re-scan skip-rate gate)"
go run ./cmd/benchtab -diff -diff-scale 0.25 -min-diff-skip 0.6

echo ">> scripts/smoke.sh"
./scripts/smoke.sh

echo "check: OK"
