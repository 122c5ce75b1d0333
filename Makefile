# Tier-1 verify is `make test`; `make check` adds gofmt, vet, the
# dtaintlint contract rules, the race-enabled run that guards the
# parallel SCC-DAG scheduler and the fleet orchestrator, the
# screening-corpus precision/recall gate, and the dtaintd smoke test.

.PHONY: build test check lint bench smoke trace

build:
	go build ./...

test: build
	go test ./...

# lint runs the repo-specific rules: unordered map iteration in
# determinism-critical code, nil-guarded calls on nil-safe obs handles,
# unversioned serialization, hard-coded vocabulary names, and
# expression identity spelled out of Key() strings in the analysis
# packages. gofmt and vet run under `make check`.
lint:
	go run ./cmd/dtaintlint .

check:
	./scripts/check.sh

smoke:
	./scripts/smoke.sh

bench:
	go test -bench=. -benchmem

# trace analyzes a study image with the span tracer attached and leaves
# trace.json in the repo root — load it in ui.perfetto.dev or
# chrome://tracing to see the pipeline stages and per-function spans.
trace:
	go run ./cmd/fwgen -out /tmp/dtaint-trace-corpus -product DIR-645 -scale 0.10
	go run ./cmd/dtaint -fw /tmp/dtaint-trace-corpus/DIR-645.fwimg \
		-bin /htdocs/cgibin -trace-out trace.json -progress
	@echo "trace: wrote trace.json (open in ui.perfetto.dev)"
