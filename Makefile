GO ?= go

.PHONY: build fmt test vet lint lint-fix lint-sarif race faults chaos fuzz-smoke serve-smoke serve-cache-smoke check bench bench-all bench-smoke loc

build:
	$(GO) build ./...

# fmt lists every Go file gofmt would rewrite and fails if there is
# any (it rewrites nothing; run gofmt -w to fix).
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l:"; echo "$$files"; exit 1; fi

test:
	$(GO) test -timeout 10m ./...

vet:
	$(GO) vet ./...

# lint runs the simulator-invariant analyzers (see internal/analysis).
lint:
	$(GO) run ./cmd/wplint ./...

# lint-fix applies machine-applicable suggested fixes (idempotent).
lint-fix:
	$(GO) run ./cmd/wplint -fix ./...

# lint-sarif renders the findings as SARIF 2.1.0 (CI uploads this to
# code scanning).
lint-sarif:
	$(GO) run ./cmd/wplint -sarif wplint.sarif ./...

race:
	$(GO) test -race -timeout 15m ./...

# faults runs the fault-injection suites (deterministic injected
# panics, corrupt traces) under the race detector — the acceptance gate
# for fault containment and reporting (see DESIGN.md, "Failure model").
# Every listed package runs at least one test: check with
# go test -list '<pattern>' <pkg>.
faults:
	$(GO) test -race -timeout 10m -run 'Fault|Panic|Corrupt|Truncat|Sweep' \
		./internal/faultinject/ ./internal/simerr/ ./internal/tracefile/ \
		./internal/frontend/ ./internal/batch/ ./internal/sim/ ./internal/experiments/

# chaos runs the crash-safety acceptance gate under the race detector:
# kill runs at randomized (seeded) checkpoint boundaries, resume from
# the latest snapshot, and require results and reports byte-identical
# to uninterrupted runs (see DESIGN.md, "Checkpoint, resume, and
# cancellation"). The WriteFile and Damage tests cover the snapshot
# file's atomic write and its rejection of torn bytes; the Fingerprint
# tests and specfp's encoding tests pin the content address that
# snapshots and both result caches key on. Every listed package runs
# at least one test: check with go test -list '<pattern>' <pkg>.
chaos:
	$(GO) test -race -timeout 10m -run 'Checkpoint|Resume|Chaos|CancelNoLeak|Fingerprint|WriteFile|Damage|Deterministic|DomainSeparation|Injective' \
		./internal/checkpoint/ ./internal/sim/ ./internal/frontend/ ./internal/experiments/ \
		./internal/server/ ./internal/specfp/

# fuzz-smoke runs each native fuzz target briefly — a coverage-guided
# smoke pass over the two binary decoders (trace files and snapshot
# containers), not a soak. CI runs it on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 10s ./internal/tracefile/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 10s ./internal/checkpoint/

# serve-smoke builds the wpserved daemon and drives it end-to-end over
# HTTP: submit, checkpointed SIGTERM drain, restart, bit-identical
# resume (see DESIGN.md, "Serving layer"). The acceptance gate for the
# serving layer.
serve-smoke:
	$(GO) test -timeout 10m -count=1 -run 'TestServeSmoke' -v ./cmd/wpserved/

# serve-cache-smoke drives the result cache end-to-end over real HTTP:
# miss, hit, coalesced (via X-Wpserved-Cache), a restart over the same
# state directory served from the persistent tier, and byte-identity of
# every served body against a direct sim run (see DESIGN.md, "Result
# cache and submission coalescing").
serve-cache-smoke:
	$(GO) test -timeout 10m -count=1 -run 'TestServeCacheSmoke' -v ./cmd/wpserved/

# check is the full CI gate.
check: build fmt vet lint race faults chaos serve-smoke serve-cache-smoke bench-smoke

# bench runs the end-to-end benchmark (bench/, declared in
# BENCHMARK.json) on one workload: simulation speed per technique,
# accuracy against wpemul, and the traced per-layer breakdown (see
# bench/README.md for the other workloads and the record schema).
bench:
	bash bench/run.sh --workload gap_irregular --seed 1 --seconds 20

# bench-all runs every component and paper benchmark in the root module
# (slow; not a CI gate).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke vets and tests the benchmark module itself (its own go.mod
# under bench/): the golden digests and record schema, in seconds.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# loc prints the net non-test Go line count (ROADMAP's code-size
# metric): every tracked .go file except tests, bench/ and testdata/.
loc:
	@git ls-files '*.go' | grep -Ev '_test\.go$$|^bench/|(^|/)testdata/' | xargs cat | wc -l
