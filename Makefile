GO ?= go

.PHONY: build test race bench bench-quick serve-smoke ingest-smoke fleet-smoke fleet-fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full perf-trajectory run; refreshes BENCH_solver.json (commit the result).
bench:
	$(GO) run ./cmd/benchrun -out BENCH_solver.json

# Reduced-size pass for CI; writes the report without overwriting history
# expectations (same file name so the artifact upload is uniform).
bench-quick:
	$(GO) run ./cmd/benchrun -quick -out BENCH_solver.json

# Start the live observability server briefly and scrape it (used by CI).
serve-smoke:
	./scripts/serve_smoke.sh

# Ingestion data plane overload smoke: submit, burst, assert sheds, drain.
ingest-smoke:
	./scripts/serve_smoke.sh ingest

# Fleet scheduler smoke: two tenants share a pool, kill processors, rebalance.
fleet-smoke:
	./scripts/serve_smoke.sh fleet

# Differential fuzz: cache-hit placements must be bit-identical to fresh solves.
fleet-fuzz:
	$(GO) test ./internal/fleet -run FuzzFleetCacheMatchesFresh -fuzz FuzzFleetCacheMatchesFresh -fuzztime 30s
