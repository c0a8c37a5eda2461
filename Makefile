# Makefile — the `make lint` here is exactly what the CI lint lane
# runs, so a clean local `make lint` means a green lint job.
#
# Tool pins. The module itself is dependency-free (the lint suite is
# built on the standard library; see internal/lint/doc.go), so the
# external analyzers are pinned here instead of in go.mod and fetched
# with `go run pkg@version` on demand. Bump deliberately.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2024.1.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.3
# When the repo ever vendors golang.org/x/tools, the hand-rolled
# framework under internal/lint/{analysis,analysistest,driver} should
# be swapped for go/analysis + unitchecker at this version.
XTOOLS_TARGET := golang.org/x/tools@v0.24.0

GO ?= go
BIN := bin

.PHONY: all build test race bench lint lint-vet lint-fmt lint-external race-coverage clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# race runs the explicit ledger in scripts/race_coverage.sh — the
# script fails if a package exists that is neither covered nor
# excluded-with-a-reason.
race: race-coverage
	$(GO) test -race -timeout 15m $$(scripts/race_coverage.sh list)

race-coverage:
	scripts/race_coverage.sh check

# bench runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# four workloads, both passes, one record per pass appended to
# bench/out/run.jsonl for `go run ./bench compare`. The tracer-overhead
# ratio is its obs.trace_overhead_permille row; the telemetry-sampler
# acceptance stays in scripts/bench_telemetry.sh, which CI calls.
bench:
	$(GO) run ./bench -out bench/out/run.jsonl

# lint is the whole static-analysis surface: formatting, the project's
# own analyzer suite through the real `go vet -vettool` protocol, and
# the pinned external analyzers (skipped gracefully when the module
# proxy is unreachable, unless LINT_STRICT=1 as in CI).
lint: lint-fmt lint-vet lint-external

lint-fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

$(BIN)/lpsgd-vet: FORCE
	$(GO) build -o $@ ./cmd/lpsgd-vet

FORCE:

lint-vet: $(BIN)/lpsgd-vet
	$(GO) vet -vettool=$(BIN)/lpsgd-vet ./...

lint-external:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./... && \
		$(GO) run $(GOVULNCHECK) ./...; \
	elif [ -n "$(LINT_STRICT)" ]; then \
		echo "lint-external: cannot fetch pinned tools and LINT_STRICT is set" >&2; exit 1; \
	else \
		echo "lint-external: SKIP (module proxy unreachable; set LINT_STRICT=1 to fail instead)"; \
	fi

clean:
	rm -rf $(BIN)
