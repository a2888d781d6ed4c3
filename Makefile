# Single source of truth for lint tooling and pinned versions. CI calls
# these targets so local `make lint` and the CI lint job are identical; a
# version bump happens here and nowhere else.

STATICCHECK_VERSION ?= v0.4.7
GOVULNCHECK_VERSION ?= v1.1.3

GO ?= go

# Scale-gate knobs: CI runs the smoke size; the weekly scale workflow and
# local baseline refreshes override SCALE_ROWS (the committed
# BENCH_scale.json is a 1M-row run). The floors are deliberately loose —
# ~8x below measured rows/sec, ~10x above measured peak RSS — so they only
# trip on structural regressions (quadratic merge, samples held resident),
# not runner noise.
SCALE_ROWS ?= 200000
SCALE_OUT ?= BENCH_scale.json
SCALE_MIN_RPS ?= 20000
SCALE_MAX_MEM ?= 256

.PHONY: all build test race race-test lint fmt vet cross-vet fma-check staticcheck samlint vuln \
	bench-gate scale-bench scale-gate trace-smoke fuzz-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## race-test exercises the concurrency-heavy layers under the race
## detector: the streaming core, obs, and relation test suites, the tensor,
## nn and ar suites (row-split matmul kernels, windowed backward kernels
## under multi-worker training, batched inference over the shared
## masked-weight cache), then a real smoke-scale sharded generation run
## with worker fan-out enabled — the dynamic complement to what
## goleak/lockguard prove statically.
race-test:
	$(GO) test -race -count=1 ./internal/core/... ./internal/obs/... ./internal/relation/... \
		./internal/tensor/... ./internal/nn/... ./internal/ar/...
	$(GO) run -race ./cmd/sambench -scale smoke -exp tab1

## lint runs the full static-analysis stack in CI order: formatting,
## go vet on the host and on the non-amd64 builds, pinned staticcheck,
## then the project's own samlint suite.
lint: fmt vet cross-vet fma-check staticcheck samlint

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet on amd64 includes the asmdecl check, which holds the tensor
## package's assembly frame offsets to its Go declarations.
vet:
	$(GO) vet ./...

## cross-vet vets the module for arm64 and ppc64le, so every AVX2 kernel
## declared in vector_amd64.go keeps its stand-in in vector_other.go: a
## new assembly symbol without one breaks every non-amd64 build, and no
## amd64 build notices. It needs no download; the toolchain cross-compiles
## the standard library itself (~35 s per target cold).
cross-vet:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=ppc64le $(GO) vet ./...

## fma-check holds the float code of internal/tensor to one rounding per
## operation on every GOARCH. The Go spec lets a compiler fuse
## x*y + z into a single rounding unless the product is written
## float64(x*y), and the arm64, ppc64le, s390x and riscv64 compilers do;
## amd64 does not at GOAMD64=v1, so no amd64 build notices. The target
## cross-compiles cmd/samgen for those four and fails on any fused
## multiply-add or multiply-subtract in a symbol of the package, printing
## each with its source line. go tool objdump ships with the toolchain, so
## it needs no download. The architectures, packages and opcodes are
## written into the recipe, not taken from variables, so neither the
## environment nor the command line can shrink what the gate checks; nn
## and ar join the package list here once they are converted.
fma-check:
	@fail=0; \
	for arch in arm64 ppc64le s390x riscv64; do \
		GOARCH=$$arch $(GO) build -o /tmp/samgen_fma_$$arch ./cmd/samgen || exit 1; \
		for pkg in sam/internal/tensor; do \
			found=$$($(GO) tool objdump -s "^$$pkg\\." /tmp/samgen_fma_$$arch | \
				awk '/^TEXT /{sym=$$2; next} $$0 ~ /[[:space:]](FMADDD|FMSUBD|FNMSUBD|FNMADDD|FMADD|FMSUB|FNMADD|FNMSUB|MADBR|MSDBR)[[:space:]]/{print "  " sym " " $$1}'); \
			n=$$(printf '%s' "$$found" | grep -c . || true); \
			echo "fma-check: $$arch $$pkg: $$n fused instructions"; \
			if [ "$$n" -ne 0 ]; then echo "$$found"; fail=1; fi; \
		done; \
	done; \
	exit $$fail

# staticcheck and govulncheck are fetched via `go run module@version`,
# which keeps CI-only dependencies out of go.mod. They need network access
# on first run; samlint (below) is fully in-repo and works offline.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# samlint builds the linter once and self-checks it on its own source
# first — the analysis engine and the analyzer suite must pass their own
# lint (fixtures under testdata are invisible to go list) — and only then
# analyzes the full module. A bug that makes samlint flag itself fails
# fast here, before its verdicts on the rest of the repo are trusted.
samlint:
	$(GO) build -o /tmp/samlint ./cmd/samlint
	/tmp/samlint ./internal/lint/... ./cmd/samlint
	/tmp/samlint ./...

vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

## bench-gate measures at GOMAXPROCS=1, as BENCH_tensor.json was recorded:
## with more procs the parallel kernels allocate, and benchgate rejects a
## report whose matmul worker count differs from the baseline's as not
## comparable. The -vector-min floors compare AVX2 kernels with the Go
## loops or kernels they replaced, so they apply only when the report says
## the AVX2 twins ran. transb_window_64 (the input gradient on the prefix
## tiles against the dot4 kernel) read 2.4-3.8x over nine GOMAXPROCS=1
## runs on a 2-vCPU host; its floor sits below that spread.
bench-gate:
	$(GO) build -o /tmp/sambench_gate ./cmd/sambench
	GOMAXPROCS=1 /tmp/sambench_gate -tensorbench /tmp/bench_current.json
	$(GO) run ./cmd/benchgate \
		-baseline BENCH_tensor.json \
		-current /tmp/bench_current.json \
		-tol 1.0 \
		-min sample_per_tuple=3,sample_batched=6,sample_batched_workers=4,dps_train_step=2.5,dps_train_step_transformer=8,label_workload=2 \
		-vector-min exp_row_mass=1.3,prefix_block_64=0.5,transb_window_64=1.5

## scale-bench measures sharded streaming generation end to end at
## SCALE_ROWS rows and writes the report to SCALE_OUT; refresh the
## committed baseline with `make scale-bench SCALE_ROWS=1000000`.
scale-bench:
	$(GO) build -o /tmp/sambench_scale ./cmd/sambench
	/tmp/sambench_scale -scalebench $(SCALE_OUT) -scalerows $(SCALE_ROWS)

## scale-gate measures and then fails if throughput drops below
## SCALE_MIN_RPS rows/sec or peak heap/RSS exceeds SCALE_MAX_MEM MiB.
scale-gate: scale-bench
	$(GO) run ./cmd/benchgate \
		-scale $(SCALE_OUT) \
		-scale-min-rps $(SCALE_MIN_RPS) \
		-scale-max-mem $(SCALE_MAX_MEM)

## trace-smoke runs a real smoke-scale pipeline with every observability
## surface enabled — the run log, which carries the span tree, and the
## metrics dump — then analyzes the span tree and diffs it against itself
## with samreport, and fuses both artifacts into a samreport (which fails
## if their run IDs disagree); CI's "Trace and metrics smoke" step is
## exactly this target.
trace-smoke:
	$(GO) run ./cmd/sambench -scale smoke -exp tab1 \
		-runlog run.log -metrics-out metrics.prom -progress
	$(GO) run ./cmd/samreport -runlog run.log -baseline run.log -top 5
	$(GO) run ./cmd/samreport -runlog run.log \
		-metrics metrics.prom -top 5 -o report.md
	@grep -q 'Run ID' report.md || { echo "samreport: no run ID in report.md"; exit 1; }
	$(GO) test -run 'TestSambenchTraceSmoke|TestSamreportSmoke|TestSambenchPrometheusEndpoint' -v .

## fuzz-smoke runs every Fuzz target in the module for 10s each. The
## targets are discovered with `go list` and `go test -list`, so a new
## target needs no edit here or in CI. `go test -fuzz` takes one target per
## invocation, hence the loop; it stops at the first failing target and
## also fails when it finds no target at all. A failing input lands under
## the package's testdata/fuzz, where plain `go test` replays it.
fuzz-smoke:
	@n=0; \
	for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg) || { echo "$$list"; exit 1; }; \
		for target in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$pkg || exit 1; \
			n=$$((n + 1)); \
		done; \
	done; \
	if [ $$n -eq 0 ]; then echo "fuzz-smoke: no Fuzz targets found"; exit 1; fi; \
	echo "fuzz-smoke: $$n targets passed"
