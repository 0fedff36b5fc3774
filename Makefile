GO ?= go

.PHONY: all build vet lint fmt-check test race ci bench-smoke fuzz-smoke kv-chaos kv-restart kv-sessions async-recycle generate-check loc

all: vet test

# ci is the full gate (run by .github/workflows/ci.yml): formatting, build,
# vet (stock + the ermi-vet invariant suite), codegen freshness, stock vet
# of the benchmark module (a separate module, so ./... at the root skips it,
# yet it is the one caller of internal/ outside this module), the whole
# test suite under the race detector, then a short fuzz smoke over the wire
# codec and the generated payload codecs, and one iteration of each root
# invocation benchmark. The explicit -timeout makes a deadlocked test (e.g.
# an overload/quiesce scenario wedging on a blocked handler) fail the job in
# minutes instead of hanging the workflow until its global limit.
ci: fmt-check build lint generate-check
	cd benchmark && $(GO) vet ./...
	$(GO) test -race -timeout 300s ./...
	$(MAKE) kv-chaos
	$(MAKE) kv-restart
	$(MAKE) kv-sessions
	$(MAKE) async-recycle
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke

# bench-smoke runs each root invocation benchmark (BenchmarkInvoke*) for one
# iteration: `go test ./...` compiles bench_test.go but never runs it, so a
# benchmark that fails at run time would otherwise stay green.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkInvoke' -benchtime 1x .

# generate-check fails when rerunning ermi-gen over the annotated sources is
# not a no-op: a generated file that differs from the index, or one the
# generator writes that git does not track (status "??"), so hand-edited or
# forgotten regenerations cannot drift from the annotations that define them.
# Staged changes pass: porcelain lines whose worktree column is blank.
ERMI_GENERATED := '*_ermi.go' '*_ermi_test.go'
generate-check:
	$(GO) generate ./...
	@stale=$$(git status --porcelain -- $(ERMI_GENERATED) | grep -v '^. '); \
	if [ -n "$$stale" ]; then \
		git diff -- $(ERMI_GENERATED); \
		echo "generated files are stale or uncommitted; run 'go generate ./...' and commit:"; \
		echo "$$stale"; exit 1; \
	fi

# kv-chaos gates the replicated shared-state layer explicitly: the kvstore
# chaos scenario (node killed under a mixed Get/Put/CAS/lock workload with
# concurrent AddNode/RemoveNode) under the race detector, repeated so the
# failover interleavings get more than one roll of the dice. It runs inside
# the full -race suite above too; the explicit repeat keeps the gate even
# if someone narrows that run.
kv-chaos:
	$(GO) test -race -timeout 300s -run 'TestKVStoreChaosKillUnderLoad' -count 3 ./internal/ermitest/

# kv-restart gates the durability layer: the whole-cluster power-cut
# scenario (every node halted mid-load with its log abandoned unflushed,
# then rebooted from disk) under the race detector, repeated so the
# halt lands on different interleavings of the write/snapshot pipeline.
kv-restart:
	$(GO) test -race -timeout 300s -run 'TestKVStoreClusterRestartFromDisk' -count 3 ./internal/ermitest/

# kv-sessions gates the client-cache coherence layer: a primary killed under
# a read-heavy cached workload (plus a fresh node joining), asserting zero
# stale reads — the invalidate-before-ack and failover-fence invariants —
# repeated so the crash lands on different lease/invalidation interleavings.
kv-sessions:
	$(GO) test -race -timeout 300s -run 'TestKVSessionsNoStaleReadsAcrossCrash' -count 3 ./internal/ermitest/

# async-recycle gates the recycled invocation futures: several goroutines
# keep windows of InvokeAsync futures in flight against an echo pool, so
# each terminal call hands its state (and reply payload) to another
# invocation, asserting every reply is its own request's and every spent
# handle stays spent; and budgets of 100–300µs race each future's budget
# timer against the read loop completing it, asserting a recycled state
# never sees a spurious Done or timeout. Both run under the race detector,
# repeated so the recycling lands on different interleavings.
async-recycle:
	$(GO) test -race -timeout 300s -run 'TestAsyncCallRecyclingStress|TestAsyncTimerRaceStress' -count 3 ./internal/core/

# fmt-check fails if any file is not gofmt-clean (gofmt -l lists offenders).
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$files"; exit 1; \
	fi

# fuzz-smoke runs each fuzz target briefly; `go test -fuzz` accepts exactly
# one target per invocation, hence the loop. Entries are pkg:Target pairs:
# the wire codec (frame/request/response/event parsers), the kvstore
# dispatch table fed arbitrary payloads, the kvstore state-record apply
# path, the generated payload codec round trip in gentest, and WAL replay.
FUZZ_TARGETS := \
	./internal/transport/:FuzzReadFrame \
	./internal/transport/:FuzzParseRequest \
	./internal/transport/:FuzzParseResponse \
	./internal/transport/:FuzzEventFrame \
	./internal/kvstore/:FuzzKVDispatch \
	./internal/kvstore/:FuzzApplyRecords \
	./internal/gen/gentest/:FuzzCodecRoundTrip \
	./internal/wal/:FuzzWALReplay
FUZZTIME ?= 10s
fuzz-smoke:
	@for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt##*:}; \
		echo "fuzz $$pkg $$t ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
	done

build:
	$(GO) build ./...

# loc prints hand-written non-test Go lines (wc -l) per package and in
# total: tracked and untracked-but-not-ignored files, excluding *_test.go,
# generated *_ermi.go, testdata/ and the benchmark module.
loc:
	@git ls-files -co --exclude-standard -- '*.go' ':!:*_test.go' ':!:*_ermi.go' ':!:*testdata/*' ':!:benchmark/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

vet:
	$(GO) vet ./...

# lint runs stock go vet first (the standard analyzers keep their gate),
# then the project's own invariant suite — payload ownership, lock
# discipline, codec strictness, budget propagation, goroutine leaks,
# dropped durability errors, wire-enum exhaustiveness — as a vettool, so it
# gets go vet's per-package scheduling and result caching for free. See
# internal/lint. ERMIVET_STATS collects one line per package the tool
# actually analyzes; the awk summary turns it into per-analyzer wall time
# and the cross-package fact-cache hit rate. Dependency fact passes
# ("facts-only" lines) are cached by the go command, so on a warm tree
# only the diagnostics pass of each listed package re-runs and every
# cross-package fact is a cache hit.
lint: vet
	$(GO) build -o bin/ermi-vet ./cmd/ermi-vet
	@rm -f bin/ermi-vet.stats
	ERMIVET_STATS=$(CURDIR)/bin/ermi-vet.stats $(GO) vet -vettool=$(CURDIR)/bin/ermi-vet ./...
	@awk -f scripts/lintstats.awk bin/ermi-vet.stats

# lint-cache-check proves the fact pipeline's warm path. The go command
# always re-runs the diagnostics pass for the packages it was asked about
# (cmd/go caches only VetxOnly dependency runs), so the incremental
# property to gate sits on the fact side: an unchanged tree must rebuild
# zero dependency fact files ("facts-only" stats lines) and must decode
# every cross-package fact file it is handed (facts_miss=0). A codec or
# staleness regression shows up here as misses — analysis silently
# degrading to package-local — while lint itself stays green. Run after
# `make lint` (reuses its binary and warm cache).
lint-cache-check:
	@rm -f bin/ermi-vet.stats
	ERMIVET_STATS=$(CURDIR)/bin/ermi-vet.stats $(GO) vet -vettool=$(CURDIR)/bin/ermi-vet ./...
	@if grep -q "^facts-only" bin/ermi-vet.stats; then \
		echo "lint-cache-check: warm run rebuilt dependency facts:"; \
		grep "^facts-only" bin/ermi-vet.stats; exit 1; \
	fi
	@misses=$$(awk '{for(i=1;i<=NF;i++) if (split($$i,kv,"=")==2 && kv[1]=="facts_miss") m+=kv[2]} END{print m+0}' bin/ermi-vet.stats); \
	if [ "$$misses" -gt 0 ]; then \
		echo "lint-cache-check: $$misses cross-package fact files missing or undecodable:"; \
		grep "facts_miss=[^0]" bin/ermi-vet.stats; exit 1; \
	fi
	@echo "lint-cache-check: warm run rebuilt no dependency facts; every cross-package fact was a cache hit"

test:
	$(GO) test ./...

# race gates the hot paths that share memory across goroutines under the
# race detector: the transport (pooled call objects, write coalescing,
# connection caches, the admission worker pool), and core's state access
# with the kvstore session layer (pooled field-key buffers that the session
# cache borrows, the intrusive LRU, the recycled GetLease calls and
# invalidation outboxes).
race:
	$(GO) test -race -timeout 300s ./internal/transport/... ./internal/core/... ./internal/kvstore/...
