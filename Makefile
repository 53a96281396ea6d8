# Convenience targets for the SPP-1000 reproduction.

GO ?= go

# Numbered performance artifacts (bump to track the trajectory).
BENCH_JSON ?= BENCH_15.json
# Where loadcheck writes sppload's artifact. Empty (the default) sends it
# to a temp file, so verify never rewrites a committed LOAD_n.json; set
# it to record a new one: make loadcheck LOAD_JSON=LOAD_9.json
LOAD_JSON ?=

.PHONY: all verify build test race bench loadcheck vet fmtcheck doc lint lint-annotations cover faultmatrix checkpoint pdes cluster reproduce quick serve servegw examples clean

all: build vet lint test race

# Tier-1 verification chain: compile, static checks, formatting, doc
# coverage, simulator invariants, the nested perfbench module (which
# `./...` skips, yet calls the simulator's APIs), tests, race tests,
# the fault matrix (which runs the checkpoint resume-exactness gate
# once), the PDES golden-equality gate, the sharded-cluster gate, and
# the load-harness + perf-trend gate.
verify:
	$(GO) build ./... && $(GO) vet ./... && $(MAKE) fmtcheck && $(GO) run ./cmd/doccheck && $(GO) run ./cmd/simlint && $(GO) -C perfbench vet ./... && $(GO) -C perfbench test -short . && $(GO) test ./... && $(GO) test -race ./... && $(MAKE) faultmatrix && $(MAKE) pdes && $(MAKE) cluster && $(MAKE) loadcheck

# Fail when gofmt would rewrite a tracked Go file, the nested perfbench
# module included. Lint fixtures under testdata/ are skipped: they are
# hand-aligned around their want comments.
fmtcheck:
	@files=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l) || exit 1; \
	if [ -n "$$files" ]; then echo "not gofmt-clean:"; echo "$$files"; exit 1; fi

# Fail on undocumented exported symbols of the core packages
# (internal/sim, internal/trace, internal/runner, internal/counters,
# internal/lint, internal/lint/linttest).
doc:
	$(GO) run ./cmd/doccheck

# Enforce the repo invariants: determinism, sim-time, counter-handle,
# context-flow, deps, escape-gated hot paths, lock order, the metrics
# ledger, and dead exports (see docs/LINT.md).
lint:
	$(GO) run ./cmd/simlint

# CI-facing lint: capture findings as JSON, then replay them as GitHub
# error annotations. The annotate pass owns the exit status, so the
# pipeline fails iff the findings array is non-empty — no pipefail
# dependency. The JSON lands in simlint.json for upload or inspection.
lint-annotations:
	$(GO) run ./cmd/simlint -json > simlint.json || true
	$(GO) run ./cmd/simlint -annotate < simlint.json

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Host goroutines now run independent simulations concurrently
# (internal/runner), so the race detector is part of tier-1 verify.
race:
	$(GO) test -race ./...

# One testing.B benchmark per paper table/figure and the service's
# cold-job compute step (BenchmarkColdJob), plus the kernel-level
# microbenchmarks in internal/sim, the barrier episodes of both engines
# in internal/threads and internal/parsim, and the 2M-body host stages
# of Fig. 8 in internal/apps/nbody. The parsed ns/op + allocs/op land in
# $(BENCH_JSON) so the perf trajectory is tracked across PRs.
bench:
	$(GO) test -bench=. -benchmem -run=NONE . ./internal/sim ./internal/counters ./internal/memsys ./internal/machine ./internal/threads ./internal/parsim ./internal/apps/nbody | tee bench.txt
	$(GO) run ./cmd/benchjson < bench.txt > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# The load-harness + perf-trend gate: start a fresh sppd, drive the
# bounded closed-loop sppload profile against it (exact client-vs-server
# metrics reconciliation, which sets sppload's exit status; artifact
# lands in $(LOAD_JSON) if set, else in a temp file that is removed),
# then run the benchtrend regression gate over the committed
# BENCH_*/LOAD_* history. Methodology: docs/BENCHMARKS.md.
SPPLOAD_ADDR ?= 127.0.0.1:8187
loadcheck:
	$(GO) build -o /tmp/sppd ./cmd/sppd && $(GO) build -o /tmp/sppload ./cmd/sppload && $(GO) build -o /tmp/benchtrend ./cmd/benchtrend
	out='$(LOAD_JSON)'; if [ -z "$$out" ]; then out=$$(mktemp) || exit 1; trap 'rm -f "$$out"' EXIT; fi; \
	/tmp/sppd -addr $(SPPLOAD_ADDR) -par 4 & pid=$$!; \
	/tmp/sppload -addr http://$(SPPLOAD_ADDR) -wait 10s -o "$$out"; st=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; exit $$st
	/tmp/benchtrend
	$(if $(LOAD_JSON),@echo "wrote $(LOAD_JSON)")

cover:
	$(GO) test -cover ./...

# The robustness gate: fault-injected runs (timeouts, failing and
# stalled runs, torn store writes, kill-and-restart) plus the durable
# store's corruption-recovery tests, all under the race detector.
faultmatrix:
	$(GO) test -race -run 'TestFaultInjected|TestJobTimeout|TestPerRequestTimeout|TestKillAndRestart|TestTornStoreWrite|TestMetricsReconcile' ./internal/service
	$(GO) test -race ./internal/store ./internal/faultinject
	$(GO) test -race -run 'TestBackendKillMidSweep|TestPeerFetchFailureRecomputes|TestGatewayForwardFaultEvicts|TestPeerProbeStaleWindowRetry' ./internal/gateway
	$(MAKE) checkpoint

# The checkpoint/resume gate, under the race detector: checkpoint
# round-trips and rejection of malformed, corrupt and retired-format
# checkpoints, the kill-at-every-boundary resume-exactness sweep
# (byte-identical output, scalepar's PDES engine included), and the service's
# checkpointed-job lifecycle. Then sppbench's checkpoint file end to
# end: a -checkpoint run, a -resume of the completed file, and a -resume
# of a copy with one payload byte flipped (which must print the corrupt
# notice and start fresh) must each print what a plain run prints.
checkpoint:
	$(GO) test -race ./internal/snapshot
	$(GO) test -race -run 'TestCheckpoint' ./internal/experiments
	$(GO) test -race -run 'TestDeadline|TestRestartResumes|TestDefaultRunnerCheckpoints' ./internal/service
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o $$d/sppbench ./cmd/sppbench; \
	run() { $$d/sppbench -quick -exp fig2,tab1 "$$@"; }; \
	run > $$d/plain.txt; \
	run -checkpoint $$d/run.ckpt > $$d/ckpt.txt; cmp $$d/plain.txt $$d/ckpt.txt; \
	cp $$d/run.ckpt $$d/bad.ckpt; \
	run -resume $$d/run.ckpt > $$d/resumed.txt 2> $$d/resumed.err; cmp $$d/plain.txt $$d/resumed.txt; test ! -s $$d/resumed.err; \
	off=$$(( $$(head -n1 $$d/bad.ckpt | wc -c) + 40 )); \
	b=$$(od -An -tu1 -j $$off -N1 $$d/bad.ckpt | tr -d ' '); \
	printf "$$(printf '\\%03o' $$(( b ^ 1 )))" | dd of=$$d/bad.ckpt bs=1 seek=$$off conv=notrunc 2>/dev/null; \
	run -resume $$d/bad.ckpt > $$d/flipped.txt 2> $$d/flipped.err; cmp $$d/plain.txt $$d/flipped.txt; \
	grep -q 'was corrupt and has been deleted' $$d/flipped.err; \
	echo 'sppbench -checkpoint/-resume: byte-identical to a plain run; bit-flipped checkpoint deleted'

# The partitioned-engine gate: the parsim coordinator unit tests and
# the scalepar golden (the PDES engine's output, byte for byte), both
# under the race detector.
pdes:
	$(GO) test -race ./internal/parsim
	$(GO) test -race -run 'TestGoldenOutputs/scalepar' ./internal/experiments

# The sharded-cluster gate: ring placement properties, membership and
# merged metrics, and the gateway-plus-backends end-to-end suite (a
# sweep through sppgw must be byte-identical to one standalone sppd,
# and peer fetch must warm re-homed keys), all under the race detector.
cluster:
	$(GO) test -race ./internal/gateway
	$(GO) test -race -run 'TestBackendIdentity|TestPeerFetch|TestStoreExport' ./internal/service

# Regenerate every table and figure at paper scale (≈1 minute).
reproduce:
	$(GO) run ./cmd/sppbench -exp all

# Reduced problem sizes for CI.
quick:
	$(GO) run ./cmd/sppbench -exp all -quick

# Simulation-as-a-service daemon on a local port; drive it with
#   go run ./cmd/sppctl submit -exp fig6 -quick -wait
SPPD_ADDR ?= 127.0.0.1:8177
serve:
	$(GO) run ./cmd/sppd -addr $(SPPD_ADDR)

# Sharded cluster on local ports: one sppgw gateway and two sppd
# backends that join it. Point sppctl at the gateway:
#   go run ./cmd/sppctl -addr http://127.0.0.1:8178 submit -exp fig6 -quick -wait
SPPGW_ADDR ?= 127.0.0.1:8178
servegw:
	$(GO) build -o /tmp/sppgw ./cmd/sppgw && $(GO) build -o /tmp/sppd ./cmd/sppd
	/tmp/sppgw -addr $(SPPGW_ADDR) & \
	/tmp/sppd -addr 127.0.0.1:8181 -join http://$(SPPGW_ADDR) & \
	/tmp/sppd -addr 127.0.0.1:8182 -join http://$(SPPGW_ADDR) & \
	wait

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/profile
	$(GO) run ./examples/amrblast

clean:
	$(GO) clean ./...
