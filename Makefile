GO ?= go

.PHONY: build vet lint test race check check-benchmark bench profile bench-shuffle bench-controlplane bench-service bench-graph fuzz-short chaos trace

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint: go vet, the control-plane invariant (every lifecycle state change
# in internal/am must flow through the internal/fsm transition tables —
# no raw `.state = ...` assignments), and staticcheck when installed
# (skipped gracefully where it is not; CI does not install it).
lint: vet
	@if grep -rnE '\.state[[:space:]]*=[^=]' internal/am --include='*.go'; then \
		echo 'lint: raw lifecycle state assignment in internal/am (use the fsm tables)'; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo 'lint: staticcheck not installed, skipping'; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the tier-1 gate plus lint, the race detector and the benchmark
# module; CI runs exactly this.
check: build lint race check-benchmark

# check-benchmark vets and tests benchmark/, a Go module of its own that
# `./...` at the root does not reach, so that a rename under internal/ that
# breaks the benchmark's imports fails the change that makes it.
check-benchmark:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

bench:
	$(GO) test -run XXX -bench . -benchtime 1x .

# profile runs the profilable copies of the repository benchmark's
# workloads (BenchmarkHiveSession/{scanagg,joinagg} and BenchmarkSmallMRDAG
# in bench_test.go) under the CPU and allocation profilers, then prints
# what payload encoding costs: the cumulative share of internal/plugin and
# encoding/gob frames. Binary and profiles stay in $(PROFILE_DIR); look
# further with `go tool pprof $(PROFILE_DIR)/tez.test $(PROFILE_DIR)/cpu.out`
# (or mem.out with -sample_index=alloc_space). PROFILE_BENCH narrows the
# run to one workload, e.g. PROFILE_BENCH=HiveSession/scanagg.
PROFILE_DIR ?= .profile
PROFILE_BENCH ?= HiveSession|SmallMRDAG
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run XXX -bench '$(PROFILE_BENCH)' -benchtime 50x -o $(PROFILE_DIR)/tez.test \
		-outputdir $(PROFILE_DIR) -cpuprofile cpu.out -memprofile mem.out .
	$(GO) tool pprof -top -cum -nodecount 2000 $(PROFILE_DIR)/tez.test $(PROFILE_DIR)/cpu.out 2>/dev/null \
		| grep -E 'Total samples|flat%|tez/internal/plugin\.|encoding/gob\.' | head -24

# bench-shuffle measures the shuffle data plane: the go-bench view of the
# sort/merge ablations plus the grouped-read allocation benchmark, then
# the structured run that persists BENCH_shuffle.json (ns/op, B/op,
# allocs/op for serial-boxed vs arena vs arena+spill vs arena+flate, and
# the end-to-end codec rows). CI uploads the JSON as an artifact.
bench-shuffle:
	$(GO) test -run XXX -bench BenchmarkGroupedRead -benchmem ./internal/library/
	$(GO) run ./cmd/tez-bench -exp shuffle-sort,shuffle-codec -shuffle-json BENCH_shuffle.json

# bench-controlplane drives the scheduler at 10k simulated nodes, the
# event plane at 1M events, and a 100k-task DAG end to end, comparing
# against the checked-in pre-optimisation baseline (PR 6).
bench-controlplane:
	$(GO) run ./cmd/tez-bench -exp controlplane -controlplane-json BENCH_controlplane.json

# bench-service floods the multi-tenant DAG service with ≥1000 small DAGs
# from 4 weighted tenants through bounded admission queues (typed
# rejections must engage) and persists throughput + p50/p99 to
# BENCH_service.json. CI uploads the JSON as an artifact.
bench-service:
	$(GO) run ./cmd/tez-bench -exp service -service-json BENCH_service.json

# bench-graph runs the BSP graph engine: PageRank with the registry-cached
# vs cold-load ablation (identical fixed-horizon runs, the only difference
# is whether compute tasks may reuse cached partition snapshots), plus
# connected components and SSSP with vote-to-halt termination. Persists
# supersteps/sec, messages/sec and the ablation to BENCH_graph.json; CI
# uploads the JSON as an artifact.
bench-graph:
	$(GO) run ./cmd/tez-bench -exp graph -graph-json BENCH_graph.json

# fuzz-short gives the record-framing decoders (plain and block-padded),
# the sort order (prefix index sort against the full-comparator oracle) and
# the binary codecs of the hot control-plane payloads (no panic, nothing
# allocated beyond the input's size, decode-then-encode is the identity,
# gob streams refused) a brief coverage-guided shake on every run (the
# checked-in corpus under testdata/fuzz replays regardless, as ordinary
# tests).
fuzz-short:
	$(GO) test -run XXX -fuzz FuzzSortOrder -fuzztime 5s ./internal/library/
	$(GO) test -run XXX -fuzz FuzzDecodeRecord -fuzztime 5s ./internal/library/
	$(GO) test -run XXX -fuzz FuzzBufferReader -fuzztime 5s ./internal/library/
	$(GO) test -run XXX -fuzz FuzzPayloadCodecs -fuzztime 5s ./internal/library/

# chaos runs the seed-pinned fault-injection suite under the race
# detector: the determinism contract, the blacklisting/casualty paths and
# the retraction of an announced-then-failed attempt in the AM, and the
# end-to-end seeds×DAGs matrix (results must be identical to a fault-free
# run). Seeds are fixed in the tests, so failures reproduce exactly.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/
	$(GO) test -race -count=1 -run 'TestChaos|TestBlacklist|TestAttemptFailureRacingNodeLoss|TestDecommissionDrain|TestRetractAnnouncedAttempt' ./internal/am/

# trace runs a sample wordcount with the timeline journal attached and
# writes trace.json (Chrome trace-event format — load it in Perfetto or
# chrome://tracing) plus the raw journal as trace.jsonl.
trace:
	$(GO) run ./cmd/tez-timeline -trace trace.json -jsonl trace.jsonl
