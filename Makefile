GO ?= go

.PHONY: build vet lint test race check check-benchmark examples bench profile fuzz-short chaos stress trace

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint: go vet, gofmt (any file it would rewrite fails the target), the
# control-plane invariant (every lifecycle state change in internal/am must
# flow through the internal/fsm transition tables — no raw `.state = ...`
# assignments), the value-format invariant (the row and key formats are
# written only by internal/row: no other non-test Go writes a value kind
# tag, `byte(row.Kind...)`, or the key's zero-byte escape, `0x00, 0xFF` —
# it calls row's appenders), the wait invariant (no non-test Go uses a
# condition variable: task inputs, mailboxes and their owners wait on
# channels, so each owner waits in one select over its mailbox, its kill
# and its own timers, and no helper goroutine turns a timer or a kill into
# a wakeup), the AM ownership invariant (no non-test Go in internal/am
# declares a sync.Mutex or sync.RWMutex outside session.go, whose lock
# orders admission against Close, and health.go, whose report NodeHealth
# reads from other goroutines: the session's loop owns the scheduler and
# every run, so a lock anywhere else means a second owner crept back), the
# RM ownership invariant (no non-test Go in internal/cluster declares a
# sync.Mutex or sync.RWMutex, takes a lock, or uses sync/atomic or a
# CompareAndSwap outside container.go, whose lock orders a container's
# Launch and Exec on task goroutines against its stop: the RM loop owns
# every node, app and request), and staticcheck when installed (skipped gracefully where it is not; CI does
# not install it).
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo 'lint: gofmt would rewrite:'; echo "$$unformatted"; exit 1; \
	fi
	@if grep -rnE '\.state[[:space:]]*=[^=]' internal/am --include='*.go'; then \
		echo 'lint: raw lifecycle state assignment in internal/am (use the fsm tables)'; exit 1; \
	fi
	@if grep -rnE 'byte\(row\.Kind|0x00, 0xFF' --include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/row/'; then \
		echo 'lint: value format written outside internal/row (use its appenders)'; exit 1; \
	fi
	@if grep -rnE 'sync\.Cond|NewCond' --include='*.go' --exclude='*_test.go' .; then \
		echo 'lint: condition variable in non-test Go (wait on channels, in one select)'; exit 1; \
	fi
	@if grep -nE 'sync\.(RW)?Mutex' internal/am/*.go | grep -v '_test\.go:' | grep -vE '^internal/am/(session|health)\.go:'; then \
		echo 'lint: mutex in internal/am outside session.go and health.go (the session loop owns AM state)'; exit 1; \
	fi
	@if grep -nE 'sync\.(RW)?Mutex|\.R?Lock\(\)|atomic\.|CompareAndSwap' internal/cluster/*.go | grep -v '_test\.go:' | grep -v '^internal/cluster/container\.go:'; then \
		echo 'lint: lock or atomic in internal/cluster outside container.go (the RM loop owns RM state)'; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo 'lint: staticcheck not installed, skipping'; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the tier-1 gate plus lint, the race detector, the benchmark
# module and the example programs; CI runs exactly this.
check: build lint race check-benchmark examples

# check-benchmark vets and tests benchmark/, a Go module of its own that
# `./...` at the root does not reach, so that a rename under internal/ that
# breaks the benchmark's imports fails the change that makes it.
check-benchmark:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# examples runs every program under examples/ and cmd/tez-dag, which build
# their DAGs by hand and which no test executes, then the differential end
# to end at small scale: tez-hive on its default query, on a global
# aggregate whose filter drops every row and on a join the Tez plan runs
# as a broadcast (map) join probing a join table, and tez-pig's group_agg and
# order_by (a range sort with a LIMIT, which must be global on Tez as it is
# on the MR chain's single reducer), each with -backend both, which runs
# the Tez DAG and the MR chain (whose reducers fold through the same
# aggregate fold) and exits 1 when the two store different rows. A
# non-zero exit fails the target. A few seconds each.
examples:
	@for d in examples/*/ cmd/tez-dag; do \
		echo "run ./$$d"; $(GO) run ./$$d >/dev/null || exit 1; \
	done
	$(GO) run ./cmd/tez-hive -backend both -orders 200 -sales 200 >/dev/null
	$(GO) run ./cmd/tez-hive -backend both -orders 200 -sales 200 \
		-q "SELECT count(*) AS n, sum(l_quantity) AS s FROM lineitem WHERE l_quantity < 0" >/dev/null
	$(GO) run ./cmd/tez-hive -backend both -orders 200 -sales 200 \
		-q "SELECT c.c_mktsegment, sum(o.o_totalprice) AS s FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey GROUP BY c.c_mktsegment" >/dev/null
	$(GO) run ./cmd/tez-pig -backend both -pipeline group_agg -rows 2000 >/dev/null
	$(GO) run ./cmd/tez-pig -backend both -pipeline order_by >/dev/null

# bench regenerates every experiment table once (BenchmarkExperiments/<key>
# over the internal/bench table, opt-in rows excluded) and runs the
# profilable workload copies once each. It prints and persists nothing:
# numbers compared from commit to commit come from benchmark/run.sh.
bench:
	$(GO) test -run XXX -bench . -benchtime 1x .

# profile runs the profilable copies of the repository benchmark's
# workloads (BenchmarkHiveSession/{scanagg,joinagg} and BenchmarkSmallMRDAG
# in bench_test.go) under the CPU and allocation profilers, then prints
# the cumulative CPU share of three costs that should read near zero on the
# Hive workloads: payload encoding (internal/plugin and encoding/gob
# frames), boxing relational rows (row.Decode, row.Row.Clone,
# col.(*Batch).AppendRow) and parsing row-encoded records
# (col.(*Batch).AppendEncoded): scans decode table stripes column by
# column and hash edges carry column frames, so only the rows a reduce
# side reads off an ordered shuffle (a sort, a distinct, a plain join, an
# aggregate whose group key has no declared kind, the MR chain) still
# take that parse: on joinagg only the 40 rows its top-k sort reads. Then
# it prints the cumulative CPU share of the column frame codec's two ends,
# col.decodeCol and col.EncodeBatch, which read table stripes and carry
# every hash and broadcast edge: a regression in either shows there first.
# Then the cumulative CPU share of relop.loadStageSpec, near zero on both
# Hive workloads too: a warm container decodes each stage program once for
# the session, so only a benchmark's first job pays the gob decode. Then
# those of relop.(*hashFold).join, the fused join's build and probe of its
# join table, of relop.(*hashFold).emit and of its key sort
# (slices.SortFunc over relop.sortKey). On joinagg emit is about a tenth, nearly all of it
# writeAggRow handing q18's 20 000 groups to the top-k emit, and the sort
# reads near zero: a fold whose groups go only to shuffles writes them
# unsorted (it was 9-11 % of samples while every fold sorted).
# Last it prints the share of allocated bytes (alloc_space, from mem.out)
# under dfs.(*FileSystem).ReadAtNoWait, which ReadAt and a task's split
# reader both read through, and which should also read near zero on both
# Hive workloads: a split inside one DFS block is read in place, so the
# bytes a scan reads are not copied first.
# Binary and profiles stay in $(PROFILE_DIR); look
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
		| grep -E 'Total samples|flat%|tez/internal/plugin\.|encoding/gob\.|internal/row\.(Decode|Row\.Clone)\b|internal/col\.\(\*Batch\)\.(AppendRow|AppendEncoded)\b|internal/col\.(decodeCol|EncodeBatch)$$|internal/relop\.loadStageSpec$$|internal/relop\.\(\*hashFold\)\.(emit|join)$$|SortFunc\[go\.shape\.\[\]tez/internal/relop\.sortKey' | head -30
	@printf 'alloc_space under dfs.(*FileSystem).ReadAtNoWait: '
	@$(GO) tool pprof -sample_index=alloc_space -top -focus 'dfs\.\(\*FileSystem\)\.ReadAtNoWait$$' \
		$(PROFILE_DIR)/tez.test $(PROFILE_DIR)/mem.out 2>/dev/null | sed -n 's/^Showing nodes accounting for //p'

# fuzz-short gives the record-framing decoders (plain and block-padded),
# the sort order (prefix index sort against the full-comparator oracle),
# the binary codecs of the hot control-plane payloads (no panic, nothing
# allocated beyond the input's size, decode-then-encode is the identity,
# gob streams refused), split grouping (every split in one group, the
# result independent of input order, group size and hint rules) and the
# three doors text from outside comes in by — relop's expression grammar
# (Parser.Expr, then Resolve), hive.Parse and pig.ParseScript: no panic, no
# stack exhaustion — and the two row
# decoders (row.Decode and col.Batch.AppendEncoded accept and refuse the
# same inputs and read them alike), the batch frame decoder
# (col.DecodeBatch: a frame it accepts re-encodes to the same rows, and
# its decoded vectors hold at most 64 times its bytes) and
# the table stripe's column-subset decode (col.DecodeBatchInto: any subset
# of an accepted frame's columns reads as the full decode does, every
# column length within the bytes that remain, the row cap kept) and the
# partial aggregate state a pre-aggregating producer ships (relop's
# mergePartial: an error or a state, and a state re-encodes to the same
# results) a
# brief coverage-guided shake on every run (the checked-in corpus under
# testdata/fuzz replays regardless, as ordinary tests). Each target bounds
# minimizing a new input to 200 runs (-fuzzminimizetime 200x): at the
# 60 s default one minimization can take the rest of a 5 s run, which
# then fuzzes nothing new (FuzzColumnFile stalled at 0 execs/s so).
fuzz-short:
	$(GO) test -run XXX -fuzz FuzzSortOrder -fuzztime 5s -fuzzminimizetime 200x ./internal/library/
	$(GO) test -run XXX -fuzz FuzzDecodeRecord -fuzztime 5s -fuzzminimizetime 200x ./internal/library/
	$(GO) test -run XXX -fuzz FuzzBufferReader -fuzztime 5s -fuzzminimizetime 200x ./internal/library/
	$(GO) test -run XXX -fuzz FuzzPayloadCodecs -fuzztime 5s -fuzzminimizetime 200x ./internal/library/
	$(GO) test -run XXX -fuzz FuzzGroupSplits -fuzztime 5s -fuzzminimizetime 200x ./internal/library/
	$(GO) test -run XXX -fuzz FuzzParseExpr -fuzztime 5s -fuzzminimizetime 200x ./internal/relop/
	$(GO) test -run XXX -fuzz FuzzPartialState -fuzztime 5s -fuzzminimizetime 200x ./internal/relop/
	$(GO) test -run XXX -fuzz 'FuzzParse$$' -fuzztime 5s -fuzzminimizetime 200x ./internal/hive/
	$(GO) test -run XXX -fuzz FuzzParseScript -fuzztime 5s -fuzzminimizetime 200x ./internal/pig/
	$(GO) test -run XXX -fuzz FuzzRowDecoders -fuzztime 5s -fuzzminimizetime 200x ./internal/col/
	$(GO) test -run XXX -fuzz FuzzDecodeBatch -fuzztime 5s -fuzzminimizetime 200x ./internal/col/
	$(GO) test -run XXX -fuzz FuzzColumnFile -fuzztime 5s -fuzzminimizetime 200x ./internal/col/

# chaos runs the seed-pinned fault-injection suite under the race
# detector: the determinism contract, the blacklisting/casualty paths and,
# in the AM, an attempt that announced early and then failed or lost to
# its speculative twin (never published, so no consumer sees it), and the
# end-to-end seeds×DAGs matrix (results must be identical to a fault-free
# run). Seeds are fixed in the tests, so failures reproduce exactly.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/
	$(GO) test -race -count=1 -run 'TestChaos|TestBlacklist|TestAttemptFailureRacingNodeLoss|TestDecommissionDrain|TestRetractAnnouncedAttempt|TestAnnouncedTwinLosesUnseen' ./internal/am/

# stress repeats the tests of four fixes whose failures depended on
# goroutine ordering, each run enough times that its old failure rate
# (one in a few to one in a hundred) would show: the stage-program
# sharing test with the whole relop package (50 runs), a session closed
# mid-run leaking nothing under the race detector (500), AM recovery
# under default slow-start and of an auto-reduced consumer's partition
# ranges (200 each), and the chaos table's node-crash row,
# which loops thirty runs under a wall-clock bound itself. Last, the
# shuffle consumer's retraction race under the race detector (50 runs of
# eight seeds each): a 128-input consumer whose stored runs are retracted
# and replaced must read the surviving attempts on every seed; with it
# (50 runs) the consumer's stale-fetch guard for a transfer that succeeded
# or failed after its attempt was retracted, the fetcher pool under
# injected transient errors, and a kill waking 200 waiting inputs without
# leaving a goroutine behind. Then the AM's publish-at-success rule under
# the race detector (100 runs each): an attempt that announced through
# ctx.Emit and then failed, or lost to its speculative twin, is never seen
# by a consumer or a vertex manager. Last, under the race detector, the
# session loop's select (100 runs each): the deadline-vs-completion race,
# the backlog gauge behind a stalled loop, one goroutine per session
# however many DAGs it runs, a deadline kill sparing its sibling DAG, and
# the mailbox's channel wake-ups; then a Submit racing Close (500 runs),
# which must never hang. Last, the RM loop under the race detector (50
# runs each): cancels racing requests and scheduling passes (no request
# both cancelled and allocated, each grant delivered once, nothing left
# pending), and apps requesting, cancelling and releasing on goroutines of
# their own while another fails and restores nodes (the capacity mirrors
# match the nodes' containers, and Unregister hands every resource back).
stress:
	$(GO) test -count=50 ./internal/relop/
	$(GO) test -race -count=500 -run 'TestCloseMidRunLeaksNothing$$' ./internal/am/
	$(GO) test -count=200 -run 'TestAMRecoveryFromCheckpoint$$|TestRecoveredRangesRouteAlike$$' ./internal/am/
	$(GO) test -count=1 -run 'TestChaosNodeCrashRecoversPromptly$$' ./internal/bench/
	$(GO) test -race -count=50 -run 'TestFetchRetractionStress$$' ./internal/library/
	$(GO) test -race -count=50 -run 'TestStaleFetchDoesNotClobberNewerAttempt$$|TestStaleFetchErrorIsDropped$$|TestParallelFetchStress$$|TestKillWhileReaderWaits$$' ./internal/library/
	$(GO) test -race -count=100 -run 'TestRetractAnnouncedAttempt$$|TestAnnouncedTwinLosesUnseen$$' ./internal/am/
	$(GO) test -race -count=100 -run 'TestDeadlineCompletionRace$$|TestBacklogGaugeSeesStalledDispatcher$$|TestOneGoroutinePerSession$$|TestDeadlineKillSparesSiblingDAG$$' ./internal/am/
	$(GO) test -race -count=100 ./internal/mailbox/
	$(GO) test -race -count=500 -run 'TestSubmitRacingCloseNeverHangs$$' ./internal/am/
	$(GO) test -race -count=50 -run 'TestCancelRaceWithSchedulingPasses$$|TestInvariantStressConcurrent$$' ./internal/cluster/

# trace runs a sample wordcount with the timeline journal attached and
# writes trace.json (Chrome trace-event format — load it in Perfetto or
# chrome://tracing) plus the raw journal as trace.jsonl.
trace:
	$(GO) run ./cmd/tez-timeline -trace trace.json -jsonl trace.jsonl
