package library

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"tez/internal/event"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
	"tez/internal/timeline"
)

// Registered names of the shuffle transports.
const (
	OrderedPartitionedOutputName = "tez.ordered_partitioned_output"
	OrderedGroupedInputName      = "tez.ordered_grouped_input"
)

func init() {
	runtime.RegisterOutput(OrderedPartitionedOutputName, func() runtime.Output {
		return &OrderedPartitionedKVOutput{}
	})
	runtime.RegisterInput(OrderedGroupedInputName, func() runtime.Input {
		return &OrderedGroupedKVInput{}
	})
}

// DMInfo is the DataMovement payload of the built-in shuffle outputs: the
// "access URL" metadata of §3.3 — which registered output and partition to
// fetch, plus the block codec the bytes crossed the wire in (the fetched
// block is self-describing; there is no out-of-band codec negotiation). It
// is encoded once per producer partition and decoded once per fetch, so it
// has a binary codec (payload.go).
type DMInfo struct {
	ID        shuffle.OutputID
	Partition int
	// RawSize is the decoded record-stream size the block codec needs;
	// the ordered output sets it, the unordered outputs (no codec) leave
	// it zero, as they leave Codec empty.
	RawSize int64
	Codec   string
}

// VMStats is the VertexManagerEvent payload the shuffle outputs send to
// the consumer's ShuffleVertexManager: per-partition output sizes used for
// the automatic partition-cardinality estimate (Figure 6). Sizes are raw
// (pre-codec) so the estimate does not shift with the wire codec.
type VMStats struct {
	PartitionSizes []int64
}

// OrderedPartitionedConfig configures OrderedPartitionedKVOutput; the
// unordered partitioned output decodes the same payload and reads
// Partitioner only. The zero value of every field means "default" — most
// edges carry no payload at all (OrderedEdge encodes none for the zero
// config) — and every field is written by the binary codec in payload.go,
// which an addition must extend.
type OrderedPartitionedConfig struct {
	Partitioner PartitionerSpec
	// Combiner names a RegisterCombineFunc pre-aggregator applied to each
	// sorted spill and to the final merge. Empty means none.
	Combiner string
	// Codec overrides the wire block codec for this edge ("none",
	// "flate", or a registered name); empty defers to the session's
	// runtime.Services.Codec.
	Codec string
	// SortBytes is the sort-spill budget in bytes: > 0 caps the in-memory
	// sort buffer, anything else leaves it unbounded (no spills). There is
	// no session-wide budget; an edge that must spill says so here.
	SortBytes int64
}

// DefaultFetchParallelism is the fetcher-pool size of a shuffle consumer —
// the counterpart of real Tez's parallel fetcher threads — when no knob
// overrides it. The sort budget has no default: unset, the map-side sort
// buffer is unbounded and never spills.
const DefaultFetchParallelism = 4

// shuffleKnobs is the resolved data-plane configuration of one end of a
// shuffle edge.
type shuffleKnobs struct {
	codec            string // wire block codec name; "" or "none" = raw
	sortBytes        int64  // map-side sort budget; 0 = unbounded
	fetchParallelism int    // fetcher-pool size, at least 1
}

// resolveShuffleKnobs is the one place a shuffle knob gets its value. The
// codec has two tiers — the per-edge payload, then the session value in
// Services (am.Config.ShuffleCodec) — the sort budget is per edge only and
// the fetcher pool per session only; each falls back to the library
// default. Inputs carry no payload and pass the zero config.
func resolveShuffleKnobs(edge OrderedPartitionedConfig, svc runtime.Services) shuffleKnobs {
	k := shuffleKnobs{
		codec:            edge.Codec,
		sortBytes:        max(edge.SortBytes, 0),
		fetchParallelism: svc.FetchParallelism,
	}
	if k.codec == "" {
		k.codec = svc.Codec
	}
	if k.fetchParallelism == 0 {
		k.fetchParallelism = DefaultFetchParallelism
	}
	if k.fetchParallelism < 1 {
		k.fetchParallelism = 1 // serial
	}
	return k
}

// OrderedPartitionedKVOutput is the map-side shuffle transport — the
// in-process analog of Tez's ExternalSorter + IFile. Records are appended
// to a contiguous byte arena with a compact index; the index is sorted
// into (partition, key, value) order on its cached key prefixes; a
// configured memory budget (SortBytes) spills sorted encoded
// runs, each optionally pre-aggregated by a registered combiner; Close
// merges spills with the in-memory remainder per partition (fanned out
// across a small worker pool), compresses each partition with the
// configured block codec, registers the partitions with the node's
// shuffle service, and announces them with one DataMovement event per
// partition plus a VMStats statistics event. The partition count comes
// from the edge manager via Context.PhysicalCount.
type OrderedPartitionedKVOutput struct {
	ctx         *runtime.Context
	cfg         OrderedPartitionedConfig
	partitioner Partitioner
	combine     CombineFunc
	codec       BlockCodec
	limit       int64 // sort budget in bytes; 0 = unbounded
	arenaMax    int64 // arena bytes the index can address (maxArenaBytes)
	parts       int
	sb          *sortBuffer
	spills      [][][]byte // spills[s][p] = sorted encoded run, held for Close
}

// Initialize decodes configuration and prepares the sort buffer.
func (o *OrderedPartitionedKVOutput) Initialize(ctx *runtime.Context) error {
	o.ctx = ctx
	o.cfg = OrderedPartitionedConfig{}
	if len(ctx.Payload) > 0 {
		if err := plugin.Decode(ctx.Payload, &o.cfg); err != nil {
			return err
		}
	}
	p, err := o.cfg.Partitioner.New()
	if err != nil {
		return err
	}
	o.partitioner = p
	if o.combine, err = lookupCombiner(o.cfg.Combiner); err != nil {
		return err
	}
	knobs := resolveShuffleKnobs(o.cfg, ctx.Services)
	if o.codec, err = ResolveBlockCodec(knobs.codec); err != nil {
		return err
	}
	if ctx.PhysicalCount <= 0 {
		return fmt.Errorf("library: ordered partitioned output with %d partitions", ctx.PhysicalCount)
	}
	o.parts = ctx.PhysicalCount
	o.limit = knobs.sortBytes
	o.arenaMax = maxArenaBytes
	o.sb = sortBufferPool.Get().(*sortBuffer)
	return nil
}

// Writer returns a runtime.KVWriter appending into the arena.
func (o *OrderedPartitionedKVOutput) Writer() (any, error) {
	return kvWriterFunc(o.write), nil
}

func (o *OrderedPartitionedKVOutput) write(k, v []byte) error {
	part := o.partitioner.Partition(k, o.parts)
	if part < 0 || part >= o.parts {
		return fmt.Errorf("library: partitioner sent a key to partition %d of %d", part, o.parts)
	}
	// The index addresses the arena with 32 bits: whatever the budget, a
	// run is spilled before the arena outgrows them.
	if size := int64(len(k)) + int64(len(v)); int64(len(o.sb.arena))+size > o.arenaMax {
		if size > o.arenaMax {
			return fmt.Errorf("library: record of %d bytes exceeds the sort buffer's %d", size, o.arenaMax)
		}
		if err := o.spill(); err != nil {
			return err
		}
	}
	o.sb.add(part, k, v)
	if o.limit > 0 && o.sb.used() >= o.limit {
		return o.spill()
	}
	return nil
}

// spill sorts the arena and encodes it into one sorted run per partition
// (through the combiner when configured), then resets the arena keeping
// its capacity — the ExternalSorter spill, minus the disk.
func (o *OrderedPartitionedKVOutput) spill() error {
	ctr := o.ctx.Services.Counters
	start := time.Now()
	sortStart := start
	o.sb.sort(o.parts)
	sortNS := time.Since(sortStart).Nanoseconds()
	runs := make([][]byte, o.parts)
	for p := 0; p < o.parts; p++ {
		seg := o.sb.partSpan(p)
		if len(seg) == 0 {
			continue
		}
		buf, err := encodeStream(&refsReader{sb: o.sb, refs: seg}, o.combine, getRunBuf(), ctr)
		if err != nil {
			return err
		}
		runs[p] = buf
	}
	records := int64(len(o.sb.refs))
	o.spills = append(o.spills, runs)
	o.sb.reset()
	if ctr != nil {
		ctr.Add("SHUFFLE_SPILLS", 1)
		ctr.Add("SHUFFLE_SORT_TIME_NS", sortNS)
	}
	o.recordSpan(timeline.ShuffleSpill, o.ctx.Name, time.Since(start), records)
	return nil
}

// recordSpan journals one data-plane span for this attempt (no-op without
// a journal).
func (o *OrderedPartitionedKVOutput) recordSpan(t timeline.Type, info string, dur time.Duration, val int64) {
	o.ctx.Services.Timeline.Record(timeline.Event{
		Type:    t,
		DAG:     o.ctx.Meta.DAG,
		Vertex:  o.ctx.Meta.Vertex,
		Task:    o.ctx.Meta.Task,
		Attempt: o.ctx.Meta.Attempt,
		Node:    o.ctx.Services.Node,
		Info:    info,
		Dur:     dur,
		Val:     val,
	})
}

// Close sorts the remainder, merges it with any spills per partition
// (combining again at the merge), applies the wire codec, registers and
// announces the partitions. Per-partition finalisation fans out across a
// small worker pool — partitions are independent, so the output bytes do
// not depend on worker interleaving.
func (o *OrderedPartitionedKVOutput) Close() ([]event.Event, error) {
	ctr := o.ctx.Services.Counters
	sortStart := time.Now()
	o.sb.sort(o.parts)
	if ctr != nil {
		ctr.Add("SHUFFLE_SORT_TIME_NS", time.Since(sortStart).Nanoseconds())
	}

	var (
		raw      = make([][]byte, o.parts) // nil once handed to wire/pool
		wire     = make([][]byte, o.parts)
		rawSizes = make([]int64, o.parts)
		errMu    sync.Mutex
		firstErr error
	)
	mergeStart := time.Now()
	workers := goruntime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	if workers > o.parts {
		workers = o.parts
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				if err := o.finalizePartition(p, raw, wire, rawSizes); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for p := 0; p < o.parts; p++ {
		work <- p
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if len(o.spills) > 0 {
		if ctr != nil {
			ctr.Add("SHUFFLE_MERGE_TIME_NS", time.Since(mergeStart).Nanoseconds())
		}
		var totalRaw int64
		for _, s := range rawSizes {
			totalRaw += s
		}
		o.recordSpan(timeline.ShuffleMerge, "final "+o.ctx.Name, time.Since(mergeStart), totalRaw)
	}

	codecName := ""
	if o.codec != nil {
		codecName = o.codec.Name()
	}
	events, err := announce(o.ctx, wire, rawSizes, codecName, true)
	if err != nil {
		return nil, err
	}
	// Register copied the partitions, so every producer-side buffer is
	// recyclable from here.
	for i := range wire {
		putRunBuf(wire[i])
		wire[i] = nil
	}
	o.sb.reset()
	sortBufferPool.Put(o.sb)
	o.sb = nil
	o.spills = nil
	return events, nil
}

// announce is the last step of every shuffle output: it registers one
// attempt's partitions with the node's shuffle service under the attempt's
// OutputID and returns the events that make them fetchable — one
// DataMovement per partition and, with stats, one VMStats for the
// consumer's vertex manager. rawSizes are the pre-codec sizes of the
// ordered output; the unordered outputs pass nil (their DMInfo carries no
// RawSize and their statistics are the registered sizes). Only the
// one-partition output, which has no consumer parallelism to estimate,
// announces without stats.
func announce(ctx *runtime.Context, parts [][]byte, rawSizes []int64, codec string, stats bool) ([]event.Event, error) {
	id := shuffle.OutputID{
		DAG:     ctx.Meta.DAG,
		Vertex:  ctx.Meta.Vertex,
		Name:    ctx.Name,
		Task:    ctx.Meta.Task,
		Attempt: ctx.Meta.Attempt,
	}
	if err := ctx.Services.Shuffle.Register(ctx.Services.Node, id, parts, ctx.Services.Token); err != nil {
		return nil, err
	}
	events := make([]event.Event, 0, len(parts)+1)
	statSizes := rawSizes
	if stats && rawSizes == nil {
		statSizes = make([]int64, len(parts))
	}
	for i, p := range parts {
		info := DMInfo{ID: id, Partition: i, Codec: codec}
		if rawSizes != nil {
			info.RawSize = rawSizes[i]
		} else if stats {
			statSizes[i] = int64(len(p))
		}
		events = append(events, event.DataMovement{
			SrcVertex:      ctx.Meta.Vertex,
			SrcTask:        ctx.Meta.Task,
			SrcAttempt:     ctx.Meta.Attempt,
			SrcOutputIndex: i,
			TargetVertex:   ctx.Name,
			Payload:        plugin.MustEncode(info),
		})
	}
	if stats {
		events = append(events, event.VertexManagerEvent{
			TargetVertex: ctx.Name,
			SrcVertex:    ctx.Meta.Vertex,
			SrcTask:      ctx.Meta.Task,
			Payload:      plugin.MustEncode(VMStats{PartitionSizes: statSizes}),
		})
	}
	return events, nil
}

// finalizePartition produces one partition's final raw and wire buffers:
// encode the sorted in-memory segment, merge it with the partition's
// spill runs (combining), then run the block codec.
func (o *OrderedPartitionedKVOutput) finalizePartition(p int, raw, wire [][]byte, rawSizes []int64) error {
	ctr := o.ctx.Services.Counters
	seg := o.sb.partSpan(p)
	var buf []byte
	var err error
	if len(o.spills) == 0 {
		buf, err = encodeStream(&refsReader{sb: o.sb, refs: seg}, o.combine, getRunBuf(), ctr)
		if err != nil {
			return err
		}
	} else {
		runs := make([][]byte, 0, len(o.spills)+1)
		for _, sp := range o.spills {
			if len(sp[p]) > 0 {
				runs = append(runs, sp[p])
			}
		}
		var mem []byte
		if len(seg) > 0 {
			mem, err = encodeStream(&refsReader{sb: o.sb, refs: seg}, o.combine, getRunBuf(), ctr)
			if err != nil {
				return err
			}
			runs = append(runs, mem)
		}
		buf, err = mergeEncodedRuns(runs, o.combine, getRunBuf(), ctr)
		if err != nil {
			return err
		}
		for _, sp := range o.spills {
			putRunBuf(sp[p])
			sp[p] = nil
		}
		putRunBuf(mem)
	}
	raw[p] = buf
	rawSizes[p] = int64(len(buf))
	if o.codec == nil {
		wire[p] = buf
		return nil
	}
	wire[p], err = encodeBlock(o.codec, buf)
	if err != nil {
		return err
	}
	putRunBuf(raw[p])
	raw[p] = nil
	return nil
}

// kvWriterFunc adapts a function to runtime.KVWriter.
type kvWriterFunc func(k, v []byte) error

func (f kvWriterFunc) Write(k, v []byte) error { return f(k, v) }

// fetchSet is the shared consumer-side machinery of the shuffle inputs:
// it tracks expected physical inputs, accepts DataMovement events,
// fetches their data on a pool of parallel fetcher goroutines
// (overlapping with producer completion and with each other — the
// latency-hiding overlap of §3.4), honours InputFailed retractions, and
// surfaces producer data loss as a runtime.InputReadError.
//
// Two condition variables split the wakeups by audience: fetchers sleep
// on work (new movements, stash releases, shutdown), the single reader
// sleeps on done (stored runs, failure, shutdown) — storing a run no
// longer wakes every fetcher in the pool.
type fetchSet struct {
	ctx     *runtime.Context
	knobs   shuffleKnobs
	fetcher *shuffle.Fetcher // shared by all fetcher goroutines

	mu   sync.Mutex
	work *sync.Cond
	done *sync.Cond
	// expect is the latest announced producer attempt per physical input
	// index; runs only ever describe that attempt, because whatever
	// changes expect drops the index's run first.
	expect   map[int]int
	runs     map[int][]byte // physical input index -> fetched run awaiting the reader
	inflight map[int]bool   // physical input indexes currently being fetched
	// pending is a FIFO consumed through a head cursor (compacted when
	// the dead prefix dominates) — the previous re-slice-on-every-scan
	// made each wake O(queue) and the whole drain O(n²). Movements whose
	// index is in flight are parked in stash and re-queued when that
	// fetch completes, so scans never revisit them.
	pending  []event.DataMovement
	head     int
	stash    map[int][]event.DataMovement
	failure  *runtime.InputReadError
	stopped  bool
	fetchers sync.WaitGroup
	started  bool
	quit     chan struct{}

	// testHookFetched, when set, is called by a fetcher goroutine after a
	// fetch completes and before its result is stored — a deterministic
	// interleaving seam for retraction-race tests. Nil in production.
	testHookFetched func(event.DataMovement)
}

func newFetchSet(ctx *runtime.Context) *fetchSet {
	fs := &fetchSet{
		ctx:      ctx,
		fetcher:  &shuffle.Fetcher{Service: ctx.Services.Shuffle, Token: ctx.Services.Token},
		knobs:    resolveShuffleKnobs(OrderedPartitionedConfig{}, ctx.Services),
		expect:   make(map[int]int),
		runs:     make(map[int][]byte),
		inflight: make(map[int]bool),
		stash:    make(map[int][]event.DataMovement),
		quit:     make(chan struct{}),
	}
	fs.work = sync.NewCond(&fs.mu)
	fs.done = sync.NewCond(&fs.mu)
	return fs
}

// handleEvent records a DataMovement for fetching or an InputFailed
// retraction. Attempt tracking is upgrade-only: a movement from an attempt
// older than the latest announced one is dropped, and a newer attempt's
// movement discards the older attempt's run. A retraction only ever drops
// a stored run: nothing is merged before the reader asks, so no run is
// past recalling and the replacement is simply fetched.
func (f *fetchSet) handleEvent(ev event.Event) error {
	switch e := ev.(type) {
	case event.DataMovement:
		f.mu.Lock()
		idx := e.TargetInputIndex
		cur, ok := f.expect[idx]
		if ok && e.SrcAttempt < cur {
			f.mu.Unlock()
			return nil // stale announcement of a superseded attempt
		}
		if ok && e.SrcAttempt > cur {
			delete(f.runs, idx)
		}
		f.expect[idx] = e.SrcAttempt
		f.pending = append(f.pending, e)
		f.work.Signal()
		f.mu.Unlock()
	case event.InputFailed:
		f.mu.Lock()
		if at, ok := f.expect[e.TargetInputIndex]; ok && at == e.SrcAttempt {
			delete(f.expect, e.TargetInputIndex)
			delete(f.runs, e.TargetInputIndex)
		}
		f.mu.Unlock()
	}
	return nil
}

// start launches the fetcher pool. Fetches overlap with remaining
// producer executions and with each other (the latency-hiding overlap of
// §3.4; a reducer with many remote producers pays max, not sum, of the
// concurrent transfer delays).
func (f *fetchSet) start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	n := f.knobs.fetchParallelism
	f.fetchers.Add(n)
	for i := 0; i < n; i++ {
		go f.fetchLoop()
	}
	// Watch for an attempt kill so blocked waiters wake up; exits with the
	// fetch set so reused containers don't accumulate watchers.
	go func() {
		select {
		case <-f.ctx.Stop:
			f.mu.Lock()
			f.stopped = true
			f.work.Broadcast()
			f.done.Broadcast()
			f.mu.Unlock()
		case <-f.quit:
		}
	}()
}

// nextLocked pops the next fetchable movement through the head cursor:
// retracted or already-satisfied entries are dropped, and an index
// already being fetched is parked in stash so two fetchers never race on
// the same physical input (in-flight dedup) and later scans skip it.
func (f *fetchSet) nextLocked() (event.DataMovement, bool) {
	for f.head < len(f.pending) {
		dm := f.pending[f.head]
		f.head++
		if f.head >= 64 && f.head*2 >= len(f.pending) {
			n := copy(f.pending, f.pending[f.head:])
			clearTail := f.pending[n:]
			for i := range clearTail {
				clearTail[i] = event.DataMovement{}
			}
			f.pending = f.pending[:n]
			f.head = 0
		}
		idx := dm.TargetInputIndex
		if at, ok := f.expect[idx]; !ok || at != dm.SrcAttempt {
			// Retracted while queued; the replacement has (or will get)
			// its own DataMovement.
			continue
		}
		if _, ok := f.runs[idx]; ok {
			continue // duplicate announcement of a run already stored
		}
		if f.inflight[idx] {
			f.stash[idx] = append(f.stash[idx], dm)
			continue
		}
		return dm, true
	}
	return event.DataMovement{}, false
}

// fetchLoop is one fetcher goroutine. The pool stays alive until close or
// failure so that replacement movements after an InputFailed retraction
// are still fetched.
func (f *fetchSet) fetchLoop() {
	defer f.fetchers.Done()
	for {
		f.mu.Lock()
		dm, ok := f.nextLocked()
		for !ok && f.failure == nil && !f.stopped {
			f.work.Wait()
			dm, ok = f.nextLocked()
		}
		if f.failure != nil || f.stopped {
			f.mu.Unlock()
			return
		}
		idx := dm.TargetInputIndex
		f.inflight[idx] = true
		f.mu.Unlock()

		data, wireLen, err := f.fetchOne(dm)

		f.mu.Lock()
		delete(f.inflight, idx)
		if s, ok := f.stash[idx]; ok {
			delete(f.stash, idx)
			f.pending = append(f.pending, s...)
			f.work.Signal()
		}
		// Only store if this movement is still the expected attempt: an
		// InputFailed retraction may have raced with the fetch, and a
		// stale in-flight fetch must not clobber (or fail) the newer
		// attempt that replaced it.
		at, live := f.expect[idx]
		current := live && at == dm.SrcAttempt
		if _, ok := f.runs[idx]; ok {
			current = false // duplicate of an already-accounted run
		}
		switch {
		case err != nil && current:
			if f.failure == nil {
				f.failure = &runtime.InputReadError{
					InputName:  f.ctx.Name,
					SrcVertex:  dm.SrcVertex,
					SrcTask:    dm.SrcTask,
					SrcAttempt: dm.SrcAttempt,
					Err:        err,
				}
			}
			f.work.Broadcast()
			f.done.Broadcast()
		case err == nil && current:
			f.runs[idx] = data
			// Byte counters accumulate here, in the store-success branch,
			// so a stale or duplicate transfer never inflates them — they
			// stay an exact account of the runs the reader consumed
			// (SHUFFLE_INCREMENTS counts those stored runs).
			if ctr := f.ctx.Services.Counters; ctr != nil {
				ctr.Add("SHUFFLE_BYTES_WIRE", int64(wireLen))
				ctr.Add("SHUFFLE_BYTES_RAW", int64(len(data)))
				ctr.Add("SHUFFLE_INCREMENTS", 1)
			}
			f.done.Broadcast()
		}
		// A stale fetch result — success or error — is dropped: the
		// producer attempt was retracted and is being re-executed.
		f.mu.Unlock()
	}
}

// fetchOne decodes and fetches a single movement, maintaining the
// fetch-path metrics (in-flight gauge + peak, per-fetch latency, retry
// counts) and decoding the wire block codec. It returns the decoded data
// and the wire length; byte counters are charged by the caller only when
// the result is actually stored, so retracted and duplicate transfers
// don't count.
func (f *fetchSet) fetchOne(dm event.DataMovement) ([]byte, int, error) {
	var info DMInfo
	if err := plugin.Decode(dm.Payload, &info); err != nil {
		return nil, 0, err
	}
	ctr := f.ctx.Services.Counters
	if ctr != nil {
		cur := ctr.Add("SHUFFLE_FETCHES_INFLIGHT", 1)
		ctr.SetMax("SHUFFLE_FETCHES_INFLIGHT_PEAK", cur)
	}
	start := time.Now()
	data, retries, err := f.fetcher.Fetch(info.ID, info.Partition, f.ctx.Services.Node)
	if f.testHookFetched != nil {
		f.testHookFetched(dm)
	}
	wireLen := len(data)
	if err == nil && info.Codec != "" {
		data, err = decodeBlock(info.Codec, data, int(info.RawSize))
	}
	if ctr != nil {
		ctr.Add("SHUFFLE_FETCHES_INFLIGHT", -1)
		ctr.Add("SHUFFLE_FETCHES", 1)
		ctr.Add("SHUFFLE_FETCH_TIME_NS", time.Since(start).Nanoseconds())
		if retries > 0 {
			ctr.Add("SHUFFLE_FETCH_RETRIES", int64(retries))
		}
	}
	return data, wireLen, err
}

// completeLocked reports whether every physical input's run has arrived.
func (f *fetchSet) completeLocked() bool {
	if len(f.runs) < f.ctx.PhysicalCount {
		return false
	}
	for i := 0; i < f.ctx.PhysicalCount; i++ {
		if _, ok := f.runs[i]; !ok {
			return false
		}
	}
	return true
}

// flattenStoredLocked returns every stored run ordered by input index — a
// canonical order so downstream bytes don't depend on map iteration.
func (f *fetchSet) flattenStoredLocked() [][]byte {
	out := make([][]byte, 0, len(f.runs))
	for i := 0; i < f.ctx.PhysicalCount; i++ {
		if r, ok := f.runs[i]; ok {
			out = append(out, r)
		}
	}
	return out
}

// storedRun returns the fetched run for an input index — a test accessor.
func (f *fetchSet) storedRun(idx int) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.runs[idx]
	return r, ok
}

// wait blocks until every physical input is fetched, an input failed, or
// the attempt is killed. It returns the fetched runs ordered by physical
// input index.
func (f *fetchSet) wait() ([][]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.completeLocked() && f.failure == nil && !f.stopped {
		f.done.Wait()
	}
	if f.failure != nil {
		return nil, f.failure
	}
	if f.stopped && !f.completeLocked() {
		return nil, fmt.Errorf("library: input %s: attempt killed while fetching", f.ctx.Name)
	}
	return f.flattenStoredLocked(), nil
}

func (f *fetchSet) close() error {
	f.mu.Lock()
	f.stopped = true
	started := f.started
	f.work.Broadcast()
	f.done.Broadcast()
	f.mu.Unlock()
	if started {
		close(f.quit)
		f.fetchers.Wait()
	}
	return nil
}

// OrderedGroupedKVInput is the reduce-side shuffle transport: it fetches
// every expected physical input (one per producer task per owned
// partition), k-way merges all the sorted runs once, lazily, as the
// reader advances, and exposes a runtime.GroupedKVReader of keys with
// grouped values. Every run is an in-memory buffer, so the merge width
// needs no bound and no run is merged before the last one arrives. Keys
// and values are served zero-copy out of the fetched runs; they are valid
// until the next call to Next.
type OrderedGroupedKVInput struct {
	fs *fetchSet
}

// Initialize prepares the fetch machinery.
func (in *OrderedGroupedKVInput) Initialize(ctx *runtime.Context) error {
	in.fs = newFetchSet(ctx)
	return nil
}

// HandleEvent accepts DataMovement / InputFailed events.
func (in *OrderedGroupedKVInput) HandleEvent(ev event.Event) error { return in.fs.handleEvent(ev) }

// Start begins fetching as soon as movements arrive.
func (in *OrderedGroupedKVInput) Start() error { in.fs.start(); return nil }

// Reader blocks for all inputs, then returns a GroupedKVReader merging
// every fetched run.
func (in *OrderedGroupedKVInput) Reader() (any, error) {
	runs, err := in.fs.wait()
	if err != nil {
		return nil, err
	}
	return newGroupedReader(newMergeReader(runs)), nil
}

// Close stops fetchers.
func (in *OrderedGroupedKVInput) Close() error { return in.fs.close() }
